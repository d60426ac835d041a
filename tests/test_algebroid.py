"""Algebroid layer: derivation correspondence, axiom checks, bundle algebroids."""

import itertools
import json
import pathlib
import random

import pytest

from fncalc.algebroid import (
    AlgebroidError,
    AxiomReport,
    BundleAlgebroid,
    BundleAxiomReport,
    CohomologyReport,
    LinearConnection,
    SingularAnchorError,
    TangentAlgebroid,
    _frame_bundle,
    bundle_de_rham,
    check_axioms,
    check_bundle_axioms,
    check_cohomology,
    delta_torsion,
    derivation_from_algebroid,
    invertible_algebroid,
    nabla_K,
    verify_connection_decomposition,
    verify_trivial_isomorphism,
)
from fncalc.calculus import (
    CalculusError,
    Chart,
    ChartMismatchError,
    KForm,
    VectorField,
    VectorValuedForm,
    complexify_vvf,
    contracted_bracket,
    fn_bracket,
    lie_bracket,
    lie_derivative,
    nijenhuis_torsion,
    rn_bracket,
)
from fncalc.cli import _RECIPES, _lookup, load_manifest
from fncalc.linalg import inverse
from fncalc.randgen import random_scalar, random_vector_field
from fncalc.structures import (
    StructureError,
    d_components,
    idempotent_algebroid,
    semispray,
    tangent_chart,
    tangent_data_for_chart,
)

from helpers import (
    endo,
    flat_connection,
    random_kform,
    random_quotient,
    random_vvf,
    symmetric_connection_cross_check,
)

MANIFESTS = pathlib.Path(__file__).resolve().parent.parent / "manifests"


def n0_algebroid() -> TangentAlgebroid:
    N = endo("N0")
    return TangentAlgebroid(N, -nijenhuis_torsion(N))


class TestIdempotentFixture:
    def test_bracket_of_kernel_fields_vanishes(self):
        alg = n0_algebroid()
        ch = alg.chart
        assert alg.bracket(ch.basis_vector(2), ch.basis_vector(3)).is_zero

    def test_axioms_pass(self):
        report = check_axioms(n0_algebroid())
        assert report.passed
        groups = (report.jacobi, report.leibniz, report.anchor_morphism)
        assert [label for group in groups for label, r in group if not r.is_zero] == []

    def test_axioms_fail_without_correction(self):
        N = endo("N0")
        ch = N.chart
        bad = TangentAlgebroid(N, VectorValuedForm.zero(ch, 2))
        report = check_axioms(bad)
        assert not report.passed
        # the anchor-morphism residual on the kernel pair is exactly the torsion
        failures = dict(report.anchor_morphism)
        assert failures["(e3,e4)"] == -ch.basis_vector(0)

    def test_derivation_round_trip(self):
        alg = n0_algebroid()
        assert derivation_from_algebroid(alg) == alg

    def test_cohomology_pass_and_fail(self):
        alg = n0_algebroid()
        good = check_cohomology(alg)
        assert good.passed
        ch = alg.chart
        bad = check_cohomology(TangentAlgebroid(alg.anchor, VectorValuedForm.zero(ch, 2)))
        assert not bad.passed
        assert bad.condition1(ch.basis_vector(2), ch.basis_vector(3)) == ch.basis_vector(0)


def fixture_algebroids() -> list[tuple[str, TangentAlgebroid]]:
    """The algebroids the fixture manifests declare, by manifest and name."""
    return [
        (f"{path.stem}:{name}", alg)
        for path in sorted(MANIFESTS.glob("*.json"))
        for name, alg in load_manifest(str(path)).algebroids.items()
    ]


def recipe_algebroids() -> list[tuple[str, TangentAlgebroid]]:
    """Every algebroid a fixture check builds, and the foliation d-pieces."""
    built = []
    for path in sorted(MANIFESTS.glob("*.json")):
        manifest = load_manifest(str(path))
        for d in manifest.checks:
            if d["kind"] in _RECIPES:
                key, construct = _RECIPES[d["kind"]]
                try:
                    alg, _ = construct(_lookup(manifest, key, d[key]))
                    built.append((d["name"], alg))
                except StructureError:  # negative_error's rejected inputs
                    continue
            elif d["kind"] == "foliation":
                for piece in d_components(manifest.endomorphisms[d["endo"]]):
                    built.append((d["name"], piece))
    return built


def seeded_pairs(dim: int, is_complex: bool, count: int = 3):
    """``count`` seeded random (K, L) on a real or complexified chart."""
    chart = Chart(("x", "y", "z", "w")[:dim], is_complex)
    rng = random.Random(100 * dim + is_complex)
    return [(random_vvf(chart, 1, rng), random_vvf(chart, 2, rng)) for _ in range(count)]


def seeded_charts(test):
    """Parametrize ``test`` over real and complexified charts of dimension 2 and 3."""
    test = pytest.mark.parametrize(
        "is_complex", [False, True], ids=["real", "complex"]
    )(test)
    return pytest.mark.parametrize("dim", [2, 3])(test)


class TestConditionOneTorsionRoute:
    """(1/2)[K,K]_FN + i_L K = T_K + K∘L: condition 1 as ``check_cohomology``
    computes it agrees with the torsion route, for every (K, L)."""

    @staticmethod
    def assert_routes_agree(K: VectorValuedForm, L: VectorValuedForm) -> None:
        cond1 = check_cohomology(TangentAlgebroid(K, L)).condition1
        assert cond1 == nijenhuis_torsion(K) + K.compose(L)

    def test_fixture_algebroids(self):
        algebroids = fixture_algebroids()
        for _, alg in algebroids:
            self.assert_routes_agree(alg.anchor, alg.correction)
        assert len(algebroids) == 5

    def test_recipe_algebroids(self):
        built = recipe_algebroids()
        for _, alg in built:
            self.assert_routes_agree(alg.anchor, alg.correction)
        assert sorted(name for name, _ in built) == [
            "complex-J0",
            "complex-J1",
            *["foliation-gamma"] * 3,
            "idempotent-N",
            "idempotent-gamma",
            "product-P0",
            "product-P1",
            "tangent-S0",
            "tangent-S1",
        ]

    @seeded_charts
    def test_seeded_random_pairs(self, dim, is_complex):
        for K, L in seeded_pairs(dim, is_complex):
            self.assert_routes_agree(K, L)


class TestDerivationSquare:
    """The paper's central identity: for D = L_K + i_L, D^2 = L_{K'} + i_{L'}
    with K' and L' the two conditions ``check_cohomology`` reports."""

    @seeded_charts
    def test_square_on_generators(self, dim, is_complex):
        """D^2 x^j = K'^j and D^2 dx^j = L_{K'} dx^j + L'^j, with D applied twice."""
        for K, L in seeded_pairs(dim, is_complex):
            D = TangentAlgebroid(K, L)
            report = check_cohomology(D)
            assert not report.passed  # a random pair is not an algebroid
            chart, cond1, cond2 = D.chart, report.condition1, report.condition2
            for j in range(dim):
                x = KForm.function(chart, chart.coordinate(j))
                assert D(D(x)) == cond1.components[j]
                dx = chart.dx(j)
                assert D(D(dx)) == lie_derivative(cond1, dx) + cond2.components[j]

    @seeded_charts
    def test_frame_bundle_de_rham_is_d(self, dim, is_complex):
        """A rank-dim fiber form is a coordinate form, so the structure-function
        route ``bundle_de_rham`` and the L_K + i_L route act on the same forms."""
        rng = random.Random(200 + 10 * dim + is_complex)
        for K, L in seeded_pairs(dim, is_complex):
            D = TangentAlgebroid(K, L)
            frame = _frame_bundle(D)
            for p in range(dim + 1):
                omega = random_kform(D.chart, p, rng)
                assert bundle_de_rham(frame, omega) == D(omega), p


def direct_probes(chart: Chart, probe_degree: int, seed: int, n_random_fields: int):
    """The probe fields as ``check_axioms`` draws them, then a scalar f for the
    Leibniz residual from the same rng."""
    rng = random.Random(seed)
    probes = [(f"e{j + 1}", e) for j, e in enumerate(chart.basis_vectors())]
    for t in range(n_random_fields):
        probes.append((f"r{t + 1}", random_vector_field(chart, rng, probe_degree)))
    f = random_scalar(chart, rng, probe_degree)
    return probes, f


def direct_leibniz(alg: TangentAlgebroid, probes, f):
    """[[X,fY]] - f[[X,Y]] - (KX)(f)Y at each probe pair."""
    return [
        (
            f"({la},{lb})",
            alg.bracket(X, Y.scaled(f))
            - alg.bracket(X, Y).scaled(f)
            - Y.scaled(alg.anchor.apply(X)(f)),
        )
        for (la, X), (lb, Y) in itertools.combinations(probes, 2)
    ]


def jacobiator(alg: TangentAlgebroid, X, Y, Z):
    """[[X,[[Y,Z]]]] + [[Y,[[Z,X]]]] + [[Z,[[X,Y]]]], by brackets alone."""
    return (
        alg.bracket(X, alg.bracket(Y, Z))
        + alg.bracket(Y, alg.bracket(Z, X))
        + alg.bracket(Z, alg.bracket(X, Y))
    )


def anchor_residual(alg: TangentAlgebroid, X, Y):
    """K[[X,Y]] - [KX,KY], by brackets alone."""
    K = alg.anchor
    return K.apply(alg.bracket(X, Y)) - lie_bracket(K.apply(X), K.apply(Y))


def direct_axioms(alg: TangentAlgebroid, probe_degree: int = 2, seed: int = 0) -> AxiomReport:
    """The axiom residuals with every probe bracketed: the reference for
    ``check_axioms``, which gets them from frame values."""
    probes, f = direct_probes(alg.chart, probe_degree, seed, 2)
    jacobi = [
        (f"({la},{lb},{lc})", jacobiator(alg, X, Y, Z))
        for (la, X), (lb, Y), (lc, Z) in itertools.combinations(probes, 3)
    ]
    anchor = [
        (f"({la},{lb})", anchor_residual(alg, X, Y))
        for (la, X), (lb, Y) in itertools.combinations(probes, 2)
    ]
    leibniz = direct_leibniz(alg, probes, f)
    return AxiomReport(tuple(jacobi), tuple(leibniz), tuple(anchor))


def bundle_of_lie_algebras(dim: int, is_complex: bool) -> TangentAlgebroid:
    """Zero anchor and a seeded random L: A = 0, but Jacobi fails on the frame."""
    chart = Chart(("x", "y", "z", "w")[:dim], is_complex)
    L = random_vvf(chart, 2, random.Random(7 * dim + is_complex), degree=1)
    return TangentAlgebroid(VectorValuedForm.zero(chart, 1), L)


class TestFrameStructure:
    """``_frame_bundle`` reads c_ab off dK - L; every entry of its table is the
    algebroid bracket [[e_a, e_b]] = [e_a, e_b]_K - L(e_a, e_b), which
    ``TangentAlgebroid.bracket`` forms from Lie brackets."""

    @staticmethod
    def assert_frame_brackets(alg: TangentAlgebroid) -> None:
        basis = alg.chart.basis_vectors()
        table = _frame_bundle(alg).structure
        for a, b in itertools.product(range(alg.chart.dim), repeat=2):
            assert table[a][b] == alg.bracket(basis[a], basis[b]).components, (a, b)

    @pytest.mark.parametrize(
        "dim, is_complex, rational",
        [(2, False, False), (3, False, False), (4, False, False), (2, False, True),
         (3, False, True), (2, True, False), (3, True, False), (2, True, True), (3, True, True)],
        ids=["real-2", "real-3", "real-4", "rational-2", "rational-3", "complex-2",
             "complex-3", "complex-rational-2", "complex-rational-3"],
    )
    def test_seeded_pairs(self, dim, is_complex, rational):
        """A random (K, L), which fails, and the invertible algebroid of a
        unitriangular anchor, whose inverse has no new denominator, which passes."""
        chart = Chart(("x", "y", "z", "w")[:dim], is_complex)
        rng = random.Random(300 + 10 * dim + 2 * is_complex + rational)
        failing = TangentAlgebroid(
            random_vvf(chart, 1, rng, degree=1, rational=rational),
            random_vvf(chart, 2, rng, degree=1, rational=rational),
        )
        draw = random_quotient if rational else random_scalar
        unitriangular = [
            [chart.one if i == j else draw(chart, rng, 1) if i < j else chart.zero for j in range(dim)]
            for i in range(dim)
        ]
        passing = invertible_algebroid(VectorValuedForm.from_matrix(chart, unitriangular))
        assert not check_cohomology(failing).passed
        assert check_cohomology(passing).passed
        for alg in (failing, passing):
            self.assert_frame_brackets(alg)

    def test_manifest_algebroids(self):
        """Every algebroid the fixture manifests declare or build."""
        built = fixture_algebroids() + recipe_algebroids()
        for _, alg in built:
            self.assert_frame_brackets(alg)
        assert len(built) == 16


class TestAxiomsOnTheFrame:
    """``check_axioms`` decides on the coordinate frame: Leibniz holds for every
    (K, L), the anchor residual is a tensor, and so is the Jacobiator once the
    anchor residual vanishes."""

    @staticmethod
    def all_algebroids():
        algebroids = [alg for _, alg in fixture_algebroids() + recipe_algebroids()]
        for dim, is_complex in itertools.product((2, 3), (False, True)):
            algebroids += [TangentAlgebroid(K, L) for K, L in seeded_pairs(dim, is_complex)]
        return algebroids

    def test_leibniz_residual_vanishes(self):
        """Computed directly, so drift in ``contracted_bracket`` is caught."""
        for seed, alg in enumerate(self.all_algebroids()):
            probes, f = direct_probes(alg.chart, 1, seed, 2)
            for label, residual in direct_leibniz(alg, probes, f):
                assert residual.is_zero, label

    def test_frame_anchor_records_are_minus_condition_one(self):
        for alg in self.all_algebroids():
            K, L = alg.anchor, alg.correction
            condition1 = nijenhuis_torsion(K) + K.compose(L)
            records = dict(check_axioms(alg, probe_degree=0).anchor_morphism)
            basis = alg.chart.basis_vectors()
            for a, b in itertools.combinations(range(alg.chart.dim), 2):
                expected = -condition1(basis[a], basis[b])
                assert records[f"(e{a + 1},e{b + 1})"] == expected

    def test_verdict_equals_cohomology_verdict(self):
        algebroids = self.all_algebroids() + [
            bundle_of_lie_algebras(3, is_complex) for is_complex in (False, True)
        ]
        verdicts = []
        for alg in algebroids:
            cohomology = check_cohomology(alg)
            verdict = check_axioms(alg, probe_degree=0).passed
            assert verdict == cohomology.passed
            verdicts.append(verdict)
        # f2's A and D2, f6's A, and every recipe algebroid but the d_{1,0}
        # piece of foliation-gamma, which is not square-zero
        assert verdicts.count(True) == 13

    def test_negative_fail_records_equal_direct_evaluation(self):
        manifest = load_manifest(str(MANIFESTS / "negative_fail.json"))
        alg = manifest.algebroids["Abad"]
        for probe_degree in (0, manifest.probe_degree, 3):
            for seed in (manifest.seed, 7):
                report = check_axioms(alg, probe_degree, seed)
                assert not report.passed
                assert report == direct_axioms(alg, probe_degree, seed)

    @pytest.mark.parametrize(
        "dim, is_complex",
        [(2, False), (2, True), (3, False), (3, True), (4, False)],
        ids=["real-2", "complex-2", "real-3", "complex-3", "real-4"],
    )
    def test_failing_records_equal_direct_evaluation(self, dim, is_complex):
        """At rank 4 each frame pair meets two frame triples, so the Jacobi
        records use the structure functions of overlapping pairs."""
        (K, L), *_ = seeded_pairs(dim, is_complex, count=1)
        cases = [TangentAlgebroid(K, L), bundle_of_lie_algebras(dim, is_complex)]
        for alg in cases:
            for probe_degree in (0, 1, 2):
                report = check_axioms(alg, probe_degree, seed=dim)
                assert report == direct_axioms(alg, probe_degree, seed=dim)
        assert not check_axioms(cases[0], probe_degree=0).passed
        # a bundle of Lie algebras of rank 3 or 4 fails Jacobi on the frame alone
        assert check_axioms(cases[1], probe_degree=0).passed == (dim == 2)

    @seeded_charts
    def test_jacobiator_expansion_identities(self, dim, is_complex):
        """Jac(X,Y,fZ) = f·Jac(X,Y,Z) - A(X,Y)(f)·Z and Jac is alternating,
        computed by brackets alone: ``check_axioms`` expands its Jacobi
        records in the frame with these two identities."""
        rng = random.Random(10 * dim + is_complex)
        cases = [TangentAlgebroid(K, L) for K, L in seeded_pairs(dim, is_complex)]
        cases.append(bundle_of_lie_algebras(dim, is_complex))
        drifts = []
        for alg in cases:
            chart = alg.chart
            X, Y, Z = (random_vector_field(chart, rng, 1) for _ in range(3))
            f = random_scalar(chart, rng, 1)
            jac = jacobiator(alg, X, Y, Z)
            drift = Z.scaled(anchor_residual(alg, X, Y)(f))
            assert (jacobiator(alg, X, Y, Z.scaled(f)) - jac.scaled(f) + drift).is_zero
            assert jacobiator(alg, X, Z, Y) == -jac
            assert jacobiator(alg, Y, X, Z) == -jac
            drifts.append(drift)
        # the seeded pairs fail, so the anchor term is exercised; the bundle
        # of Lie algebras has a zero anchor
        assert any(not drift.is_zero for drift in drifts[:-1])
        assert drifts[-1].is_zero

    def test_isomorphism_records_equal_direct_evaluation(self):
        def direct(alg, seed, probe_degree):
            chart = alg.chart
            phi = VectorValuedForm.from_matrix(chart, inverse(alg.anchor.matrix(), chart))
            probes, _ = direct_probes(chart, probe_degree, seed, 1)
            return [
                (
                    f"({la},{lb})",
                    phi.apply(lie_bracket(X, Y)) - alg.bracket(phi.apply(X), phi.apply(Y)),
                )
                for (la, X), (lb, Y) in itertools.combinations(probes, 2)
            ]

        K = endo("J2")
        good = invertible_algebroid(K)
        bad = TangentAlgebroid(K, VectorValuedForm.zero(K.chart, 2))
        for alg in (good, bad):
            for seed in (0, 7):
                assert verify_trivial_isomorphism(alg, seed, 2) == direct(alg, seed, 2)
        assert any(not r.is_zero for _, r in verify_trivial_isomorphism(bad))


class TestInvertibleAnchor:
    def test_square_zero_biconditional(self):
        """(K, 0) fails exactly by the torsion; (K, -K^{-1}T_K) passes."""
        K = endo("J2")
        ch = K.chart
        bad = check_cohomology(TangentAlgebroid(K, VectorValuedForm.zero(ch, 2)))
        assert not bad.passed
        assert bad.condition1 == nijenhuis_torsion(K)
        alg = invertible_algebroid(K)
        good = check_cohomology(alg)
        assert good.passed

    def test_bracket_is_conjugated_lie_bracket(self):
        K = endo("J2")
        ch = K.chart
        alg = invertible_algebroid(K)
        kinv = VectorValuedForm.from_matrix(ch, inverse(K.matrix(), ch))
        for a, b in itertools.combinations(range(ch.dim), 2):
            X, Y = ch.basis_vector(a), ch.basis_vector(b)
            expected = kinv.apply(lie_bracket(K.apply(X), K.apply(Y)))
            assert alg.bracket(X, Y) == expected

    def test_trivial_isomorphism(self):
        alg = invertible_algebroid(endo("J2"))
        assert all(r.is_zero for _, r in verify_trivial_isomorphism(alg))

    def test_axioms(self):
        assert check_axioms(invertible_algebroid(endo("J2"))).passed

    def test_integrable_complex_structures_need_no_correction(self):
        """Both directions: zero torsion <=> (K, 0) is square-zero."""
        for K in (endo("J0"), endo("J1")):
            ch = K.chart
            report = check_cohomology(TangentAlgebroid(K, VectorValuedForm.zero(ch, 2)))
            assert report.passed

    def test_singular_anchor_rejected(self):
        with pytest.raises(SingularAnchorError):
            invertible_algebroid(endo("N0"))


def _constant_bundle() -> BundleAlgebroid:
    """Rank 2 over the plane: q(s1) = d/dx, q(s2) = x d/dx, [[s1,s2]] = s1."""
    ch = Chart(("x", "y"))
    anchor = [
        [ch.one, ch.zero],
        [ch.scalar("x"), ch.zero],
    ]
    structure = {(0, 1): [ch.one, ch.zero]}
    return BundleAlgebroid(ch, 2, anchor, structure)


def _jacobi_violating_bundle(rng: random.Random) -> BundleAlgebroid:
    """Rank 3, zero anchor, randomized constant structure breaking Jacobi."""
    ch = Chart(("x", "y"))
    zero_row = [ch.zero, ch.zero]
    while True:
        structure = {}
        for key in ((0, 1), (0, 2), (1, 2)):
            structure[key] = [
                ch.const(rng.randint(-2, 2)) for _ in range(3)
            ]
        balg = BundleAlgebroid(ch, 3, [zero_row] * 3, structure)
        report = check_bundle_axioms(balg)
        if any(not r.is_zero for _, r in report.jacobi):
            return balg


def seeded_bundle(rank: int, is_complex: bool) -> BundleAlgebroid:
    """Random affine anchors and structure functions: a failing bundle."""
    chart = Chart(("x", "y"), is_complex)
    rng = random.Random(10 * rank + is_complex)
    anchor = [[random_scalar(chart, rng, 1) for _ in range(chart.dim)] for _ in range(rank)]
    structure = {
        pair: [random_scalar(chart, rng, 1) for _ in range(rank)]
        for pair in itertools.combinations(range(rank), 2)
    }
    return BundleAlgebroid(chart, rank, anchor, structure)


class TestBundleAlgebroid:
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("rank", [2, 3])
    def test_d_squared_is_minus_the_structure_residuals(self, rank, is_complex):
        """D^2 x^i(s_a, s_b) = -A^i(s_a, s_b) and D^2 η^c = -Jac^c: the operator
        route of ``bundle_de_rham`` against the structure equations."""
        balg = seeded_bundle(rank, is_complex)
        report = check_bundle_axioms(balg)
        zero = balg.chart.zero
        anchor = dict(report.anchor_morphism)
        jacobi = dict(report.jacobi)
        assert not report.passed and anchor
        for i, (_, d2) in enumerate(report.d2_on_coordinates):
            assert d2.degree == 2 and d2.generators == rank
            for a, b in itertools.combinations(range(rank), 2):
                residual = anchor[f"(s{a + 1},s{b + 1})"].components[i]
                assert d2.coeffs.get((a, b), zero) == -residual
        for c, (_, d2) in enumerate(report.d2_on_covectors):
            assert d2.degree == 3
            for a, b, e in itertools.combinations(range(rank), 3):
                residual = jacobi[f"(s{a + 1},s{b + 1},s{e + 1})->s{c + 1}"]
                assert d2.coeffs.get((a, b, e), zero) == -residual
        assert len(jacobi) == rank * (rank == 3)
        assert any(not r.is_zero for r in jacobi.values()) == (rank == 3)

    def test_constant_structure_passes(self):
        report = check_bundle_axioms(_constant_bundle())
        assert report.passed

    def test_flat_connection_torsion_is_minus_structure(self):
        balg = _constant_bundle()
        conn = flat_connection(balg.chart, balg.rank)
        torsion = delta_torsion(conn, balg)
        # L(s_a, s_b) = -[[s_a, s_b]] when the covariant terms vanish
        assert torsion[(0, 1)][0] == -balg.chart.one

    def test_decomposition_for_random_connections(self):
        balg = _constant_bundle()
        ch = balg.chart
        rng = random.Random(0)
        for trial in range(3):
            gamma = tuple(
                tuple(
                    tuple(random_scalar(ch, rng, 1) for _ in range(balg.rank))
                    for _ in range(balg.rank)
                )
                for _ in range(ch.dim)
            )
            conn = LinearConnection(ch, balg.rank, gamma)
            residuals = verify_connection_decomposition(conn, balg)
            assert all(r.is_zero for _, r in residuals), f"trial {trial}"

    def test_jacobi_violation_detected(self):
        balg = _jacobi_violating_bundle(random.Random(3))
        report = check_bundle_axioms(balg)
        assert not report.passed
        assert any(not r.is_zero for _, r in report.jacobi)
        # the operator route must detect the same failure: D^2 eta != 0
        assert any(not r.is_zero for _, r in report.d2_on_covectors)

    def test_rank2_jacobi_trivial(self):
        """Rank-2 Jacobi is an empty conjunction; violations need rank >= 3."""
        report = check_bundle_axioms(_constant_bundle())
        assert report.jacobi == ()


class TestBundleAlgebroidIsAValue:
    """A bundle algebroid compares and hashes by its fields, and stores its
    structure functions as one antisymmetric table."""

    @staticmethod
    def load_bundle(tmp_path, name, structure):
        doc = {
            "chart": {"coords": ["x", "y"]},
            "bundle_algebroids": {
                "B": {"rank": 2, "anchor": [["1", "0"], ["x", "0"]], "structure": structure}
            },
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return load_manifest(str(path)).bundle_algebroids["B"]

    def test_two_spellings_load_to_one_value(self, tmp_path):
        """c[2,1,1] = -1 is c[1,2,1] = 1, and an explicit zero is no entry."""
        first = self.load_bundle(tmp_path, "a.json", {"c[2,1,1]": "-1"})
        second = self.load_bundle(tmp_path, "b.json", {"c[1,2,1]": "1", "c[1,2,2]": "0"})
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != self.load_bundle(tmp_path, "c.json", {"c[1,2,2]": "1"})

    def test_structure_table_is_antisymmetric(self, tmp_path):
        loaded = self.load_bundle(tmp_path, "m.json", {"c[1,2,1]": "x", "c[2,1,2]": "1"})
        for balg in (loaded, _frame_bundle(n0_algebroid()), seeded_bundle(3, False)):
            rank, zero = balg.rank, balg.chart.zero
            assert len(balg.structure) == rank
            for a, b in itertools.product(range(rank), repeat=2):
                assert len(balg.structure[a][b]) == rank
                assert balg.structure[b][a] == tuple(-c for c in balg.structure[a][b])
            assert all(balg.structure[a][a] == (zero,) * rank for a in range(rank))
        assert [str(c) for c in loaded.structure[0][1]] == ["x", "-1"]

    def test_frame_bundles_of_equal_algebroids_are_equal(self):
        first, second = _frame_bundle(n0_algebroid()), _frame_bundle(n0_algebroid())
        assert first is not second
        assert first == second and hash(first) == hash(second)

    def test_repr_names_the_fields(self):
        assert repr(_constant_bundle()).startswith("BundleAlgebroid(chart=Chart(")


def random_symmetric_connection(chart: Chart, rng: random.Random) -> LinearConnection:
    """Seeded affine Christoffel symbols with Γ_{ij}^k = Γ_{ji}^k, on TM."""
    n = chart.dim
    gamma = [[()] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        gamma[i][j] = gamma[j][i] = tuple(random_scalar(chart, rng, 1) for _ in range(n))
    return LinearConnection(chart, n, tuple(tuple(block) for block in gamma))


class TestSymmetricCrossCheck:
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_passes_for_random_symmetric_connections(self, dim, is_complex):
        """The identity holds for every (K, L) once ∇ is symmetric, so the
        Christoffel terms of ``delta_torsion`` are checked against those of ∇q
        on connections that are not flat."""
        algebroids = [TangentAlgebroid(K, L) for K, L in seeded_pairs(dim, is_complex, 2)]
        if dim == 4:
            K = complexify_vvf(endo("J2")) if is_complex else endo("J2")
            algebroids.append(invertible_algebroid(K))
        rng = random.Random(40 + 2 * dim + is_complex)
        for alg in algebroids:
            conn = random_symmetric_connection(alg.chart, rng)
            residuals = symmetric_connection_cross_check(conn, alg)
            assert len(residuals) == dim * (dim - 1) // 2
            assert [label for label, r in residuals if not r.is_zero] == []

    def test_applicable_and_passes_for_symmetric_connection(self):
        alg = invertible_algebroid(endo("J2"))
        conn = flat_connection(alg.chart, alg.chart.dim)
        residuals = symmetric_connection_cross_check(conn, alg)
        assert all(r.is_zero for _, r in residuals)


def test_tangent_algebroid_is_a_value():
    """Two pairs with equal (K, L) are equal and hash alike; the degrees and
    the chart are checked on construction."""
    a = n0_algebroid()
    b = TangentAlgebroid(a.anchor.scaled(a.chart.one), -(-a.correction))
    assert a.anchor is not b.anchor and a.correction is not b.correction
    assert a == b and not a != b and hash(a) == hash(b)
    assert TangentAlgebroid(anchor=a.anchor, correction=a.correction) == a
    zero = VectorValuedForm.zero(a.chart, 2)
    assert a != TangentAlgebroid(a.anchor, zero) and a != (a.anchor, a.correction)
    assert len({a, b, TangentAlgebroid(a.anchor, zero)}) == 2
    with pytest.raises(AlgebroidError, match=r"^algebroid data must have degrees \(1, 2\)$"):
        TangentAlgebroid(a.correction, a.anchor)
    with pytest.raises(ChartMismatchError, match="^anchor and correction on different charts$"):
        TangentAlgebroid(a.anchor, VectorValuedForm.zero(a.chart.complexify(), 2))


@pytest.mark.parametrize("report_type", [AxiomReport, BundleAxiomReport, CohomologyReport])
def test_report_is_built_from_one_value_per_field(report_type):
    """A report takes its fields' values in order, positionally only, and is
    equal to, and hashes like, a report of equal values."""
    values = tuple(f"{field}-value" for field in report_type._fields)
    report = report_type(*values)
    assert tuple(getattr(report, field) for field in report_type._fields) == values
    assert report == report_type(*values) and hash(report) == hash(report_type(*values))
    n = len(values)
    for wrong in (values[:-1], values + ("extra",)):
        with pytest.raises(TypeError, match=f"^{report_type.__name__} takes {n} values, not"):
            report_type(*wrong)
    with pytest.raises(TypeError):
        report_type(**dict(zip(report_type._fields, values)))


@pytest.mark.parametrize("report_type", [AxiomReport, BundleAxiomReport])
def test_report_passes_when_every_residual_is_zero(report_type):
    chart = Chart(("x", "y"))
    zero, e1 = VectorField.zero(chart), chart.basis_vector(0)
    groups = [(("a", zero), ("b", zero))] * len(report_type._fields)
    assert report_type(*groups).passed
    for k in range(len(groups)):
        failing = list(groups)
        failing[k] = (("a", zero), ("b", e1))
        assert not report_type(*failing).passed


_CH = Chart(("x", "y"))
_ZERO, _ONE = _CH.zero, _CH.one
_Z2 = VectorValuedForm.zero(_CH, 2)
_X = _CH.basis_vector(0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BundleAlgebroid(_CH, 0, [], {}), AlgebroidError, "rank must be positive"),
        (
            lambda: BundleAlgebroid(_CH, 1, [[_ONE]], {}),
            AlgebroidError,
            "anchor must be an r x dim matrix",
        ),
        (
            lambda: BundleAlgebroid(_CH, 2, [[_ONE, _ZERO]] * 2, {(0, 1): [_ONE]}),
            AlgebroidError,
            "structure entries need one component per rank",
        ),
        (
            lambda: BundleAlgebroid(_CH, 2, [[_ONE, _ZERO]] * 2, {(1, 0): [_ONE, _ZERO]}),
            AlgebroidError,
            "structure key (1,0) must satisfy a < b",
        ),
        (
            lambda: BundleAlgebroid(_CH, 1, [[_ONE, _ONE.complexified()]], {}),
            ChartMismatchError,
            "coefficient on CoordinateRing('x', 'y') over Z[i], not on the chart's "
            "CoordinateRing('x', 'y') over Z",
        ),
        (
            lambda: BundleAlgebroid(
                _CH, 2, [[_ONE, _ZERO]] * 2, {(0, 1): [_ZERO, _ONE.complexified()]}
            ),
            ChartMismatchError,
            "coefficient on CoordinateRing('x', 'y') over Z[i], not on the chart's "
            "CoordinateRing('x', 'y') over Z",
        ),
        (lambda: LinearConnection(_CH, 1, ()), AlgebroidError, "Christoffel symbol shape mismatch"),
        (
            lambda: nabla_K(
                LinearConnection(_CH, 2, (((_ZERO,) * 2,) * 2,) * 2),
                [[_ONE, _ZERO]] * 2,
                KForm(_CH, 2, {}, 2),
            ),
            AlgebroidError,
            "nabla_K expects a fiber 1-form",
        ),
        (
            lambda: bundle_de_rham(BundleAlgebroid(_CH, 1, [[_ONE, _ZERO]], {}), _CH.dx(0)),
            AlgebroidError,
            "form does not match the bundle algebroid",
        ),
        (lambda: KForm(_CH, -1), CalculusError, "negative form degree"),
        (lambda: _CH.dx(0)(), CalculusError, "degree-1 form evaluated on 0 fields"),
        (
            lambda: KForm(_CH, 2, {(1, 0): _ONE}),
            CalculusError,
            "bad multi-index (1, 0) for degree 2",
        ),
        (
            lambda: VectorField(_CH, [_ONE]),
            CalculusError,
            "1 components on a chart of dimension 2",
        ),
        (
            lambda: VectorValuedForm(_CH, 1, [_CH.dx(0)]),
            CalculusError,
            "one component form per target coordinate required",
        ),
        (
            lambda: VectorValuedForm(_CH, 1, [_CH.dx(0), KForm(_CH, 0)]),
            CalculusError,
            "component forms must share chart and degree",
        ),
        (
            lambda: VectorValuedForm.from_matrix(_CH, [[_ONE]]),
            CalculusError,
            "matrix shape must equal the chart dimension",
        ),
        (
            lambda: VectorValuedForm.identity(_CH) + _Z2,
            CalculusError,
            "adding vector-valued forms of different degrees",
        ),
        (lambda: _Z2.matrix(), CalculusError, "only a degree-1 form has a matrix"),
        (lambda: _Z2.apply(_X), CalculusError, "apply() requires a degree-1 form"),
        (
            lambda: _Z2.compose(VectorValuedForm.identity(_CH)),
            CalculusError,
            "compose() requires a degree-1 left factor",
        ),
        (lambda: nijenhuis_torsion(_Z2), CalculusError, "torsion is defined for degree-1 forms"),
        (
            lambda: contracted_bracket(_Z2, _X, _X),
            CalculusError,
            "the contracted bracket needs a degree-1 form",
        ),
        (
            lambda: fn_bracket(_Z2, complexify_vvf(_Z2)),
            ChartMismatchError,
            "chart mismatch: Chart(coord_names=('x', 'y'), is_complexified=False) vs "
            "Chart(coord_names=('x', 'y'), is_complexified=True)",
        ),
        (
            lambda: rn_bracket(VectorValuedForm.identity(Chart(("x", "y", "z"))), _Z2),
            ChartMismatchError,
            "chart mismatch: Chart(coord_names=('x', 'y', 'z'), is_complexified=False) vs "
            "Chart(coord_names=('x', 'y'), is_complexified=False)",
        ),
        (
            lambda: rn_bracket(VectorValuedForm.from_vector_field(_X), VectorValuedForm.zero(_CH, 0)),
            CalculusError,
            "component forms must share chart and degree",
        ),
        (
            lambda: idempotent_algebroid(_Z2),
            StructureError,
            "expected a degree-1 endomorphism field",
        ),
        (lambda: tangent_chart(0), StructureError, "n must be positive"),
        (
            lambda: tangent_data_for_chart(Chart(("x", "y", "z"))),
            StructureError,
            "a tangent chart needs an even, positive dimension",
        ),
        (
            lambda: semispray(tangent_chart(1), []),
            StructureError,
            "one force component per base coordinate required",
        ),
    ],
    ids=[
        "bundle-rank", "bundle-anchor-shape", "bundle-structure-count", "bundle-structure-order",
        "bundle-anchor-ring", "bundle-structure-ring",
        "connection-shape", "nabla_K-degree", "bundle_de_rham-form", "kform-degree",
        "kform-eval-count", "kform-multi-index", "field-count", "vvf-count", "vvf-degrees",
        "from_matrix-shape", "vvf-add-degrees", "matrix", "apply", "compose", "torsion",
        "contracted_bracket", "fn_bracket-charts", "rn_bracket-charts", "rn_bracket-fields",
        "idempotent-degree", "tangent_chart-n", "tangent-chart-odd",
        "semispray-force-count",
    ],
)
def test_constructor_validation_errors(build, error, message):
    """Each public constructor and degree-1 operation refuses malformed input
    with its own error class and message."""
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message
