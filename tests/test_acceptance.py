"""Acceptance suite: ten exact, oracle-backed criteria, one line each.

Run with ``pytest -v`` (one pass/fail line per criterion) or ``pytest -s``
(explicit PASS lines). All comparisons are structural equality of canonical
forms: the tolerance is exactly zero.
"""

import itertools
import json
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from fncalc.algebroid import (
    BundleAlgebroid,
    LinearConnection,
    TangentAlgebroid,
    check_axioms,
    check_bundle_axioms,
    check_cohomology,
    verify_connection_decomposition,
    verify_trivial_isomorphism,
)
from fncalc.calculus import (
    Chart,
    VectorValuedForm,
    complexify_vvf,
    exterior_d,
    fn_bracket,
    lie_bracket,
    nijenhuis_torsion,
    rn_bracket,
)
from fncalc.linalg import inverse
from fncalc.structures import (
    TorsionNotZeroError,
    bigrade,
    complex_algebroid,
    complex_projectors,
    connection_algebroid,
    connection_from_semispray,
    d_components,
    foliation_connection,
    idempotent_algebroid,
    product_algebroid,
    semispray,
    tangent_chart,
)

from helpers import (
    bracket_full_form,
    contracted_bracket,
    endo,
    product_bracket_form,
    random_kform,
    random_vvf,
)

MANIFESTS = pathlib.Path(__file__).resolve().parent.parent / "manifests"
#: Reports of the fixture manifests at seed 0, "manifest" path made relative.
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FIXTURE_MANIFESTS = [
    "f1_complex.json",
    "f2_idempotent.json",
    "f3_product.json",
    "f4_foliation.json",
    "f5_tangent.json",
    "f6_invertible.json",
    "bundle.json",
    "negative_fail.json",
    "negative_error.json",
]


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}", flush=True)


def test_criterion_01_torsion_is_half_fn_self_bracket():
    """20 random endomorphisms, dims 2-4, degree <= 2, under 10 seconds."""
    rng = random.Random(100)
    charts = [
        Chart(("x", "y")),
        Chart(("x", "y", "z")),
        Chart(("x", "y", "z", "w")),
    ]
    start = time.perf_counter()
    for k in range(20):
        chart = charts[k % 3]
        N = random_vvf(chart, 1, rng, degree=2)
        half = chart.const(Fraction(1, 2))
        assert fn_bracket(N, N).scaled(half) == nijenhuis_torsion(N)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"(1/2)[N,N]_FN = T_N for 20 random endomorphisms in {elapsed:.1f}s")


def test_criterion_02_idempotent_theorem():
    N = endo("N0")
    ch = N.chart
    alg = idempotent_algebroid(N)
    assert check_axioms(alg).passed
    T = nijenhuis_torsion(N)
    assert T(ch.basis_vector(2), ch.basis_vector(3)) == ch.basis_vector(0)
    assert alg.bracket(ch.basis_vector(2), ch.basis_vector(3)).is_zero
    for a, b in itertools.combinations(range(ch.dim), 2):
        X, Y = ch.basis_vector(a), ch.basis_vector(b)
        assert alg.bracket(X, Y) == bracket_full_form(N, X, Y)
    report(2, "idempotent fixture passes axioms; torsion and bracket values exact")


def test_criterion_03_tensorial_square_zero_pair():
    N = endo("N0")
    ch = N.chart
    T = nijenhuis_torsion(N)
    assert fn_bracket(N, -T).is_zero
    assert rn_bracket(T, T).is_zero
    D1 = TangentAlgebroid(N, -T)
    D2 = TangentAlgebroid(VectorValuedForm.zero(ch, 1), -T)
    assert check_cohomology(D1).passed
    assert check_cohomology(D2).passed
    report(3, "[N,-T]_FN = 0, [T,T]_RN = 0; both derivation pairs square to zero")


def test_criterion_04_square_zero_biconditional_invertible():
    K = endo("J2")
    ch = K.chart
    T = nijenhuis_torsion(K)
    bad = check_cohomology(TangentAlgebroid(K, VectorValuedForm.zero(ch, 2)))
    assert not bad.passed
    assert bad.condition1 == T
    kinv = VectorValuedForm.from_matrix(ch, inverse(K.matrix(), ch))
    alg = TangentAlgebroid(K, -VectorValuedForm(
        ch,
        2,
        [
            sum(
                (T.components[m].scaled(kinv.matrix()[j][m]) for m in range(ch.dim)),
                start=T.components[0].scaled(ch.zero),
            )
            for j in range(ch.dim)
        ],
    ))
    good = check_cohomology(alg)
    assert good.passed
    for a, b in itertools.combinations(range(ch.dim), 2):
        X, Y = ch.basis_vector(a), ch.basis_vector(b)
        assert alg.bracket(X, Y) == kinv.apply(
            lie_bracket(K.apply(X), K.apply(Y))
        )
    assert all(r.is_zero for _, r in verify_trivial_isomorphism(alg))
    report(4, "(K,0) fails exactly by T_K; (K,-K^-1 T_K) passes; K^-1 is an isomorphism")


def test_criterion_05_complex_suite():
    quarter = Fraction(-1, 4)
    for J in (endo("J0"), endo("J1"), endo("J2")):
        p_plus, p_minus = complex_projectors(J)
        cch = p_plus.chart
        assert nijenhuis_torsion(p_plus) == nijenhuis_torsion(
            complexify_vvf(J)
        ).scaled(cch.const(quarter))
    for J in (endo("J0"), endo("J1")):
        alg = complex_algebroid(J)
        assert check_axioms(alg).passed
        p_plus, p_minus = complex_projectors(J)
        cch = p_plus.chart
        for a, b in itertools.combinations(range(cch.dim), 2):
            br = lie_bracket(
                p_plus.apply(cch.basis_vector(a)), p_plus.apply(cch.basis_vector(b))
            )
            assert p_minus.apply(br).is_zero
    with pytest.raises(TorsionNotZeroError):
        complex_algebroid(endo("J2"))
    report(5, "T_p+ = -T_J/4 for J0,J1,J2; J0,J1 algebroids pass; J2 rejected")


def test_criterion_06_product_suite():
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    for P in (endo("P0"), endo("P1")):
        ch = P.chart
        p_minus = (VectorValuedForm.identity(ch) - P).scaled(ch.const(half))
        assert nijenhuis_torsion(p_minus) == nijenhuis_torsion(P).scaled(
            ch.const(quarter)
        )
        alg = product_algebroid(P)
        assert check_axioms(alg).passed
        for a, b in itertools.combinations(range(ch.dim), 2):
            X, Y = ch.basis_vector(a), ch.basis_vector(b)
            assert alg.bracket(X, Y) == product_bracket_form(P, X, Y)
    report(6, "T_p- = T_P/4; product algebroids pass; bracket matches ([X,Y]-[X,Y]_P)/2")


def test_criterion_07_foliation_suite():
    g = endo("gamma0")
    ch = g.chart
    data = foliation_connection(g)
    assert data.curvature(ch.basis_vector(0), ch.basis_vector(1)) == ch.basis_vector(2)
    assert all(r.is_zero for _, r in data.bracket_table)
    d10, d2m1, d01 = d_components(g)
    assert check_cohomology(d2m1).passed
    assert check_cohomology(d01).passed
    bad = check_cohomology(d10)
    assert not bad.passed
    assert bad.condition1 == data.curvature  # proportional to R with factor 1
    rng = random.Random(700)
    for p in range(ch.dim + 1):
        omega = random_kform(ch, p, rng)
        assert d10(omega) + d2m1(omega) + d01(omega) == exterior_d(omega)
    for _ in range(10):
        p = rng.randint(0, ch.dim)
        omega = random_kform(ch, p, rng)
        parts = bigrade(omega, g)
        total = None
        for item in parts:
            total = item.form if total is None else total + item.form
        assert (total is None and omega.is_zero) or total == omega
    report(7, "curvature exact; d splits with the curvature obstruction; bigrading reconstructs")


def test_criterion_08_tangent_suite():
    for n in (1, 2, 3):
        tc = tangent_chart(n)
        J, C = tc.vertical_endomorphism, tc.liouville
        assert J.compose(J).is_zero
        assert J.apply(C).is_zero
        assert nijenhuis_torsion(J).is_zero
        assert fn_bracket(VectorValuedForm.from_vector_field(C), J) == -J
    tc = tangent_chart(1)
    ch = tc.chart
    half, quarter = ch.const(Fraction(1, 2)), ch.const(Fraction(1, 4))
    rng = random.Random(800)
    u = ch.coordinate(1)
    sprays = [
        semispray(tc, [ch.zero]),
        semispray(tc, [-ch.coordinate(0)]),
        semispray(tc, [u * u * ch.const(rng.randint(1, 2))]),
    ]
    identity = VectorValuedForm.identity(ch)
    J = tc.vertical_endomorphism
    for S in sprays:
        gamma = connection_from_semispray(tc, S)
        assert gamma.compose(gamma) == identity
        assert J.compose(gamma) == J
        assert gamma.compose(J) == -J
        alg = connection_algebroid(gamma)
        t_gamma = nijenhuis_torsion(gamma)
        assert nijenhuis_torsion(alg.anchor) == t_gamma.scaled(quarter)
        for a, b in itertools.combinations(range(ch.dim), 2):
            A, B = ch.basis_vector(a), ch.basis_vector(b)
            closed = (
                lie_bracket(A, B) - contracted_bracket(gamma, A, B)
            ).scaled(half) + t_gamma(A, B).scaled(quarter)
            assert alg.bracket(A, B) == closed
        assert check_axioms(alg).passed
    flat = connection_from_semispray(tc, sprays[0])
    assert flat == VectorValuedForm.from_matrix(
        ch, [[ch.one, ch.zero], [ch.zero, -ch.one]]
    )
    report(8, "tangent identities, three sprays and their brackets, flat case Gamma = diag(1,-1)")


def test_criterion_09_bundle_algebroid():
    ch = Chart(("x", "y"))
    anchor = [[ch.one, ch.zero], [ch.scalar("x"), ch.zero]]
    balg = BundleAlgebroid(ch, 2, anchor, {(0, 1): [ch.one, ch.zero]})
    assert check_bundle_axioms(balg).passed
    rng = random.Random(900)
    from fncalc.randgen import random_scalar

    for trial in range(3):
        gamma = tuple(
            tuple(
                tuple(random_scalar(ch, rng, 1) for _ in range(2)) for _ in range(2)
            )
            for _ in range(ch.dim)
        )
        conn = LinearConnection(ch, 2, gamma)
        residuals = verify_connection_decomposition(conn, balg)
        assert all(r.is_zero for _, r in residuals), f"trial {trial}"
    # randomized rank-3 constant structure violating Jacobi
    zero_row = [ch.zero, ch.zero]
    while True:
        structure = {
            key: [ch.const(rng.randint(-2, 2)) for _ in range(3)]
            for key in ((0, 1), (0, 2), (1, 2))
        }
        bad = BundleAlgebroid(ch, 3, [zero_row] * 3, structure)
        bad_report = check_bundle_axioms(bad)
        if any(not r.is_zero for _, r in bad_report.jacobi):
            break
    assert not bad_report.passed
    report(9, "bundle axioms pass; D = nabla_q + i_L for 3 random connections; Jacobi violation caught")


def test_criterion_10_deterministic_json_reports():
    """Two suite runs agree byte for byte, and the first matches tests/golden/."""
    outputs = []
    for run in range(2):
        combined = []
        for name in FIXTURE_MANIFESTS:
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "fncalc.cli",
                    "verify",
                    str(MANIFESTS / name),
                    "--format",
                    "json",
                    "--seed",
                    "0",
                ],
                capture_output=True,
            )
            assert proc.returncode in (0, 1, 2)
            json.loads(proc.stdout)  # must be valid JSON
            combined.append(proc.stdout)
            if run == 0:
                relative = proc.stdout.replace(
                    json.dumps(str(MANIFESTS / name)).encode(),
                    json.dumps(f"manifests/{name}").encode(),
                )
                assert relative == (GOLDEN / name).read_bytes(), f"{name} differs from golden"
        outputs.append(b"".join(combined))
    assert outputs[0] == outputs[1]
    report(10, "two full fixture-suite runs produced byte-identical JSON reports, equal to the golden ones")
