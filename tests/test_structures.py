"""Construction layer: idempotent, complex, product, foliation, tangent."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from fncalc import algebroid, structures
from fncalc.algebroid import check_axioms, check_cohomology
from fncalc.calculus import (
    Chart,
    VectorValuedForm,
    complexify_vvf,
    exterior_d,
    lie_bracket,
    nijenhuis_torsion,
)
from fncalc.linalg import column_space_basis
from fncalc.randgen import random_scalar
from fncalc.structures import (
    ImageNotInvolutiveError,
    NotAlmostComplexError,
    NotAlmostProductError,
    NotConnectionError,
    NotIdempotentError,
    NotSemisprayError,
    TorsionNotZeroError,
    bigrade,
    complement_operator,
    complex_algebroid,
    complex_projectors,
    connection_algebroid,
    connection_from_semispray,
    d_components,
    foliation_connection,
    idempotent_algebroid,
    is_semispray,
    product_algebroid,
    semispray,
    tangent_chart,
)

from helpers import (
    bracket_full_form,
    contracted_bracket,
    endo,
    fresh,
    product_bracket_form,
    random_kform,
    seeded_idempotent,
)


def _non_involutive_projector() -> VectorValuedForm:
    """The projector onto span{d/dx, d/dy - x d/dz}, whose brackets leave the image."""
    ch = Chart(("x", "y", "z"))
    one, zero = ch.one, ch.zero
    return VectorValuedForm.from_matrix(
        ch, [[one, zero, zero], [zero, one, zero], [zero, ch.scalar("-x"), zero]]
    )


class TestIdempotent:
    def test_n0_accepted_with_torsion_correction(self):
        alg = idempotent_algebroid(endo("N0"))
        assert alg.correction == -nijenhuis_torsion(endo("N0"))
        assert check_axioms(alg).passed

    def test_closed_form_bracket_agrees(self):
        N = endo("N0")
        alg = idempotent_algebroid(N)
        ch = N.chart
        for a, b in itertools.combinations(range(ch.dim), 2):
            X, Y = ch.basis_vector(a), ch.basis_vector(b)
            assert alg.bracket(X, Y) == bracket_full_form(N, X, Y)

    def test_non_idempotent_rejected(self):
        with pytest.raises(NotIdempotentError):
            idempotent_algebroid(endo("J0"))

    def test_non_involutive_image_rejected(self):
        N = _non_involutive_projector()
        ch = N.chart
        assert N.compose(N) == N
        with pytest.raises(ImageNotInvolutiveError) as raised:
            idempotent_algebroid(N)
        # the error names the first frame pair whose bracket leaves the image
        images = [N.apply(e) for e in ch.basis_vectors()]
        for pair in itertools.combinations(range(ch.dim), 2):
            br = lie_bracket(images[pair[0]], images[pair[1]])
            residual = br - N.apply(br)
            if not residual.is_zero:
                break
        assert (raised.value.pair, raised.value.residual) == (pair, residual)
        assert not residual.is_zero

    def test_rejected_projector_raises_on_every_call(self):
        """A projector whose image is not involutive keeps no torsion: every
        construction from it raises, not only the first."""
        N = _non_involutive_projector()
        constructions = (idempotent_algebroid, d_components, foliation_connection)
        for construct in constructions + constructions:
            with pytest.raises(ImageNotInvolutiveError):
                construct(N)

    @staticmethod
    def _seeded(seed: int) -> VectorValuedForm:
        """A seeded idempotent of dimension 3 or 4 and rank 1 to dim - 1."""
        rng = random.Random(seed)
        n = rng.choice((3, 4))
        chart = Chart(("x", "y", "z", "w")[:n])
        return seeded_idempotent(chart, rng.randint(1, n - 1), rng)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_idempotent_theorem(self, seed):
        """The paper's idempotent theorem on N = P·E·P^{-1}: (N, -T_N) is
        accepted exactly when (Id-N)[N e_a, N e_b] = 0 on every frame pair, a
        rejected N names the first pair whose bracket leaves the image, and an
        accepted one is a Lie algebroid; so is L_{Id-N} when T_N = 0."""
        N = self._seeded(seed)
        assert N.compose(N) == N
        images = [N.apply(e) for e in N.chart.basis_vectors()]
        leaving = []
        for a, b in itertools.combinations(range(N.chart.dim), 2):
            br = lie_bracket(images[a], images[b])
            if not (residual := br - N.apply(br)).is_zero:
                leaving.append(((a, b), residual))
        if leaving:
            with pytest.raises(ImageNotInvolutiveError) as raised:
                idempotent_algebroid(N)
            assert (raised.value.pair, raised.value.residual) == leaving[0]
        else:
            alg = idempotent_algebroid(N)
            assert check_cohomology(alg).passed
            assert check_axioms(alg, probe_degree=1).passed
            if alg.correction.is_zero:
                assert check_cohomology(complement_operator(N)).passed

    def test_seeded_idempotents_include_torsion(self):
        """Some accepted seeded N has T_N != 0 (a kernel that is not involutive),
        so the property above is not only about torsion-free projectors."""
        with_torsion = 0
        for seed in range(40):
            N = self._seeded(seed)
            try:
                with_torsion += not idempotent_algebroid(N).correction.is_zero
            except ImageNotInvolutiveError:
                pass
        assert with_torsion >= 1

    def test_tensorial_operator_squares_to_zero(self):
        op = d_components(endo("N0"))[1]  # i_{-T_N}
        report = check_cohomology(op)
        assert report.passed

    def test_complement_operator_requires_zero_torsion(self):
        with pytest.raises(TorsionNotZeroError):
            complement_operator(endo("N0"))
        ch = Chart(("x", "y"))
        flat = VectorValuedForm.from_matrix(
            ch, [[ch.one, ch.zero], [ch.zero, ch.zero]]
        )
        op = complement_operator(flat)
        assert check_cohomology(op).passed


class TestComplex:
    def test_projector_torsion_relation(self):
        quarter = Fraction(-1, 4)
        for J in (endo("J0"), endo("J1"), endo("J2")):
            p_plus, p_minus = complex_projectors(J)
            cchart = p_plus.chart
            cT = nijenhuis_torsion(complexify_vvf(J))
            assert nijenhuis_torsion(p_plus) == cT.scaled(cchart.const(quarter))
            # the projector algebra, which J^2 = -Id implies
            assert p_plus + p_minus == VectorValuedForm.identity(cchart)
            assert p_plus.compose(p_plus) == p_plus
            assert p_minus.compose(p_minus) == p_minus
            assert p_plus.compose(p_minus).is_zero

    def test_integrable_structures_give_algebroids(self):
        for J in (endo("J0"), endo("J1")):
            alg = complex_algebroid(J)
            assert check_axioms(alg).passed

    def test_holomorphic_involutivity(self):
        for J in (endo("J0"), endo("J1")):
            p_plus, p_minus = complex_projectors(J)
            cchart = p_plus.chart
            for a, b in itertools.combinations(range(cchart.dim), 2):
                br = lie_bracket(
                    p_plus.apply(cchart.basis_vector(a)),
                    p_plus.apply(cchart.basis_vector(b)),
                )
                assert p_minus.apply(br).is_zero

    def test_non_integrable_rejected(self):
        with pytest.raises(TorsionNotZeroError):
            complex_algebroid(endo("J2"))

    def test_wrong_square_rejected(self):
        with pytest.raises(NotAlmostComplexError):
            complex_algebroid(endo("P0"))

    def test_eps_scaling(self):
        """A structure with J^2 = -c^2 Id is refused; J/c is the complex structure
        that a scale c once described."""
        ch = Chart(("x", "y"))
        J = endo("J0").scaled(ch.const(2))  # J^2 = -4 Id
        message = r"^endomorphism does not satisfy J\^2 = -1 Id$"
        with pytest.raises(NotAlmostComplexError, match=message):
            complex_projectors(J)
        halved = J.scaled(ch.const(Fraction(1, 2)))
        p_plus, _ = complex_projectors(halved)
        assert p_plus.compose(p_plus) == p_plus
        assert p_plus == complex_projectors(endo("J0"))[0]
        assert check_axioms(complex_algebroid(halved)).passed


class TestProduct:
    def test_algebroids_pass(self):
        for P in (endo("P0"), endo("P1")):
            alg = product_algebroid(P)
            assert check_axioms(alg).passed

    def test_bracket_closed_form(self):
        P = endo("P1")
        ch = P.chart
        alg = product_algebroid(P)
        for a, b in itertools.combinations(range(ch.dim), 2):
            X, Y = ch.basis_vector(a), ch.basis_vector(b)
            assert alg.bracket(X, Y) == product_bracket_form(P, X, Y)

    def test_projector_torsion_relation_nontrivial(self):
        """T_{(Id-P)/2} = T_P/4, checked on a P with nonzero torsion."""
        N = endo("N0")
        ch = N.chart
        P = N.scaled(ch.const(2)) - VectorValuedForm.identity(ch)
        assert P.compose(P) == VectorValuedForm.identity(ch)
        half = ch.const(Fraction(1, 2))
        p_minus = (VectorValuedForm.identity(ch) - P).scaled(half)
        T_P = nijenhuis_torsion(P)
        assert not T_P.is_zero
        assert nijenhuis_torsion(p_minus) == T_P.scaled(ch.const(Fraction(1, 4)))

    def test_non_integrable_rejected(self):
        N = endo("N0")
        ch = N.chart
        P = N.scaled(ch.const(2)) - VectorValuedForm.identity(ch)
        with pytest.raises(TorsionNotZeroError):
            product_algebroid(P)

    def test_wrong_square_rejected(self):
        with pytest.raises(NotAlmostProductError):
            product_algebroid(endo("J0"))


class TestFoliation:
    def test_curvature_fixture_value(self):
        g = endo("gamma0")
        ch = g.chart
        data = foliation_connection(g)
        assert data.curvature(ch.basis_vector(0), ch.basis_vector(1)) == ch.basis_vector(2)

    def test_bracket_table(self):
        table = foliation_connection(endo("gamma0")).bracket_table
        assert all(r.is_zero for _, r in table)

    def test_bracket_table_vertical_pairs(self):
        """A rank-2 image gives a (v1,v2) row: the vertical frame -y∂z, ∂y
        brackets to ∂z, which the algebroid bracket must reproduce."""
        ch = Chart(("x", "y", "z"))
        rows = [["0", "0", "0"], ["0", "1", "0"], ["-y", "0", "1"]]
        g = VectorValuedForm.from_matrix(ch, [[ch.scalar(e) for e in row] for row in rows])
        data = foliation_connection(g)
        assert lie_bracket(*data.vertical) == ch.basis_vector(2)
        labels = [label for label, _ in data.bracket_table]
        assert "(v1,v2)" in labels
        assert all(r.is_zero for _, r in data.bracket_table)

    def test_column_space_basis_edge_cases(self):
        """An empty matrix has no columns; a full-rank wide matrix stops at its
        last row, before the column it no longer needs."""
        ch = Chart(("x", "y"))
        assert column_space_basis([], ch) == []
        zero, one, x = ch.zero, ch.one, ch.coordinate(0)
        assert column_space_basis([[zero, one, x], [one, x, one]], ch) == [0, 1]
        assert column_space_basis([[one, x], [x, x * x]], ch) == [0]

    def test_adapted_frames(self):
        g = endo("gamma0")
        data = foliation_connection(g)
        assert all(g.apply(X).is_zero for X in data.horizontal)
        assert all(g.apply(Y) == Y for Y in data.vertical)
        assert (len(data.horizontal), len(data.vertical)) == (2, 1)
        with pytest.raises(NotIdempotentError):
            foliation_connection(endo("J0"))

    def test_d_components_read_what_the_foliation_kept(self, monkeypatch):
        """After foliation_connection(gamma), d_components(gamma) reads the
        idempotent algebroid kept on gamma: it composes nothing and forms no
        torsion."""
        gamma = fresh(endo("gamma0"))
        curvature = foliation_connection(gamma).curvature
        calls = []
        compose, torsion = VectorValuedForm.compose, structures.nijenhuis_torsion
        monkeypatch.setattr(
            VectorValuedForm, "compose", lambda K, M: calls.append("compose") or compose(K, M)
        )
        monkeypatch.setattr(
            structures, "nijenhuis_torsion", lambda N: calls.append("torsion") or torsion(N)
        )
        d10, d2m1, d01 = d_components(gamma)
        assert calls == []
        assert d2m1.correction == -curvature and d01.anchor is gamma

    def test_foliation_keeps_one_algebroid_and_one_structure_form(self):
        """foliation_connection(gamma) keeps the idempotent algebroid on gamma,
        which is d_{0,1}, and its three bracket-table brackets on f4 read one
        F = dK - L kept on that algebroid: the function behind
        algebroid._structure_form runs once."""
        gamma = fresh(endo("gamma0"))
        structure_form = algebroid._structure_form
        body = getattr(structure_form, "__wrapped__", structure_form).__code__
        runs = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is body:
                runs.append(event)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            data = foliation_connection(gamma)
        finally:
            sys.setprofile(previous)
        assert (len(data.bracket_table), len(runs)) == (3, 1)
        assert d_components(gamma)[2] is idempotent_algebroid(gamma)

    def test_d_component_cohomology(self):
        d10, d2m1, d01 = d_components(endo("gamma0"))
        assert check_cohomology(d2m1).passed
        assert check_cohomology(d01).passed
        bad = check_cohomology(d10)
        assert not bad.passed
        # the failure of d_{1,0}^2 = 0 is measured exactly by the curvature
        R = nijenhuis_torsion(endo("gamma0"))
        assert bad.condition1 == R
        assert bad.condition2.is_zero

    def test_components_sum_to_d(self):
        g = endo("gamma0")
        ch = g.chart
        d10, d2m1, d01 = d_components(g)
        rng = random.Random(17)
        for p in range(ch.dim + 1):
            omega = random_kform(ch, p, rng)
            total = d10(omega) + d2m1(omega) + d01(omega)
            assert total == exterior_d(omega)

    def test_bigrade_reconstruction(self):
        g = endo("gamma0")
        ch = g.chart
        rng = random.Random(18)
        for trial in range(10):
            p = rng.randint(0, ch.dim)
            omega = random_kform(ch, p, rng)
            parts = bigrade(omega, g)
            total = None
            for item in parts:
                total = item.form if total is None else total + item.form
            if total is None:
                assert omega.is_zero
            else:
                assert total == omega

    def test_bigrade_pure_components(self):
        g = endo("gamma0")
        ch = g.chart
        # dz is neither purely horizontal nor vertical for gamma0
        parts = bigrade(exterior_d(ch.coordinate_function(2)), g)
        assert sorted((item.p, item.q) for item in parts) == [(0, 1), (1, 0)]


class TestTangent:
    def test_vertical_structure_identities(self):
        for n in (1, 2):
            tc = tangent_chart(n)
            J = tc.vertical_endomorphism
            assert J.compose(J).is_zero
            assert nijenhuis_torsion(J).is_zero

    def test_semispray_condition(self):
        tc = tangent_chart(2)
        ch = tc.chart
        S = semispray(tc, [ch.zero, ch.scalar("u1*u2")])
        assert is_semispray(tc, S)
        not_spray = ch.basis_vector(0)
        assert not is_semispray(tc, not_spray)
        with pytest.raises(NotSemisprayError):
            connection_from_semispray(tc, not_spray)

    def test_flat_spray_gives_diagonal_connection(self):
        tc = tangent_chart(1)
        S0 = semispray(tc, [tc.chart.zero])
        gamma = connection_from_semispray(tc, S0)
        ch = tc.chart
        expected = VectorValuedForm.from_matrix(
            ch, [[ch.one, ch.zero], [ch.zero, -ch.one]]
        )
        assert gamma == expected
        assert nijenhuis_torsion(gamma).is_zero

    def test_linear_spray(self):
        tc = tangent_chart(1)
        ch = tc.chart
        S1 = semispray(tc, [ch.scalar("-x1")])
        gamma = connection_from_semispray(tc, S1)
        J = tc.vertical_endomorphism
        assert J.compose(gamma) == J
        assert gamma.compose(J) == -J
        assert check_axioms(connection_algebroid(gamma)).passed

    def test_connection_algebroid_rejects_a_non_involution(self):
        """Γ^2 = Id is the one condition connection_algebroid checks: the vertical
        endomorphism J (J^2 = 0) and 2·Id are not connections."""
        tc = tangent_chart(1)
        ch = tc.chart
        for gamma in (tc.vertical_endomorphism, VectorValuedForm.identity(ch).scaled(ch.const(2))):
            with pytest.raises(NotConnectionError, match="Gamma"):
                connection_algebroid(gamma)

    def test_random_quadratic_spray(self):
        tc = tangent_chart(2)
        ch = tc.chart
        rng = random.Random(21)
        u1, u2 = ch.coordinate(2), ch.coordinate(3)
        force = []
        for _ in range(2):
            a, b, c = (ch.const(rng.randint(-2, 2)) for _ in range(3))
            force.append(u1 * u1 * a + u1 * u2 * b + u2 * u2 * c)
        S = semispray(tc, force)
        gamma = connection_from_semispray(tc, S)
        alg = connection_algebroid(gamma)
        half, quarter = ch.const(Fraction(1, 2)), ch.const(Fraction(1, 4))
        t_gamma = nijenhuis_torsion(gamma)
        assert not t_gamma.is_zero
        assert nijenhuis_torsion(alg.anchor) == t_gamma.scaled(quarter)
        for a, b in itertools.combinations(range(ch.dim), 2):
            A, B = ch.basis_vector(a), ch.basis_vector(b)
            closed = (
                lie_bracket(A, B) - contracted_bracket(gamma, A, B)
            ).scaled(half) + t_gamma(A, B).scaled(quarter)
            assert alg.bracket(A, B) == closed
        assert check_axioms(alg).passed
        # J Gamma = J, Gamma J = -J and Gamma^2 = Id hold for every semispray,
        # rational forces included: connection_from_semispray checks only J S = C
        for n in (1, 2):
            tc = tangent_chart(n)
            ch, J = tc.chart, tc.vertical_endomorphism
            for _ in range(6):
                force = []
                for _ in range(n):
                    q = random_scalar(ch, rng, 1)
                    force.append(random_scalar(ch, rng, 2) / (ch.one + q * q))
                gamma = connection_from_semispray(tc, semispray(tc, force))
                assert J.compose(gamma) == J and gamma.compose(J) == -J
                assert gamma.compose(gamma) == VectorValuedForm.identity(ch)
