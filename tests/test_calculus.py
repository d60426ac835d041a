"""Exterior calculus layer: d, wedge, insertion, Lie derivative, brackets."""

import itertools
import random
from fractions import Fraction

import pytest

from fncalc import calculus
from fncalc.algebroid import (
    TangentAlgebroid,
    _anchor_inverse,
    _condition1,
    _condition2,
    check_cohomology,
    fn_decompose,
    invertible_algebroid,
)
from fncalc.calculus import (
    CalculusError,
    Chart,
    ChartMismatchError,
    KForm,
    VectorField,
    VectorValuedForm,
    complexify_vvf,
    exterior_d,
    fn_bracket,
    insertion,
    lie_bracket,
    lie_derivative,
    nijenhuis_torsion,
    rn_bracket,
    wedge,
)
from fncalc.randgen import random_vector_field
from fncalc.cli import load_manifest
from fncalc.scalar import ScalarError, ScalarExpr, coordinate_ring

from helpers import (
    MANIFESTS,
    cartan_lie_derivative,
    endo,
    extracted_bracket,
    fresh,
    random_kform,
    random_vvf,
    torsion_on_fields,
)


#: (complexified, rational) of the coefficients: real polynomials, real
#: rational functions, and rational functions over Q(i)
COEFFICIENT_KINDS = ((False, False), (False, True), (True, True))

#: charts of dimension 2-4 by coefficient kind; rational ones only up to
#: dimension 3, where a test over them stays within seconds
CHARTS = pytest.mark.parametrize(
    "dim, complexified, rational",
    [(2, False, False), (3, False, False), (4, False, False), (2, False, True), (3, False, True), (2, True, True), (3, True, True)],
    ids=["real-2", "real-3", "real-4", "rational-2", "rational-3", "complex-rational-2", "complex-rational-3"],
)


def test_d_squared_zero():
    rng = random.Random(1)
    for complexified, rational in COEFFICIENT_KINDS:
        for chart in (Chart(("x", "y"), complexified), Chart(("x", "y", "z"), complexified)):
            for p in range(chart.dim):
                omega = random_kform(chart, p, rng, rational=rational)
                assert exterior_d(exterior_d(omega)).is_zero, (complexified, rational, p)


@pytest.mark.parametrize("complexified, rational", COEFFICIENT_KINDS, ids=["real", "rational", "complex"])
def test_d_of_vector_valued_form_is_d_of_each_component(complexified, rational):
    rng = random.Random(4)
    chart = Chart(("x", "y", "z"), complexified)
    for p in range(chart.dim):
        A = random_vvf(chart, p, rng, degree=1, rational=rational)
        dA = exterior_d(A)
        assert dA.degree == p + 1
        assert list(dA.components) == [exterior_d(c) for c in A.components]
        assert exterior_d(dA).is_zero


def test_d_keeps_no_key_whose_partials_cancel():
    """d(y dx + x dy) = 0: the signed partials of dx∧dy cancel, so no
    coefficient is kept, on a real and on a complexified chart."""
    for chart in (Chart(("x", "y")), Chart(("x", "y"), True)):
        omega = KForm(chart, 1, {(0,): chart.scalar("y"), (1,): chart.scalar("x")})
        assert exterior_d(omega).coeffs == {}


def test_d_on_function_is_differential():
    ch = Chart(("x", "y"))
    f = KForm(ch, 0, {(): ch.scalar("x^2*y")})
    df = exterior_d(f)
    assert df.coeffs[(0,)] == ch.scalar("2*x*y")
    assert df.coeffs[(1,)] == ch.scalar("x^2")


def test_wedge_graded_commutativity():
    ch = Chart(("x", "y", "z"))
    rng = random.Random(2)
    a = random_kform(ch, 1, rng)
    b = random_kform(ch, 1, rng)
    c = random_kform(ch, 2, rng)
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, c) == wedge(c, a)
    assert wedge(wedge(a, b), c).is_zero or wedge(a, wedge(b, c)) == wedge(
        wedge(a, b), c
    )


def test_leibniz_for_d():
    """d(f a) = df∧a + f da and d(a∧b) = da∧b - a∧db for a function f and
    1-forms a, b, over each kind of coefficient."""
    rng = random.Random(3)
    for complexified, rational in COEFFICIENT_KINDS:
        ch = Chart(("x", "y", "z"), complexified)
        f = random_kform(ch, 0, rng, rational=rational)
        a = random_kform(ch, 1, rng, rational=rational)
        b = random_kform(ch, 1, rng, rational=rational)
        assert exterior_d(wedge(f, a)) == wedge(exterior_d(f), a) + wedge(
            f, exterior_d(a)
        )
        assert exterior_d(wedge(a, b)) == wedge(exterior_d(a), b) - wedge(a, exterior_d(b))


@pytest.mark.parametrize(
    "degree, key, message",
    [
        (0, (0,), "bad multi-index (0,) for degree 0"),
        (1, (), "bad multi-index () for degree 1"),
        (1, (0, 1), "bad multi-index (0, 1) for degree 1"),
        (2, (1, 0), "bad multi-index (1, 0) for degree 2"),
        (2, (1, 1), "bad multi-index (1, 1) for degree 2"),
        (3, (0, 2, 1), "bad multi-index (0, 2, 1) for degree 3"),
        (1, (-1,), "multi-index (-1,) out of range"),
        (1, (3,), "multi-index (3,) out of range"),
        (2, (-1, 0), "multi-index (-1, 0) out of range"),
        (3, (0, 1, 3), "multi-index (0, 1, 3) out of range"),
    ],
)
def test_kform_refuses_bad_multi_indices(degree, key, message):
    """A multi-index of the wrong length, not strictly increasing or outside
    the generators is refused by its message, at every degree."""
    ch = Chart(("x", "y", "z"))
    with pytest.raises(CalculusError) as caught:
        KForm(ch, degree, {key: ch.one})
    assert str(caught.value) == message


def test_fiber_forms_keep_their_generator_count():
    """A form over 3 fiber generators neither mixes with nor equals a chart form."""
    ch = Chart(("x", "y"))
    eta = KForm(ch, 1, {(2,): ch.one}, generators=3)
    with pytest.raises(CalculusError):
        KForm(ch, 1, {(2,): ch.one})
    dx = KForm(ch, 1, {(0,): ch.one})
    eta0 = KForm(ch, 1, {(0,): ch.one}, generators=3)
    assert dx != eta0
    for combine in (KForm.__add__, wedge):
        with pytest.raises(CalculusError):
            combine(dx, eta0)
    assert wedge(eta0, eta) == KForm(ch, 2, {(0, 2): ch.one}, generators=3)
    for chart_only in (exterior_d, lambda w: insertion(VectorValuedForm.identity(ch), w)):
        with pytest.raises(CalculusError):
            chart_only(eta0)


def test_insertion_identity_counts_degree():
    ch = Chart(("x", "y", "z"))
    rng = random.Random(4)
    identity = VectorValuedForm.identity(ch)
    for p in range(1, ch.dim + 1):
        omega = random_kform(ch, p, rng)
        assert insertion(identity, omega) == omega.scaled(ch.const(p))


def _shuffle_sum_insertion(K: VectorValuedForm, omega: KForm) -> KForm:
    """The defining formula of i_K omega, through form evaluation on basis fields.

    (i_K omega)(e_k1, ..., e_kn) is the sum over (g, p-1)-shuffles σ of
    sign(σ) omega(K(e_σ1, ..., e_σg), e_σ(g+1), ...), with g = deg K.
    """
    chart = K.chart
    g, degree = K.degree, K.degree + omega.degree - 1
    basis = chart.basis_vectors()
    coeffs = {}
    for key in itertools.combinations(range(chart.dim), degree):
        fields = [basis[j] for j in key]
        total = chart.zero
        for head in itertools.combinations(range(degree), g):
            rest = [fields[t] for t in range(degree) if t not in head]
            term = omega(K(*[fields[t] for t in head]), *rest)
            odd = sum(h - t for t, h in enumerate(head)) % 2
            total = total - term if odd else total + term
        coeffs[key] = total
    return KForm(chart, degree, coeffs)


@pytest.mark.parametrize("complexified", [False, True], ids=["real", "complex"])
def test_insertion_matches_shuffle_sum(complexified):
    """Sparse i_K omega equals the shuffle sum for random K, omega at every (g, p)."""
    rng = random.Random(12)
    for dim in range(1, 5):
        chart = Chart(("x", "y", "z", "w")[:dim], complexified)
        for g in range(dim + 1):
            K = random_vvf(chart, g, rng, degree=1)
            for p in range(dim + 1):
                omega = random_kform(chart, p, rng, degree=1)
                if p == 0:
                    expected = KForm.zero(chart, max(g - 1, 0))
                else:
                    expected = _shuffle_sum_insertion(K, omega)
                assert insertion(K, omega) == expected, (dim, g, p)


@pytest.mark.parametrize("complexified", [False, True], ids=["real", "complex"])
def test_compose_applies_the_endomorphism_to_values(complexified):
    """(K∘L)(X1..Xk) = K(L(X1..Xk)) on random probe fields, for L of degree
    0, 1 and 2: one composition for a right factor of any degree."""
    rng = random.Random(13)
    for dim in (2, 3):
        chart = Chart(("x", "y", "z")[:dim], complexified)
        K = random_vvf(chart, 1, rng, degree=1)
        for k in (0, 1, 2):
            L = random_vvf(chart, k, rng, degree=1)
            KL = K.compose(L)
            assert KL.degree == k
            for _ in range(2):
                fields = [random_vector_field(chart, rng, 1) for _ in range(k)]
                assert KL(*fields) == K.apply(L(*fields)), (dim, k)


def test_lie_derivative_identity_is_d():
    ch = Chart(("x", "y"))
    rng = random.Random(5)
    identity = VectorValuedForm.identity(ch)
    for p in range(ch.dim + 1):
        omega = random_kform(ch, p, rng)
        assert lie_derivative(identity, omega) == exterior_d(omega)


def test_lie_derivative_vector_field_cartan():
    """Degree-0 case agrees with evaluation against transported arguments."""
    ch = Chart(("x", "y"))
    rng = random.Random(6)
    X = random_vector_field(ch, rng)
    omega = random_kform(ch, 1, rng)
    K = VectorValuedForm.from_vector_field(X)
    lhs = lie_derivative(K, omega)
    for Y in ch.basis_vectors():
        expected = X(omega(Y)) - omega(lie_bracket(X, Y))
        assert lhs(Y) == expected


@CHARTS
def test_lie_derivative_is_cartans_formula(dim, complexified, rational, monkeypatch):
    """The frame expansion of L_K equals i_K d - (-1)^(k-1) d i_K for K and
    omega of every degree 0..n, omega scalar and vector-valued. The Lie
    derivative calls no insertion, so the two sides share no contraction."""
    chart = Chart(("x", "y", "z", "w")[:dim], complexified)
    rng = random.Random(40 + dim)

    def refused(*args):
        raise AssertionError("lie_derivative called insertion")

    for k, p in itertools.product(range(dim + 1), repeat=2):
        K = random_vvf(chart, k, rng, rational=rational)
        for omega in (
            random_kform(chart, p, rng, rational=rational),
            random_vvf(chart, p, rng, rational=rational),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(calculus, "insertion", refused)
                result = lie_derivative(K, omega)
            expected = cartan_lie_derivative(K, omega)
            assert result.degree == k + p
            assert result == expected, (k, p, type(omega).__name__)


def test_lie_derivative_of_the_zero_form_takes_no_exterior_d(monkeypatch):
    """L_K of a form with no coefficients is the zero form, and no dK^m is
    formed for it. negative_fail.json's J2bad has L = 0, so its cohomology
    check takes d of the anchor's four components, for L_K K, and nothing
    for L_K L in [K, L]_FN."""
    alg = load_manifest(str(MANIFESTS / "negative_fail.json")).algebroids["J2bad"]
    K, chart = alg.anchor, alg.chart
    calls = []

    def recording(a, _d=calculus.exterior_d):
        calls.append(a)
        return _d(a)

    monkeypatch.setattr(calculus, "exterior_d", recording)
    assert not check_cohomology(alg).passed
    assert calls == list(K.components)
    calls.clear()
    for omega in (KForm.zero(chart, 2), VectorValuedForm.zero(chart, 2)):
        assert lie_derivative(K, omega) == type(omega).zero(chart, 3)
    assert calls == []


def test_fn_bracket_of_vector_fields_is_lie_bracket():
    ch = Chart(("x", "y", "z"))
    rng = random.Random(7)
    X = random_vector_field(ch, rng)
    Y = random_vector_field(ch, rng)
    result = fn_bracket(
        VectorValuedForm.from_vector_field(X), VectorValuedForm.from_vector_field(Y)
    )
    assert result == VectorValuedForm.from_vector_field(lie_bracket(X, Y))


def test_fn_bracket_graded_symmetry():
    """[A,B] = -(-1)^{ab} [B,A]: symmetric in odd-odd, antisymmetric in even-even."""
    ch = Chart(("x", "y"))
    rng = random.Random(8)
    A = random_vvf(ch, 1, rng)
    B = random_vvf(ch, 1, rng)
    assert fn_bracket(A, B) == fn_bracket(B, A)
    X = VectorValuedForm.from_vector_field(random_vector_field(ch, rng))
    Y = VectorValuedForm.from_vector_field(random_vector_field(ch, rng))
    assert fn_bracket(X, Y) == -fn_bracket(Y, X)


@pytest.mark.parametrize("complexified", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_self_brackets_compose_once(complexified, degree, monkeypatch):
    """[A, A]_FN and [A, A]_RN act once, with A on A itself, and equal the
    bracket read off the graded commutator of two copies of the operator;
    [A, B] for B ≠ A acts once per side. Each bracket makes exactly those
    calls. The chart has room for the forms L_A L_A x^j of degree 2 deg A."""
    chart = Chart(("x", "y", "z", "w")[: max(2, 2 * degree)], complexified)
    rng = random.Random(20 + degree)
    A, B = (random_vvf(chart, degree, rng, degree=1) for _ in range(2))
    if degree < 2:  # a rational A of degree 2 on four coordinates takes minutes
        A = A.scaled(chart.scalar("1/(x^2+1)"))
    calls = []

    def counted(op):
        def wrapper(K, omega):
            calls.append(op.__name__)
            return op(K, omega)

        return wrapper

    monkeypatch.setattr(calculus, "lie_derivative", counted(lie_derivative))
    monkeypatch.setattr(calculus, "insertion", counted(insertion))
    # one action per side, on the other operand's n components at once
    for other, count in ((A, 1), (B, 2)):
        calls.clear()
        fn = fn_bracket(A, other)
        assert calls == ["lie_derivative"] * count
        assert fn == extracted_bracket(A, other, "fn")
        if degree:  # [A, A]_RN has degree 2 deg A - 1
            calls.clear()
            rn = rn_bracket(A, other)
            assert calls == ["insertion"] * count
            assert rn == extracted_bracket(A, other, "rn")


@CHARTS
@pytest.mark.parametrize("kind", ["fn", "rn"])
def test_brackets_are_the_extracted_commutator(kind, dim, complexified, rational):
    """fn_bracket and rn_bracket, one action per side on the other operand,
    equal the bracket read off the graded commutator [L_A, L_B] on x^j or
    [i_A, i_B] on dx^j (tests/helpers.py ``extracted_bracket``), for
    deg A, deg B in {0, 1, 2}, with B ≠ A and with B the object A.
    [X, Y]_RN of vector fields has degree -1 and raises on both routes."""
    chart = Chart(("x", "y", "z", "w")[:dim], complexified)
    rng = random.Random(40 + 10 * dim + 2 * complexified + rational)
    bracket = {"fn": fn_bracket, "rn": rn_bracket}[kind]
    forms = [random_vvf(chart, d, rng, degree=1, rational=rational) for d in (0, 0, 1, 1, 2, 2)]
    nonzero = 0
    for A, B in itertools.product(forms, repeat=2):
        if kind == "rn" and A.degree == B.degree == 0:
            for route in (bracket, lambda P, Q: extracted_bracket(P, Q, kind)):
                with pytest.raises(CalculusError, match="^component forms must share chart and degree$"):
                    route(A, B)
            continue
        result = bracket(A, B)
        assert result == extracted_bracket(A, B, kind), (A.degree, B.degree, B is A)
        nonzero += not result.is_zero
    assert nonzero >= 12


def test_torsion_is_half_fn_self_bracket():
    ch = Chart(("x", "y", "z"))
    rng = random.Random(9)
    N = random_vvf(ch, 1, rng)
    half = ch.const(Fraction(1, 2))
    assert fn_bracket(N, N).scaled(half) == nijenhuis_torsion(N)


def test_torsion_fixture_value():
    N = endo("N0")
    ch = N.chart
    T = nijenhuis_torsion(N)
    assert T(ch.basis_vector(2), ch.basis_vector(3)) == ch.basis_vector(0)
    value = T(ch.basis_vector(0), ch.basis_vector(1))
    assert value.is_zero


def test_rn_bracket_of_endomorphisms_vanishes_for_identity():
    ch = Chart(("x", "y"))
    rng = random.Random(10)
    A = random_vvf(ch, 1, rng)
    identity = VectorValuedForm.identity(ch)
    # [A, Id]_RN = A ∘ Id - Id ∘ A = 0 at degree 1.
    assert rn_bracket(A, identity).is_zero


def test_contracted_bracket_formula():
    """(N, 0) brackets by [X,Y]_N = [NX,Y] + [X,NY] - N[X,Y], which
    ``TangentAlgebroid.bracket`` reads off dN instead."""
    ch = Chart(("x", "y"))
    rng = random.Random(11)
    N = random_vvf(ch, 1, rng)
    X = random_vector_field(ch, rng)
    Y = random_vector_field(ch, rng)
    expected = (
        lie_bracket(N.apply(X), Y)
        + lie_bracket(X, N.apply(Y))
        - N.apply(lie_bracket(X, Y))
    )
    assert TangentAlgebroid(N, VectorValuedForm.zero(ch, 2)).bracket(X, Y) == expected


def test_fn_decompose_round_trip():
    """(K, L) is recovered from the actions of L_K + i_L, and any 1-form
    actions on the x^j with 2-form actions on the dx^j are those of the
    decomposed derivation."""
    ch = Chart(("x", "y", "z"))
    rng = random.Random(12)
    K = random_vvf(ch, 1, rng)
    L = random_vvf(ch, 2, rng)
    functions = []
    differentials = []
    for j in range(ch.dim):
        xj = ch.coordinate_function(j)
        functions.append(lie_derivative(K, xj) + insertion(L, xj))
        dxj = ch.dx(j)
        differentials.append(lie_derivative(K, dxj) + insertion(L, dxj))
    D = fn_decompose(ch, functions, differentials)
    assert D.anchor == K
    assert D.correction == L

    for dim, is_complex, seed in itertools.product((2, 3, 4), (False, True), range(4)):
        ch = Chart(("x", "y", "z", "w")[:dim], is_complex)
        rng = random.Random(seed)
        functions = [random_kform(ch, 1, rng, degree=1) for _ in range(dim)]
        differentials = [random_kform(ch, 2, rng, degree=1) for _ in range(dim)]
        D = fn_decompose(ch, functions, differentials)
        for j in range(dim):
            assert D(ch.coordinate_function(j)) == functions[j]
            assert D(ch.dx(j)) == differentials[j]


def test_fn_decompose_rejects_malformed_actions():
    from fncalc.calculus import CalculusError

    ch = Chart(("x", "y"))
    rng = random.Random(13)
    K = random_vvf(ch, 1, rng)
    functions = [lie_derivative(K, ch.coordinate_function(j)) for j in range(2)]
    # differential actions must be 2-forms; 1-forms are not realizable
    bad = [random_kform(ch, 1, rng) for _ in range(2)]
    with pytest.raises(CalculusError):
        fn_decompose(ch, functions, bad)
    with pytest.raises(CalculusError):
        fn_decompose(ch, functions[:1], bad)


def test_complexified_torsion_splits():
    """T of the complexified endomorphism on X+iY decomposes into real torsions."""
    ch = Chart(("x", "y"))
    rng = random.Random(14)
    for J in (endo("J0"), random_vvf(ch, 1, rng)):
        cJ = complexify_vvf(J)
        cch = cJ.chart
        i_unit = cch.scalar("i")
        T = nijenhuis_torsion(J)
        cT = nijenhuis_torsion(cJ)
        X = random_vector_field(ch, rng)
        Y = random_vector_field(ch, rng)
        X2 = random_vector_field(ch, rng)
        Y2 = random_vector_field(ch, rng)

        def lift(v):
            return VectorField(cch, [c.complexified() for c in v.components])

        Z = lift(X) + lift(Y).scaled(i_unit)
        W = lift(X2) + lift(Y2).scaled(i_unit)
        expected = (
            lift(T(X, X2))
            - lift(T(Y, Y2))
            + (lift(T(Y, X2)) + lift(T(X, Y2))).scaled(i_unit)
        )
        assert cT(Z, W) == expected


@CHARTS
def test_torsion_on_fields_is_the_bracket_formula(dim, complexified, rational, monkeypatch):
    """T_N(X,Y) = [NX,NY] - N[NX,Y] - N[X,NY] + N^2[X,Y] for a seeded N and
    non-constant X, Y with [X,Y] ≠ 0, so the N^2 term, which drops on the
    frame, counts. The torsion calls no bracket routine."""
    chart = Chart(("x", "y", "z", "w")[:dim], complexified)
    rng = random.Random(30 + dim)
    N = random_vvf(chart, 1, rng, degree=1, rational=rational)

    def refused(*args):
        raise AssertionError("nijenhuis_torsion called a bracket routine")

    with monkeypatch.context() as patch:
        for name in ("lie_bracket", "lie_derivative", "_extract", "fn_bracket"):
            patch.setattr(calculus, name, refused)
        T = nijenhuis_torsion(N)
    for _ in range(2):
        X, Y = random_vector_field(chart, rng, 1), random_vector_field(chart, rng, 1)
        assert not lie_bracket(X, Y).is_zero
        assert T(X, Y) == torsion_on_fields(N, X, Y)


@pytest.mark.parametrize("complexified", [False, True], ids=["real", "complex"])
def test_torsion_of_shift_by_identity_scales_by_square(complexified):
    """T_{λE+μ·Id} = λ²T_E; (λ, μ) are those of Id-N, p- and v = (Id-Γ)/2, and of
    p+ = (Id-iJ)/2 on a complexified chart."""
    rng = random.Random(16)
    pairs = [("-1", "1"), ("1/2", "1/2"), ("-1/2", "1/2")]
    if complexified:
        pairs.append(("-i/2", "1/2"))
    for dim in (2, 3):
        chart = Chart(("x", "y", "z")[:dim], complexified)
        identity = VectorValuedForm.identity(chart)
        E = random_vvf(chart, 1, rng)
        T = nijenhuis_torsion(E)
        assert not T.is_zero
        for lam_text, mu_text in pairs:
            lam, mu = chart.scalar(lam_text), chart.scalar(mu_text)
            shifted = E.scaled(lam) + identity.scaled(mu)
            assert nijenhuis_torsion(shifted) == T.scaled(lam * lam), (dim, lam_text)


def test_imaginary_coefficient_rejected_on_real_chart():
    ch = Chart(("x", "y"))
    cch = ch.complexify()
    with pytest.raises(ChartMismatchError, match="not on the chart's"):
        VectorField(ch, [cch.scalar("i*x"), ch.zero])
    with pytest.raises(ChartMismatchError, match="not on the chart's"):
        KForm(ch, 1, {(0,): ch.one, (1,): cch.scalar("x/(y-i)")})


def test_real_valued_gaussian_coefficients_rejected_on_real_chart():
    """A value over Z[i] stays off a real chart even when it is real, zero included."""
    ch = Chart(("x", "y"))
    cch = ch.complexify()
    with pytest.raises(ChartMismatchError):
        VectorField(ch, [cch.scalar("(i*x)*(i*y)"), ch.scalar("y")])
    with pytest.raises(ChartMismatchError):
        KForm(ch, 1, {(1,): cch.scalar("x/(y+1)")})
    with pytest.raises(ChartMismatchError):
        KForm(ch, 1, {(1,): cch.zero})
    X = VectorField(ch, [ch.scalar("-x*y"), ch.scalar("y")])
    with pytest.raises(ScalarError, match="mixed coordinate rings"):
        X(cch.scalar("x"))
    assert KForm(ch, 1, {(1,): ch.scalar("x/(y+1)")})(X) == ch.scalar("x*y/(y+1)")


def test_real_scalars_embed_on_complexified_chart():
    """Real scalars reach a complexified chart through ``complexified`` only."""
    ch = Chart(("x", "y"))
    cch = ch.complexify()
    real = [ch.scalar("x"), ch.scalar("1/(y+1)")]
    with pytest.raises(ChartMismatchError):
        VectorField(cch, real)
    with pytest.raises(ChartMismatchError):
        KForm(cch, 1, {(0,): ch.scalar("y")})
    Z = VectorField(cch, [c.complexified() for c in real])
    omega = KForm(cch, 1, {(0,): ch.scalar("y").complexified()})
    assert all(c.ring is cch.ring for c in Z.components)
    assert Z.scaled(cch.scalar("i")) == VectorField(
        cch, [cch.scalar("i*x"), cch.scalar("i/(y+1)")]
    )
    assert omega(Z) == cch.scalar("x*y")
    with pytest.raises(ChartMismatchError):
        VectorField(cch, [Chart(("x", "z")).scalar("x"), cch.zero])


def test_complexify_vvf_keeps_every_fixture_entry():
    """Each endomorphism of every manifest prints the same entries on the
    complexified chart, each on that chart's ring."""
    count = 0
    for path in sorted(MANIFESTS.glob("*.json")):
        for name, N in load_manifest(str(path)).endomorphisms.items():
            cN = complexify_vvf(N)
            assert cN.chart.ring is coordinate_ring(N.chart.coord_names, True)
            entries = [e for row in cN.matrix() for e in row]
            assert all(e.ring is cN.chart.ring for e in entries)
            assert [str(e) for e in entries] == [
                str(e) for row in N.matrix() for e in row
            ], (path.stem, name)
            count += 1
    assert count == 12  # the endomorphisms of all 9 manifests


def test_j2_torsion_value():
    J = endo("J2")
    ch = J.chart
    T = nijenhuis_torsion(J)
    assert T(ch.basis_vector(0), ch.basis_vector(2)) == ch.basis_vector(0)


class TestChartValue:
    """A chart is a value over its names and realness: ``repr`` is the one
    ``chart mismatch`` prints, and equality and hash ignore ``ring``."""

    REAL = "Chart(coord_names=('x', 'y'), is_complexified=False)"
    COMPLEX = "Chart(coord_names=('x', 'y'), is_complexified=True)"

    def test_repr_and_str(self):
        ch = Chart(("x", "y"))
        assert repr(ch) == str(ch) == self.REAL
        assert repr(ch.complexify()) == str(ch.complexify()) == self.COMPLEX
        assert repr(Chart(coord_names=("x", "y"), is_complexified=True)) == self.COMPLEX
        assert repr(Chart(("t",))) == "Chart(coord_names=('t',), is_complexified=False)"

    def test_mismatch_message(self):
        ch = Chart(("x", "y"))
        X = VectorField(ch, [ch.one, ch.zero])
        cX = VectorField(ch.complexify(), [ch.complexify().one, ch.complexify().zero])
        with pytest.raises(ChartMismatchError) as exc:
            X + cX
        assert str(exc.value) == f"chart mismatch: {self.REAL} vs {self.COMPLEX}"
        other = Chart(("x", "z"))
        with pytest.raises(ChartMismatchError) as exc:
            X - VectorField(other, [other.one, other.zero])
        assert str(exc.value) == (
            f"chart mismatch: {self.REAL} vs "
            "Chart(coord_names=('x', 'z'), is_complexified=False)"
        )

    def test_equality_and_hash_ignore_the_ring(self):
        a, b = Chart(("x", "y")), Chart(("x", "y"))
        assert a is not b and a == b and hash(a) == hash(b)
        object.__setattr__(b, "ring", coordinate_ring(("x", "y"), True))
        assert a == b and not a != b and hash(a) == hash(b)
        assert a == a and a != a.complexify() and a.complexify() == Chart(("x", "y"), True)
        assert a != Chart(("y", "x")) and a != Chart(("x", "z")) and a != ("x", "y")
        assert len({a, Chart(("x", "y")), a.complexify(), a.complexify()}) == 2


def test_kform_is_a_value():
    """A form equals and hashes by its fields, whatever the order its
    coefficients were given in; every tensor's ``repr`` names its fields."""
    ch = Chart(("x", "y"))
    x, y = ch.coordinate(0), ch.coordinate(1)
    a = KForm(ch, 1, {(0,): x, (1,): y})
    b = KForm(ch, 1, {(1,): y, (0,): x})
    assert a == b and hash(a) == hash(b)
    assert KForm(ch, 1, {(0,): x}) != KForm(ch, 1, {(0,): x}, 3)
    assert KForm(ch, 0) != KForm(ch, 1) and KForm(ch, 1) != ch.dx(0)
    assert repr(a).startswith("KForm(chart=Chart(")
    assert repr(a).endswith(", generators=2)") and ", degree=1, coeffs={" in repr(a)
    K = VectorValuedForm.identity(ch)
    assert repr(K).startswith("VectorValuedForm(chart=Chart(")
    assert ", degree=1, components=(KForm(chart=" in repr(K)
    assert repr(ch.basis_vector(0)).startswith("VectorField(chart=Chart(")
    assert ", components=(" in repr(ch.basis_vector(0))


class TestMemos:
    """A tensor derived from a record is computed once per record and kept on
    it: d on a form (and on a vector-valued form), T_N and K^{-1} on a
    vector-valued form, and conditions 1 and 2 of D^2 on an algebroid. The
    records are value objects that are never mutated, so a value-equal copy
    has the same derived tensors but keeps its own."""

    @staticmethod
    def cases():
        """(record, derivation) pairs on J2, its invertible algebroid's
        correction computed on another copy, so that no memo is set."""
        K = fresh(endo("J2"))
        alg = TangentAlgebroid(K, invertible_algebroid(fresh(K)).correction)
        return [
            (K.components[0], exterior_d),
            (K, exterior_d),
            (K, nijenhuis_torsion),
            (K, _anchor_inverse),
            (alg, _condition1),
            (alg, _condition2),
        ]

    def test_value_equal_records_compute_their_own_memos(self, monkeypatch):
        partials = []
        partial = ScalarExpr.partial

        def counting(self, var):
            partials.append(var)
            return partial(self, var)

        monkeypatch.setattr(ScalarExpr, "partial", counting)
        for record, derive in self.cases():
            first = derive(record)
            partials.clear()
            assert derive(record) is first and partials == [], derive.__name__
            copy = fresh(record)
            second = derive(copy)
            assert copy == record and second is not first and second == first
            # the copy differentiated again, unless the derivation takes no partial
            assert bool(partials) == (derive is not _anchor_inverse), derive.__name__

    def test_memos_stay_out_of_equality_hash_and_repr(self):
        for record, derive in self.cases():
            bare = fresh(record)
            derive(record)
            assert record == bare and bare == record and not record != bare
            assert hash(record) == hash(bare) and repr(record) == repr(bare)
        for cls, memos in (
            (KForm, {"_d"}),
            (VectorValuedForm, {"_d", "_torsion", "_inverse"}),
            (TangentAlgebroid, {"_condition1", "_condition2"}),
        ):
            assert set(cls.__slots__) == set(cls._fields) | memos, cls.__name__
            assert not memos & set(cls._fields)
