"""Test-side data and oracles.

- :func:`endo` reads the example endomorphisms from the manifests that
  declare them, so the matrices live in one place.
- :func:`fresh` copies a record without the memos the original carries.
- :func:`random_kform` and :func:`random_vvf` draw seeded polynomial forms,
  or with ``rational`` forms over :func:`random_quotient` coefficients.
- The closed forms, Cartan's formula, the bracket extraction, the
  structure equations of a bundle algebroid and the cross-check below
  compute, another way, what the library computes; the tests compare the
  two exactly.

Matrix convention everywhere: entry [i][j] is the ∂_i coefficient of the
image of ∂_j.
"""

import functools
import itertools
import pathlib
import random
from fractions import Fraction

from fncalc.algebroid import (
    BundleAlgebroid,
    LinearConnection,
    TangentAlgebroid,
    _frame_bundle,
    delta_torsion,
)
from fncalc.calculus import (
    Chart,
    KForm,
    VectorField,
    VectorValuedForm,
    exterior_d,
    insertion,
    lie_bracket,
    lie_derivative,
)
from fncalc.cli import load_manifest
from fncalc.randgen import random_scalar
from fncalc.scalar import ScalarExpr

MANIFESTS = pathlib.Path(__file__).resolve().parent.parent / "manifests"

#: Fixture name -> (manifest stem, endomorphism name in that manifest).
#:
#: - J0: constant almost-complex structure on the plane, ∂x -> ∂y, ∂y -> -∂x;
#: - J1: complex structure ∂x -> (1+x^2)∂y, ∂y -> -(1+x^2)^{-1}∂x;
#: - N0: idempotent with torsion on R^4, ∂x -> ∂x, ∂y -> ∂y, ∂z -> 0, ∂w -> -z∂x;
#: - P0: constant product structure ∂x -> ∂x, ∂y -> -∂y;
#: - P1: product structure ∂x -> ∂x + 2y∂y, ∂y -> -∂y;
#: - gamma0: curved Ehresmann projector on R^3, ∂x -> 0, ∂y -> -x∂z, ∂z -> ∂z;
#: - J2: non-integrable almost-complex structure on R^4,
#:   ∂x -> ∂y, ∂y -> -∂x, ∂z -> ∂w + x∂y, ∂w -> -∂z + x∂x.
ENDOMORPHISMS = {
    "J0": ("f1_complex", "J0"),
    "J1": ("f1_complex", "J1"),
    "N0": ("f2_idempotent", "N"),
    "P0": ("f3_product", "P0"),
    "P1": ("f3_product", "P1"),
    "gamma0": ("f4_foliation", "gamma"),
    "J2": ("f6_invertible", "J2"),
}


@functools.cache
def _manifest(stem: str):
    return load_manifest(str(MANIFESTS / f"{stem}.json"))


def endo(name: str) -> VectorValuedForm:
    """The fixture endomorphism ``name`` (a key of :data:`ENDOMORPHISMS`)."""
    stem, key = ENDOMORPHISMS[name]
    return _manifest(stem).endomorphisms[key]


def fresh(record):
    """A value-equal copy of a ``KForm``, ``VectorValuedForm`` or
    ``TangentAlgebroid`` rebuilt down to new ``KForm``s, so that it carries
    none of the memos the original may hold (:func:`endo` returns cached
    records, which keep their memos from one test to the next). A test that
    counts calls or plants a bug takes its records through this."""
    if isinstance(record, TangentAlgebroid):
        return TangentAlgebroid(fresh(record.anchor), fresh(record.correction))
    if isinstance(record, VectorValuedForm):
        return VectorValuedForm(record.chart, record.degree, [fresh(c) for c in record.components])
    return KForm(record.chart, record.degree, record.coeffs, record.generators)


def random_quotient(chart: Chart, rng: random.Random, degree: int = 2) -> ScalarExpr:
    """A random polynomial over 1 + x^2 (x the first coordinate): sums of these
    quotients and of their partials stay cheap over Q(i) too, which sums over
    denominators in several coordinates do not."""
    x = chart.coordinate(0)
    return random_scalar(chart, rng, degree) / (chart.one + x * x)


def random_kform(
    chart: Chart, form_degree: int, rng: random.Random, degree: int = 2, rational: bool = False
) -> KForm:
    draw = random_quotient if rational else random_scalar
    coeffs = {
        key: draw(chart, rng, degree)
        for key in itertools.combinations(range(chart.dim), form_degree)
    }
    return KForm(chart, form_degree, coeffs)


def random_vvf(
    chart: Chart, form_degree: int, rng: random.Random, degree: int = 2, rational: bool = False
) -> VectorValuedForm:
    return VectorValuedForm(
        chart,
        form_degree,
        [random_kform(chart, form_degree, rng, degree, rational) for _ in range(chart.dim)],
    )


def seeded_idempotent(chart: Chart, rank: int, rng: random.Random) -> VectorValuedForm:
    """N = P·E·P^{-1} with E = diag(1..1, 0..0) of the given rank and P a
    product of 1-3 elementary matrices Id + f·E_ij, f = ±x_k^e: P^{-1} is the
    reversed product with -f, so N is polynomial and N^2 = N by construction.
    Im N is spanned by the first ``rank`` columns of P and ker N by the rest."""
    n = chart.dim
    identity = VectorValuedForm.identity(chart)

    def elementary(i: int, j: int, f: ScalarExpr) -> VectorValuedForm:
        mat = identity.matrix()
        mat[i][j] = f
        return VectorValuedForm.from_matrix(chart, mat)

    P = P_inverse = identity
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        x = chart.coordinate(rng.randrange(n))
        f = x ** rng.randint(1, 2) * chart.const(rng.choice((1, -1)))
        P, P_inverse = P.compose(elementary(i, j, f)), elementary(i, j, -f).compose(P_inverse)
    E = VectorValuedForm.from_matrix(
        chart, [[chart.one if i == j < rank else chart.zero for j in range(n)] for i in range(n)]
    )
    return P.compose(E).compose(P_inverse)


def flat_connection(chart: Chart, rank: int) -> LinearConnection:
    """The connection with all Christoffel symbols zero."""
    block = tuple(tuple(chart.zero for _ in range(rank)) for _ in range(rank))
    return LinearConnection(chart, rank, tuple(block for _ in range(chart.dim)))


def bracket_full_form(
    N: VectorValuedForm, X: VectorField, Y: VectorField
) -> VectorField:
    """The idempotent algebroid's bracket in the closed form
    [NX,NY] + (Id-N)([NX,Y] + [X,NY])."""
    nx, ny = N.apply(X), N.apply(Y)
    middle = lie_bracket(nx, Y) + lie_bracket(X, ny)
    return lie_bracket(nx, ny) + middle - N.apply(middle)


def cartan_lie_derivative(K: VectorValuedForm, omega):
    """L_K omega by Cartan's formula L_K = [i_K, d] = i_K d - (-1)^(k-1) d i_K,
    from ``insertion`` and ``exterior_d`` alone; i_K of a function is zero."""
    first = insertion(K, exterior_d(omega))
    if omega.degree == 0:
        return first
    second = exterior_d(insertion(K, omega))
    return first - second if K.degree % 2 else first + second


def graded_commutator_on(op1, op2, omega):
    """[D1, D2] omega for two operators given as (callable, degree) pairs;
    ``omega`` is a form, or a vector-valued form that both operators act on."""
    (f1, d1), (f2, d2) = op1, op2
    first = f1(f2(omega))
    second = f2(f1(omega))
    if (d1 * d2) % 2 == 0:
        return first - second
    return first + second


#: bracket kind -> (operator of a vector-valued form, its degree shift, generator)
BRACKET_OPERATORS = {
    "fn": (lie_derivative, 0, Chart.coordinate_function),
    "rn": (insertion, -1, Chart.dx),
}


def extracted_bracket(A: VectorValuedForm, B: VectorValuedForm, kind: str) -> VectorValuedForm:
    """[A, B]_FN (``kind`` "fn") or [A, B]_RN ("rn") read off the graded
    commutator [L_A, L_B] on the coordinate functions x^j, or [i_A, i_B] on
    the differentials dx^j. The two operators are distinct objects even when
    A is B, so the commutator composes both ways."""
    action, shift, generator = BRACKET_OPERATORS[kind]
    chart = A.chart
    gens = [generator(chart, j) for j in range(chart.dim)]
    commutator = graded_commutator_on(
        (lambda w: action(A, w), A.degree + shift),
        (lambda w: action(B, w), B.degree + shift),
        VectorValuedForm(chart, gens[0].degree, gens),
    )
    return VectorValuedForm(chart, A.degree + B.degree + shift, commutator.components)


def torsion_on_fields(N: VectorValuedForm, X: VectorField, Y: VectorField) -> VectorField:
    """T_N(X,Y) = [NX,NY] - N[NX,Y] - N[X,NY] + N^2[X,Y] on fields, from
    ``lie_bracket``, ``apply`` and ``compose`` alone; unlike the frame formula
    of ``nijenhuis_torsion`` it keeps the N^2 term, as [X,Y] need not vanish."""
    nx, ny = N.apply(X), N.apply(Y)
    return (
        lie_bracket(nx, ny)
        - N.apply(lie_bracket(nx, Y) + lie_bracket(X, ny))
        + N.compose(N).apply(lie_bracket(X, Y))
    )


def contracted_bracket(K: VectorValuedForm, X: VectorField, Y: VectorField) -> VectorField:
    """[X,Y]_K = [KX,Y] + [X,KY] - K[X,Y], from ``lie_bracket`` and ``apply``
    alone: with it, [X,Y]_K - L(X,Y) is the algebroid bracket by its
    definition, which ``TangentAlgebroid.bracket`` reads off dK - L instead."""
    return lie_bracket(K.apply(X), Y) + lie_bracket(X, K.apply(Y)) - K.apply(lie_bracket(X, Y))


def product_bracket_form(P: VectorValuedForm, X: VectorField, Y: VectorField) -> VectorField:
    """The product algebroid's bracket in the closed form ([X,Y] - [X,Y]_P)/2."""
    half = P.chart.const(Fraction(1, 2))
    return (lie_bracket(X, Y) - contracted_bracket(P, X, Y)).scaled(half)


def symmetric_connection_cross_check(
    conn: LinearConnection, alg: TangentAlgebroid
) -> list[tuple[str, VectorField]]:
    """Residuals of L^∇(X,Y) = [X,Y]_q + (∇_Y q)X - (∇_X q)Y - [[X,Y]] on frame pairs.

    The identity holds for E = TM and a symmetric ∇ of rank dim, which the
    caller supplies. L^∇ is :func:`delta_torsion` on the frame bundle, where
    [e_a,e_b]_q - [[e_a,e_b]] = L(e_a,e_b), so component k of the residual on
    (e_a, e_b) is the one sum L^∇(e_a,e_b)^k - L^k_ab - (∇_b q)^k_a + (∇_a q)^k_b.
    """
    chart, n = alg.chart, alg.chart.dim
    qmat, one = alg.anchor.matrix(), chart.one
    torsion = delta_torsion(conn, _frame_bundle(alg))
    basis = chart.basis_vectors()

    def nabla_q(i: int, j: int, k: int, negate: bool):
        # (∇_i q)^k_j = ∂_i q^k_j + Γ_{im}^k q^m_j - Γ_{ij}^m q^k_m
        yield qmat[k][j].partial(chart.coord_names[i]), one, negate
        for m in range(n):
            yield conn.gamma[i][m][k], qmat[m][j], negate
            yield conn.gamma[i][j][m], qmat[k][m], not negate

    residuals = []
    for a, b in itertools.combinations(range(n), 2):
        correction = alg.correction(basis[a], basis[b]).components
        residual = [
            ScalarExpr.sum_of_products(chart.ring, itertools.chain(
                [(torsion[a, b][k], one, False), (correction[k], one, True)],
                nabla_q(b, a, k, True),
                nabla_q(a, b, k, False),
            ))
            for k in range(n)
        ]
        residuals.append((f"(e{a + 1},e{b + 1})", VectorField(chart, residual)))
    return residuals


def _structure_residuals(balg: BundleAlgebroid) -> tuple[dict, dict]:
    """The two structure equations of a bundle algebroid on its frame.

    By pair a < b, the anchor residual field Σ_d c_ab^d q_d - [q_a, q_b]. By
    triple a < b < c, the r components of the Jacobiator
    Σ_cyclic q_x(c_yz^d) + Σ_e c_yz^e c_xe^d, each one sum of products.
    """
    chart, rank = balg.chart, balg.rank
    ring, names, coef = chart.ring, chart.coord_names, balg.structure
    anchor = {}
    for a, b in itertools.combinations(range(rank), 2):
        image = VectorField(chart, [
            ScalarExpr.sum_of_products(ring, zip(coef[a][b], column, itertools.repeat(False)))
            for column in zip(*balg.anchor)
        ])
        anchor[a, b] = image - lie_bracket(balg.anchor_field(a), balg.anchor_field(b))

    def jacobiator(a: int, b: int, c: int, d: int):
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            f = coef[y][z][d]
            if not f.is_zero:
                for q, name in zip(balg.anchor[x], names):
                    if not q.is_zero:
                        yield q, f.partial(name), False
            for e in range(rank):
                yield coef[y][z][e], coef[x][e][d], False

    jacobi = {
        key: [ScalarExpr.sum_of_products(ring, jacobiator(*key, d)) for d in range(rank)]
        for key in itertools.combinations(range(rank), 3)
    }
    return anchor, jacobi
