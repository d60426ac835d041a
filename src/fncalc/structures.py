"""Named geometric constructions: idempotent, complex, product, foliation and
tangent-bundle algebroids, with the side identities each one is known to satisfy.

Every construction validates its structural preconditions exactly (raising a
typed error on violation) and returns a :class:`TangentAlgebroid` or the
relevant operator data. Identities that hold for every input (torsion
relations such as T_{λE+μ·Id} = λ²T_E, bracket closed forms, the split of d
and of a form by a projector) are pinned by the test suite and not checked
at run time.

An idempotent N keeps its algebroid (N, -T_N) once accepted, so its
preconditions are decided once per object: N^2 = N, and the involutivity
of its image, which T_N decides as (Id-N)T_N(e_a, e_b) = (Id-N)[N e_a,
N e_b]. The foliation check and the bigraded pieces of d read that one
algebroid; a rejected N keeps nothing and raises on every call. Complex,
product and connection structures all build their projector as one
half-projector (Id - E)/2: p± from E = ±iJ, p- from E = P and v from E =
Gamma. It is idempotent exactly when E^2 = Id, that is J^2 = -Id, P^2 = Id
or Gamma^2 = Id, so it is not re-checked; an integrable complex or product
structure needs no projector torsion at all.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .algebroid import TangentAlgebroid
from .calculus import (
    CalculusError,
    Chart,
    KForm,
    VectorField,
    VectorValuedForm,
    _kept,
    _Record,
    complexify_vvf,
    fn_bracket,
    lie_bracket,
    nijenhuis_torsion,
)
from .linalg import column_space_basis
from .scalar import ScalarExpr

__all__ = [
    "StructureError",
    "NotIdempotentError",
    "ImageNotInvolutiveError",
    "TorsionNotZeroError",
    "NotAlmostComplexError",
    "NotAlmostProductError",
    "NotSemisprayError",
    "NotConnectionError",
    "idempotent_algebroid",
    "complement_operator",
    "complex_projectors",
    "complex_algebroid",
    "product_algebroid",
    "FoliationData",
    "foliation_connection",
    "BigradedForm",
    "bigrade",
    "d_components",
    "TangentChartData",
    "tangent_chart",
    "tangent_data_for_chart",
    "semispray",
    "is_semispray",
    "connection_from_semispray",
    "connection_algebroid",
]


class StructureError(CalculusError):
    pass


class NotIdempotentError(StructureError):
    pass


class ImageNotInvolutiveError(StructureError):
    def __init__(self, pair: tuple[int, int], residual: VectorField):
        super().__init__(
            f"image is not involutive: (Id-N)[N e{pair[0] + 1}, N e{pair[1] + 1}] = {residual}"
        )
        self.pair = pair
        self.residual = residual


class TorsionNotZeroError(StructureError):
    pass


class NotAlmostComplexError(StructureError):
    pass


class NotAlmostProductError(StructureError):
    pass


class NotSemisprayError(StructureError):
    pass


class NotConnectionError(StructureError):
    pass


# ---------------------------------------------------------------------------
# Idempotent endomorphisms
# ---------------------------------------------------------------------------


def _require_idempotent(N: VectorValuedForm) -> None:
    if N.degree != 1:
        raise StructureError("expected a degree-1 endomorphism field")
    if N.compose(N) != N:
        raise NotIdempotentError("endomorphism does not satisfy N^2 = N")


def _projector_torsion(N: VectorValuedForm) -> VectorValuedForm:
    """T_N of an idempotent N whose image is involutive; ImageNotInvolutiveError
    unless it is.

    Basis images generate Im N as a module, and Leibniz correction terms of
    module generators stay inside the distribution, so (Id-N)[N e_a, N e_b]
    = 0 on frame pairs decides involutivity. For a projector that vector is
    (Id-N)T_N(e_a, e_b), so the first nonzero frame pair of T_N - N∘T_N is
    the first bracket that leaves the image.
    """
    torsion = nijenhuis_torsion(N)
    residual = torsion - N.compose(torsion)
    pairs = [key for comp in residual.components for key in comp.coeffs]
    if pairs:
        a, b = min(pairs)
        basis = N.chart.basis_vectors()
        raise ImageNotInvolutiveError((a, b), residual(basis[a], basis[b]))
    return torsion


@_kept
def idempotent_algebroid(N: VectorValuedForm) -> TangentAlgebroid:
    """Anchor N, bracket [X,Y]_N + T_N(X,Y), for idempotent N with involutive
    image; kept on N once accepted, so a rejected N raises on every call."""
    _require_idempotent(N)
    return TangentAlgebroid(N, -_projector_torsion(N))


def complement_operator(N: VectorValuedForm) -> TangentAlgebroid:
    """L_{Id-N} for a torsion-free idempotent N; a cohomology operator."""
    _require_idempotent(N)
    torsion = nijenhuis_torsion(N)
    if not torsion.is_zero:
        raise TorsionNotZeroError("complement operator requires T_N = 0")
    chart = N.chart
    complement = VectorValuedForm.identity(chart) - N
    return TangentAlgebroid(complement, VectorValuedForm.zero(chart, 2))


# ---------------------------------------------------------------------------
# Complex and product structures
# ---------------------------------------------------------------------------


def _require_square(E: VectorValuedForm, sign: int, error: type, name: str) -> None:
    """Raise ``error`` unless E^2 = sign Id."""
    chart = E.chart
    if E.compose(E) != VectorValuedForm.identity(chart).scaled(chart.const(sign)):
        raise error(f"endomorphism does not satisfy {name}^2 = {sign} Id")


def _half(E: VectorValuedForm) -> VectorValuedForm:
    """(Id - E)/2, which is idempotent exactly when E^2 = Id."""
    chart = E.chart
    return (VectorValuedForm.identity(chart) - E).scaled(chart.one / chart.const(2))


def _times_i(J: VectorValuedForm) -> VectorValuedForm:
    """iJ on the complexified chart."""
    cJ = complexify_vvf(J)
    return cJ.scaled(cJ.chart.scalar("i"))


def _require_integrable(E: VectorValuedForm, structure: str) -> None:
    """Raise TorsionNotZeroError naming the first nonzero entry of T_E."""
    torsion = nijenhuis_torsion(E)
    names = E.chart.coord_names
    for j, comp in enumerate(torsion.components):
        if comp.coeffs:
            key = min(comp.coeffs)
            args = ",".join(f"e_{names[a]}" for a in key)
            raise TorsionNotZeroError(
                f"almost-{structure} structure is not integrable: torsion nonzero, "
                f"T({args}) has d/d{names[j]} component {comp.coeffs[key]}"
            )


def complex_projectors(J: VectorValuedForm) -> tuple[VectorValuedForm, VectorValuedForm]:
    """The projectors p± = (Id ∓ iJ)/2 on the complexified chart.

    Requires J^2 = -Id, which is equivalent to the projector algebra
    p±^2 = p±, p+ p- = 0; p+ + p- = Id holds by construction. Their torsion
    satisfies T_{p+} = -T_J/4, which the test suite pins. For J^2 = -c^2 Id,
    pass J/c.
    """
    _require_square(J, -1, NotAlmostComplexError, "J")
    iJ = _times_i(J)
    return _half(iJ), _half(-iJ)


def complex_algebroid(J: VectorValuedForm) -> TangentAlgebroid:
    """The algebroid with anchor p+ and correction 0 on the complexified chart.

    Requires J^2 = -Id and T_J = 0. Then T_{p+} = -T_J/4 = 0, so the
    holomorphic distribution Im p+ is involutive and the idempotent
    algebroid of p+ has correction -T_{p+} = 0. Both conditions on J are
    checked on J's own chart, so a J that fails them never builds the
    complexified one.
    """
    _require_square(J, -1, NotAlmostComplexError, "J")
    _require_integrable(J, "complex")
    p_plus = _half(_times_i(J))
    return TangentAlgebroid(p_plus, VectorValuedForm.zero(p_plus.chart, 2))


def product_algebroid(P: VectorValuedForm) -> TangentAlgebroid:
    """The algebroid with anchor p- = (Id - P)/2 and correction 0.

    Requires P^2 = Id and T_P = 0. Then T_{p-} = T_P/4 = 0, so Im p- is
    involutive and the idempotent algebroid of p- has correction 0.
    """
    _require_square(P, 1, NotAlmostProductError, "P")
    _require_integrable(P, "product")
    return TangentAlgebroid(_half(P), VectorValuedForm.zero(P.chart, 2))


# ---------------------------------------------------------------------------
# Foliations via Ehresmann projectors
# ---------------------------------------------------------------------------


def _adapted_frames(
    gamma: VectorValuedForm,
) -> tuple[list[VectorField], list[VectorField]]:
    """(horizontal, vertical) frames spanning ker(gamma) and im(gamma).

    Columns of Id-gamma span the kernel and columns of gamma span the
    image; a maximal independent set of each is selected by exact column
    reduction over the rational-function field.
    """
    chart = gamma.chart
    gmat = gamma.matrix()
    hmat = (VectorValuedForm.identity(chart) - gamma).matrix()

    def frame(mat) -> list[VectorField]:
        cols = column_space_basis(mat, chart)
        return [
            VectorField(chart, [mat[i][c] for i in range(chart.dim)]) for c in cols
        ]

    return frame(hmat), frame(gmat)


class FoliationData(_Record):
    """Curvature, adapted frames and bracket-table residuals of an Ehresmann projector."""

    __slots__ = _fields = ("curvature", "horizontal", "vertical", "bracket_table")


def foliation_connection(gamma: VectorValuedForm) -> FoliationData:
    """The foliation algebroid of a projector, with curvature R = T_gamma.

    The explicit four-case bracket table is re-verified on a frame adapted
    to ker(gamma) ⊕ im(gamma): horizontal pairs bracket to zero, vertical
    pairs to the plain Lie bracket, mixed pairs to the horizontal part of
    the Lie bracket.
    """
    alg = idempotent_algebroid(gamma)
    curvature = -alg.correction
    horizontal, vertical = _adapted_frames(gamma)
    table: list[tuple[str, VectorField]] = []
    for a, b in itertools.combinations(range(len(horizontal)), 2):
        residual = alg.bracket(horizontal[a], horizontal[b])
        table.append((f"(h{a + 1},h{b + 1})", residual))
    for a, X in enumerate(horizontal):
        for b, Y in enumerate(vertical):
            br = lie_bracket(X, Y)
            expected = br - gamma.apply(br)
            table.append((f"(h{a + 1},v{b + 1})", alg.bracket(X, Y) - expected))
    for a, b in itertools.combinations(range(len(vertical)), 2):
        expected = lie_bracket(vertical[a], vertical[b])
        table.append(
            (f"(v{a + 1},v{b + 1})", alg.bracket(vertical[a], vertical[b]) - expected)
        )
    return FoliationData(curvature, tuple(horizontal), tuple(vertical), tuple(table))


class BigradedForm(_Record):
    """A (p, q)-component of a form relative to the splitting of a projector."""

    __slots__ = _fields = ("form", "p", "q")


def bigrade(omega: KForm, gamma: VectorValuedForm) -> list[BigradedForm]:
    """Decompose a form by horizontal/vertical argument counts.

    The (p, q)-component feeds every argument through Id-gamma except for q
    of them, which go through gamma, summed over all argument subsets. The
    components sum to the original form, which the test suite pins.
    """
    _require_idempotent(gamma)
    chart = omega.chart
    d = omega.degree
    identity = VectorValuedForm.identity(chart)
    h_proj, v_proj = identity - gamma, gamma
    basis = chart.basis_vectors()
    out: list[BigradedForm] = []
    for q in range(d + 1):
        p = d - q
        coeffs = {}
        for key in itertools.combinations(range(chart.dim), d):
            terms = []
            for vertical_slots in itertools.combinations(range(d), q):
                args = [
                    (v_proj if t in vertical_slots else h_proj).apply(basis[j])
                    for t, j in enumerate(key)
                ]
                terms.append((omega(*args), chart.one, False))
            coeffs[key] = ScalarExpr.sum_of_products(chart.ring, terms)
        component = KForm(chart, d, coeffs)
        if not component.is_zero:
            out.append(BigradedForm(component, p, q))
    return out


def d_components(
    gamma: VectorValuedForm,
) -> tuple[TangentAlgebroid, TangentAlgebroid, TangentAlgebroid]:
    """(K, L) pairs of the three bigraded pieces of d: (d_{1,0}, d_{2,-1}, d_{0,1}).

    d_{0,1} = L_gamma + i_{-R}, R the curvature of the projector, is the
    idempotent algebroid kept on gamma; d_{2,-1} = i_{-R} and d_{1,0} =
    L_{Id-gamma} + i_{2R} are read off its correction. That they sum to the
    exterior differential holds for every projector and is pinned by the
    test suite.
    """
    d01 = idempotent_algebroid(gamma)
    chart = gamma.chart
    d10 = TangentAlgebroid(
        VectorValuedForm.identity(chart) - gamma, d01.correction.scaled(chart.const(-2))
    )
    d2m1 = TangentAlgebroid(VectorValuedForm.zero(chart, 1), d01.correction)
    return d10, d2m1, d01


# ---------------------------------------------------------------------------
# Tangent structures, semisprays and connections
# ---------------------------------------------------------------------------


class TangentChartData(_Record):
    """Chart (x^1..x^n, u^1..u^n) with vertical endomorphism and Liouville field."""

    __slots__ = _fields = ("chart", "vertical_endomorphism", "liouville")

    @property
    def n(self) -> int:
        return self.chart.dim // 2


def tangent_chart(n: int) -> TangentChartData:
    """Canonical tangent-bundle data on a 2n-chart with coordinates x^i, u^i."""
    if n < 1:
        raise StructureError("n must be positive")
    names = tuple(f"x{i + 1}" for i in range(n)) + tuple(
        f"u{i + 1}" for i in range(n)
    )
    return tangent_data_for_chart(Chart(names))


def tangent_data_for_chart(chart: Chart) -> TangentChartData:
    """Tangent-bundle data on an even chart, fiber coordinates second.

    With the first n coordinates as base and the last n as fiber:
    J(∂x^i) = ∂u^i, J(∂u^i) = 0, C = Σ u^i ∂u^i. J^2 = 0, J C = 0,
    T_J = 0 and L_C J = -J hold on every such chart; the test suite pins
    them.
    """
    if chart.dim % 2 or chart.dim == 0:
        raise StructureError("a tangent chart needs an even, positive dimension")
    n = chart.dim // 2
    zero, one = chart.zero, chart.one
    mat = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        mat[n + i][i] = one
    J = VectorValuedForm.from_matrix(chart, mat)
    C = VectorField(
        chart,
        [zero] * n + [chart.coordinate(n + i) for i in range(n)],
    )
    return TangentChartData(chart, J, C)


def semispray(tc: TangentChartData, force: Sequence[ScalarExpr]) -> VectorField:
    """S = u^i ∂x^i + f^i ∂u^i; satisfies J∘S = C by construction."""
    chart, n, force = tc.chart, tc.n, list(force)
    if len(force) != n:
        raise StructureError("one force component per base coordinate required")
    return VectorField(chart, [chart.coordinate(n + i) for i in range(n)] + force)


def is_semispray(tc: TangentChartData, S: VectorField) -> bool:
    return tc.vertical_endomorphism.apply(S) == tc.liouville


def connection_from_semispray(
    tc: TangentChartData, S: VectorField
) -> VectorValuedForm:
    """The connection Gamma = -L_S J of a semispray S, checked to satisfy J S = C.

    J Gamma = J, Gamma J = -J and Gamma^2 = Id then hold for every
    semispray, and the test suite pins them; :func:`connection_algebroid`
    checks Gamma^2 = Id of the connection it is given.
    """
    if not is_semispray(tc, S):
        raise NotSemisprayError("field is not a semispray: J S != C")
    return -fn_bracket(VectorValuedForm.from_vector_field(S), tc.vertical_endomorphism)


def connection_algebroid(gamma: VectorValuedForm) -> TangentAlgebroid:
    """The algebroid of the vertical projector v = (Id - Gamma)/2 of a connection.

    Its bracket is ([A,B] - [A,B]_Gamma)/2 + T_Gamma(A,B)/4 and T_v =
    T_Gamma/4 for every connection; the test suite pins both.
    """
    _require_square(gamma, 1, NotConnectionError, "Gamma")
    v = _half(gamma)
    return TangentAlgebroid(v, -_projector_torsion(v))
