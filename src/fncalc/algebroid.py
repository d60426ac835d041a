"""Lie algebroids on a chart and the degree-1 derivations that define them.

A :class:`TangentAlgebroid` is the pair (K, L) of a degree-1 derivation
D = L_K + i_L on the chart's forms, with bracket [[X,Y]] = [X,Y]_K - L(X,Y);
it is a Lie algebroid on the tangent bundle exactly when D^2 = 0.
A :class:`BundleAlgebroid` is a trivialized rank-r bundle given by anchor
functions and one antisymmetric table of structure functions, with its own
de Rham-type operator on fiber forms. A fiber form is a
:class:`~fncalc.calculus.KForm` over the ``rank`` generators η^0..η^{r-1}
of the dual frame (``KForm(chart, degree, coeffs, rank)``), so it shares
the wedge terms of tangent forms.

The bracket is stated once, by the vector-valued 2-form F = dK - L
(:func:`_structure_form`), whose frame values are the c_ab = [[e_a, e_b]]. So
on the coordinate frame a tangent algebroid is a rank-n bundle algebroid
(:func:`_frame_bundle`) with anchors K e_a and structure functions c_ab, and a
connection's E-torsion is :func:`delta_torsion` on either. Both axiom checks
read their anchor and Jacobi residuals off D^2 on the generators.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping, Sequence

from .calculus import (
    CalculusError,
    Chart,
    ChartMismatchError,
    KForm,
    VectorField,
    VectorValuedForm,
    _kept,
    _off_chart,
    _Record,
    _sum_terms,
    _wedge_terms,
    exterior_d,
    fn_bracket,
    insertion,
    lie_derivative,
    nijenhuis_torsion,
)
from .linalg import SingularMatrixError, inverse
from .randgen import random_vector_field
from .scalar import ScalarExpr

__all__ = [
    "AlgebroidError",
    "SingularAnchorError",
    "TangentAlgebroid",
    "fn_decompose",
    "derivation_from_algebroid",
    "CohomologyReport",
    "check_cohomology",
    "AxiomReport",
    "check_axioms",
    "invertible_algebroid",
    "verify_trivial_isomorphism",
    "BundleAlgebroid",
    "LinearConnection",
    "bundle_de_rham",
    "BundleAxiomReport",
    "check_bundle_axioms",
    "nabla_K",
    "delta_torsion",
    "verify_connection_decomposition",
]


class AlgebroidError(CalculusError):
    pass


class SingularAnchorError(AlgebroidError):
    pass


class TangentAlgebroid(_Record):
    """The degree-1 derivation D = L_K + i_L by its anchor K and correction L.

    D defines the bracket [[X,Y]] = [X,Y]_K - L(X,Y); the pair is a Lie
    algebroid exactly when D^2 = 0 (:func:`check_cohomology`).
    """

    _fields = ("anchor", "correction")
    __slots__ = _fields + ("_condition1", "_condition2")

    def __init__(self, anchor: VectorValuedForm, correction: VectorValuedForm):
        if anchor.chart != correction.chart:
            raise ChartMismatchError("anchor and correction on different charts")
        if anchor.degree != 1 or correction.degree != 2:
            raise AlgebroidError("algebroid data must have degrees (1, 2)")
        self.anchor, self.correction = anchor, correction

    @property
    def chart(self) -> Chart:
        return self.anchor.chart

    def __call__(self, omega: KForm) -> KForm:
        return lie_derivative(self.anchor, omega) + insertion(self.correction, omega)

    def bracket(self, X: VectorField, Y: VectorField) -> VectorField:
        """[[X,Y]] = F(X,Y) + ∂_{KX}Y - ∂_{KY}X for F = dK - L and ∂ = :func:`_along`:
        the Leibniz expansion of X and Y in the frame. Its one caller in the
        library is the foliation table; every check reads D^2 or F instead."""
        K = self.anchor
        return _structure_form(self)(X, Y) + _along(K.apply(X), Y) - _along(K.apply(Y), X)


def fn_decompose(
    chart: Chart,
    action_on_functions: Sequence[KForm],
    action_on_differentials: Sequence[KForm],
) -> TangentAlgebroid:
    """Recover the unique pair (K, L) with D = L_K + i_L from generator actions.

    ``action_on_functions[j]`` is D(x^j) (a 1-form) and
    ``action_on_differentials[j]`` is D(dx^j) (a 2-form). K^j = D(x^j) and
    L^j = D(dx^j) - L_K dx^j, so L_K + i_L reproduces both actions by
    construction: (L_K + i_L) x^j = i_K dx^j = K^j and
    (L_K + i_L) dx^j = L_K dx^j + L^j; tests/test_calculus.py pins the round trip.
    """
    if len(action_on_functions) != chart.dim or len(
        action_on_differentials
    ) != chart.dim:
        raise AlgebroidError("one generator action per coordinate required")
    K = VectorValuedForm(chart, 1, action_on_functions)
    # L_K on all n differentials at once: the identity's components are the dx^j
    lie = lie_derivative(K, VectorValuedForm.identity(chart)).components
    L = VectorValuedForm(chart, 2, [a - b for a, b in zip(action_on_differentials, lie)])
    return TangentAlgebroid(K, L)


def derivation_from_algebroid(alg: TangentAlgebroid) -> TangentAlgebroid:
    """The pair of the algebroid's de Rham-type operator, read off its generator actions.

    The operator is :func:`bundle_de_rham` of the rank-n frame bundle
    (:func:`_frame_bundle`), whose fiber forms are the chart's forms. It is
    L_K + i_L for every algebroid (tests/test_algebroid.py pins it on forms
    of every degree), so the returned pair reproduces (anchor, correction).
    """
    chart = alg.chart
    frame = _frame_bundle(alg)
    return fn_decompose(
        chart,
        [bundle_de_rham(frame, chart.coordinate_function(j)) for j in range(chart.dim)],
        [bundle_de_rham(frame, chart.dx(j)) for j in range(chart.dim)],
    )


class CohomologyReport(_Record):
    """Residuals of the two square-zero tensor conditions for D = L_K + i_L:
    (1/2)[K,K]_FN + i_L K of degree 2, and [K,L]_FN + (1/2)[L,L]_RN of degree 3."""

    __slots__ = _fields = ("condition1", "condition2")

    @property
    def passed(self) -> bool:
        return self.condition1.is_zero and self.condition2.is_zero


def check_cohomology(alg: TangentAlgebroid) -> CohomologyReport:
    """The (K, L) pair (K', L') of the derivation D^2, each kept on ``alg``,
    for D = L_K + i_L: ``alg`` is a Lie algebroid exactly when both vanish. A
    self-bracket of odd operator degree is twice the action, so (1/2)[K,K]_FN
    = L_K K and (1/2)[L,L]_RN = i_L L; and i_L K = K∘L for the 1-form K."""
    return CohomologyReport(_condition1(alg), _condition2(alg))


@_kept("_condition1")
def _condition1(alg: TangentAlgebroid) -> VectorValuedForm:
    """K' = L_K K + K∘L: D^2 x^j = K'^j."""
    return lie_derivative(alg.anchor, alg.anchor) + alg.anchor.compose(alg.correction)


@_kept("_condition2")
def _condition2(alg: TangentAlgebroid) -> VectorValuedForm:
    """L' = [K, L]_FN + i_L L: D^2 dx^j = dK'^j + L'^j."""
    return fn_bracket(alg.anchor, alg.correction) + insertion(alg.correction, alg.correction)


class _Report(_Record):
    """A record whose every field is a tuple of (label, residual) pairs."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(residual.is_zero for group in self._values for _, residual in group)


class AxiomReport(_Report):
    """Residual fields of the three algebroid axioms, labelled by probe tuple."""

    __slots__ = _fields = ("jacobi", "leibniz", "anchor_morphism")


def _probes(
    chart: Chart, rng: random.Random, probe_degree: int, n_random_fields: int
) -> list[tuple[str, VectorField]]:
    """The coordinate frame e1..en, then r1..r_k drawn from ``rng`` in order."""
    probes = [(f"e{j + 1}", e) for j, e in enumerate(chart.basis_vectors())]
    for t in range(n_random_fields):
        probes.append((f"r{t + 1}", random_vector_field(chart, rng, probe_degree)))
    return probes


def check_axioms(
    alg: TangentAlgebroid, probe_degree: int = 2, seed: int = 0
) -> AxiomReport:
    """Jacobi, Leibniz and anchor-morphism residuals at the probe fields.

    The probes are the coordinate frame plus two seeded polynomial fields
    r1, r2 of degree ``probe_degree``. Every record comes from frame values
    read off D^2 = L_K' + i_L', (K', L') = :func:`check_cohomology`, so
    nothing is bracketed.

    - Leibniz holds identically for [[X,Y]] = [X,Y]_K - L(X,Y), for every
      K and L, so each Leibniz residual is zero.
    - The anchor residual A(X,Y) = K[[X,Y]] - [KX,KY] is C^∞-bilinear, and
      D^2 x^j = K'^j makes it A = -K', so each probe record is A(X,Y).
    - The Jacobiator Jac(X,Y,Z) = [[X,[[Y,Z]]]] + cyclic is alternating,
      and Jac(X,Y,fZ) = f·Jac(X,Y,Z) - A(X,Y)(f)·Z. Expanding each argument
      in the frame gives

          Jac(X,Y,Z) = J(X,Y,Z) - ∂_{A(X,Y)}Z - ∂_{A(Y,Z)}X - ∂_{A(Z,X)}Y,

      where J is the alternating 3-form with J(e_a,e_b,e_c) = Jac(e_a,e_b,e_c)
      and ∂_V W is the componentwise derivative Σ_c V(W^c) e_c. As
      D^2 dx^j = dK'^j + L'^j, J = -(dK' + L'). Once A = 0 the Jacobiator
      is the tensor J (there are no frame triples below rank 3), so the
      verdict is decided on the frame.
    """
    chart = alg.chart
    probes = _probes(chart, random.Random(seed), probe_degree, 2)
    square = check_cohomology(alg)
    A = -square.condition1
    J = -(exterior_d(square.condition1) + square.condition2)

    zero = VectorField.zero(chart)
    leibniz = []
    anchor = []
    values = {}  # A on probe pairs, in both orders: A(Y,X) = -A(X,Y)
    for (i, (la, X)), (j, (lb, Y)) in itertools.combinations(enumerate(probes), 2):
        values[(i, j)] = A(X, Y)
        values[(j, i)] = -values[(i, j)]
        leibniz.append((f"({la},{lb})", zero))
        anchor.append((f"({la},{lb})", values[(i, j)]))

    jacobi = []
    for i, j, k in itertools.combinations(range(len(probes)), 3):
        (la, X), (lb, Y), (lc, Z) = probes[i], probes[j], probes[k]
        residual = J(X, Y, Z)  # minus ∂_{A(X,Y)}Z, ∂_{A(Y,Z)}X and ∂_{A(Z,X)}Y
        for pair, W in (((i, j), Z), ((j, k), X), ((k, i), Y)):
            if not values[pair].is_zero:
                residual = residual - _along(values[pair], W)
        jacobi.append((f"({la},{lb},{lc})", residual))

    return AxiomReport(tuple(jacobi), tuple(leibniz), tuple(anchor))


def _along(V: VectorField, W: VectorField) -> VectorField:
    """∂_V W = Σ_c V(W^c) e_c, the componentwise derivative of W along V."""
    return VectorField(W.chart, [V(c) for c in W.components])


def _structure_form(alg: TangentAlgebroid) -> VectorValuedForm:
    """F = dK - L, whose frame values are the brackets c_ab = [[e_a, e_b]]:
    as [e_a, e_b] = 0 and (K e_b)^j = K^j_b,

        [[e_a, e_b]]^j = ∂_a K^j_b - ∂_b K^j_a - L^j_ab = (dK^j - L^j)_ab."""
    return exterior_d(alg.anchor) - alg.correction


def _frame_bundle(alg: TangentAlgebroid) -> BundleAlgebroid:
    """``alg`` on the coordinate frame: the rank-n bundle algebroid with anchors
    q_a = K e_a and structure functions c_ab, the frame coefficients of F =
    :func:`_structure_form`, so no bracket is formed."""
    chart = alg.chart
    forms = _structure_form(alg).components
    pairs = itertools.combinations(range(chart.dim), 2)
    structure = {key: [f.coeffs.get(key, chart.zero) for f in forms] for key in pairs}
    return BundleAlgebroid(chart, chart.dim, list(zip(*alg.anchor.matrix())), structure)


@_kept("_inverse")
def _anchor_inverse(K: VectorValuedForm) -> VectorValuedForm:
    """K^{-1}; SingularAnchorError if the anchor is not invertible."""
    try:
        return VectorValuedForm.from_matrix(K.chart, inverse(K.matrix(), K.chart))
    except SingularMatrixError as exc:
        raise SingularAnchorError(str(exc)) from exc


def invertible_algebroid(K: VectorValuedForm) -> TangentAlgebroid:
    """The algebroid of an invertible anchor: L = -K^{-1} T_K."""
    return TangentAlgebroid(K, -_anchor_inverse(K).compose(nijenhuis_torsion(K)))


def verify_trivial_isomorphism(
    alg: TangentAlgebroid, seed: int = 0, probe_degree: int = 2
) -> list[tuple[str, VectorField]]:
    """Residuals of phi([X,Y]) - [[phi X, phi Y]] for phi = K^{-1}.

    The probes are the frame and one seeded field r1. As K phi = Id, K maps
    the residual to [X,Y] - K[[phi X, phi Y]] = K'(phi X, phi Y), minus the
    anchor residual of :func:`check_axioms`. So the residual is the frame
    form phi K'(phi e_a, phi e_b), read off condition 1 alone, and each
    probe record is its value on the probe pair.
    """
    chart = alg.chart
    phi = _anchor_inverse(alg.anchor)
    probes = _probes(chart, random.Random(seed), probe_degree, 1)
    square = _condition1(alg)
    images = [phi.apply(e) for e in chart.basis_vectors()]
    residual = VectorValuedForm.on_frame(
        chart, 2, lambda a, b: phi.apply(square(images[a], images[b]))
    )
    return [
        (f"({la},{lb})", residual(X, Y))
        for (la, X), (lb, Y) in itertools.combinations(probes, 2)
    ]


# ---------------------------------------------------------------------------
# Bundle algebroids over a trivialized rank-r bundle
# ---------------------------------------------------------------------------


class BundleAlgebroid(_Record):
    """Rank-r algebroid data: anchor functions q_a^i and structure functions c_ab^c.

    ``anchor[a][i]`` is the ∂_i component of q(s_a). The constructor takes
    the structure as a sparse map from pairs a < b to the r components of
    [[s_a, s_b]] and stores the whole antisymmetric table once:
    ``structure[a][b][c]`` is c_ab^c for every a and b, ``structure[b][a]``
    is its negation and the diagonal is zero. The bundle is a value: it
    compares and hashes by its fields.
    """

    __slots__ = _fields = ("chart", "rank", "anchor", "structure")

    def __init__(
        self,
        chart: Chart,
        rank: int,
        anchor: Sequence[Sequence[ScalarExpr]],
        structure: Mapping[tuple[int, int], Sequence[ScalarExpr]],
    ):
        if rank < 1:
            raise AlgebroidError("rank must be positive")
        anchor = tuple(tuple(row) for row in anchor)
        if len(anchor) != rank or any(len(row) != chart.dim for row in anchor):
            raise AlgebroidError("anchor must be an r x dim matrix")
        table = [[(chart.zero,) * rank] * rank for _ in range(rank)]
        for (a, b), comps in structure.items():
            comps = tuple(comps)
            if len(comps) != rank:
                raise AlgebroidError("structure entries need one component per rank")
            if not 0 <= a < b < rank:
                raise AlgebroidError(f"structure key ({a},{b}) must satisfy a < b")
            table[a][b], table[b][a] = comps, tuple(-c for c in comps)
        for row in anchor + tuple(table[a][b] for a, b in structure):
            for value in row:
                if value.ring is not chart.ring:
                    raise _off_chart(value, chart)
        self.chart, self.rank, self.anchor = chart, rank, anchor
        self.structure = tuple(map(tuple, table))

    def anchor_field(self, a: int) -> VectorField:
        return VectorField(self.chart, self.anchor[a])


def bundle_de_rham(balg: BundleAlgebroid, omega: KForm) -> KForm:
    """The degree-1 derivation generated by Df(A) = qA(f) and the bracket rule.

    With Df = Σ_a q(s_a)(f) η^a and Dη^c = -Σ_{a<b} c_ab^c η^a ∧ η^b,
    D(f η^I) = Df ∧ η^I + f Σ_t (-1)^t Dη^{I_t} ∧ η^{I∖I_t}, accumulated as
    one sum of products per multi-index.
    """
    chart, rank = balg.chart, balg.rank
    if omega.chart != chart or omega.generators != rank:
        raise AlgebroidError("form does not match the bundle algebroid")
    anchors = [balg.anchor_field(a) for a in range(rank)]
    table, pairs = balg.structure, list(itertools.combinations(range(rank), 2))
    structure = [  # the nonzero c_ab^c by pair a < b, for each c
        {(a, b): table[a][b][c] for a, b in pairs if not table[a][b][c].is_zero}
        for c in range(rank)
    ]
    terms: dict = {}
    for key, value in omega.coeffs.items():
        df = {(a,): q(value) for a, q in enumerate(anchors)}
        _wedge_terms(terms, df, [(key, chart.one, False)])
        for t, c in enumerate(key):
            rest = key[:t] + key[t + 1 :]
            _wedge_terms(terms, structure[c], [(rest, value, t % 2 == 0)])  # -(-1)^t
    return KForm(chart, omega.degree + 1, _sum_terms(chart, terms), rank)


class BundleAxiomReport(_Report):
    """Residuals of D^2 = 0: labelled forms D^2 x^i and D^2 η^c, and the
    anchor residual fields and Jacobi scalars read off them."""

    __slots__ = _fields = ("d2_on_coordinates", "d2_on_covectors", "anchor_morphism", "jacobi")


def check_bundle_axioms(balg: BundleAlgebroid) -> BundleAxiomReport:
    """D^2 on each generator: on frame sections D^2 x^i(s_a,s_b) is minus the anchor
    residual (Σ_d c_ab^d q_d - [q_a,q_b])^i, and D^2 η^d(s_a,s_b,s_c) is -Jac^d."""
    chart, rank = balg.chart, balg.rank
    d2_fun = []
    for i, name in enumerate(chart.coord_names):
        f = KForm(chart, 0, {(): chart.coordinate(i)}, rank)
        d2_fun.append((name, bundle_de_rham(balg, bundle_de_rham(balg, f))))
    d2_cov = []
    for c in range(rank):
        eta = KForm(chart, 1, {(c,): chart.one}, rank)
        d2_cov.append((f"eta{c + 1}", bundle_de_rham(balg, bundle_de_rham(balg, eta))))

    def minus(squares, key):  # -D^2 g at the frame sections ``key``, for each g
        return [-d2.coeffs.get(key, chart.zero) for _, d2 in squares]

    return BundleAxiomReport(
        tuple(d2_fun),
        tuple(d2_cov),
        tuple(
            (f"(s{a + 1},s{b + 1})", VectorField(chart, minus(d2_fun, (a, b))))
            for a, b in itertools.combinations(range(rank), 2)
        ),
        tuple(
            (f"(s{a + 1},s{b + 1},s{c + 1})->s{d + 1}", value)
            for a, b, c in itertools.combinations(range(rank), 3)
            for d, value in enumerate(minus(d2_cov, (a, b, c)))
        ),
    )


class LinearConnection(_Record):
    """Christoffel symbols gamma[i][a][b]: the s_b coefficient of ∇_{∂_i} s_a."""

    __slots__ = _fields = ("chart", "rank", "gamma")

    def __init__(self, chart: Chart, rank: int, gamma: tuple):
        if len(gamma) != chart.dim or any(
            len(block) != rank or any(len(row) != rank for row in block) for block in gamma
        ):
            raise AlgebroidError("Christoffel symbol shape mismatch")
        self.chart, self.rank, self.gamma = chart, rank, gamma


def nabla_K(
    conn: LinearConnection,
    anchor: Sequence[Sequence[ScalarExpr]],
    alpha: KForm,
) -> KForm:
    """(∇_K α)(s_a, s_b) = (∇_{q_a} α)(s_b) - (∇_{q_b} α)(s_a) for a fiber 1-form.

    The connection acts on covectors by duality: (∇_X α)(B) = X(α(B)) - α(∇_X B).
    """
    chart, rank = conn.chart, conn.rank
    if alpha.degree != 1:
        raise AlgebroidError("nabla_K expects a fiber 1-form")
    alpha_comps = [alpha.coeffs.get((a,), chart.zero) for a in range(rank)]
    cov = [  # (∇_{∂_j} α)(s_b) = ∂_j α_b - Σ_c Γ_{jb}^c α_c, by j then b
        [
            ScalarExpr.sum_of_products(chart.ring, [
                (alpha_comps[b].partial(name), chart.one, False),
                *((conn.gamma[j][b][c], alpha_comps[c], True) for c in range(rank)),
            ])
            for b in range(rank)
        ]
        for j, name in enumerate(chart.coord_names)
    ]
    out = {
        (a, b): ScalarExpr.sum_of_products(chart.ring, [
            *((anchor[a][j], cov[j][b], False) for j in range(chart.dim)),
            *((anchor[b][j], cov[j][a], True) for j in range(chart.dim)),
        ])
        for a, b in itertools.combinations(range(rank), 2)
    }
    return KForm(chart, 2, out, rank)


def delta_torsion(
    conn: LinearConnection, balg: BundleAlgebroid
) -> dict[tuple[int, int], tuple[ScalarExpr, ...]]:
    """Torsion of the induced E-connection: ∇_{qA}B - ∇_{qB}A - [[A,B]] on basis pairs,
    component d the one sum Σ_i q_a^i Γ_{ib}^d - q_b^i Γ_{ia}^d - c_ab^d."""
    chart, rank = balg.chart, balg.rank

    def component(a: int, b: int, d: int) -> ScalarExpr:
        return ScalarExpr.sum_of_products(chart.ring, [
            (balg.structure[a][b][d], chart.one, True),
            *((q, conn.gamma[i][b][d], False) for i, q in enumerate(balg.anchor[a])),
            *((q, conn.gamma[i][a][d], True) for i, q in enumerate(balg.anchor[b])),
        ])

    return {
        (a, b): tuple(component(a, b, d) for d in range(rank))
        for a, b in itertools.combinations(range(rank), 2)
    }


def verify_connection_decomposition(
    conn: LinearConnection, balg: BundleAlgebroid
) -> list[tuple[str, KForm]]:
    """Residuals of D = ∇_q + i_{L^∇} on each η^c, with L^∇ = :func:`delta_torsion`.

    On a function both sides are Σ_a q(s_a)(f) η^a by the definition of D,
    so only the η^c test the decomposition.
    """
    chart, rank = balg.chart, balg.rank
    torsion = delta_torsion(conn, balg)
    residuals: list[tuple[str, KForm]] = []
    for c in range(rank):
        eta = KForm(chart, 1, {(c,): chart.one}, rank)
        insertion_part = KForm(
            chart, 2, {key: comps[c] for key, comps in torsion.items()}, rank
        )
        rhs = nabla_K(conn, balg.anchor, eta) + insertion_part
        residuals.append((f"eta{c + 1}", bundle_de_rham(balg, eta) - rhs))
    return residuals
