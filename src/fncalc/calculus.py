"""Charts, vector fields, differential forms and the Frölicher-Nijenhuis calculus.

All objects live on a single coordinate chart with exact rational-function
coefficients (:mod:`fncalc.scalar`). There is one exterior-algebra type,
:class:`KForm`: a form stored sparsely over strictly increasing multi-indices
of its generators, the coordinate differentials by default or the dual frame
of a trivialized bundle (:mod:`fncalc.algebroid`). :func:`wedge` is its
product and :func:`insertion` is the sparse contraction
i_K ω = Σ_m K^m ∧ i_{∂_m} ω. :func:`lie_derivative` is the frame expansion
L_K ω = Σ_m K^m ∧ ∂_m ω + (−1)^k dK^m ∧ i_{∂_m} ω, so no product is formed
only to be differentiated. The two operator brackets are defined by
i_[A,B] = [i_A, i_B] (Richardson-Nijenhuis) and L_[A,B] = [L_A, L_B]
(Frölicher-Nijenhuis) and read off on the generators dx^j and x^j. As
i_B dx^j = B^j and L_B x^j = i_B dx^j = B^j, component j of either bracket
is action(A, B^j) − (−1)^{ab} action(B, A^j) for the operator degrees a, b:
one insertion or Lie derivative per side, acting on the n components of the
other operand at once. An operation on the n components of a vector-valued form
forms one sum of products per multi-index with one lane per component
(``ScalarExpr.sums_of_products``). :func:`nijenhuis_torsion` calls no
bracket routine: it reads T_N on frame pairs off one table of the partials
∂_i(N e_b), so the two sides of the central identity (1/2)[N,N]_FN = T_N
share no bracket code.

A degree-1 derivation L_K + i_L is held by its pair (K, L) as a
:class:`~fncalc.algebroid.TangentAlgebroid`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Mapping, Sequence

from .scalar import ScalarExpr, coordinate_ring, parse_expr

__all__ = [
    "CalculusError",
    "ChartMismatchError",
    "Chart",
    "VectorField",
    "KForm",
    "VectorValuedForm",
    "det",
    "wedge",
    "exterior_d",
    "lie_bracket",
    "insertion",
    "lie_derivative",
    "rn_bracket",
    "fn_bracket",
    "nijenhuis_torsion",
    "complexify_vvf",
]


class CalculusError(Exception):
    pass


class ChartMismatchError(CalculusError):
    pass


class _Record:
    """A value named by its ``_fields``: ``_Record.__init__`` takes one value
    per field, in order, and a record equals one of its own class with equal
    fields and is hashed and shown by them. A record is never mutated after
    construction, so a tensor derived from it is kept in its one memo, a dict
    outside ``_fields`` (:func:`_kept`). A class with defaults or checks has
    its own ``__init__``; one without ``_fields`` only shares behaviour.
    :class:`KForm` is the one record with its own ``__hash__``, as its ``coeffs``
    dict cannot be hashed. Being no dataclass keeps ``dataclasses`` off the cold start."""

    __slots__ = ("_memo",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if cls._fields:
            cls._values = property(operator.attrgetter(*cls._fields))  # the fields' tuple

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, not {len(values)}")
        for field, value in zip(self._fields, values):
            setattr(self, field, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _kept(compute: Callable) -> Callable:
    """Decorate a function of a record: its value is computed once per record
    and kept in the record's memo, created on first use and keyed by
    ``compute``. A call that raises keeps nothing, so it raises again."""

    @functools.wraps(compute)
    def kept(record):
        if (memo := getattr(record, "_memo", None)) is None:
            memo = record._memo = {}
        if (value := memo.get(compute)) is None:
            value = memo[compute] = compute(record)
        return value

    return kept


class Chart(_Record):
    """A single coordinate chart; ``is_complexified`` admits Gaussian coefficients.

    ``ring`` is the chart's coordinate ring: over Z for a real chart, over
    Z[i] for a complexified one, so its scalars range over Q(x) or Q(i)(x).
    Fields and forms take only coefficients on ``ring``: a real form reaches
    the complexified chart through :func:`complexify_vvf`. Equality, hash
    and ``repr`` leave ``ring`` out.
    """

    _fields = ("coord_names", "is_complexified")
    __slots__ = _fields + ("ring",)

    def __init__(self, coord_names: tuple[str, ...], is_complexified: bool = False):
        self.ring = coordinate_ring(coord_names, is_complexified)  # validates the names
        self.coord_names = coord_names
        self.is_complexified = is_complexified

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def scalar(self, text: str) -> ScalarExpr:
        return parse_expr(text, self.coord_names, allow_imaginary=self.is_complexified)

    def const(self, value) -> ScalarExpr:
        return ScalarExpr.constant(self.ring, value)

    @property
    def zero(self) -> ScalarExpr:
        return self.ring.zero

    @property
    def one(self) -> ScalarExpr:
        return self.ring.one

    def coordinate(self, j: int) -> ScalarExpr:
        return ScalarExpr.variable(self.ring, self.coord_names[j])

    def coordinate_function(self, j: int) -> "KForm":
        """x^j as a degree-0 form."""
        return KForm(self, 0, {(): self.coordinate(j)})

    def basis_vector(self, j: int) -> "VectorField":
        comps = [self.zero] * self.dim
        comps[j] = self.one
        return VectorField(self, tuple(comps))

    def basis_vectors(self) -> list["VectorField"]:
        return [self.basis_vector(j) for j in range(self.dim)]

    def dx(self, j: int) -> "KForm":
        return KForm(self, 1, {(j,): self.one})

    def complexify(self) -> "Chart":
        return Chart(self.coord_names, True)


def _check_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ChartMismatchError(f"chart mismatch: {a.chart} vs {b.chart}")


def _off_chart(value: ScalarExpr, chart: Chart) -> ChartMismatchError:
    return ChartMismatchError(f"coefficient on {value.ring}, not on the chart's {chart.ring}")


class _Components(_Record):
    """A tensor added, subtracted and negated by its ``components``; a subclass
    gives ``_like(components)``, the tensor of its kind with new components,
    and ``_check_like(other)``, which raises unless ``other`` is of that kind."""

    __slots__ = ()

    def __add__(self, other):
        self._check_like(other)
        return self._like([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        self._check_like(other)
        return self._like([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return self._like([-a for a in self.components])

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)


class VectorField(_Components):
    """A vector field, stored by its components along the coordinate frame."""

    __slots__ = _fields = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence[ScalarExpr]):
        components = tuple(components)
        if len(components) != chart.dim:
            raise CalculusError(f"{len(components)} components on a chart of dimension {chart.dim}")
        ring = chart.ring
        for c in components:
            if c.ring is not ring:
                raise _off_chart(c, chart)
        self.chart = chart
        self.components = components

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        return VectorField(chart, [chart.zero] * chart.dim)

    _check_like = _check_chart

    def _like(self, components: Sequence[ScalarExpr]) -> "VectorField":
        return VectorField(self.chart, components)

    def scaled(self, f: ScalarExpr) -> "VectorField":
        return VectorField(self.chart, [f * a for a in self.components])

    def __call__(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative X(f)."""
        pairs = zip(self.components, self.chart.coord_names)
        return ScalarExpr.sum_of_products(
            self.chart.ring,
            ((c, f.partial(name), False) for c, name in pairs if not c.is_zero),
        )

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.components) + "]"


class KForm(_Record):
    """A scalar-valued form, sparse over increasing multi-indices of its generators.

    The generators are the coordinate differentials dx^0..dx^{n-1} of the
    chart by default (``generators`` = chart dimension). A fiber form of a
    trivialized rank-r bundle passes ``generators=r`` and indexes the dual
    frame η^0..η^{r-1} instead; only forms over the same generators add or
    wedge. Degrees above the generator count are representable (necessarily
    zero); degree-overflowing operations return such empty forms rather than
    raising.
    """

    __slots__ = _fields = ("chart", "degree", "coeffs", "generators")

    def __init__(
        self,
        chart: Chart,
        degree: int,
        coeffs: Mapping[tuple[int, ...], ScalarExpr] | None = None,
        generators: int | None = None,
    ):
        if degree < 0:
            raise CalculusError("negative form degree")
        n = chart.dim if generators is None else generators
        ring = chart.ring
        clean: dict[tuple[int, ...], ScalarExpr] = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree or (degree > 1 and any(map(operator.ge, key, key[1:]))):
                raise CalculusError(f"bad multi-index {key} for degree {degree}")
            if key and (key[0] < 0 or key[-1] >= n):
                raise CalculusError(f"multi-index {key} out of range")
            if value.ring is not ring:
                raise _off_chart(value, chart)
            if not value.is_zero:
                clean[key] = value
        self.chart = chart
        self.degree = degree
        self.coeffs = clean
        self.generators = n

    @staticmethod
    def zero(chart: Chart, degree: int) -> "KForm":
        return KForm(chart, degree)

    @staticmethod
    def function(chart: Chart, f: ScalarExpr) -> "KForm":
        return KForm(chart, 0, {(): f})

    def _like(self, coeffs: Mapping[tuple[int, ...], ScalarExpr]) -> "KForm":
        return KForm(self.chart, self.degree, coeffs, self.generators)

    def __add__(self, other: "KForm") -> "KForm":
        return self._plus(other, False)

    def __sub__(self, other: "KForm") -> "KForm":
        return self._plus(other, True)

    def _plus(self, other: "KForm", negate: bool) -> "KForm":
        """``self + other``, or ``self - other`` with ``negate``, by coefficient."""
        _check_generators(self, other)
        if self.degree != other.degree:
            raise CalculusError("adding forms of different degrees")
        out, op = dict(self.coeffs), operator.sub if negate else operator.add
        for key, value in other.coeffs.items():
            out[key] = op(out[key], value) if key in out else (-value if negate else value)
        return self._like(out)

    def __neg__(self) -> "KForm":
        return self._like({k: -v for k, v in self.coeffs.items()})

    def scaled(self, f: ScalarExpr) -> "KForm":
        return self._like({k: f * v for k, v in self.coeffs.items()})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __hash__(self) -> int:
        return hash(
            (
                self.chart,
                self.generators,
                self.degree,
                tuple(sorted(self.coeffs.items(), key=lambda t: t[0])),
            )
        )

    def __call__(self, *fields: VectorField) -> ScalarExpr:
        """Multilinear antisymmetric evaluation on vector fields."""
        return _evaluate((self,), fields)[0]


def _lanes(forms: Sequence[KForm]) -> dict:
    """The coefficients of ``forms`` by multi-index: one scalar per form."""
    zero = forms[0].chart.zero
    rows: dict = {}
    for l, form in enumerate(forms):
        for key, value in form.coeffs.items():
            row = rows.get(key)
            if row is None:
                row = rows[key] = [zero] * len(forms)
            row[l] = value
    return rows


def _evaluate(forms: Sequence[KForm], fields: Sequence[VectorField]) -> list:
    """Each of the forms of one degree evaluated on ``fields``, with one
    det(X^a, Y^b, ...) per multi-index (a, b, ...) and one sum of products."""
    first = forms[0]
    if len(fields) != first.degree:
        raise CalculusError(f"degree-{first.degree} form evaluated on {len(fields)} fields")
    _require_coordinate_form(first, "evaluation on vector fields")
    chart = first.chart
    for X in fields:
        _check_chart(first, X)
    terms = [
        (det([[X.components[j] for j in key] for X in fields], chart), row, False)
        for key, row in _lanes(forms).items()
    ]
    return ScalarExpr.sums_of_products(chart.ring, len(forms), terms)


def _check_generators(a: KForm, b: KForm) -> None:
    _check_chart(a, b)
    if a.generators != b.generators:
        raise CalculusError(f"forms over {a.generators} and {b.generators} generators")


def _require_coordinate_form(omega: KForm, operation: str) -> None:
    if omega.generators != omega.chart.dim:
        raise CalculusError(f"{operation} needs a form over coordinate differentials")


def det(matrix: Sequence[Sequence[ScalarExpr]], chart: Chart) -> ScalarExpr:
    """Cofactor determinant over the chart's ring; matrices stay small (<= 6)."""
    n = len(matrix)
    if n == 0:
        return chart.one
    if n == 1:
        return matrix[0][0]
    if n == 2:
        (a, b), (c, d) = matrix
        return ScalarExpr.sum_of_products(chart.ring, ((a, d, False), (b, c, True)))
    terms = []
    for col, head in enumerate(matrix[0]):
        if not head.is_zero:
            minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
            terms.append((head, det(minor, chart), col % 2 == 1))
    return ScalarExpr.sum_of_products(chart.ring, terms)


class VectorValuedForm(_Components):
    """A vector-valued form: one coefficient ``KForm`` per target coordinate.

    Degree 0 is a vector field in disguise, degree 1 an endomorphism field.
    """

    __slots__ = _fields = ("chart", "degree", "components")

    def __init__(self, chart: Chart, degree: int, components: Sequence[KForm]):
        components = tuple(components)
        if len(components) != chart.dim:
            raise CalculusError("one component form per target coordinate required")
        for comp in components:
            if comp.chart != chart or comp.degree != degree:
                raise CalculusError("component forms must share chart and degree")
            _require_coordinate_form(comp, "a vector-valued form")
        self.chart = chart
        self.degree = degree
        self.components = components

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(chart: Chart, degree: int) -> "VectorValuedForm":
        return VectorValuedForm(chart, degree, [KForm.zero(chart, degree)] * chart.dim)

    @staticmethod
    def from_matrix(chart: Chart, matrix: Sequence[Sequence[ScalarExpr]]) -> "VectorValuedForm":
        """Degree-1 form from a matrix; ``matrix[i][j]`` multiplies ∂_i in the image of ∂_j."""
        if len(matrix) != chart.dim or any(len(row) != chart.dim for row in matrix):
            raise CalculusError("matrix shape must equal the chart dimension")
        comps = [KForm(chart, 1, {(j,): v for j, v in enumerate(row)}) for row in matrix]
        return VectorValuedForm(chart, 1, comps)

    @staticmethod
    def on_frame(chart: Chart, degree: int, value: Callable[..., VectorField]) -> "VectorValuedForm":
        """The alternating form whose value on e_a1..e_ak (a1 < ... < ak) is
        ``value(a1, ..., ak)``: a tensor is decided by its frame values."""
        comps = [dict() for _ in range(chart.dim)]
        for key in itertools.combinations(range(chart.dim), degree):
            for j, c in enumerate(value(*key).components):
                comps[j][key] = c
        return VectorValuedForm(chart, degree, [KForm(chart, degree, c) for c in comps])

    @staticmethod
    def identity(chart: Chart) -> "VectorValuedForm":
        return VectorValuedForm(chart, 1, [chart.dx(j) for j in range(chart.dim)])

    @staticmethod
    def from_vector_field(X: VectorField) -> "VectorValuedForm":
        return VectorValuedForm(X.chart, 0, [KForm.function(X.chart, c) for c in X.components])

    def matrix(self) -> list[list[ScalarExpr]]:
        if self.degree != 1:
            raise CalculusError("only a degree-1 form has a matrix")
        return [
            [comp.coeffs.get((j,), self.chart.zero) for j in range(self.chart.dim)]
            for comp in self.components
        ]

    # -- algebra ---------------------------------------------------------

    def _check_like(self, other: "VectorValuedForm") -> None:
        _check_chart(self, other)
        if self.degree != other.degree:
            raise CalculusError("adding vector-valued forms of different degrees")

    def _like(self, components: Sequence[KForm]) -> "VectorValuedForm":
        return VectorValuedForm(self.chart, self.degree, components)

    def scaled(self, f: ScalarExpr) -> "VectorValuedForm":
        return self._like([c.scaled(f) for c in self.components])

    def __call__(self, *fields: VectorField) -> VectorField:
        return VectorField(self.chart, _evaluate(self.components, fields))

    def apply(self, X: VectorField) -> VectorField:
        """Endomorphism action; degree-1 convenience alias."""
        if self.degree != 1:
            raise CalculusError("apply() requires a degree-1 form")
        return self(X)

    def compose(self, other: "VectorValuedForm") -> "VectorValuedForm":
        """K∘L = K(L(X1..Xk)) for the endomorphism K = self and a vector-valued
        form L of any degree: (K∘L)^j = i_L K^j, the insertion of L into the
        1-form K^j, so K∘L is i_L K."""
        if self.degree != 1:
            raise CalculusError("compose() requires a degree-1 left factor")
        _check_chart(self, other)
        return insertion(other, self)


# ---------------------------------------------------------------------------
# Exterior algebra
# ---------------------------------------------------------------------------


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Sorted merge of two increasing index tuples with the shuffle sign: one
    transposition per pair of a left index above a right one."""
    if set(left) & set(right):
        return None, 0
    inversions = sum(a > b for a in left for b in right)
    return tuple(sorted(left + right)), -1 if inversions % 2 else 1


def _wedge_terms(terms: dict, a: Mapping, b: list) -> None:
    """Add the terms of ``a`` ∧ ``b`` to ``terms`` by multi-index, for the
    coefficient map ``a`` and (multi-index, coefficient, negate) triples ``b``;
    a coefficient of ``b`` may be a row of lanes."""
    for ka, va in a.items():
        for kb, vb, negate in b:
            key, sign = _merge_sign(ka, kb)
            if sign:
                terms.setdefault(key, []).append((va, vb, (sign < 0) != negate))


def _sum_terms(chart: Chart, terms: dict) -> dict:
    """One sum of products per multi-index of ``terms``."""
    return {k: ScalarExpr.sum_of_products(chart.ring, t) for k, t in terms.items()}


def wedge(a: KForm, b: KForm) -> KForm:
    _check_generators(a, b)
    terms: dict = {}
    _wedge_terms(terms, a.coeffs, [(k, v, False) for k, v in b.coeffs.items()])
    return KForm(a.chart, a.degree + b.degree, _sum_terms(a.chart, terms), a.generators)


@_kept
def exterior_d(a: KForm | VectorValuedForm):
    """d of a form, or of each component of a vector-valued form; kept on ``a``."""
    if isinstance(a, VectorValuedForm):
        return VectorValuedForm(a.chart, a.degree + 1, [exterior_d(c) for c in a.components])
    _require_coordinate_form(a, "exterior_d")
    chart = a.chart
    sums: dict = {}
    for key, value in a.coeffs.items():
        for j, name in enumerate(chart.coord_names):
            merged, sign = _merge_sign((j,), key)
            if sign and not (p := value.partial(name)).is_zero:
                s = sums.get(merged)
                if s is None:
                    sums[merged] = p if sign > 0 else -p
                else:
                    sums[merged] = s + p if sign > 0 else s - p
    return KForm(chart, a.degree + 1, sums)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^j = X(Y^j) - Y(X^j), by the directional derivative X(f)."""
    _check_chart(X, Y)
    return VectorField(X.chart, [X(b) - Y(a) for a, b in zip(X.components, Y.components)])


# ---------------------------------------------------------------------------
# Insertion and Lie derivative
# ---------------------------------------------------------------------------


def _contracted(rows: dict, m: int, negate: bool = False) -> list:
    """i_{∂_m} of the lane ``rows`` as (multi-index, row, negate) triples: m
    dropped from each multi-index, negated at odd positions (and by ``negate``)."""
    out = []
    for key, row in rows.items():
        if m in key:
            pos = key.index(m)
            out.append((key[:pos] + key[pos + 1 :], row, (pos % 2 == 1) != negate))
    return out


def _lane_forms(omega, forms: Sequence[KForm], degree: int, terms: dict):
    """The forms of ``degree`` with one sum of ``terms`` per multi-index and one
    lane per form of ``forms``: a vector-valued form if ``omega`` is one."""
    chart, count = omega.chart, len(forms)
    sums = {k: ScalarExpr.sums_of_products(chart.ring, count, t) for k, t in terms.items()}
    # a lane's zero sums are left out here: KForm would check each of their keys
    out = [
        KForm(chart, degree, {k: s[l] for k, s in sums.items() if s[l].num})
        for l in range(count)
    ]
    return VectorValuedForm(chart, degree, out) if isinstance(omega, VectorValuedForm) else out[0]


def insertion(K: VectorValuedForm, omega: KForm | VectorValuedForm):
    """The insertion i_K omega = Σ_m K^m ∧ i_{∂_m} omega, a tensorial derivation.

    K^m is the m-th component form of K. This sparse contraction
    (Kolář-Michor-Slovák, *Natural Operations in Differential Geometry*,
    §8) equals the signed shuffle sum of omega(K(X_σ1..X_σg), X_σ(g+1), ...).
    On a function (degree 0) the insertion is zero of degree max(deg K - 1, 0).
    A vector-valued ``omega`` gives the vector-valued form of i_K on each of
    its components, in one sum of products per multi-index with one lane per
    component.
    """
    _check_chart(K, omega)
    forms = omega.components if isinstance(omega, VectorValuedForm) else (omega,)
    _require_coordinate_form(forms[0], "insertion")
    rows = _lanes(forms)
    # the wedge terms of every m, gathered by multi-index, one sum per index
    terms: dict = {}
    for m, component in enumerate(K.components):
        if not component.is_zero:
            _wedge_terms(terms, component.coeffs, _contracted(rows, m))
    return _lane_forms(omega, forms, max(K.degree + omega.degree - 1, 0), terms)


def lie_derivative(K: VectorValuedForm, omega: KForm | VectorValuedForm):
    """L_K = [i_K, d] for K = Σ_m K^m ⊗ ∂_m of degree k, by its frame expansion
    (Kolář-Michor-Slovák, *Natural Operations in Differential Geometry*, §8)

        L_K omega = Σ_m K^m ∧ ∂_m omega + (-1)^k dK^m ∧ i_{∂_m} omega,

    ∂_m omega being omega with each coefficient differentiated by x^m. A
    vector-valued ``omega`` gives L_K on each of its components, in one sum of
    products per multi-index with one lane per component."""
    _check_chart(K, omega)
    forms = omega.components if isinstance(omega, VectorValuedForm) else (omega,)
    _require_coordinate_form(forms[0], "the Lie derivative")
    rows = _lanes(forms)
    odd = K.degree % 2 == 1
    terms: dict = {}
    for m, (component, name) in enumerate(zip(K.components, K.chart.coord_names)):
        if rows and not component.is_zero:  # a zero omega needs no dK^m
            moved = [(key, [v.partial(name) for v in row], False) for key, row in rows.items()]
            _wedge_terms(terms, component.coeffs, moved)
            _wedge_terms(terms, exterior_d(component).coeffs, _contracted(rows, m, odd))
    return _lane_forms(omega, forms, K.degree + omega.degree, terms)


# ---------------------------------------------------------------------------
# The two brackets and the torsion
# ---------------------------------------------------------------------------


def _extract(A, B, action, shift: int) -> VectorValuedForm:
    """The bracket [A, B] of the operators ``action(A, ·)`` and ``action(B, ·)``
    of degrees a = deg A + ``shift`` and b = deg B + ``shift``. It is read off
    their graded commutator on the generators g^j (x^j or dx^j), which the
    operator of B takes to B^j, so component j of the bracket is

        [A, B]^j = action(A, B^j) - (-1)^{ab} action(B, A^j),

    one action per side on all n components at once. A self-bracket acts
    once: twice that action for an odd a, the zero form for an even one."""
    _check_chart(A, B)
    a, b = A.degree + shift, B.degree + shift
    first = action(A, B)
    second = first if B is A else action(B, A)
    commutator = first + second if a * b % 2 else first - second
    return VectorValuedForm(A.chart, A.degree + B.degree + shift, commutator.components)


def rn_bracket(A: VectorValuedForm, B: VectorValuedForm) -> VectorValuedForm:
    """[A, B]_RN, defined by i_[A,B] = [i_A, i_B]: as i_B dx^j = B^j, its
    component j is i_A B^j - (-1)^{(a-1)(b-1)} i_B A^j for degrees a, b."""
    return _extract(A, B, insertion, -1)


def fn_bracket(A: VectorValuedForm, B: VectorValuedForm) -> VectorValuedForm:
    """[A, B]_FN, defined by L_[A,B] = [L_A, L_B]: as L_B x^j = i_B dx^j = B^j,
    its component j is L_A B^j - (-1)^{ab} L_B A^j for degrees a, b."""
    return _extract(A, B, lie_derivative, 0)


@_kept
def nijenhuis_torsion(N: VectorValuedForm) -> VectorValuedForm:
    """T_N(X,Y) = [NX,NY] - N[NX,Y] - N[X,NY] + N^2[X,Y], built on frame pairs.

    On the coordinate frame [e_a, e_b] = 0, so the N^2 term drops, and
    [Ne_a, e_b] = -∂_b(Ne_a), [e_a, Ne_b] = ∂_a(Ne_b). From the table
    D[i][b] = ∂_i(Ne_b) of n^3 partials, with W = ∂_a(Ne_b) - ∂_b(Ne_a),

        T_N(e_a,e_b) = Σ_i (N^i_a D[i][b] - N^i_b D[i][a]) - Σ_k W^k Ne_k,

    one sum of 3n products per pair, one lane per component; no bracket is formed.
    """
    if N.degree != 1:
        raise CalculusError("torsion is defined for degree-1 forms")
    chart = N.chart
    matrix = N.matrix()
    images = list(zip(*matrix))  # images[b] = the components of Ne_b
    table = [[[c.partial(name) for c in image] for image in images] for name in chart.coord_names]

    def value(a: int, b: int) -> VectorField:
        W = [p - q for p, q in zip(table[a][b], table[b][a])]
        terms = []
        for i, row in enumerate(matrix):
            terms += [(row[a], table[i][b], False), (row[b], table[i][a], True), (W[i], images[i], True)]
        return VectorField(chart, ScalarExpr.sums_of_products(chart.ring, chart.dim, terms))

    return VectorValuedForm.on_frame(chart, 2, value)


# ---------------------------------------------------------------------------
# Complexification
# ---------------------------------------------------------------------------


def complexify_vvf(K: VectorValuedForm) -> VectorValuedForm:
    """The same vector-valued form regarded on the complexified chart."""
    chart = K.chart.complexify()
    comps = [
        KForm(chart, K.degree, {key: v.complexified() for key, v in c.coeffs.items()})
        for c in K.components
    ]
    return VectorValuedForm(chart, K.degree, comps)
