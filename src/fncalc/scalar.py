"""Exact arithmetic kernel: multivariate rational functions over Q or Q(i).

Every coefficient in the geometric layers above is a ``ScalarExpr``: a
fraction of multivariate polynomials kept in a canonical form, so that
structural equality of canonical forms decides mathematical equality, which
is what makes all tensor identities in this package decidable.

A real chart computes over the integers Z and a complexified chart over the
Gaussian integers Z[i], fraction-free: a scalar is a pair (num, den) of
polynomials with gcd(num, den) = 1 in Z[x] (or Z[i][x]), content included,
and the leading coefficient of den, under graded-lex order, positive (or in
the first quadrant). By Gauss's lemma this is the Q-monic form scaled by a
constant, and only the printer divides by that constant: values print as a
numerator over a monic denominator, each rational coefficient (or part of a
Gaussian rational one) a reduced pair of ints, with no ``Fraction``. A
scalar's ring is fixed by its chart: arithmetic and ``sums_of_products``
raise on operands of two rings, and scalars of two rings are never equal.
``ScalarExpr.complexified`` is the one crossing: it moves a real value to
Z[i] on the same coordinates, where its canonical form is unchanged.

A polynomial is a ``dict`` from a packed monomial to its nonzero
coefficient, a Python ``int`` over Z and a ``_GaussianInt`` (a pair of
``int``) over Z[i] (Monagan and Pearce, "Polynomial Division Using Dynamic
Arrays, Heaps, and Packed Exponent Vectors", CASC 2007). The packed key
holds the total degree in its top field and one ``EXPONENT_BITS``-bit field
per coordinate below it, so a monomial product is one integer addition and
integer order is graded-lex order. Products accumulate in place: a sum of
products Σ ±a·b adds every product that shares a denominator into one
polynomial and reduces it once, instead of building and copying a scalar per
term. ``ScalarExpr.sums_of_products`` forms L such sums Σ ±a·b_l at once, one
per lane l, as a vector-valued operation needs one per component
(``sum_of_products`` is its one-lane case). A term whose nonzero lanes, two or
more, share a denominator is multiplied once for all of them: per monomial,
its lane coefficients are packed into one integer P = Σ_l c_l·2^(w l), the
real and imaginary parts apart over Z[i], so that each coefficient product is
a lane-wise product (Fateman, "Can you save time in multiplying polynomials by
encoding them as integers?", 2010). With B = Σ ‖a‖₁·max_l ‖b_l‖₁ over the
packed terms, ‖·‖₁ the sum of |re c| + |im c| over the coefficients, no part
of any lane of a packed sum exceeds B in absolute value, so with
w = bitlen(B) + 2 every lane but the top one is a balanced residue mod 2^w,
the top lane is what is left, and a packed zero is zero in every lane: the
sums are exact.

All arithmetic is done here, with no dependency beyond the standard
library: sums, products, powers, derivatives, and the multivariate gcd that
cancels a non-constant denominator (the subresultant pseudo-remainder
sequence, recursive in the coordinates, the same code over Z and Z[i]).
Parsing and printing are defined here too; the parser folds each product of
integers, coordinates and powers into one (key, coefficient) term and adds
the terms of a sum into one polynomial in place. Scalars are never evaluated
at points: every identity is decided on canonical forms.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from functools import lru_cache
from math import comb
from typing import Sequence

__all__ = [
    "ScalarError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "DivisionByZeroError",
    "ImaginaryNotAllowedError",
    "CoordinateRing",
    "coordinate_ring",
    "ScalarExpr",
    "parse_expr",
]


class ScalarError(Exception):
    """Base class for errors raised by the scalar kernel."""


class ExprSyntaxError(ScalarError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ScalarError):
    pass


class DivisionByZeroError(ScalarError):
    pass


class ImaginaryNotAllowedError(ScalarError):
    """The imaginary unit was used on a chart declared real."""


#: Most characters of a bad raw value that an error message quotes.
MAX_QUOTED = 64


def _quote(raw) -> str:
    """``repr(raw)``, or for a longer value its first MAX_QUOTED characters
    and its length."""
    text = raw if isinstance(raw, str) else repr(raw)
    if len(text) <= MAX_QUOTED:
        return repr(raw)
    return f"{text[:MAX_QUOTED]!r}... ({len(text)} characters)"


def _ratio_str(p: int, q: int) -> str:
    """p/q in lowest terms, for q > 0: ``p`` alone when q divides it."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _complex_str(re: int, im: int, n: int) -> str:
    """(re + im*i)/n, for n > 0, each part in lowest terms."""
    if im == 0:
        return _ratio_str(re, n)
    imag = "i" if abs(im) == n else f"{_ratio_str(abs(im), n)}*i"
    if re == 0:
        return imag if im > 0 else f"-{imag}"
    return f"{_ratio_str(re, n)}{'+' if im > 0 else '-'}{imag}"


# ---------------------------------------------------------------------------
# Coefficient domains. Both offer ``one``, ``gcd`` (normalised by
# ``canonical_unit``), ``quo`` and ``canonical_unit``, plus ``of_int`` for an
# integer as a coefficient and ``unpack`` for the lanes of
# ``ScalarExpr.sums_of_products``.
# ---------------------------------------------------------------------------


def _unpack_ints(num: dict, count: int, w: int) -> list:
    """``num``, whose coefficients are packed ints Σ_l c_l·2^(w l), as
    ``count`` polynomials: every lane but the top one is a balanced residue
    mod 2^w (adding 2^(w-1) to each makes its w bits nonnegative), and the
    top lane, which needs no bound, is what is left."""
    mask, half = (1 << w) - 1, 1 << (w - 1)
    offset = sum(half << (w * l) for l in range(count - 1))
    lanes = [{} for _ in range(count)]
    for m, p in num.items():
        p += offset
        for lane in lanes[:-1]:
            c = (p & mask) - half
            if c:
                lane[m] = c
            p >>= w
        if p:
            lanes[-1][m] = p
    return lanes


class _Integers:
    """Z, with Python ``int`` coefficients."""

    one = 1
    gcd = staticmethod(math.gcd)
    quo = staticmethod(operator.floordiv)  # only ever an exact division
    of_int = staticmethod(int)
    unpack = staticmethod(_unpack_ints)

    @staticmethod
    def canonical_unit(c: int) -> int:
        return -1 if c < 0 else 1


class _GaussianInt:
    """The Gaussian integer x + y*i, with ``int`` parts ``x`` and ``y``."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def __add__(self, other: "_GaussianInt") -> "_GaussianInt":
        return _GaussianInt(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "_GaussianInt") -> "_GaussianInt":
        return _GaussianInt(self.x - other.x, self.y - other.y)

    def __mul__(self, other: "_GaussianInt") -> "_GaussianInt":
        x, y = other.x, other.y
        return _GaussianInt(self.x * x - self.y * y, self.x * y + self.y * x)

    def __neg__(self) -> "_GaussianInt":
        return _GaussianInt(-self.x, -self.y)

    def __lshift__(self, s: int) -> "_GaussianInt":
        return _GaussianInt(self.x << s, self.y << s)

    def __abs__(self) -> int:
        """The 1-norm |x| + |y|: |x y'| + |y y'| bounds each part of a product."""
        return abs(self.x) + abs(self.y)

    def __pow__(self, k: int) -> "_GaussianInt":
        result, base = _GaussianInt(1, 0), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __bool__(self) -> bool:
        return bool(self.x or self.y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _GaussianInt):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"_GaussianInt({self.x}, {self.y})"


class _GaussianIntegers:
    """Z[i], with ``_GaussianInt`` coefficients. A gcd is first-quadrant:
    ``canonical_unit(c)`` is the power of i that turns ``c`` into quadrant 0,
    the quadrant of the positive reals and of 0, as sympy's ``ZZ_I`` does."""

    one = _GaussianInt(1, 0)
    of_parts = _GaussianInt
    #: the powers of i, so that ``_UNITS[-q]`` turns quadrant q into quadrant 0
    _UNITS = (one, _GaussianInt(0, 1), _GaussianInt(-1, 0), _GaussianInt(0, -1))

    @staticmethod
    def of_int(k: int) -> _GaussianInt:
        return _GaussianInt(k, 0)

    @staticmethod
    def unpack(num: dict, count: int, w: int) -> list:
        """The real and imaginary parts are packed, so unpacked, apart."""
        re = _unpack_ints({m: c.x for m, c in num.items()}, count, w)
        im = _unpack_ints({m: c.y for m, c in num.items()}, count, w)
        return [
            {m: _GaussianInt(x.get(m, 0), y.get(m, 0)) for m in x.keys() | y.keys()}
            for x, y in zip(re, im)
        ]

    @staticmethod
    def quo(a: _GaussianInt, b: _GaussianInt) -> _GaussianInt:
        """a / b rounded to the nearest Gaussian integer, ties rounded up."""
        x, y = b.x, b.y
        n = x * x + y * y
        re, im = a.x * x + a.y * y, a.y * x - a.x * y
        return _GaussianInt((2 * re + n) // (2 * n), (2 * im + n) // (2 * n))

    def canonical_unit(self, c: _GaussianInt) -> _GaussianInt:
        x, y = c.x, c.y
        if y > 0:
            quadrant = 0 if x > 0 else 1
        elif y < 0:
            quadrant = 2 if x < 0 else 3
        else:
            quadrant = 0 if x >= 0 else 2
        return self._UNITS[-quadrant]

    def gcd(self, a: _GaussianInt, b: _GaussianInt) -> _GaussianInt:
        """Euclid's algorithm with the remainder of the rounded quotient."""
        quo = self.quo
        while b:
            a, b = b, a - quo(a, b) * b
        return a * self.canonical_unit(a)


_INTEGERS = _Integers()
_GAUSSIAN_INTEGERS = _GaussianIntegers()


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

#: Width in bits of each field of a packed monomial. A product or power of
#: total degree 2**EXPONENT_BITS or more raises ScalarError, so no field ever
#: carries into the next.
EXPONENT_BITS = 16
_FIELD_MASK = (1 << EXPONENT_BITS) - 1


class CoordinateRing:
    """The polynomial ring Z[i][x_1, ..., x_n], or Z[x_1, ..., x_n] for a real chart.

    ``allow_imaginary`` picks the coefficient domain: the Gaussian integers
    Z[i] when true (a complexified chart), the integers Z when false (a real
    chart). Scalars over it are fractions of its polynomials, so they range
    over Q(i)(x) or Q(x). With B = EXPONENT_BITS, the monomial
    x_1^e_1 ... x_n^e_n is the key (e_1 + ... + e_n) * 2^(B n) plus
    e_j * 2^(B (n - j)) for each j (see ``monomial``), so comparing keys
    compares total degrees first, then exponents from x_1 on: graded-lex
    order. ``coordinate_ring`` caches one instance per variable tuple and
    domain, so that all scalars of a chart share one ring: scalars of one
    value on two ring objects are unequal. ``zero`` and ``one`` are the ring's
    shared constant scalars.
    """

    def __init__(self, names: tuple[str, ...], allow_imaginary: bool):
        seen = set()
        for name in names:
            if name == "i":
                raise ValueError("'i' is reserved for the imaginary unit")
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {_quote(name)}")
            if name in seen:
                raise ValueError(f"duplicate variable name {_quote(name)}")
            seen.add(name)
        if not names:
            raise ValueError("empty variable tuple")
        n = len(names)
        self.names = names
        self.allow_imaginary = allow_imaginary
        self.domain = _GAUSSIAN_INTEGERS if allow_imaginary else _INTEGERS
        #: the bit offset of each coordinate's exponent field
        self._shifts = {
            name: (n - 1 - j) * EXPONENT_BITS for j, name in enumerate(names)
        }
        self._degree_shift = n * EXPONENT_BITS
        #: the least key of total degree 2**EXPONENT_BITS
        self._key_limit = 1 << (self._degree_shift + EXPONENT_BITS)
        one = {0: self.domain.one}
        self.zero = ScalarExpr(self, {}, one, _canonical=True)
        self.one = ScalarExpr(self, one, one, _canonical=True)

    def monomial(self, exponents: Sequence[int]) -> int:
        """The packed key of the monomial with these exponents."""
        key = sum(exponents) << self._degree_shift
        for e, shift in zip(exponents, self._shifts.values()):
            key |= e << shift
        return key

    def exponents(self, key: int) -> tuple[int, ...]:
        """The exponents of the monomial ``key``."""
        return tuple((key >> shift) & _FIELD_MASK for shift in self._shifts.values())

    def __repr__(self) -> str:
        return f"CoordinateRing{self.names} over {'Z[i]' if self.allow_imaginary else 'Z'}"


@lru_cache(maxsize=None)
def coordinate_ring(names: tuple[str, ...], allow_imaginary: bool) -> CoordinateRing:
    """The cached ring of ``names`` over Z[i], or over Z if not ``allow_imaginary``."""
    return CoordinateRing(names, allow_imaginary)


# ---------------------------------------------------------------------------
# Polynomials: dicts from packed monomial to nonzero coefficient, never
# mutated once built, so scalars may share them.
# ---------------------------------------------------------------------------


def _add(a: dict, b: dict, negate: bool = False) -> dict:
    """``a + b``, or ``a - b`` with ``negate``."""
    if negate:
        b = _neg(b)
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    _add_into(out, b.items())
    return out


def _add_into(out: dict, terms) -> None:
    """Add the ``(key, coefficient)`` pairs ``terms`` into ``out`` in place."""
    get = out.get
    for m, c in terms:
        s = get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]


def _neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _scale(a: dict, k) -> dict:
    """``a`` times the nonzero constant ``k``."""
    return {m: c * k for m, c in a.items()}


def _too_large(ring: CoordinateRing) -> ScalarError:
    return ScalarError(
        f"polynomial of total degree 2^{EXPONENT_BITS} or more on {ring}"
    )


def _mul_into(ring: CoordinateRing, out: dict, a: dict, b: dict, negate: bool) -> None:
    """Add ``a * b``, or ``-(a * b)`` with ``negate``, into ``out`` in place,
    refused before a field could carry: the sum of the largest keys is at least
    the key of the true top-degree product, and equal to it when nothing
    carries, so it reaches the limit exactly when the product's degree would."""
    if not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a
    if max(a) + max(b) >= ring._key_limit:
        raise _too_large(ring)
    b = [(m, -c) for m, c in b.items()] if negate else list(b.items())
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b:
            m = ma + mb
            s = get(m)
            if s is None:
                out[m] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]


def _mul(ring: CoordinateRing, a: dict, b: dict) -> dict:
    """``a * b``, refused by the same key limit as ``_mul_into``."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((mb, cb),) = b.items()
        if len(a) == 1:  # e.g. two constant denominators
            ((ma, ca),) = a.items()
            m = ma + mb
            if m >= ring._key_limit:
                raise _too_large(ring)
            return {m: ca * cb}
        if max(a) + mb >= ring._key_limit:
            raise _too_large(ring)
        if mb:
            return {m + mb: c * cb for m, c in a.items()}
        return {m: c * cb for m, c in a.items()}
    out: dict = {}
    _mul_into(ring, out, a, b, False)
    return out


def _pow(ring: CoordinateRing, a: dict, k: int) -> dict:
    """``a**k`` for k >= 1, by repeated squaring."""
    if not a:
        return {}
    if max(a) * k >= ring._key_limit:
        raise _too_large(ring)
    if len(a) == 1:
        ((m, c),) = a.items()
        return {m * k: c**k}
    result = None
    while True:
        if k & 1:
            result = a if result is None else _mul(ring, result, a)
        k >>= 1
        if not k:
            return result
        a = _mul(ring, a, a)


def _diff(ring: CoordinateRing, a: dict, var: str) -> dict:
    """The derivative of ``a`` by the coordinate ``var``."""
    shift = ring._shifts[var]
    step = (1 << shift) + (1 << ring._degree_shift)
    of_int = ring.domain.of_int
    out = {}
    for m, c in a.items():
        e = (m >> shift) & _FIELD_MASK
        if e:
            out[m - step] = c if e == 1 else c * of_int(e)
    return out


def _is_ground(poly: dict) -> bool:
    """Whether the nonzero ``poly`` is a constant."""
    return len(poly) == 1 and 0 in poly


def _lc(poly: dict):
    """The graded-lex leading coefficient."""
    return poly[max(poly)]


def _mixed(a: CoordinateRing, b: CoordinateRing) -> ScalarError:
    return ScalarError(f"mixed coordinate rings: {a} vs {b}")


def _group(ring: CoordinateRing, groups: dict, lane, den_a: dict, den_b: dict) -> dict:
    """The numerator that ``groups`` accumulates for ``lane`` over den_a·den_b,
    keyed by the lane and the product's terms, or None for the denominator 1."""
    one = ring.one.den
    den = den_b if den_a == one else den_a if den_b == one else _mul(ring, den_a, den_b)
    key = lane, None if den == one else frozenset(den.items())
    group = groups.get(key)
    if group is None:
        group = groups[key] = (den, {})
    return group[1]


def _unit_normal(ring: CoordinateRing, num: dict, den: dict):
    """``num/den`` times the unit that makes LC(den) canonical (positive over Z,
    first quadrant over Z[i]); for a pair that is already coprime."""
    unit = ring.domain.canonical_unit(_lc(den))
    if unit == ring.domain.one:
        return num, den
    return _scale(num, unit), _scale(den, unit)


# ---------------------------------------------------------------------------
# Greatest common divisors, by one deterministic recursive algorithm for Z
# and Z[i] alike. A polynomial split in a main coordinate v is a dict
# {degree in v: coefficient}, each coefficient a packed polynomial free of v.
# The gcd is the gcd of the contents (the gcds of the coefficients) times the
# primitive part of the last nonzero remainder of the subresultant
# pseudo-remainder sequence of the primitive parts in v. Unlike the primitive
# sequence it needs no gcd at each step, only exact divisions (Brown, "On
# Euclid's algorithm and the computation of polynomial greatest common
# divisors", J. ACM 1971).
# ---------------------------------------------------------------------------


def _is_one(ring: CoordinateRing, poly: dict) -> bool:
    return len(poly) == 1 and poly.get(0) == ring.domain.one


def _content(domain, poly: dict, g):
    """The gcd of the constant ``g`` and the coefficients of ``poly``."""
    one, gcd = domain.one, domain.gcd
    for c in poly.values():
        if g == one:
            break
        g = gcd(g, c)
    return g


def _field_mins(ring: CoordinateRing, poly: dict, key: int) -> int:
    """The largest monomial dividing ``key`` and every monomial of ``poly``."""
    out = 0
    for shift in ring._shifts.values():
        e = (key >> shift) & _FIELD_MASK
        for m in poly:
            if not e:
                break
            e = min(e, (m >> shift) & _FIELD_MASK)
        out += e << shift | e << ring._degree_shift
    return out


def _used_shifts(ring: CoordinateRing, poly: dict) -> list:
    """The field offsets of the coordinates that occur in ``poly``, x_1 first."""
    used = 0
    for m in poly:
        used |= m
    return [s for s in ring._shifts.values() if (used >> s) & _FIELD_MASK]


def _degree(poly: dict, shift: int) -> int:
    """The degree of ``poly`` in the coordinate at ``shift``."""
    return max((m >> shift) & _FIELD_MASK for m in poly)


def _split(ring: CoordinateRing, poly: dict, shift: int) -> dict:
    """``poly`` as {degree in the coordinate at ``shift``: coefficient}."""
    step = (1 << shift) + (1 << ring._degree_shift)
    out: dict = {}
    for m, c in poly.items():
        e = (m >> shift) & _FIELD_MASK
        part = out.get(e)
        if part is None:
            out[e] = part = {}
        part[m - e * step] = c
    return out


def _join(ring: CoordinateRing, parts: dict, shift: int) -> dict:
    """The inverse of ``_split``."""
    step = (1 << shift) + (1 << ring._degree_shift)
    return {m + e * step: c for e, part in parts.items() for m, c in part.items()}


def _exact_quo(ring: CoordinateRing, a: dict, b: dict) -> dict:
    """``a / b`` for a ``b`` that divides ``a``: each step divides the
    leading term of the remainder by the leading term of ``b``. Each step
    lowers the leading monomial, so a remainder that falls below LM(b)
    stops a division that was not exact."""
    quo = ring.domain.quo
    if len(b) == 1:
        ((mb, cb),) = b.items()
        if cb == ring.domain.one:
            return {m - mb: c for m, c in a.items()}
        return {m - mb: quo(c, cb) for m, c in a.items()}
    mb = max(b)
    cb = b[mb]
    rest = [(m, c) for m, c in b.items() if m != mb]
    r = dict(a)
    get = r.get
    out = {}
    while r:
        m = max(r)
        if m < mb:
            raise ArithmeticError("inexact polynomial division")
        q = quo(r.pop(m), cb)
        mq = m - mb
        out[mq] = q
        for m2, c2 in rest:
            k = mq + m2
            s = get(k)
            if s is None:
                r[k] = -(q * c2)
            else:
                s = s - q * c2
                if s:
                    r[k] = s
                else:
                    del r[k]
    return out


def _prem(ring: CoordinateRing, a: dict, b: dict) -> dict:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b, for ``a`` and
    ``b`` split in one coordinate and deg a >= deg b."""
    n = max(b)
    lb = b[n]
    lower = [(e, p) for e, p in b.items() if e != n]
    r = dict(a)
    steps = max(a) - n + 1
    while r:
        d = max(r)
        if d < n:
            break
        steps -= 1
        lr = r.pop(d)
        r = {e: _mul(ring, p, lb) for e, p in r.items()}
        for e, p in lower:  # every part of r is a fresh product: add in place
            k = e + d - n
            part = r.setdefault(k, {})
            _mul_into(ring, part, p, lr, True)
            if not part:
                del r[k]
    if steps and r:
        scale = _pow(ring, lb, steps)
        r = {e: _mul(ring, p, scale) for e, p in r.items()}
    return r


def _last_subresultant(ring: CoordinateRing, f: dict, g: dict) -> dict:
    """The last nonzero polynomial of the subresultant PRS of ``f`` and ``g``,
    split in one coordinate with deg f >= deg g: a multiple of their gcd by
    a factor free of that coordinate. Every division in it is exact."""
    m = max(g)
    d = max(f) - m
    h = _prem(ring, f, g)
    if not d & 1:
        h = {e: _neg(p) for e, p in h.items()}
    lc = g[m]
    c = _neg(_pow(ring, lc, d)) if d else {0: -ring.domain.one}
    while h:
        k = max(h)
        f, g, m, d = g, h, k, m - k
        b = _neg(_mul(ring, lc, _pow(ring, c, d)))
        h = {e: _exact_quo(ring, p, b) for e, p in _prem(ring, f, g).items()}
        lc = g[k]
        if d > 1:
            c = _exact_quo(ring, _pow(ring, _neg(lc), d), _pow(ring, c, d - 1))
        else:
            c = _neg(lc)
    return g


def _coeff_gcd(ring: CoordinateRing, parts: dict) -> dict:
    """The gcd of the coefficients of a split polynomial, the shortest first."""
    g = None
    for p in sorted(parts.values(), key=len):
        g = p if g is None else _gcd(ring, g, p)
        if _is_one(ring, g):
            return g
    return _monic(ring, g)


def _primitive(ring: CoordinateRing, parts: dict) -> tuple[dict, dict]:
    """The content of a split polynomial and its primitive part."""
    content = _coeff_gcd(ring, parts)
    if _is_one(ring, content):
        return content, parts
    return content, {e: _exact_quo(ring, p, content) for e, p in parts.items()}


def _monic(ring: CoordinateRing, poly: dict) -> dict:
    """``poly`` times the unit that makes its leading coefficient canonical."""
    unit = ring.domain.canonical_unit(_lc(poly))
    return poly if unit == ring.domain.one else _scale(poly, unit)


def _gcd(ring: CoordinateRing, a: dict, b: dict) -> dict:
    """The gcd of the nonzero ``a`` and ``b``, content included, with a
    canonical leading coefficient."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:  # a monomial times a constant
        ((m, c),) = a.items()
        return {_field_mins(ring, b, m) if m else 0: _content(ring.domain, b, c)}
    used_a, used_b = _used_shifts(ring, a), _used_shifts(ring, b)
    if used_a != used_b:
        # The gcd has degree 0 in a coordinate that only one of them has, so
        # it divides that one's coefficients in the coordinate.
        shift = next(s for s in used_a + used_b if (s in used_a) != (s in used_b))
        if shift in used_a:
            a = _coeff_gcd(ring, _split(ring, a, shift))
        else:
            b = _coeff_gcd(ring, _split(ring, b, shift))
        return _gcd(ring, a, b)
    # The main coordinate is one of least degree, the first of them on a tie.
    shift = min(used_a, key=lambda s: max(_degree(a, s), _degree(b, s)))
    ca, pa = _primitive(ring, _split(ring, a, shift))
    cb, pb = _primitive(ring, _split(ring, b, shift))
    content = _gcd(ring, ca, cb)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    last = _last_subresultant(ring, pa, pb)
    if max(last) == 0:  # primitive parts with no common factor
        return content
    return _monic(ring, _mul(ring, content, _join(ring, _primitive(ring, last)[1], shift)))


def _reduce(ring: CoordinateRing, num: dict, den: dict):
    """The canonical form of ``num/den``: coprime with a canonical LC(den)."""
    if not num:
        return num, ring.one.den
    if not _is_ground(den):
        # The gcd is content included, so the quotients are coprime over Z or
        # Z[i]; a one-term num or den makes it a monomial at once.
        g = _gcd(ring, num, den)
        if not _is_one(ring, g):
            num, den = _exact_quo(ring, num, g), _exact_quo(ring, den, g)
        return _unit_normal(ring, num, den)
    domain = ring.domain
    one = domain.one
    d = den[0]
    if d == one:
        return num, den
    # A constant denominator only shares a constant with num: its content.
    g = _content(domain, num, d)
    if g != one:
        quo = domain.quo
        num = {m: quo(c, g) for m, c in num.items()}
        den = {0: quo(d, g)}
    return _unit_normal(ring, num, den)


class ScalarExpr:
    """A rational function in canonical form over a fixed coordinate ring.

    Canonical form: numerator and denominator are polynomials over the
    ring's domain (Z or Z[i]) with gcd 1, content included, and the
    denominator's graded-lex leading coefficient is a canonical unit
    multiple (positive over Z, in the first quadrant over Z[i]). The form
    is unique, so two ``ScalarExpr`` are mathematically equal iff they
    compare equal structurally. ``str`` prints the same value with a monic
    denominator over Q or Q(i).
    """

    __slots__ = ("ring", "num", "den")

    def __init__(
        self, ring: CoordinateRing, num: dict, den: dict, *, _canonical=False
    ):
        if not den:
            raise DivisionByZeroError("zero denominator")
        if not _canonical:
            num, den = _reduce(ring, num, den)
        self.ring = ring
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(ring: CoordinateRing, value) -> "ScalarExpr":
        """The constant ``value``: an int or a ``Fraction``, never a float."""
        if isinstance(value, int):
            p, q = int(value), 1
        else:
            from fractions import Fraction  # loaded already if value is one
            if not isinstance(value, Fraction):
                raise TypeError(f"constant {value!r} is not an int or a Fraction")
            p, q = value.numerator, value.denominator
        # coprime integers with a positive denominator: canonical over Z and Z[i]
        of_int = ring.domain.of_int
        return ScalarExpr(ring, {0: of_int(p)} if p else {}, {0: of_int(q)}, _canonical=True)

    @staticmethod
    def variable(ring: CoordinateRing, name: str) -> "ScalarExpr":
        if name not in ring.names:
            raise UnknownVariableError(f"unknown variable {name!r}")
        key = (1 << ring._degree_shift) | (1 << ring._shifts[name])
        one = ring.one.den
        return ScalarExpr(ring, {key: one[0]}, one, _canonical=True)

    def complexified(self) -> "ScalarExpr":
        """This value on the same coordinates over Z[i]; itself if it is there.

        Integers coprime over Z stay coprime over Z[i], and a positive
        leading coefficient is canonical over both, so the form is unchanged.
        """
        if self.ring.allow_imaginary:
            return self
        ring = coordinate_ring(self.ring.names, True)
        of_int = ring.domain.of_int
        return ScalarExpr(
            ring,
            {m: of_int(c) for m, c in self.num.items()},
            {m: of_int(c) for m, c in self.den.items()},
            _canonical=True,
        )

    # -- arithmetic ----------------------------------------------------

    def _plus(self, other: "ScalarExpr", negate: bool) -> "ScalarExpr":
        """``self + other``, or ``self - other`` with ``negate``."""
        ring = self.ring
        if ring is not other.ring:
            raise _mixed(ring, other.ring)
        if self.den == other.den:
            return ScalarExpr(ring, _add(self.num, other.num, negate), self.den)
        num = _mul(ring, self.num, other.den)
        _mul_into(ring, num, other.num, self.den, negate)
        # a/b ± p, p a polynomial: gcd(a ± p·b, b) = gcd(a, b) = 1, LC(b) is kept,
        # and the sum is nonzero, or b would divide a and be the one
        canonical = self.den == ring.one.den or other.den == ring.one.den
        return ScalarExpr(ring, num, _mul(ring, self.den, other.den), _canonical=canonical)

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        return self._plus(other, False)

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        return self._plus(other, True)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr(self.ring, _neg(self.num), self.den, _canonical=True)

    def __mul__(self, other: "ScalarExpr") -> "ScalarExpr":
        ring = self.ring
        if ring is not other.ring:
            raise _mixed(ring, other.ring)
        return ScalarExpr(
            ring, _mul(ring, self.num, other.num), _mul(ring, self.den, other.den)
        )

    def __truediv__(self, other: "ScalarExpr") -> "ScalarExpr":
        ring = self.ring
        if ring is not other.ring:
            raise _mixed(ring, other.ring)
        if not other.num:
            raise DivisionByZeroError("division by zero rational function")
        return ScalarExpr(
            ring, _mul(ring, self.num, other.den), _mul(ring, self.den, other.num)
        )

    def __pow__(self, exponent: int) -> "ScalarExpr":
        # Powers of a coprime pair stay coprime; only the unit of LC(den) moves.
        if exponent == 0:
            return self.ring.one  # 0^0 included
        ring = self.ring
        if exponent < 0:
            if not self.num:
                raise DivisionByZeroError("division by zero rational function")
            num, den = _pow(ring, self.den, -exponent), _pow(ring, self.num, -exponent)
        else:
            num, den = _pow(ring, self.num, exponent), _pow(ring, self.den, exponent)
        num, den = _unit_normal(ring, num, den)
        return ScalarExpr(ring, num, den, _canonical=True)

    @staticmethod
    def sum_of_products(ring: CoordinateRing, terms) -> "ScalarExpr":
        """Σ ±a·b over ``ring`` for ``terms`` of ``(a, b, negate)``: the
        one-lane case of ``sums_of_products``."""
        lanes = ((a, (b,), negate) for a, b, negate in terms)
        return ScalarExpr.sums_of_products(ring, 1, lanes)[0]

    @staticmethod
    def sums_of_products(ring: CoordinateRing, lanes: int, terms) -> list:
        """The ``lanes`` sums Σ ±a·bs[l] over ``ring`` for ``terms`` of
        ``(a, bs, negate)``, each ``bs`` a sequence of ``lanes`` scalars and
        every operand on ``ring``. In each lane the products that share a
        denominator accumulate into one numerator, reduced once, and these
        groups are then added. A term whose nonzero lanes (at least two)
        share a denominator is packed and multiplied once for all of them,
        as the module docstring sets out."""
        groups: dict = {}  # {(lane, den key): (den, num)}
        packable = []
        for a, bs, negate in terms:
            if a.ring is not ring:
                raise _mixed(ring, a.ring)
            for b in bs:
                if b.ring is not ring:
                    raise _mixed(ring, b.ring)
            if not a.num:
                continue
            live = [l for l, b in enumerate(bs) if b.num]
            if len(live) > 1 and all(bs[l].den == bs[live[0]].den for l in live):
                packable.append((a, bs, negate, live))
                continue
            for l in live:
                b = bs[l]
                _mul_into(ring, _group(ring, groups, l, a.den, b.den), a.num, b.num, negate)
        if packable:
            bound = 0
            for a, bs, _, live in packable:
                bound += sum(map(abs, a.num.values())) * max(
                    sum(map(abs, bs[l].num.values())) for l in live
                )
            w = bound.bit_length() + 2
            packed: dict = {}
            for a, bs, negate, live in packable:
                b = {m: c << (w * live[0]) for m, c in bs[live[0]].num.items()}
                get = b.get
                for l in live[1:]:
                    s = w * l
                    for m, c in bs[l].num.items():
                        p = get(m)  # the lanes below l, which cannot cancel lane l
                        b[m] = c << s if p is None else p + (c << s)
                _mul_into(ring, _group(ring, packed, None, a.den, bs[live[0]].den), a.num, b, negate)
            for den, num in packed.values():
                for l, part in enumerate(ring.domain.unpack(num, lanes, w)):
                    if part:
                        _add_into(_group(ring, groups, l, den, ring.one.den), part.items())
        zero = ring.zero
        out = [zero] * lanes
        for (l, _), (den, num) in groups.items():
            value = ScalarExpr(ring, num, den)
            out[l] = value if out[l] is zero else out[l] + value
        return out

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarExpr)
            and self.ring is other.ring
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash(
            (self.ring, frozenset(self.num.items()), frozenset(self.den.items()))
        )

    # -- calculus ------------------------------------------------------

    def partial(self, var: str) -> "ScalarExpr":
        """Exact partial derivative: of the numerator over a constant
        denominator, by the quotient rule otherwise."""
        ring = self.ring
        if var not in ring.names:
            raise UnknownVariableError(f"unknown variable {var!r}")
        num, den = self.num, self.den
        dn = _diff(ring, num, var)
        if _is_ground(den):
            return ScalarExpr(ring, dn, den) if dn else ring.zero
        dn = _mul(ring, dn, den)
        _mul_into(ring, dn, num, _diff(ring, den, var), True)
        return ScalarExpr(ring, dn, _mul(ring, den, den))

    def __str__(self) -> str:
        # The same value over Q or Q(i), with a monic denominator.
        lc = _lc(self.den)
        try:
            num = _poly_str(self.num, self.ring, lc)
            den = None if _is_ground(self.den) else _poly_str(self.den, self.ring, lc)
        except ValueError:  # a coefficient past int()'s string conversion limit
            raise ScalarError(
                "coefficient too long to print: more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
        if den is None:
            return num
        num_s = num if _is_atomic(num) else f"({num})"
        den_s = den if _is_atomic(den) else f"({den})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"ScalarExpr({self})"


def _is_atomic(s: str) -> bool:
    return "+" not in s[1:] and "-" not in s[1:] and "/" not in s and "*" not in s


def _poly_str(poly: dict, ring: CoordinateRing, lc) -> str:
    """``poly`` divided by the domain constant ``lc``, with Q or Q(i)
    coefficients; integer ones, as they are, when ``lc`` is one."""
    if not poly:
        return "0"
    monoms = sorted(poly, reverse=True)
    if ring.allow_imaginary:
        values = [(poly[m].x, poly[m].y) for m in monoms]
        a, b = lc.x, lc.y
    else:
        values = [(poly[m], 0) for m in monoms]
        a, b = lc, 0
    n = a * a + b * b
    if lc != ring.domain.one:
        # c / lc = c * conj(lc) / |lc|^2, each part reduced as it prints
        values = [(x * a + y * b, y * a - x * b) for x, y in values]
    parts = []
    for monom, (re, im) in zip(monoms, values):
        factors = []
        for name, exp in zip(ring.names, ring.exponents(monom)):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        mono = "*".join(factors)
        if not mono:
            parts.append(_complex_str(re, im, n))
        elif im == 0 and re == n:
            parts.append(mono)
        elif im == 0 and re == -n:
            parts.append(f"-{mono}")
        else:
            c = _complex_str(re, im, n)
            if "+" in c[1:] or "-" in c[1:]:
                c = f"({c})"
            parts.append(f"{c}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------------------
# Parser
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := '-' factor | base ('^' uint)?
# base   := int | 'i' | var | '(' expr ')'
#
# Integers are ASCII digits. Parentheses and unary minus nest at most
# MAX_NESTING deep, an exponent is at most MAX_EXPONENT, and no operation may
# build more than MAX_TERMS terms.
#
# A factor of integers, coordinates, i, powers and unary minus is a monomial
# (key, coefficient) term, so a product of two is one key sum and one
# multiplication; a sum adds its terms over denominator 1 into one dict.
# The first parenthesised or divided factor, and the first term over another
# denominator, hand the value so far to ScalarExpr arithmetic. Both paths
# bound each operation by the same term counts at the same positions.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:  # a character that starts no token
            break
        kind = m.lastgroup
        tokens.append((kind, m[kind], m.start(kind)))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        bad = len(text) - len(rest)
        raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
    tokens.append(("end", "", len(text)))
    return tokens


#: Deepest nesting of parentheses and unary minus signs that parses; deeper
#: input raises ExprSyntaxError instead of exhausting the interpreter stack.
MAX_NESTING = 100

#: Largest exponent that parses: the cost of ``p^n`` grows with n, so a
#: manifest could otherwise stall a check (``(x+y+1)^5000``). Computed powers
#: (``ScalarExpr.__pow__``) are not bounded.
MAX_EXPONENT = 64

#: Most terms, numerator and denominator together, that one parsed operation
#: may build. Each operation is bounded before it runs: a product, a quotient
#: or a sum over different denominators by the product of the operands' term
#: counts, a sum over one denominator by their sum, and p^k by
#: C(t+k-1, k) for a t-term p. An exponent within MAX_EXPONENT can still expand
#: far: ``(x+y+z+w+1)^64`` has 814,385 terms and would stall a check, so it
#: raises ExprSyntaxError. Fixture entries have fewer than 10 terms.
MAX_TERMS = 2000


def _terms(value: ScalarExpr) -> int:
    return len(value.num) + len(value.den)


def _power_terms(poly, exponent: int) -> int:
    """An upper bound on the terms of ``poly**exponent``: the monomials of
    degree ``exponent`` in as many symbols as ``poly`` has terms."""
    return comb(len(poly) + exponent - 1, exponent) if poly else 0


def _int_literal(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ExprSyntaxError("integer literal too long", pos) from None


class _Parser:
    def __init__(self, tokens, ring: CoordinateRing):
        self.tokens = tokens
        self.idx = 0
        self.ring = ring
        self.depth = 0

    def nested(self, parse, pos: int) -> ScalarExpr:
        """Run ``parse`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels", pos
            )
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def bounded(self, terms: int, pos: int) -> None:
        """Refuse an operation that may build more than MAX_TERMS terms."""
        if terms > MAX_TERMS:
            raise ExprSyntaxError(
                f"expression may expand to more than {MAX_TERMS} terms", pos
            )

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> ScalarExpr:
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {_quote(value)}", pos)
        return result

    def scalar(self, value) -> ScalarExpr:
        """A parsed value as a ScalarExpr: a monomial term, or a polynomial
        dict of the parser's own, is over denominator 1."""
        if type(value) is tuple:
            value = dict(self.polynomial(value))
        if type(value) is dict:
            return ScalarExpr(self.ring, value, self.ring.one.den, _canonical=True)
        return value

    def polynomial(self, value):
        """The terms of a parsed value over denominator 1, or None."""
        if type(value) is tuple:
            return (value,) if value[1] else ()
        return value.num.items() if value.den == self.ring.one.den else None

    def expr(self) -> ScalarExpr:
        value = self.term()
        terms = self.polynomial(value)
        # the sum so far while every term is over denominator 1, else None
        num = None if terms is None else dict(terms)
        kind, op, pos = self.peek()
        while kind == "op" and op in "+-":
            self.advance()
            rhs = self.term()
            terms = None if num is None else self.polynomial(rhs)
            if terms is not None:
                # the sum's terms and denominator plus the term's, as _plus counts them
                self.bounded(len(num) + len(terms) + 2, pos)
                _add_into(num, [(m, -c) for m, c in terms] if op == "-" else terms)
            else:
                if num is not None:
                    value, num = self.scalar(num), None
                rhs = self.scalar(rhs)
                if value.den == rhs.den:
                    self.bounded(_terms(value) + _terms(rhs), pos)
                else:
                    self.bounded(_terms(value) * _terms(rhs), pos)
                value = value + rhs if op == "+" else value - rhs
            kind, op, pos = self.peek()
        return value if num is None else self.scalar(num)

    def term(self):
        """A product: a monomial ``(key, coefficient)`` term while every factor
        is one, else a ScalarExpr."""
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind != "op" or op not in "*/":
                return value
            self.advance()
            rhs = self.factor()
            if op == "*" and type(value) is tuple and type(rhs) is tuple:
                value = value[0] + rhs[0], value[1] * rhs[1]
                if value[1] and value[0] >= self.ring._key_limit:  # as in _mul
                    raise _too_large(self.ring)
                continue
            value, rhs = self.scalar(value), self.scalar(rhs)
            self.bounded(_terms(value) * _terms(rhs), pos)
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    raise DivisionByZeroError(f"division by zero (at position {pos})")
                value = value / rhs

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            inner = self.nested(self.factor, pos)
            return (inner[0], -inner[1]) if type(inner) is tuple else -inner
        base = self.base()
        kind, value, _ = self.peek()
        if kind != "op" or value != "^":
            return base
        self.advance()
        kind, value, pos = self.peek()
        if kind != "int":
            raise ExprSyntaxError("expected a nonnegative integer exponent", pos)
        self.advance()
        exponent = _int_literal(value, pos)
        if exponent > MAX_EXPONENT:
            raise ExprSyntaxError(
                f"exponent {exponent} is larger than {MAX_EXPONENT}", pos
            )
        if type(base) is tuple:
            # degree at most MAX_EXPONENT, far below the key limit; 0^0 = 1
            # as in ScalarExpr.__pow__
            if not exponent:
                return 0, self.ring.domain.one
            return base[0] * exponent, base[1] ** exponent
        self.bounded(
            _power_terms(base.num, exponent) + _power_terms(base.den, exponent), pos
        )
        return base**exponent

    def base(self):
        """A monomial ``(key, coefficient)`` term, or a parenthesised sum."""
        kind, value, pos = self.advance()
        ring = self.ring
        if kind == "int":
            return 0, ring.domain.of_int(_int_literal(value, pos))
        if kind == "name":
            if value == "i":
                if not ring.allow_imaginary:
                    raise ImaginaryNotAllowedError(
                        f"imaginary unit at position {pos} on a real chart"
                    )
                return 0, ring.domain.of_parts(0, 1)
            shift = ring._shifts.get(value)
            if shift is None:
                raise UnknownVariableError(
                    f"unknown variable {_quote(value)} at position {pos}"
                )
            return (1 << ring._degree_shift) | (1 << shift), ring.domain.one
        if kind == "op" and value == "(":
            inner = self.nested(self.expr, pos)
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {_quote(value)}", pos)


def parse_expr(
    text: str,
    variables: Sequence[str],
    *,
    allow_imaginary: bool = True,
) -> ScalarExpr:
    """Parse ``text`` into canonical form over the given ordered variables.

    With ``allow_imaginary`` the result lives on the ring over Z[i] (a
    value in Q(i)(x)) and may use the imaginary unit ``i``; without it the
    result lives on the ring over Z (a value in Q(x)) and ``i`` raises
    :class:`ImaginaryNotAllowedError`.
    """
    ring = coordinate_ring(tuple(variables), allow_imaginary)
    return _Parser(_tokenize(text), ring).parse()

