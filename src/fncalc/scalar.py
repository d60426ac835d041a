"""Exact arithmetic kernel: multivariate rational functions over Q or Q(i).

Every coefficient in the geometric layers above is a ``ScalarExpr``: a
fraction of multivariate polynomials kept in a canonical form (gcd-reduced,
monic denominator under graded-lex order, sparse monomials). Structural
equality of canonical forms therefore decides mathematical equality, which
is what makes all tensor identities in this package decidable.

A real chart computes over the rationals Q and a complexified chart over the
Gaussian rationals Q(i). A real rational function has the same canonical
form over both, so a real scalar that meets a Q(i) scalar on the same
coordinates is embedded into Q(i), and equality and hashing compare values
across the two domains.

Polynomial arithmetic is delegated to sympy's sparse polynomial rings over
the ``QQ`` and ``QQ_I`` domains; everything user-facing (parsing,
evaluation, the ``GaussianRational`` value type) is defined here.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from sympy.polys.domains import QQ, QQ_I
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring as _sympy_ring

__all__ = [
    "ScalarError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "DivisionByZeroError",
    "PoleError",
    "ImaginaryNotAllowedError",
    "GaussianRational",
    "ChartPoint",
    "CoordinateRing",
    "coordinate_ring",
    "ScalarExpr",
    "parse_expr",
    "random_point",
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


class PoleError(ScalarError):
    """The denominator vanishes at the evaluation point."""


class ImaginaryNotAllowedError(ScalarError):
    """The imaginary unit was used on a chart declared real."""


_FRACTION_ZERO = Fraction(0)
_FRACTION_ONE = Fraction(1)


@dataclass(frozen=True)
class GaussianRational:
    """An exact complex number with rational real and imaginary parts."""

    re: Fraction = _FRACTION_ZERO
    im: Fraction = _FRACTION_ZERO

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise DivisionByZeroError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __pow__(self, exponent: int) -> "GaussianRational":
        if exponent < 0:
            return GaussianRational(_FRACTION_ONE) / self ** (-exponent)
        out = GaussianRational(_FRACTION_ONE)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}*i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{imag}"


@dataclass(frozen=True)
class ChartPoint:
    """A rational point of a coordinate chart."""

    coordinates: tuple[GaussianRational, ...]

    def __len__(self) -> int:
        return len(self.coordinates)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class CoordinateRing:
    """The polynomial ring Q(i)[x_1, ..., x_n], or Q[x_1, ..., x_n] for a real chart.

    ``allow_imaginary`` picks the coefficient domain: Q(i) when true (a
    complexified chart), Q when false (a real chart). Instances are cached
    per variable tuple and domain so that polynomial elements of the same
    chart always belong to the identical sympy ring object.
    """

    def __init__(self, names: tuple[str, ...], allow_imaginary: bool = True):
        for name in names:
            if name == "i":
                raise ValueError("'i' is reserved for the imaginary unit")
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if not names:
            raise ValueError("empty variable tuple")
        self.names = names
        self.allow_imaginary = allow_imaginary
        self.domain = QQ_I if allow_imaginary else QQ
        self.ring, *gens = _sympy_ring(list(names), self.domain, grlex)
        self.gens = tuple(gens)

    def __repr__(self) -> str:
        return f"CoordinateRing{self.names}"


@lru_cache(maxsize=None)
def coordinate_ring(
    names: tuple[str, ...], allow_imaginary: bool = True
) -> CoordinateRing:
    """The cached ring of ``names`` over Q(i), or over Q if not ``allow_imaginary``."""
    return CoordinateRing(names, allow_imaginary)


def _fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _to_domain(value: GaussianRational, ring: CoordinateRing):
    if ring.allow_imaginary:
        return QQ_I(value.re) + QQ_I(value.im) * QQ_I(0, 1)
    if value.im:
        raise ImaginaryNotAllowedError(f"constant {value} on a real chart")
    return QQ(value.re.numerator, value.re.denominator)


def _from_domain(coeff, ring: CoordinateRing) -> GaussianRational:
    if ring.allow_imaginary:
        return GaussianRational(_fraction(coeff.x), _fraction(coeff.y))
    return GaussianRational(_fraction(coeff))


def _hash_terms(poly, ring: CoordinateRing) -> frozenset:
    """The terms of ``poly`` with each real Q(i) coefficient hashed as its Q value."""
    if ring.allow_imaginary:
        return frozenset(
            (m, (c.x, c.y) if c.y else c.x) for m, c in poly.items()
        )
    return frozenset(poly.items())


class ScalarExpr:
    """A rational function in canonical form over a fixed coordinate ring.

    Canonical form: gcd(numerator, denominator) = 1 and the denominator is
    monic under graded-lex order, so two ``ScalarExpr`` are mathematically
    equal iff they compare equal structurally.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: CoordinateRing, num, den, *, _canonical=False):
        if den == 0:
            raise DivisionByZeroError("zero denominator")
        if not _canonical:
            one = ring.domain.one
            if den.is_ground:
                # already reduced up to a constant; no gcd needed
                lc = den.LC
                if lc != one:
                    num = num.quo_ground(lc)
                    den = ring.ring.one
            else:
                num, den = num.cancel(den)
                lc = den.LC
                if lc != one:
                    num = num.quo_ground(lc)
                    den = den.monic()
            if not num:
                den = ring.ring.one
        self.ring = ring
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(ring: CoordinateRing, value) -> "ScalarExpr":
        if isinstance(value, GaussianRational):
            gr = value
        else:
            gr = GaussianRational(Fraction(value))
        num = ring.ring.ground_new(_to_domain(gr, ring))
        return ScalarExpr(ring, num, ring.ring.one, _canonical=True)

    @staticmethod
    def variable(ring: CoordinateRing, name: str) -> "ScalarExpr":
        if name not in ring.names:
            raise UnknownVariableError(f"unknown variable {name!r}")
        gen = ring.gens[ring.names.index(name)]
        return ScalarExpr(ring, gen, ring.ring.one, _canonical=True)

    @staticmethod
    def imaginary_unit(ring: CoordinateRing) -> "ScalarExpr":
        return ScalarExpr.constant(ring, GaussianRational.of(0, 1))

    def in_ring(self, ring: CoordinateRing) -> "ScalarExpr":
        """This value over ``ring``: the same coordinates, over Q or Q(i).

        Raises :class:`ScalarError` for other coordinates, and for a value
        with an imaginary part when ``ring`` is over Q (a real chart's ring).
        """
        if ring is self.ring:
            return self
        if ring.names != self.ring.names:
            raise ScalarError(f"mixed coordinate rings: {self.ring} vs {ring}")
        if not ring.allow_imaginary and self.has_imaginary:
            raise ScalarError(
                f"coefficient {self} has an imaginary part on a real chart"
            )
        # gcd 1 and a monic denominator survive the change of domain.
        return ScalarExpr(
            ring,
            self.num.set_ring(ring.ring),
            self.den.set_ring(ring.ring),
            _canonical=True,
        )

    # -- arithmetic ----------------------------------------------------

    def _unify(self, other: "ScalarExpr") -> tuple["ScalarExpr", "ScalarExpr"]:
        """Both operands over one ring; a real one meeting Q(i) is embedded."""
        ring = other.ring if other.ring.allow_imaginary else self.ring
        return self.in_ring(ring), other.in_ring(ring)

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        if self.ring is not other.ring:
            self, other = self._unify(other)
        if self.den == other.den:
            return ScalarExpr(self.ring, self.num + other.num, self.den)
        return ScalarExpr(
            self.ring,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        if self.ring is not other.ring:
            self, other = self._unify(other)
        if self.den == other.den:
            return ScalarExpr(self.ring, self.num - other.num, self.den)
        return ScalarExpr(
            self.ring,
            self.num * other.den - other.num * self.den,
            self.den * other.den,
        )

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr(self.ring, -self.num, self.den, _canonical=True)

    def __mul__(self, other: "ScalarExpr") -> "ScalarExpr":
        if self.ring is not other.ring:
            self, other = self._unify(other)
        return ScalarExpr(self.ring, self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "ScalarExpr") -> "ScalarExpr":
        if self.ring is not other.ring:
            self, other = self._unify(other)
        if not other.num:
            raise DivisionByZeroError("division by zero rational function")
        return ScalarExpr(self.ring, self.num * other.den, self.den * other.num)

    def __pow__(self, exponent: int) -> "ScalarExpr":
        if exponent < 0:
            return ScalarExpr.constant(self.ring, 1) / self ** (-exponent)
        return ScalarExpr(self.ring, self.num**exponent, self.den**exponent)

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def has_imaginary(self) -> bool:
        if not self.ring.allow_imaginary:
            return False
        return any(
            c.y != 0 for _, c in self.num.terms()
        ) or any(c.y != 0 for _, c in self.den.terms())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarExpr):
            return False
        if self.ring is not other.ring:
            if self.ring.names != other.ring.names:
                return False
            self, other = self._unify(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(
            (
                self.ring.names,
                _hash_terms(self.num, self.ring),
                _hash_terms(self.den, self.ring),
            )
        )

    # -- calculus ------------------------------------------------------

    def partial(self, var: str) -> "ScalarExpr":
        """Exact partial derivative by the quotient rule."""
        if var not in self.ring.names:
            raise UnknownVariableError(f"unknown variable {var!r}")
        gen = self.ring.gens[self.ring.names.index(var)]
        dn = self.num.diff(gen)
        dd = self.den.diff(gen)
        return ScalarExpr(
            self.ring, dn * self.den - self.num * dd, self.den * self.den
        )

    def conjugate(self) -> "ScalarExpr":
        if not self.ring.allow_imaginary:
            return self
        conj = lambda c: QQ_I.new(c.x, -c.y)
        num = self.ring.ring.from_terms(
            [(m, conj(c)) for m, c in self.num.terms()]
        )
        den = self.ring.ring.from_terms(
            [(m, conj(c)) for m, c in self.den.terms()]
        )
        return ScalarExpr(self.ring, num, den)

    def eval_at(self, point: ChartPoint) -> GaussianRational:
        """Exact evaluation; raises :class:`PoleError` on a vanishing denominator."""
        coords = point.coordinates
        if len(coords) != len(self.ring.names):
            raise ScalarError(
                f"point of length {len(coords)} on a chart of dimension "
                f"{len(self.ring.names)}"
            )
        den = _eval_poly(self.den, self.ring, coords)
        if den.is_zero():
            raise PoleError(f"denominator of {self} vanishes at the point")
        num = _eval_poly(self.num, self.ring, coords)
        return num / den

    def __str__(self) -> str:
        num = _poly_str(self.num, self.ring)
        if self.den == self.ring.ring.one:
            return num
        den = _poly_str(self.den, self.ring)
        num_s = num if _is_atomic(num) else f"({num})"
        den_s = den if _is_atomic(den) else f"({den})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"ScalarExpr({self})"


def _eval_poly(
    poly, ring: CoordinateRing, coords: Sequence[GaussianRational]
) -> GaussianRational:
    total = GaussianRational()
    for monom, coeff in poly.terms():
        value = _from_domain(coeff, ring)
        for exp, coord in zip(monom, coords):
            if exp:
                value = value * coord**exp
        total = total + value
    return total


def _is_atomic(s: str) -> bool:
    return "+" not in s[1:] and "-" not in s[1:] and "/" not in s and "*" not in s


def _poly_str(poly, ring: CoordinateRing) -> str:
    if not poly:
        return "0"
    order = ring.ring.order
    parts = []
    for monom, coeff in sorted(poly.terms(), key=lambda t: order(t[0]), reverse=True):
        gr = _from_domain(coeff, ring)
        factors = []
        for name, exp in zip(ring.names, monom):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        mono = "*".join(factors)
        if not mono:
            parts.append(str(gr))
            continue
        if gr == GaussianRational.of(1):
            parts.append(mono)
        elif gr == GaussianRational.of(-1):
            parts.append(f"-{mono}")
        else:
            c = str(gr)
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
# Parentheses and unary minus nest at most MAX_NESTING deep.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


#: Deepest nesting of parentheses and unary minus signs that parses; deeper
#: input raises ExprSyntaxError instead of exhausting the interpreter stack.
MAX_NESTING = 100


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
            raise ExprSyntaxError(f"unexpected token {value!r}", pos)
        return result

    def expr(self) -> ScalarExpr:
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> ScalarExpr:
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rhs = self.factor()
                if op == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero:
                        raise DivisionByZeroError(
                            f"division by zero (at position {pos})"
                        )
                    value = value / rhs
            else:
                return value

    def factor(self) -> ScalarExpr:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.nested(self.factor, pos)
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise ExprSyntaxError("expected a nonnegative integer exponent", pos)
            self.advance()
            return base ** int(value)
        return base

    def base(self) -> ScalarExpr:
        kind, value, pos = self.advance()
        if kind == "int":
            return ScalarExpr.constant(self.ring, int(value))
        if kind == "name":
            if value == "i":
                if not self.ring.allow_imaginary:
                    raise ImaginaryNotAllowedError(
                        f"imaginary unit at position {pos} on a real chart"
                    )
                return ScalarExpr.imaginary_unit(self.ring)
            if value not in self.ring.names:
                raise UnknownVariableError(
                    f"unknown variable {value!r} at position {pos}"
                )
            return ScalarExpr.variable(self.ring, value)
        if kind == "op" and value == "(":
            inner = self.nested(self.expr, pos)
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)


def parse_expr(
    text: str,
    variables: Sequence[str],
    *,
    allow_imaginary: bool = True,
) -> ScalarExpr:
    """Parse ``text`` into canonical form over the given ordered variables.

    With ``allow_imaginary`` the result lives over Q(i) and may use the
    imaginary unit ``i``; without it the result lives over Q and ``i``
    raises :class:`ImaginaryNotAllowedError`.
    """
    ring = coordinate_ring(tuple(variables), allow_imaginary)
    return _Parser(_tokenize(text), ring).parse()


def random_point(dim: int, seed: int, bound: int = 7) -> ChartPoint:
    """A deterministic pseudo-random rational point; same seed, same point."""
    if dim < 1 or bound < 1:
        raise ValueError("dim and bound must be positive")
    rng = random.Random(seed)
    coords = tuple(
        GaussianRational(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))
        for _ in range(dim)
    )
    return ChartPoint(coords)
