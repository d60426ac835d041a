"""Scalar layer: canonical forms, parsing, printing."""

import itertools
import operator
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ, QQ_I, ZZ, ZZ_I
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring as sympy_ring

import fncalc.scalar

from fncalc.calculus import Chart, fn_bracket, nijenhuis_torsion

from fncalc.scalar import (
    EXPONENT_BITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_QUOTED,
    MAX_TERMS,
    CoordinateRing,
    DivisionByZeroError,
    ExprSyntaxError,
    ImaginaryNotAllowedError,
    ScalarError,
    ScalarExpr,
    UnknownVariableError,
    _GAUSSIAN_INTEGERS,
    _GaussianInt,
    _add,
    _diff,
    _exact_quo,
    _lc,
    _mul,
    _mul_into,
    _neg,
    _pow,
    _reduce,
    coordinate_ring,
    parse_expr,
)

from helpers import random_vvf

VARS = ("x", "y")


def expr(text: str, variables=VARS, **kw) -> ScalarExpr:
    return parse_expr(text, variables, **kw)


class TestCanonicalForm:
    def test_gcd_cancellation(self):
        assert expr("(x^2-1)/(x-1)") == expr("x+1")

    def test_monic_denominator(self):
        assert expr("x/(2*x+2)") == expr("(1/2)*x/(x+1)")
        assert str(expr("1/(3*y)")) == str(expr("(1/3)/y"))

    def test_structural_equality_decides(self):
        a = expr("(x+y)^2")
        b = expr("x^2 + 2*x*y + y^2")
        assert a == b
        assert str(a) == str(b)

    def test_zero_representation(self):
        assert expr("x - x").is_zero
        assert str(expr("x - x")) == "0"

    def test_imaginary_unit(self):
        assert expr("i*i") == expr("-1")
        assert expr("(1+i)*(1-i)") == expr("2")


class TestDomains:
    def test_real_parse_is_over_q(self):
        real = expr("(x+1)/(3*y)", allow_imaginary=False)
        assert not real.ring.allow_imaginary
        assert expr("x").ring.allow_imaginary

    @pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
    def test_rings_come_from_the_cache(self, gaussian):
        """Equality compares rings by identity, so every path to a chart's
        ring must reach the one cached object."""
        ring = coordinate_ring(VARS, gaussian)
        assert Chart(VARS, gaussian).ring is ring
        assert expr("x", allow_imaginary=gaussian).ring is ring
        assert expr("x", list(VARS), allow_imaginary=gaussian).ring is ring
        assert Chart(VARS).complexify().ring is coordinate_ring(VARS, True)

    def test_mixed_domain_arithmetic_promotes(self):
        """Z and Z[i] operands never mix: a real value joins a Gaussian one
        through ``complexified``, and then gives the values mixing once gave."""
        real = expr("x/(y+1)", allow_imaginary=False)
        gauss = expr("i*y")
        for a, b in ((real, gauss), (gauss, real)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(ScalarError, match="mixed coordinate rings"):
                    op(a, b)
            with pytest.raises(ScalarError, match="mixed coordinate rings"):
                ScalarExpr.sum_of_products(gauss.ring, [(a, b, False)])
        # a zero operand off the ring raises too
        terms = [(real, real, False), (real, gauss.ring.zero, True)]
        with pytest.raises(ScalarError, match="mixed coordinate rings"):
            ScalarExpr.sum_of_products(real.ring, terms)
        assert real != real.complexified() and real.complexified() != real
        lifted = real.complexified()
        for value, text in (
            (lifted + gauss, "x/(y+1) + i*y"),
            (gauss - lifted, "i*y - x/(y+1)"),
            (lifted * gauss, "i*x*y/(y+1)"),
            (gauss / lifted, "i*y*(y+1)/x"),
        ):
            assert value.ring is gauss.ring
            assert value == expr(text)

    def test_mixed_coordinates_still_raise(self):
        with pytest.raises(ScalarError, match="mixed coordinate rings"):
            expr("x", allow_imaginary=False) + expr("x", ("x", "z"))
        with pytest.raises(ScalarError, match="mixed coordinate rings"):
            expr("x") * expr("x", ("x", "z"))
        assert expr("x") != expr("x", ("x", "z"))

    def test_complexified(self):
        real = expr("(-3*x + 1)/(2*y - 4)", allow_imaginary=False)
        lifted = real.complexified()
        assert lifted.ring is coordinate_ring(VARS, True)
        assert lifted == expr("(-3*x + 1)/(2*y - 4)")
        assert str(lifted) == str(real) == "(-3/2*x + 1/2)/(y - 2)"
        assert lifted.complexified() is lifted
        assert real.ring.zero.complexified() == lifted.ring.zero


LONG_NAME = "Q" * 1000


@pytest.mark.parametrize(
    "names, message",
    [
        (("x", "y", "y", "x"), "duplicate variable name 'y'"),
        (("x", "1y"), "invalid variable name '1y'"),
        (("x", LONG_NAME, LONG_NAME), "duplicate variable name "),
        (("x", "1" + LONG_NAME), "invalid variable name "),
    ],
    ids=["duplicate", "invalid", "long-duplicate", "long-invalid"],
)
def test_bad_variable_name_is_quoted_in_part(names, message):
    with pytest.raises(ValueError) as exc:
        CoordinateRing(names, False)
    quoted = max(names, key=len)
    if len(quoted) > MAX_QUOTED:
        message += f"{quoted[:MAX_QUOTED]!r}... ({len(quoted)} characters)"
    assert str(exc.value) == message


_RING = coordinate_ring(VARS, False)
_X = ScalarExpr.variable(_RING, "x")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: coordinate_ring((), False), ValueError, "empty variable tuple"),
        (lambda: ScalarExpr(_RING, {}, {}), DivisionByZeroError, "zero denominator"),
        (
            lambda: ScalarExpr.variable(_RING, "q"),
            UnknownVariableError,
            "unknown variable 'q'",
        ),
        (lambda: _X.partial("q"), UnknownVariableError, "unknown variable 'q'"),
        (
            lambda: _X / _RING.zero,
            DivisionByZeroError,
            "division by zero rational function",
        ),
        (lambda: _RING.zero ** -1, DivisionByZeroError, "division by zero rational function"),
        (
            lambda: _exact_quo(_RING, _X.num, (_X + _RING.one).num),
            ArithmeticError,
            "inexact polynomial division",
        ),
    ],
    ids=[
        "empty-ring", "zero-denominator", "unknown-variable", "unknown-partial",
        "divide-by-zero", "zero-to-negative-power", "inexact-quotient",
    ],
)
def test_scalar_validation_errors(build, error, message):
    """Each scalar constructor and operation refuses its invalid input with
    its own error class and message."""
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


class TestParser:
    def test_syntax_error_position(self):
        cases = [
            ("x+*y", "unexpected", 2),
            ("x $ y", "unexpected character", 2),
            ("(x+1", "expected ')'", 4),
            ("x)", "unexpected token", 1),
            ("x^y", "nonnegative integer exponent", 2),
            # integers are ASCII digits only
            ("\uff11", "unexpected character", 0),
            ("x + \u0662*y", "unexpected character", 4),
            ("x^\u0663", "unexpected character", 2),
        ]
        for text, message, position in cases:
            with pytest.raises(ExprSyntaxError) as exc:
                expr(text)
            assert exc.value.position == position, text
            assert message in str(exc.value), text
            assert f"(at position {position})" in str(exc.value), text
        assert expr("x ") == expr("x")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            expr("x + q")

    def test_division_by_syntactic_zero(self):
        with pytest.raises(DivisionByZeroError):
            expr("1/(x-x)")

    def test_imaginary_rejected_on_real_parse(self):
        with pytest.raises(ImaginaryNotAllowedError):
            expr("i*x", allow_imaginary=False)

    def test_power_and_unary_minus(self):
        assert expr("-x^2") == expr("0 - x*x")
        assert expr("(-x)^2") == expr("x^2")
        assert expr("(x-x)^0") == expr("x^0") == expr("1")

    @pytest.mark.parametrize(
        "opening, closing", [("(", ")"), ("-", "")], ids=["parentheses", "unary-minus"]
    )
    def test_nesting_limit(self, opening, closing):
        def nest(depth: int) -> str:
            return opening * depth + "x" + closing * depth

        assert expr(nest(MAX_NESTING)) == expr(nest(MAX_NESTING % 2))
        with pytest.raises(ExprSyntaxError, match="nested deeper"):
            expr(nest(MAX_NESTING + 1))
        # far past the limit: a syntax error, not a RecursionError
        with pytest.raises(ExprSyntaxError, match="nested deeper"):
            expr(nest(3000))

    def test_exponent_limit(self):
        assert expr(f"(x+1)^{MAX_EXPONENT}") == expr("x+1") ** MAX_EXPONENT
        for text in (f"x^{MAX_EXPONENT + 1}", "(x+y+1)^5000", "x^" + "9" * 5000):
            with pytest.raises(ExprSyntaxError, match="exponent|too long"):
                expr(text)
        # computed powers stay unbounded
        assert (expr("x") ** (MAX_EXPONENT + 1)).partial("x") == (
            expr(str(MAX_EXPONENT + 1)) * expr(f"x^{MAX_EXPONENT}")
        )

    def test_term_limit(self):
        xyzw = ("x", "y", "z", "w")
        # 4 + 1 symbols to the 12th: C(16, 12) = 1820 terms, under the limit
        assert len(expr("(x+y+z+w+1)^12", xyzw).num) == 1820 < MAX_TERMS
        for text in (
            "(x+y+z+w+1)^64",  # 814,385 terms; the exponent alone passes
            "(x+y+z+w+1)^12 * (x+y+z+w+2)",
            "(x+y+z+w+1)^12 / (x+y+z+w+2)",
            "1/(x+y+z+w+1)^9 + 1/(x+y+z+w+2)^9",
        ):
            with pytest.raises(ExprSyntaxError, match=f"more than {MAX_TERMS} terms"):
                expr(text, xyzw)
        # a sum over one denominator adds the term counts: 1366 + 365 passes
        assert len(expr("(x+y+z+w+1)^11 - (x+y+z+w)^11", xyzw).num) == 1001

    def test_integer_literal_too_long(self):
        with pytest.raises(ExprSyntaxError, match="too long"):
            expr("9" * 5000)

    @staticmethod
    def flat_sum(count: int) -> str:
        """``count`` distinct monomials ``x^a*y^b`` joined by ``+``."""
        return " + ".join(f"x^{k // 45}*y^{k % 45}" for k in range(count))

    def test_flat_sum_term_limit(self):
        # the running sum has t + 1 terms and a monomial 2: t + 3 <= MAX_TERMS
        assert len(expr(self.flat_sum(MAX_TERMS - 2)).num) == MAX_TERMS - 2
        text = self.flat_sum(MAX_TERMS - 1)
        plus = [k for k, ch in enumerate(text) if ch == "+"][MAX_TERMS - 3]
        with pytest.raises(ExprSyntaxError, match=f"more than {MAX_TERMS} terms") as exc:
            expr(text)
        assert exc.value.position == plus

    def test_product_with_a_long_sum_term_limit(self):
        # 2 terms of x times 1,000 + 1 of the sum
        with pytest.raises(ExprSyntaxError, match=f"more than {MAX_TERMS} terms") as exc:
            expr(f"x*({self.flat_sum(1000)})")
        assert exc.value.position == 1

    def test_monomial_product_past_the_field_width(self):
        with pytest.raises(ScalarError, match=f"total degree 2\\^{EXPONENT_BITS} or more"):
            expr("*".join(["x^64"] * 1024))

    def test_long_cancelling_chain(self):
        text = "x" + "".join(" - x" if k % 2 else " + x" for k in range(1, 3000))
        assert expr(text).is_zero
        assert expr(text + " + y") == expr("y")

    def test_zero_factor(self):
        assert expr("0*x + y") == expr("y")
        assert expr("0*x + y", allow_imaginary=False) == expr("y", allow_imaginary=False)

    @pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
    def test_parsing_leaves_shared_values_alone(self, gaussian):
        ring = coordinate_ring(VARS, gaussian)

        def snapshot(value):
            return dict(value.num), dict(value.den)

        earlier = [expr(t, allow_imaginary=gaussian) for t in ("x", "1", "x + 1", "-y")]
        before = [snapshot(v) for v in [ring.one, ring.zero] + earlier]
        for text in (
            "x + x", "1 + 1 + x", "x*y + x - x", "(x + 1) + x - 1", "-x + 2*x",
            "x - x", "y + (x + 1)*(x - 1)", "x^2 + x/2 + 1", "1 - 1 + y^0",
        ):
            expr(text, allow_imaginary=gaussian)
        assert [snapshot(v) for v in [ring.one, ring.zero] + earlier] == before


# Randomized structure tests: small polynomial expressions built from a pool.
POOL = ["x", "y", "x+1", "y-2", "x*y", "x^2", "1/2", "3", "x/(y+2)", "i"]
exprs = st.sampled_from([expr(t) for t in POOL])


# Real expression texts; divisors come from a pool of nonzero atoms.
real_atoms = st.sampled_from(["x", "y", "2", "(1/2)", "(x+1)", "(y-2)", "x^2"])
divisors = st.sampled_from(["x", "(y+2)", "(x^2+1)", "3", "(x-y)"])
real_texts = st.recursive(
    real_atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"
        ),
        st.tuples(inner, divisors).map(lambda t: f"({t[0]}/{t[1]})"),
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(real_texts)
def test_real_parse_agrees_across_domains(text):
    """A real expression over Q, complexified, is its value over Q(i)."""
    over_q = expr(text, allow_imaginary=False)
    over_qi = expr(text, allow_imaginary=True)
    lifted = over_q.complexified()
    assert over_q != over_qi
    assert lifted == over_qi and over_qi == lifted
    assert str(over_q) == str(lifted) == str(over_qi)
    assert hash(lifted) == hash(over_qi)


@settings(max_examples=60, deadline=None)
@given(exprs, exprs, exprs)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(exprs, exprs)
def test_leibniz_rule(a, b):
    for v in VARS:
        assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)


@settings(max_examples=60, deadline=None)
@given(exprs, exprs)
def test_partials_commute(a, b):
    f = a * b + a
    assert f.partial("x").partial("y") == f.partial("y").partial("x")



# ---------------------------------------------------------------------------
# The integer kernel against a reference over Q and Q(i): after each operation
# the reference cancels with sympy's field ``cancel`` and makes the
# denominator monic, the form the kernel prints.

REF_RINGS = {
    gaussian: sympy_ring(list(VARS), QQ_I if gaussian else QQ, grlex)[0]
    for gaussian in (False, True)
}


def ref_value(tree, gaussian: bool):
    """The canonical (num, den) over Q or Q(i) of an expression tree."""
    R = REF_RINGS[gaussian]
    kind = tree[0]
    if kind == "const":
        return R.ground_new(QQ(tree[1].numerator, tree[1].denominator)), R.one
    if kind == "i":
        return R.ground_new(QQ_I(0, 1)), R.one
    if kind == "var":
        return R.gens[VARS.index(tree[1])], R.one
    if kind == "^":
        num, den = R.one, R.one
        base_num, base_den = ref_value(tree[1], gaussian)
        for _ in range(tree[2]):
            num, den = num * base_num, den * base_den
        return num.quo_ground(den.LC), den.monic()
    (an, ad), (bn, bd) = ref_value(tree[1], gaussian), ref_value(tree[2], gaussian)
    num, den = {
        "+": (an * bd + bn * ad, ad * bd),
        "-": (an * bd - bn * ad, ad * bd),
        "*": (an * bn, ad * bd),
        "/": (an * bd, ad * bn),
    }[kind]
    num, den = num.cancel(den)
    if not num:
        return num, R.one
    return num.quo_ground(den.LC), den.monic()


def ref_str(num, den, gaussian: bool) -> str:
    """The printed form of a monic reference pair, written out independently."""

    def frac(q) -> Fraction:
        return Fraction(int(q.numerator), int(q.denominator))

    def coeff(c) -> tuple[Fraction, Fraction]:
        return (frac(c.x), frac(c.y)) if gaussian else (frac(c), Fraction(0))

    def coeff_str(re: Fraction, im: Fraction) -> str:
        if not im:
            return str(re)
        unit = "i" if abs(im) == 1 else f"{abs(im)}*i"
        sign = "-" if im < 0 else ""
        if not re:
            return sign + unit
        return f"{re}{sign or '+'}{unit}"

    def poly_str(poly) -> str:
        if not poly:
            return "0"
        parts = []
        for monom, c in sorted(poly.terms(), key=lambda t: grlex(t[0]), reverse=True):
            re, im = coeff(c)
            mono = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(VARS, monom) if e
            )
            text = coeff_str(re, im)
            if "+" in text[1:] or "-" in text[1:]:
                text = f"({text})"
            if not mono:
                parts.append(coeff_str(re, im))
            elif not im and abs(re) == 1:
                parts.append(mono if re == 1 else f"-{mono}")
            else:
                parts.append(f"{text}*{mono}")
        return parts[0] + "".join(
            f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:]
        )

    def wrap(text: str) -> str:
        atomic = not any(op in text[1:] for op in "+-") and not any(op in text for op in "/*")
        return text if atomic else f"({text})"

    n = poly_str(num)
    if den == den.ring.one:
        return n
    return f"{wrap(n)}/{wrap(poly_str(den))}"


def tree_text(tree) -> str:
    kind = tree[0]
    if kind == "const":
        return f"({tree[1].numerator}/{tree[1].denominator})"
    if kind in ("i", "var"):
        return tree[-1]
    if kind == "^":
        return f"({tree_text(tree[1])}^{tree[2]})"
    return f"({tree_text(tree[1])}{kind}{tree_text(tree[2])})"


def _c(n):
    return ("const", Fraction(n))


X, Y, I = ("var", "x"), ("var", "y"), ("i", "i")
# Divisors are nonzero polynomials, mostly non-constant.
REAL_DIVISORS = [
    ("+", X, _c(1)),
    ("-", ("*", _c(2), X), ("*", _c(3), Y)),
    ("+", ("*", X, X), _c(1)),
    ("*", _c(6), ("*", X, Y)),
    _c(3),
]
GAUSSIAN_DIVISORS = REAL_DIVISORS + [
    ("+", ("*", ("+", _c(1), I), X), _c(2)),
    ("-", ("*", ("*", _c(2), I), Y), _c(4)),
]


def trees(gaussian: bool):
    leaves = [
        st.fractions(min_value=-6, max_value=6, max_denominator=6).map(
            lambda q: ("const", q)
        ),
        st.sampled_from([X, Y]),
    ]
    if gaussian:
        leaves.append(st.just(I))
    divisors = st.sampled_from(GAUSSIAN_DIVISORS if gaussian else REAL_DIVISORS)
    return st.recursive(
        st.one_of(*leaves),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from("+-*"), inner, inner),
            st.tuples(st.just("/"), inner, divisors),
            st.tuples(st.just("^"), inner, st.integers(0, 3)),
        ),
        max_leaves=8,
    )


def kernel_value(tree, gaussian: bool) -> ScalarExpr:
    return expr(tree_text(tree), allow_imaginary=gaussian)


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_kernel_matches_field_reference(gaussian):
    @settings(max_examples=80, deadline=None)
    @given(trees(gaussian), trees(gaussian))
    def check(a, b):
        va, vb = kernel_value(a, gaussian), kernel_value(b, gaussian)
        ra, rb = ref_value(a, gaussian), ref_value(b, gaussian)
        assert str(va) == ref_str(*ra, gaussian)
        assert (va == vb) == (ra == rb)
        if not vb.is_zero:
            assert va * vb / vb == va
        assert (va + vb) - vb == va
        if not va.is_zero:
            assert va**-2 == va.ring.one / (va * va)
        if not gaussian:
            over_qi = kernel_value(a, True)
            assert va.complexified() == over_qi and hash(va.complexified()) == hash(over_qi)
            assert str(over_qi) == str(va)

    check()


@st.composite
def flat_sums(draw, gaussian: bool):
    """``(text, tree)`` of an unparenthesised ± chain of products of integers
    (0, 1 and multi-digit), coordinates, ``i`` on a complex chart, their
    powers and unary minus. About one factor in ten is a parenthesised tree
    and one in six is a divisor, so the parser hands the value so far to
    ScalarExpr arithmetic in mid-term and in mid-sum."""
    bases, parenthesised, divisors = FLAT_PARTS[gaussian]

    def factor():
        if draw(st.integers(0, 9)) == 0:
            tree = draw(parenthesised)
            text = tree_text(tree)
        else:
            base = draw(bases)
            text, tree = (str(base), _c(base)) if isinstance(base, int) else (base[-1], base)
            if draw(st.booleans()):
                k = draw(st.integers(0, 4))
                text, tree = f"{text}^{k}", ("^", tree, k)
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            text, tree = f"-{text}", ("-", _c(0), tree)
        return text, tree

    def term():
        text, tree = factor()
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.integers(0, 5)) == 0:
                rhs_text, rhs = draw(divisors)
                text, tree = f"{text}/{rhs_text}", ("/", tree, rhs)
            else:
                rhs_text, rhs = factor()
                text, tree = f"{text}*{rhs_text}", ("*", tree, rhs)
        return text, tree

    text, tree = term()
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from("+-"))
        rhs_text, rhs = term()
        text, tree = f"{text} {op} {rhs_text}", (op, tree, rhs)
    return text, tree


#: per domain: monomial bases, parenthesised factors, and divisors with their text
FLAT_PARTS = {
    gaussian: (
        st.one_of(
            st.sampled_from([X, Y, I] if gaussian else [X, Y]),
            st.sampled_from([0, 1]),
            st.integers(2, 10**12),
        ),
        trees(gaussian),
        st.sampled_from(
            [(tree_text(d), d) for d in (GAUSSIAN_DIVISORS if gaussian else REAL_DIVISORS)]
            + [("x", X), ("7", _c(7)), ("y^2", ("^", Y, 2))]
        ),
    )
    for gaussian in (False, True)
}


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_flat_sums_match_field_reference(gaussian):
    """Flat sums take the parser's monomial and in-place sum paths."""

    @settings(max_examples=50, deadline=None)
    @given(flat_sums(gaussian), flat_sums(gaussian))
    def check(a, b):
        (text_a, tree_a), (text_b, tree_b) = a, b
        va, vb = expr(text_a, allow_imaginary=gaussian), expr(text_b, allow_imaginary=gaussian)
        ra, rb = ref_value(tree_a, gaussian), ref_value(tree_b, gaussian)
        assert str(va) == ref_str(*ra, gaussian)
        assert (va == vb) == (ra == rb)
        assert va == kernel_value(tree_a, gaussian)  # every operation parenthesised

    check()


class TestIntegerKernel:
    """Pinned values of the canonical form over Z and Z[i]."""

    def test_gaussian_constant_shares_a_factor_with_its_denominator(self):
        # 2 = -i(1+i)^2, so (1+i)/2 = i/(1+i) over Z[i]
        half = expr("(1+i)/2")
        assert str(half) == "1/2+1/2*i"
        assert half == expr("1/(1-i)")
        assert half == ScalarExpr.constant(half.ring, Fraction(1, 2)) * expr("1+i")
        assert half.den == {0: _GaussianInt(1, 1)}

    def test_partial_over_a_constant_denominator(self):
        f = expr("x^2/2", allow_imaginary=False)
        assert f.partial("x") == expr("x", allow_imaginary=False)
        assert str(f.partial("x")) == "x"

    def test_denominator_content(self):
        f = expr("1/(2*x+2)", allow_imaginary=False)
        assert str(f) == "(1/2)/(x + 1)"
        x = f.ring.monomial((1, 0))
        assert f.den == {x: 2, 0: 2} and f.num == {0: 1}
        assert str(expr("(2+4*i)*x/(3*x*i+6)")) == "((4/3-2/3*i)*x)/(x - 2*i)"

    def test_shared_zero_and_one(self):
        chart, again = Chart(("x", "y")), Chart(("x", "y"))
        assert chart.zero is again.zero and chart.one is again.one
        assert chart.zero == chart.const(0) and chart.one == chart.const(1)

    def test_constants_are_exact(self):
        chart = Chart(("x", "y"))
        assert chart.const(Fraction(-6, 4)) == expr("-3/2", allow_imaginary=False)
        assert chart.complexify().const(Fraction(-6, 4)) == expr("-3/2")
        for value in (0.5, 1 / 3, "1/2"):
            with pytest.raises(TypeError, match="not an int or a Fraction"):
                chart.const(value)


#: (text, over Z[i], printed): denominators whose leading coefficient, as
#: written, is 2, -3, 3i, 1+i or 2+2i, over numerators with negative and
#: imaginary coefficients. The printer divides by LC(den) and reduces each
#: rational part on its own.
NON_MONIC_CASES = [
    ("(-3*x^2 + 5*y - 1)/(2*x + 3)", False, "(-3/2*x^2 + 5/2*y - 1/2)/(x + 3/2)"),
    ("(4*x - 7)/(-3*y^2 + x)", False, "(-4/3*x + 7/3)/(y^2 - 1/3*x)"),
    ("(-6*x + 9)/(-3*x*y + 1)", False, "(2*x - 3)/(x*y - 1/3)"),
    ("(-2*x + 5*i*y - 1)/(3*i*x + 2)", True, "(2/3*i*x + 5/3*y + 1/3*i)/(x - 2/3*i)"),
    ("(x - i)/((1+i)*y + 3)", True, "((1/2-1/2*i)*x - 1/2-1/2*i)/(y + 3/2-3/2*i)"),
    (
        "(-5*i*x^2 + 2 - 3*i)/((1+i)*x*y - i)",
        True,
        "((-5/2-5/2*i)*x^2 - 1/2-5/2*i)/(x*y - 1/2-1/2*i)",
    ),
    ("(-x + 3*i*y)/(-3*x - 1)", True, "(1/3*x - i*y)/(x + 1/3)"),
    ("((1+2*i)*x + 3)/((2+2*i)*y + 1)", True, "((3/4+1/4*i)*x + 3/4-3/4*i)/(y + 1/4-1/4*i)"),
    ("(-4*i*y - 6)/(3*i*y^2 - x)", True, "(-4/3*y + 2*i)/(y^2 + 1/3*i*x)"),
    ("(7 - i*y)/(3*i)", True, "-1/3*y - 7/3*i"),
    ("(x+1)/(2*i)", True, "-1/2*i*x - 1/2*i"),
    ("-6/(4*x+2)", False, "(-3/2)/(x + 1/2)"),
    ("-6/(4*x+2)", True, "(-3/2)/(x + 1/2)"),
    ("(-y)/(-3)", False, "1/3*y"),
]


@pytest.mark.parametrize("text, gaussian, printed", NON_MONIC_CASES)
def test_printer_on_non_monic_denominators(text, gaussian, printed):
    value = expr(text, allow_imaginary=gaussian)
    assert str(value) == printed
    assert repr(value) == f"ScalarExpr({printed})"
    assert expr(printed, allow_imaginary=gaussian) == value


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_constant_takes_an_int_or_a_fraction(gaussian):
    ring = coordinate_ring(VARS, gaussian)
    for value, printed in [
        (3, "3"), (-7, "-7"), (0, "0"), (True, "1"),
        (Fraction(-6, 4), "-3/2"), (Fraction(5), "5"), (Fraction(0), "0"),
    ]:
        c = ScalarExpr.constant(ring, value)
        assert str(c) == printed and c == expr(printed, allow_imaginary=gaussian)
    for value in (0.5, 2.0, Decimal("0.5"), "1/2", None):
        with pytest.raises(TypeError) as exc:
            ScalarExpr.constant(ring, value)
        assert str(exc.value) == f"constant {value!r} is not an int or a Fraction"


# ---------------------------------------------------------------------------
# The packed-monomial kernel against sympy's sparse polynomials


def unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponents of a packed monomial: the total degree in the top field,
    then one EXPONENT_BITS-bit field per coordinate, the first one highest."""
    mask = (1 << EXPONENT_BITS) - 1
    exps = tuple((key >> (EXPONENT_BITS * (n - 1 - j))) & mask for j in range(n))
    assert key >> (EXPONENT_BITS * n) == sum(exps)
    return exps


def to_sympy(c):
    """A kernel coefficient as a sympy ``ZZ`` or ``ZZ_I`` element."""
    return ZZ_I(c.x, c.y) if isinstance(c, _GaussianInt) else c


def poly_terms(n: int, gaussian: bool, max_size: int = 6, top: int = 4):
    """{exponent tuple: nonzero coefficient} with up to ``max_size`` terms."""
    small = st.integers(-5, 5)
    coeff = st.builds(_GaussianInt, small, small) if gaussian else small
    return st.dictionaries(
        st.tuples(*[st.integers(0, top)] * n), coeff.filter(bool), max_size=max_size
    )


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_kernel_matches_sympy(n, gaussian):
    names = ("x", "y", "z", "w")[:n]
    ring = coordinate_ring(names, gaussian)
    R = sympy_ring(list(names), ZZ_I if gaussian else ZZ, grlex)[0]

    def back(poly):
        assert all(poly.values()), "a stored coefficient is zero"
        return R.from_dict({unpack(m, n): to_sympy(c) for m, c in poly.items()})

    @settings(max_examples=40, deadline=None)
    @given(
        poly_terms(n, gaussian),
        poly_terms(n, gaussian),
        st.integers(0, n - 1),
        st.integers(1, 5),
    )
    def check(ta, tb, j, k):
        a = {ring.monomial(e): c for e, c in ta.items()}
        b = {ring.monomial(e): c for e, c in tb.items()}
        pa, pb = (R.from_dict({e: to_sympy(c) for e, c in t.items()}) for t in (ta, tb))
        assert back(a) == pa
        assert back(_mul(ring, a, b)) == pa * pb
        assert back(_add(a, b)) == pa + pb
        assert back(_add(a, b, True)) == pa - pb
        assert back(_neg(a)) == -pa
        assert back(_diff(ring, a, names[j])) == pa.diff(R.gens[j])
        assert back(_pow(ring, a, k)) == pa**k
        if a:
            assert unpack(max(a), n) == pa.LM and to_sympy(_lc(a)) == pa.LC
        assert [unpack(m, n) for m in sorted(a)] == sorted(pa.keys(), key=grlex)

    check()


# ---------------------------------------------------------------------------
# The own Gaussian integers and cancel against sympy's ZZ_I and
# ``PolyElement.cancel``, which stay the reference.

gaussian_ints = st.builds(_GaussianInt, st.integers(-40, 40), st.integers(-40, 40))


@settings(max_examples=300, deadline=None)
@given(gaussian_ints, gaussian_ints, st.integers(0, 5))
def test_gaussian_integers_match_sympy(a, b, k):
    Z = _GAUSSIAN_INTEGERS
    sa, sb = to_sympy(a), to_sympy(b)
    for ours, ref in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                      (-a, -sa), (a**k, sa**k)):
        assert to_sympy(ours) == ref
    assert bool(a) == bool(sa) and (a == b) == (sa == sb)
    assert hash(a) == hash(_GaussianInt(a.x, a.y))
    assert to_sympy(Z.canonical_unit(a)) == ZZ_I.canonical_unit(sa)
    assert to_sympy(Z.gcd(a, b)) == ZZ_I.gcd(sa, sb)
    if b:
        assert to_sympy(Z.quo(a, b)) == ZZ_I.quo(sa, sb)
        assert Z.quo(a * b, b) == a


def cancel_matches_sympy(names, gaussian, num_terms, den_terms):
    """``_reduce`` and sympy's ``PolyElement.cancel`` give the same
    (num, den) dicts, canonical unit included."""
    n = len(names)
    ring = coordinate_ring(names, gaussian)
    R = sympy_ring(list(names), ZZ_I if gaussian else ZZ, grlex)[0]
    num = {ring.monomial(e): c for e, c in num_terms.items()}
    den = {ring.monomial(e): c for e, c in den_terms.items()}
    ref = R.from_dict({unpack(m, n): to_sympy(c) for m, c in num.items()}).cancel(
        R.from_dict({unpack(m, n): to_sympy(c) for m, c in den.items()})
    )
    got = _reduce(ring, num, den)
    assert [{unpack(m, n): to_sympy(c) for m, c in p.items()} for p in got] == [
        dict(p) for p in ref
    ]


def expand(ring_names, gaussian, *factors):
    """The product of the factors, each {exponent tuple: coefficient}."""
    ring = coordinate_ring(ring_names, gaussian)
    of = ring.domain.of_int if gaussian else int
    out = {0: of(1)}
    for f in factors:
        packed = {
            ring.monomial(e): (c if isinstance(c, _GaussianInt) else of(c))
            for e, c in f.items()
        }
        out = _mul(ring, out, packed)
    return {unpack(m, len(ring_names)): c for m, c in out.items()}


GI = _GaussianInt(0, 1)
ONE_PLUS_I = _GaussianInt(1, 1)
ONE, TWO = ("x",), ("x", "y")


@pytest.mark.parametrize(
    "names, gaussian, num, den",
    [
        # x + i and x^2 + 1 = (x + i)(x - i)
        (ONE, True, [{(1,): 1, (0,): GI}, {(1,): 3, (0,): 2}],
         [{(1,): 1, (0,): GI}, {(1,): 1, (0,): -GI}]),
        (ONE, True, [{(2,): 1, (0,): 1}], [{(1,): 1, (0,): GI}, {(1,): 2, (0,): 5}]),
        (TWO, True, [{(1, 0): 1, (0, 1): GI}, {(1, 1): 1}],
         [{(2, 0): 1, (0, 2): 1}]),
        # a content of 1 + i, and 2 = -i (1 + i)^2
        (TWO, True, [{(0, 0): ONE_PLUS_I}, {(1, 0): 1, (0, 1): -1}],
         [{(0, 0): 2}, {(1, 1): 1, (0, 0): GI}]),
        (ONE, True, [{(1,): ONE_PLUS_I, (0,): _GaussianInt(1, -1)}],
         [{(0,): ONE_PLUS_I}, {(1,): 1, (0,): 3}]),
        # zero and one-term numerators
        (TWO, True, [{}], [{(1, 0): 1, (0, 1): GI}]),
        (TWO, False, [{}], [{(1, 0): 2, (0, 1): -4}]),
        (TWO, True, [{(2, 1): _GaussianInt(2, 2)}], [{(1, 0): 2, (1, 1): 4}]),
        (TWO, False, [{(3, 2): -6}], [{(1, 3): 4, (2, 0): 10}]),
        (ONE, False, [{(1,): 1}, {(1,): 1, (0,): 1}], [{(1,): 1}]),
        # a gcd that is only content
        (TWO, False, [{(1, 0): 6, (0, 1): 4}], [{(2, 0): -10, (0, 0): 2}]),
        (TWO, True, [{(1, 0): _GaussianInt(3, 3)}, {(0, 1): 1, (0, 0): 1}],
         [{(1, 1): _GaussianInt(0, 6), (0, 0): 3}]),
        # a coordinate in only one of them
        (TWO, False, [{(1, 0): 2, (0, 0): 2}, {(0, 1): 1, (0, 0): 1}],
         [{(2, 0): 3, (0, 0): 3}, {(1, 0): 1, (0, 0): -1}]),
    ],
    ids=[
        "x+i", "x^2+1", "x^2+y^2", "content-1+i-over-2", "content-1+i",
        "zero-complex", "zero-real", "one-term-complex", "one-term-real",
        "one-term-den", "content-only-real", "content-only-complex",
        "coordinate-in-one",
    ],
)
def test_cancel_pinned_cases_match_sympy(names, gaussian, num, den):
    cancel_matches_sympy(names, gaussian, expand(names, gaussian, *num),
                         expand(names, gaussian, *den))


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cancel_matches_sympy(n, gaussian):
    names = ("x", "y", "z", "w")[:n]
    # sympy's cancel over Z[i] takes seconds on larger factors in 3 or 4
    # coordinates
    factor = poly_terms(n, gaussian, max_size=4 if n < 3 else 3, top=2 if n < 3 else 1)
    nonzero = factor.filter(bool)

    @settings(max_examples=40, deadline=None)
    @given(factor, nonzero, nonzero, st.sampled_from([(), (1, 1), (2,)]))
    def check(f, h, g, power):
        # a planted common factor g, sometimes squared or shared twice
        num, den = [f, g], [h, g]
        if power:
            num.append(g)
            den.extend([g] * (len(power) - 1))
        cancel_matches_sympy(names, gaussian, expand(names, gaussian, *num),
                             expand(names, gaussian, *den))

    check()


class TestDegreeGuard:
    """No product or power reaches total degree 2**EXPONENT_BITS: its
    monomial fields would carry into each other."""

    TOP = 2**EXPONENT_BITS - 1

    @pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
    def test_power_at_the_field_width_raises(self, gaussian):
        x = expr("x", allow_imaginary=gaussian)
        with pytest.raises(ScalarError):
            x ** 2**EXPONENT_BITS
        with pytest.raises(ScalarError):
            expr("x + y", allow_imaginary=gaussian) ** 2**EXPONENT_BITS
        with pytest.raises(ScalarError):
            x ** -(2**EXPONENT_BITS)

    @pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
    def test_products_at_the_field_width_raise(self, gaussian):
        x, y = expr("x", allow_imaginary=gaussian), expr("y", allow_imaginary=gaussian)
        top = x**self.TOP
        for text in ("x", "y", "x + 1", "y/(y + 1)"):
            with pytest.raises(ScalarError):
                top * expr(text, allow_imaginary=gaussian)
        with pytest.raises(ScalarError):
            (y**self.TOP) * y
        half = x ** 2 ** (EXPONENT_BITS - 1)
        with pytest.raises(ScalarError):
            half * half

    @pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
    def test_the_largest_degree_differentiates(self, gaussian):
        x = expr("x", allow_imaginary=gaussian)
        top = x**self.TOP
        assert str(top) == f"x^{self.TOP}"
        assert str(top.partial("x")) == f"{self.TOP}*x^{self.TOP - 1}"
        assert top.partial("y").is_zero
        y = expr("y", allow_imaginary=gaussian)
        assert str(top * y.partial("y")) == f"x^{self.TOP}"
        assert str(top.partial("x").partial("x")) == (
            f"{self.TOP * (self.TOP - 1)}*x^{self.TOP - 2}"
        )


def test_real_polynomial_fn_identity_runs_no_gcd(monkeypatch):
    """(1/2)[N,N]_FN = T_N on a real polynomial endomorphism cancels nothing."""
    calls = []
    gcd = fncalc.scalar._gcd

    def counting_gcd(ring, a, b):
        calls.append(1)
        return gcd(ring, a, b)

    chart = Chart(("x", "y", "z"))
    N = random_vvf(chart, 1, random.Random(3), degree=2)
    monkeypatch.setattr(fncalc.scalar, "_gcd", counting_gcd)
    half = chart.const(Fraction(1, 2))
    assert fn_bracket(N, N).scaled(half) == nijenhuis_torsion(N)
    assert calls == []
    # the counter itself sees a real gcd
    expr("x/(2*x)", allow_imaginary=False)
    assert calls


def fraction_polynomial_sums(gaussian: bool):
    """(left, right, negate) for a/b ± p and p ± a/b, a/b canonical with a
    constant non-unit or a non-constant b and p a polynomial (zero included)."""
    fractions = ["(x^2+y)/3", "(x-2)/6", "x/(2*x+2)", "(x+1)/(x*y-1)", "(3*x-y^2)/(x^2+1)"]
    polynomials = ["0", "5", "3*x", "x^2-y+2", "(x*y-1)*(x+1)"]
    if gaussian:
        fractions += ["(x+i)/(1+i)", "(2+i)*x/(x^2+3)", "(x*i+y)/(x-2*i)"]
        polynomials += ["(1-i)*y", "x^2+i"]
    parse = lambda text: expr(text, allow_imaginary=gaussian)
    for f, p in itertools.product(map(parse, fractions), map(parse, polynomials)):
        for negate in (False, True):
            yield f, p, negate
            yield p, f, negate


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_sum_with_a_polynomial_is_the_reduced_sum(gaussian):
    """a/b ± p is built canonical without a gcd; it equals the sum reduced by
    ``_reduce`` from the cross-multiplied numerator and denominator."""
    for left, right, negate in fraction_polynomial_sums(gaussian):
        ring = left.ring
        num = _add(_mul(ring, left.num, right.den), _mul(ring, right.num, left.den), negate)
        num, den = _reduce(ring, num, _mul(ring, left.den, right.den))
        got = left - right if negate else left + right
        assert (got.num, got.den) == (num, den), (str(left), str(right), negate)


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_sum_with_a_polynomial_runs_no_gcd(monkeypatch, gaussian):
    def refuse(ring, a, b):
        raise AssertionError("gcd on a sum with a polynomial")

    sums = list(fraction_polynomial_sums(gaussian))
    a, b = expr("1/(x+1)", allow_imaginary=gaussian), expr("1/(x-1)", allow_imaginary=gaussian)
    monkeypatch.setattr(fncalc.scalar, "_gcd", refuse)
    for left, right, negate in sums:
        left - right if negate else left + right
    with pytest.raises(AssertionError):  # a sum over two denominators still reduces
        a + b


# ---------------------------------------------------------------------------
# The fused sum of products against the pairwise fold Σ ±a·b


def fold(ring, terms) -> ScalarExpr:
    """Σ ±a·b one ``ScalarExpr`` at a time, as ``out = out + a * b``."""
    out = ring.zero
    for a, b, negate in terms:
        out = out - a * b if negate else out + a * b
    return out


def operands(gaussian: bool):
    """Values of expression trees, with zero and each kind of denominator
    (1, a constant, a polynomial); over Z[i] some operands are real ones
    complexified."""
    real = st.builds(lambda t: kernel_value(t, False), trees(False))
    if not gaussian:
        return real
    lifted = real.map(ScalarExpr.complexified)
    return st.one_of(st.builds(lambda t: kernel_value(t, True), trees(True)), lifted)


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_sum_of_products_matches_pairwise_fold(gaussian):
    ring = coordinate_ring(VARS, gaussian)
    zero = st.just(ring.zero)
    operand = st.one_of(operands(gaussian), zero)
    term = st.tuples(operand, operand, st.booleans())

    @settings(max_examples=80, deadline=None)
    @given(st.lists(term, max_size=6))
    def check(terms):
        got, want = ScalarExpr.sum_of_products(ring, terms), fold(ring, terms)
        assert got.ring is ring
        assert (got.num, got.den) == (want.num, want.den)
        # every term and its negation cancel to the canonical zero
        undone = ScalarExpr.sum_of_products(
            ring, terms + [(a, b, not negate) for a, b, negate in terms]
        )
        assert (undone.num, undone.den) == ({}, ring.one.den)

    check()


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_sum_of_products_pinned_cases(gaussian):
    ring = coordinate_ring(VARS, gaussian)

    def e(text: str) -> ScalarExpr:
        return expr(text, allow_imaginary=gaussian)

    assert ScalarExpr.sum_of_products(ring, []) is ring.zero
    assert ScalarExpr.sum_of_products(ring, [(ring.zero, e("x"), False)]) is ring.zero
    # x/(x+1) + 1/(x+1) = 1, and (1/2)*x - x/2 = 0 over a constant denominator
    terms = [(e("x"), e("1/(x+1)"), False), (e("1"), e("1/(x+1)"), False)]
    assert ScalarExpr.sum_of_products(ring, terms) == ring.one
    terms = [(e("1/2"), e("x"), False), (e("x"), e("1/2"), True)]
    assert ScalarExpr.sum_of_products(ring, terms).is_zero
    # three denominators: 1, 3 and x+1 share nothing
    terms = [(e("x"), e("y"), False), (e("1/3"), e("y"), True), (e("x"), e("1/(x+1)"), False)]
    got, want = ScalarExpr.sum_of_products(ring, terms), fold(ring, terms)
    assert (got.num, got.den) == (want.num, want.den)
    assert got == e("x*y - y/3 + x/(x+1)")


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_sum_of_products_key_limit(gaussian):
    ring = coordinate_ring(VARS, gaussian)
    x = expr("x", allow_imaginary=gaussian)
    top = x ** (2**EXPONENT_BITS - 1)
    for other in (x, expr("x + y", allow_imaginary=gaussian), expr("y/(y + 1)", allow_imaginary=gaussian)):
        for terms in ([(top, other, False)], [(x, x, False), (other, top, True)]):
            with pytest.raises(ScalarError):
                fold(ring, terms)
            with pytest.raises(ScalarError):
                ScalarExpr.sum_of_products(ring, terms)


# ---------------------------------------------------------------------------
# The lane kernel against the pairwise fold of each lane


def lane_operands(gaussian: bool):
    """Lane values that often share a denominator, so that terms pack: zero,
    polynomials (the numerators of operands), and operands of any denominator."""
    ring = coordinate_ring(VARS, gaussian)
    polynomial = operands(gaussian).map(
        lambda v: ScalarExpr(ring, v.num, ring.one.den, _canonical=True)
    )
    return st.one_of(st.just(ring.zero), polynomial, polynomial, operands(gaussian))


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_sums_of_products_match_the_fold_of_each_lane(gaussian):
    ring = coordinate_ring(VARS, gaussian)
    lane = lane_operands(gaussian)

    def term(lanes: int):
        return st.tuples(lane, st.lists(lane, min_size=lanes, max_size=lanes), st.booleans())

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(term(n), max_size=5))
    ))
    def check(case):
        lanes, terms = case
        got = ScalarExpr.sums_of_products(ring, lanes, terms)
        assert len(got) == lanes
        for l, value in enumerate(got):
            want = fold(ring, [(a, bs[l], negate) for a, bs, negate in terms])
            assert value.ring is ring
            assert (value.num, value.den) == (want.num, want.den)
        # every term and its negation cancel to the canonical zero in every lane
        undone = ScalarExpr.sums_of_products(
            ring, lanes, terms + [(a, bs, not negate) for a, bs, negate in terms]
        )
        assert [(u.num, u.den) for u in undone] == [({}, ring.one.den)] * lanes

    check()


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_sums_of_products_pinned_lanes(gaussian):
    ring = coordinate_ring(VARS, gaussian)

    def e(text: str) -> ScalarExpr:
        return expr(text, allow_imaginary=gaussian)

    zero = ring.zero
    assert ScalarExpr.sums_of_products(ring, 3, []) == [zero] * 3
    # zero lanes, and a zero multiplier
    terms = [(e("x + 1"), [zero, e("y"), zero], False), (zero, [e("x")] * 3, False)]
    assert ScalarExpr.sums_of_products(ring, 3, terms) == [zero, e("x*y + y"), zero]
    # one term's lanes over 1, 3 and x + 1 do not pack, and still sum lane by lane
    terms = [(e("x + y"), [e("y"), e("1/3"), e("x/(x + 1)")], True), (e("2"), [e("y")] * 3, False)]
    want = [e("-x*y - y^2 + 2*y"), e("-x/3 - y/3 + 2*y"), e("-(x^2 + x*y)/(x + 1) + 2*y")]
    assert ScalarExpr.sums_of_products(ring, 3, terms) == want
    # lanes that cancel, packed, to the canonical zero beside one that does not
    terms = [(e("x - y"), [e("x + y"), e("x"), e("y")], False), (e("x + y"), [e("x - y"), zero, zero], True)]
    got = ScalarExpr.sums_of_products(ring, 3, terms)
    assert [(v.num, v.den) for v in got[:1]] == [({}, ring.one.den)]
    assert got[1:] == [e("x^2 - x*y"), e("x*y - y^2")]


def test_sums_of_products_lanes_reach_the_packing_bound():
    """The lane width comes from B = Σ ‖a‖₁·max_l ‖bs[l]‖₁; here every
    product of every term lands on one monomial, so the lanes are ±B and the
    imaginary parts of the Gaussian ones are ±B too."""
    for gaussian, unit in ((False, "1"), (True, "i")):
        def e(text: str) -> ScalarExpr:
            return expr(text, allow_imaginary=gaussian)

        ring = coordinate_ring(VARS, gaussian)
        terms = [
            (e("7*x"), [e(f"9*{unit}*y"), e(f"-9*{unit}*y"), e(f"9*{unit}*y")], False),
            (e("-2*y"), [e(f"-3*{unit}*x"), e(f"3*{unit}*x"), e(f"-3*{unit}*x")], False),
        ]
        bound = 7 * 9 + 2 * 3
        want = [e(f"{bound}*{unit}*x*y"), e(f"-{bound}*{unit}*x*y"), e(f"{bound}*{unit}*x*y")]
        assert ScalarExpr.sums_of_products(ring, 3, terms) == want
        for l in range(3):
            assert fold(ring, [(a, bs[l], negate) for a, bs, negate in terms]) == want[l]


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_sums_of_products_mixed_rings(gaussian):
    """Every operand of every lane must be on the ring, a zero one too."""
    ring = coordinate_ring(VARS, gaussian)
    other = coordinate_ring(VARS, not gaussian)
    x = expr("x", allow_imaginary=gaussian)
    stranger = expr("y", allow_imaginary=not gaussian)
    for terms in (
        [(x, [x, stranger], False)],
        [(x, [x, other.zero], False)],
        [(x, [x, x], False), (stranger, [x, x], True)],
        [(other.zero, [x, x], False)],
        [(ring.zero, [x, stranger], False)],
    ):
        with pytest.raises(ScalarError, match="mixed coordinate rings"):
            ScalarExpr.sums_of_products(ring, 2, terms)


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_sums_of_products_key_limit(gaussian):
    ring = coordinate_ring(VARS, gaussian)
    x = expr("x", allow_imaginary=gaussian)
    top = x ** (2**EXPONENT_BITS - 1)
    for other in (x, expr("x + y", allow_imaginary=gaussian), expr("y/(y + 1)", allow_imaginary=gaussian)):
        for terms in (
            [(top, [other, other], False)],  # packed when other is a polynomial
            [(other, [x, top], False)],
            [(x, [x, x], False), (other, [top, ring.zero], True)],
        ):
            folds = []
            for l in range(2):  # the fold of some lane raises
                try:
                    folds.append(fold(ring, [(a, bs[l], negate) for a, bs, negate in terms]))
                except ScalarError:
                    pass
            assert len(folds) < 2
            with pytest.raises(ScalarError):
                ScalarExpr.sums_of_products(ring, 2, terms)


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "complex"])
def test_mul_and_mul_into_agree_on_one_term_fast_paths(gaussian):
    ring = coordinate_ring(VARS, gaussian)
    of = ring.domain.of_int
    x, y = ring.monomial((1, 0)), ring.monomial((0, 1))
    c = _GaussianInt(2, -3) if gaussian else 5
    polys = [
        {},
        {0: of(3)},
        {x: c},
        {x: of(2), y: of(-1), 0: of(7)},
        {x + y: c, y: of(4)},
    ]
    for a in polys:
        for b in polys:
            product = _mul(ring, a, b)
            for negate in (False, True):
                out: dict = {}
                _mul_into(ring, out, a, b, negate)
                assert out == (_neg(product) if negate else product)
            # accumulating onto a copy of -a*b leaves nothing
            out = _neg(product)
            _mul_into(ring, out, a, b, False)
            assert out == {}
    top = {ring.monomial((2**EXPONENT_BITS - 1, 0)): of(1)}
    for b in ({x: c}, {0: of(3)}, {x: of(1), y: of(1)}):
        if 0 in b:
            assert _mul(ring, top, b) == {max(top): b[0]}
            continue
        with pytest.raises(ScalarError):
            _mul(ring, top, b)
        with pytest.raises(ScalarError):
            _mul_into(ring, {}, top, b, False)
