"""Scalar layer: canonical forms, parsing, exact evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fncalc.scalar import (
    MAX_NESTING,
    ChartPoint,
    DivisionByZeroError,
    ExprSyntaxError,
    GaussianRational,
    ImaginaryNotAllowedError,
    PoleError,
    ScalarError,
    ScalarExpr,
    UnknownVariableError,
    parse_expr,
    random_point,
)

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

    def test_conjugate(self):
        a = expr("(1+2*i)*x + i*y^2")
        assert a.conjugate() == expr("(1-2*i)*x - i*y^2")
        assert a.conjugate().conjugate() == a

    def test_has_imaginary(self):
        assert expr("i*x").has_imaginary
        assert not expr("x/(1+y)").has_imaginary
        assert not expr("(i*x)*(i*y)").has_imaginary


class TestDomains:
    def test_real_parse_is_over_q(self):
        real = expr("(x+1)/(3*y)", allow_imaginary=False)
        assert not real.ring.allow_imaginary
        assert not real.has_imaginary
        assert expr("x").ring.allow_imaginary

    def test_mixed_domain_arithmetic_promotes(self):
        real = expr("x/(y+1)", allow_imaginary=False)
        gauss = expr("i*y")
        for value, text in (
            (real + gauss, "x/(y+1) + i*y"),
            (gauss - real, "i*y - x/(y+1)"),
            (real * gauss, "i*x*y/(y+1)"),
            (gauss / real, "i*y*(y+1)/x"),
        ):
            assert value.ring is gauss.ring
            assert value == expr(text)

    def test_mixed_coordinates_still_raise(self):
        with pytest.raises(ScalarError, match="mixed coordinate rings"):
            expr("x", allow_imaginary=False) + expr("x", ("x", "z"))
        with pytest.raises(ScalarError, match="mixed coordinate rings"):
            expr("x") * expr("x", ("x", "z"))
        assert expr("x") != expr("x", ("x", "z"))

    def test_in_ring(self):
        real_ring = expr("x", allow_imaginary=False).ring
        landed = expr("(i*x)*(i*y)").in_ring(real_ring)
        assert landed.ring is real_ring
        assert str(landed) == "-x*y"
        with pytest.raises(ScalarError, match="imaginary part"):
            expr("i*x").in_ring(real_ring)


class TestParser:
    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            expr("x+*y")
        assert "2" in str(exc.value)

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


class TestEvaluation:
    def test_eval_exact(self):
        pt = ChartPoint(
            (
                GaussianRational(Fraction(1, 2)),
                GaussianRational(Fraction(-3)),
            )
        )
        value = expr("(x+y)/(x-y)").eval_at(pt)
        assert value == GaussianRational(Fraction(-5, 7))

    def test_pole_error(self):
        pt = ChartPoint((GaussianRational(Fraction(1)), GaussianRational(Fraction(1))))
        with pytest.raises(PoleError):
            expr("1/(x-y)").eval_at(pt)

    def test_random_point_deterministic(self):
        assert random_point(3, seed=7) == random_point(3, seed=7)
        assert random_point(3, seed=7) != random_point(3, seed=8)


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
    """A real expression has the same value over Q and over Q(i)."""
    over_q = expr(text, allow_imaginary=False)
    over_qi = expr(text, allow_imaginary=True)
    assert over_q.ring is not over_qi.ring
    assert str(over_q) == str(over_qi)
    assert over_q == over_qi and over_qi == over_q
    assert hash(over_q) == hash(over_qi)


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


@settings(max_examples=40, deadline=None)
@given(exprs, exprs, st.integers(min_value=0, max_value=10 ** 6))
def test_canonical_form_sound_at_points(a, b, seed):
    """Structural identities evaluate consistently at random non-pole points."""
    f = a * b - b * a  # structurally zero
    g = a + b
    checked = 0
    for k in range(5):
        pt = random_point(len(VARS), seed=seed + k)
        try:
            lhs = g.eval_at(pt)
            va, vb = a.eval_at(pt), b.eval_at(pt)
            assert f.eval_at(pt) == GaussianRational(Fraction(0))
        except PoleError:
            continue
        assert lhs == va + vb
        checked += 1
    # at least one of the 5 points must avoid every pole for this pool
    assert checked >= 1
