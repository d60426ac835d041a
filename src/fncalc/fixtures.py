"""Shared endomorphism fixtures used across tests, docs and the CLI manifests.

Matrix convention everywhere: entry [i][j] is the ∂_i coefficient of the
image of ∂_j.
"""

from __future__ import annotations

from .calculus import Chart, VectorValuedForm

__all__ = [
    "chart_r2",
    "chart_r3",
    "chart_r4",
    "J0",
    "J1",
    "N0",
    "P0",
    "P1",
    "gamma0",
    "J2",
]


def chart_r2() -> Chart:
    return Chart(("x", "y"))


def chart_r3() -> Chart:
    return Chart(("x", "y", "z"))


def chart_r4() -> Chart:
    return Chart(("x", "y", "z", "w"))


def J0() -> VectorValuedForm:
    """Constant almost-complex structure on the plane: ∂x -> ∂y, ∂y -> -∂x."""
    ch = chart_r2()
    one, zero = ch.one, ch.zero
    return VectorValuedForm.from_matrix(ch, [[zero, -one], [one, zero]])


def J1() -> VectorValuedForm:
    """Variable-coefficient complex structure: ∂x -> (1+x^2)∂y, ∂y -> -(1+x^2)^{-1}∂x."""
    ch = chart_r2()
    f = ch.scalar("1+x^2")
    return VectorValuedForm.from_matrix(
        ch, [[ch.zero, -(ch.one / f)], [f, ch.zero]]
    )


def N0() -> VectorValuedForm:
    """Idempotent with nontrivial torsion: ∂x -> ∂x, ∂y -> ∂y, ∂z -> 0, ∂w -> -z∂x."""
    ch = chart_r4()
    one, zero = ch.one, ch.zero
    z = ch.scalar("z")
    return VectorValuedForm.from_matrix(
        ch,
        [
            [one, zero, zero, -z],
            [zero, one, zero, zero],
            [zero, zero, zero, zero],
            [zero, zero, zero, zero],
        ],
    )


def P0() -> VectorValuedForm:
    """Constant product structure: ∂x -> ∂x, ∂y -> -∂y."""
    ch = chart_r2()
    one, zero = ch.one, ch.zero
    return VectorValuedForm.from_matrix(ch, [[one, zero], [zero, -one]])


def P1() -> VectorValuedForm:
    """Product structure with a variable entry: ∂x -> ∂x + 2y∂y, ∂y -> -∂y."""
    ch = chart_r2()
    one, zero = ch.one, ch.zero
    return VectorValuedForm.from_matrix(
        ch, [[one, zero], [ch.scalar("2*y"), -one]]
    )


def gamma0() -> VectorValuedForm:
    """Curved Ehresmann projector on R^3: ∂x -> 0, ∂y -> -x∂z, ∂z -> ∂z."""
    ch = chart_r3()
    one, zero = ch.one, ch.zero
    return VectorValuedForm.from_matrix(
        ch,
        [
            [zero, zero, zero],
            [zero, zero, zero],
            [zero, ch.scalar("-x"), one],
        ],
    )


def J2() -> VectorValuedForm:
    """Non-integrable almost-complex structure on R^4.

    ∂x -> ∂y, ∂y -> -∂x, ∂z -> ∂w + x∂y, ∂w -> -∂z + x∂x.
    """
    ch = chart_r4()
    one, zero = ch.one, ch.zero
    x = ch.scalar("x")
    return VectorValuedForm.from_matrix(
        ch,
        [
            [zero, -one, zero, x],
            [one, zero, x, zero],
            [zero, zero, zero, -one],
            [zero, zero, one, zero],
        ],
    )
