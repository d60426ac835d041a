"""Deterministic generators of random polynomial test data.

Axiom checks probe identities on coordinate basis fields plus randomized
polynomial fields; everything here is driven by an explicit seed so that
reports are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import random

from .calculus import Chart, VectorField
from .scalar import ScalarExpr

__all__ = [
    "random_scalar",
    "random_vector_field",
]


def _monomials(dim: int, degree: int):
    for total in range(degree + 1):
        for exps in itertools.combinations_with_replacement(range(dim), total):
            yield tuple(exps.count(j) for j in range(dim))


def random_scalar(chart: Chart, rng: random.Random, degree: int = 2) -> ScalarExpr:
    """A random polynomial with small integer coefficients, Gaussian ones on a
    complexified chart."""
    ring = chart.ring
    num = {}
    for monom in _monomials(chart.dim, degree):
        c = rng.randint(-2, 2)
        ci = rng.randint(-2, 2) if chart.is_complexified else 0
        if ci:
            num[ring.monomial(monom)] = ring.domain.of_parts(c, ci)
        elif c:
            num[ring.monomial(monom)] = ring.domain.of_int(c)
    return ScalarExpr(ring, num, ring.one.den)


def random_vector_field(
    chart: Chart, rng: random.Random, degree: int = 2
) -> VectorField:
    return VectorField(chart, [random_scalar(chart, rng, degree) for _ in range(chart.dim)])
