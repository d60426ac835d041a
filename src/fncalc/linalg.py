"""Small exact linear algebra over the rational-function field.

Cofactor-based inverses are adequate here: chart dimensions stay at desk
scale (<= 6). The determinant is :func:`fncalc.calculus.det`, which form
evaluation also uses.
"""

from __future__ import annotations

from typing import Sequence

from .calculus import CalculusError, Chart, det
from .scalar import ScalarExpr

__all__ = ["inverse", "column_space_basis", "SingularMatrixError"]


class SingularMatrixError(CalculusError):
    pass


def inverse(
    matrix: Sequence[Sequence[ScalarExpr]], chart: Chart
) -> list[list[ScalarExpr]]:
    """Adjugate inverse; raises :class:`SingularMatrixError` on zero determinant."""
    n = len(matrix)
    d = det(matrix, chart)
    if d.is_zero:
        raise SingularMatrixError("matrix is singular over the function field")
    out = [[chart.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = det(minor, chart)
            if (i + j) % 2:
                cof = -cof
            out[i][j] = cof / d
    return out


def column_space_basis(
    matrix: Sequence[Sequence[ScalarExpr]], chart: Chart
) -> list[int]:
    """Indices of a maximal independent set of columns (exact Gaussian elimination)."""
    n = len(matrix)
    if n == 0:
        return []
    m = len(matrix[0])
    rows = [list(row) for row in matrix]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(m):
        found = None
        for r in range(pivot_row, n):
            if not rows[r][col].is_zero:
                found = r
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        head = rows[pivot_row][col]
        for r in range(n):
            if r == pivot_row or rows[r][col].is_zero:
                continue
            factor = rows[r][col] / head
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == n:
            break
    return pivots
