"""Exact linear algebra over the rationals.

Rank decisions in this package are never made in floating point.  Every
rank, of a sparse boundary matrix or of a dense integer matrix, and the
flag-vector prediction with its consistency and span tests, goes through
one integer column reduction.  solve_right (integer Gauss-Jordan
elimination, with Fractions only in the solutions) has no caller in the
package; perfbench/tracing.py still looks it up on hcalc.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_GROWTH_LIMIT = 1 << 48


def _normalized(col: dict[int, int]) -> dict[int, int]:
    """Divide a sparse integer column by the gcd of its entries."""
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col


class ColumnReduction:
    """Sparse integer column reduction with pivots at the largest row index.

    Rows are indexed 0..nrows-1 by the caller; columns are fed as
    {row: coefficient} dicts.  Reduction keeps at most one stored column
    per pivot row, so the number of stored pivots is the rank of
    everything fed so far.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}

    def add_column(self, col: dict[int, int]) -> int | None:
        """Reduce one column; return the pivot row it claims, or None."""
        col = {r: v for r, v in col.items() if v}
        pivots = self._pivots
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                col = _normalized(col)
                pivots[low] = col
                return low
            a, b = piv[low], col[low]
            g = gcd(a, b)
            a //= g
            b //= g
            # col <- a*col - b*piv, which zeroes row `low` exactly.
            if a != 1:
                for r in col:
                    col[r] *= a
            grew = False
            for r, v in piv.items():
                w = col.get(r, 0) - b * v
                if w:
                    col[r] = w
                    if w > _GROWTH_LIMIT or -w > _GROWTH_LIMIT:
                        grew = True
                else:
                    col.pop(r, None)
            if grew:
                col = _normalized(col)
        return None

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_column(self, row: int) -> dict[int, int]:
        """A copy of the stored reduced column whose pivot is row."""
        return dict(self._pivots[row])


def dense_rank(rows) -> int:
    """Rank of a dense integer matrix given as rows.

    Each row is fed to ColumnReduction as one sparse column: the rank of
    the transpose is the same.
    """
    reduction = ColumnReduction()
    for row in rows:
        reduction.add_column(dict(enumerate(row)))
    return reduction.rank


def _primitive(row: list[int]) -> list[int]:
    """Divide a dense integer row by the gcd of its entries."""
    g = gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _integral(row) -> list[int]:
    """A positive multiple of a row of rationals with integer entries."""
    if all(type(v) is int for v in row):
        return list(row)
    row = [Fraction(v) for v in row]
    m = lcm(*(v.denominator for v in row))
    return [int(v * m) for v in row]


def solve_right(a_rows, b_rows):
    """Solve A x = b for each column b of B, exactly.

    A is a list of rows (length ncols each), B a list of rows (length k
    each, one per row of A).  Returns k particular solutions (free
    variables zero) as lists of Fractions, or None if any of the k
    systems is inconsistent.

    Gauss-Jordan elimination runs on integer rows: scaling a row leaves
    its equation unchanged, so each row is kept primitive and the
    solution is read off as a quotient of two integers per pivot.
    """
    if len(a_rows) != len(b_rows):
        raise ValueError("A and B must have the same number of rows")
    ncols = len(a_rows[0]) if a_rows else 0
    k = len(b_rows[0]) if b_rows else 0
    rows = [_integral([*ra, *rb]) for ra, rb in zip(a_rows, b_rows)]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                g = gcd(p, row[c])
                a, b = p // g, row[c] // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
    if any(any(row[ncols:]) for row in rows[len(pivots):]):
        return None
    solutions = []
    for j in range(ncols, ncols + k):
        x = [Fraction(0)] * ncols
        for row, c in zip(rows, pivots):
            x[c] = Fraction(row[j], row[c])
        solutions.append(x)
    return solutions
