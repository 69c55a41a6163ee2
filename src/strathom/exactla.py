"""Exact linear algebra over the rationals.

Rank decisions in this package are never made in floating point.  Every
rank, of a sparse boundary matrix or of a dense integer matrix, and the
span test of a flag-vector prediction, goes through one integer column
reduction; solving the flag-vector fit alone goes through Fraction
Gaussian elimination.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

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

    Row-suffix ranks come for free: column operations mix columns the
    same way in every row block, and a reduced column whose pivot (its
    largest nonzero row) lies above a suffix is identically zero on that
    suffix.  Hence for any r0 the pivots with row >= r0 are exactly a
    column basis of the submatrix on rows [r0, nrows), and
    rank_on_suffix(r0) is its rank.
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

    def rank_on_suffix(self, first_row: int) -> int:
        return sum(1 for r in self._pivots if r >= first_row)


def rref(rows: list[list[Fraction]], stop_col: int):
    """Reduced row echelon form in place over Fraction.

    Pivots are only chosen in columns < stop_col, which makes
    augmented-system elimination straightforward.  Returns the list of
    pivot column indices.
    """
    if not rows:
        return []
    pivots: list[int] = []
    r = 0
    for c in range(stop_col):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_rank(rows) -> int:
    """Rank of a dense integer matrix given as rows.

    Each row is fed to ColumnReduction as one sparse column: the rank of
    the transpose is the same.
    """
    reduction = ColumnReduction()
    for row in rows:
        reduction.add_column(dict(enumerate(row)))
    return reduction.rank


def solve_right(a_rows, b_rows):
    """Solve A x = b for each column b of B, exactly.

    A is a list of rows (length ncols each), B a list of rows (length k
    each, one per row of A).  Returns k particular solutions (free
    variables zero) as lists of Fractions, or None if any of the k
    systems is inconsistent.
    """
    if len(a_rows) != len(b_rows):
        raise ValueError("A and B must have the same number of rows")
    ncols = len(a_rows[0]) if a_rows else 0
    k = len(b_rows[0]) if b_rows else 0
    aug = [[Fraction(v) for v in ra] + [Fraction(v) for v in rb]
           for ra, rb in zip(a_rows, b_rows)]
    if not aug:
        return [[Fraction(0)] * ncols for _ in range(k)]
    pivots = rref(aug, stop_col=ncols)
    for row in aug[len(pivots):]:
        if any(v != 0 for v in row[ncols:]):
            return None
    solutions = []
    for j in range(k):
        x = [Fraction(0)] * ncols
        for r, c in enumerate(pivots):
            x[c] = aug[r][ncols + j]
        solutions.append(x)
    return solutions
