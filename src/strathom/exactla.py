"""Exact linear algebra over the rationals.

Rank decisions in this package are never made in floating point.  Every
rank, of a sparse boundary matrix or of a dense integer matrix, every
solve and the flag-vector prediction with its consistency and span tests
go through one integer column reduction.  dense_rank and solve_right have
no package caller; they stay for the tests and for the lookups of
perfbench/tracing.py.

One engine serves short and long columns: an elimination step
a*col - b*piv keeps a > 0, so no step flips a column's sign, and the
lowest row comes from max() until a column passes _HEAP_AFTER entries,
then from a heap of its rows.

Solving reads tag rows, which lie below the equation rows.  A pivot is
the largest nonzero row, so scaling an equation to integers moves none,
and a column fed keeps a pivot among the equations exactly when its
equation part is independent of the columns fed before it.  A column
whose pivot lands on a tag row has a zero equation part, so its tag part
records a relation among the columns fed: read as a solution in
solve_right, as a prediction in hcalc.fit_and_predict.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import filterfalse
from math import gcd, lcm

_GROWTH_LIMIT = 1 << 48
_HEAP_AFTER = 128


def _normalized(col: dict[int, int]) -> dict[int, int]:
    """Divide a sparse integer column by the gcd of its entries."""
    g = gcd(*col.values())
    return {r: v // g for r, v in col.items()} if g > 1 else col


class ColumnReduction:
    """Sparse integer column reduction with pivots at the largest row index.

    Rows are indexed 0..nrows-1 by the caller; columns are fed as
    {row: coefficient} dicts.  Reduction keeps at most one stored column
    per pivot row, so the number of stored pivots is the rank of
    everything fed so far.

    Each step col <- a*col - b*piv has a, b coprime and a > 0 (both are
    negated otherwise), which fixes a stored column only up to sign.  The
    low row is max(col) up to _HEAP_AFTER entries; past that the rows are
    heapified once and each step pushes the rows the pivot brings in.  A
    pivot lies at or below the current low, so a stale row at the top of
    the heap never comes back and is dropped when popped.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}

    def add_column(self, col: dict[int, int]) -> int | None:
        """Reduce one column; return the pivot row it claims, or None."""
        col = dict(col) if all(col.values()) else {r: v for r, v in col.items() if v}
        pivots = self._pivots
        heap = None
        while col:
            if heap is None:
                low = max(col)
                if len(col) > _HEAP_AFTER:
                    heap = [-r for r in col]
                    heapify(heap)
            else:
                while -heap[0] not in col:
                    heappop(heap)
                low = -heap[0]
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = _normalized(col)
                return low
            a, b = piv[low], col[low]
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            a //= g
            b //= g
            # col <- a*col - b*piv, which zeroes row `low` exactly.
            if a != 1:
                for r in col:
                    col[r] *= a
            if heap is not None:
                # walks piv only; piv.keys() - col.keys() would walk all of col
                for r in filterfalse(col.__contains__, piv):
                    heappush(heap, -r)
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


def _integral(row) -> list[int]:
    """A positive multiple of a row of rationals with integer entries."""
    if all(type(v) is int for v in row):
        return list(row)
    from fractions import Fraction  # here, so importing the CLI does not load fractions
    row = [Fraction(v) for v in row]
    m = lcm(*(v.denominator for v in row))
    return [int(v * m) for v in row]


def solve_right(a_rows, b_rows):
    """Solve A x = b for each column b of B, exactly.

    A is a list of rows (length ncols each), B a list of rows (length k
    each, one per row of A).  Returns k particular solutions (free
    variables zero) as lists of Fractions, or None if any of the k
    systems is inconsistent.

    Rows 0..ncols-1 tag the columns of A, rows ncols..ncols+k-1 tag the
    right-hand sides, and the equations lie above both.  Column c of A is
    fed first, in order, as [e_c | 0 | A_c], so only the leftmost
    independent columns keep equation pivots and enter a solution.  Then
    b_j is fed as [0 | e_j | b_j]: a pivot among the equations means no x
    solves it; otherwise the stored column is lambda * [-x | e_j | 0].
    """
    if len(a_rows) != len(b_rows):
        raise ValueError("A and B must have the same number of rows")
    ncols = len(a_rows[0]) if a_rows else 0
    k = len(b_rows[0]) if b_rows else 0
    top = ncols + k
    rows = [_integral([*ra, *rb]) for ra, rb in zip(a_rows, b_rows)]
    span = ColumnReduction()
    pivots = []
    for c in range(top):
        col = {top + i: row[c] for i, row in enumerate(rows)}
        col[c] = 1
        pivots.append(span.add_column(col))
    if any(pivot >= top for pivot in pivots[ncols:]):
        return None
    from fractions import Fraction  # here, so importing the CLI does not load fractions
    solutions = []
    for j, pivot in enumerate(pivots[ncols:], start=ncols):
        col = span.pivot_column(pivot)
        solutions.append([Fraction(-col.get(c, 0), col[j]) for c in range(ncols)])
    return solutions
