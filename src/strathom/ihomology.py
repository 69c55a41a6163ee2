"""Intersection homology ranks of stratified simplicial complexes.

Chains live on allowable simplices only.  Writing A_i for the span of
allowable i-simplices, the admissible chain group is

    IC_i = { xi in A_i : d(xi) in A_{i-1} },

the kernel of the boundary followed by projection away from A_{i-1}.
Splitting the boundary matrix of A_i by row into the block D_i over
allowable (i-1)-simplices and N_i over the rest gives every needed
dimension as a rank difference:

    dim IC_i               = |A_i| - rank N_i
    dim ker(d) on IC_i     = |A_i| - rank [N_i; D_i]
    dim d(IC_{i+1})        = rank [N_{i+1}; D_{i+1}] - rank N_{i+1}

so b_i needs two ranks per degree.  One integer column reduction per
degree delivers both: its pivots number rank [N_i; D_i].  Allowable
rows are indexed first, and a reduced column whose pivot (largest
nonzero row) is allowable vanishes on N_i; so the pivots in the
allowable block number rank [N_i; D_i] - rank N_i = dim d(IC_i).

Degrees are reduced from the top down, with clearing (Chen-Kerber,
"Persistent homology computation with a twist", 2011).  A degree-(i+1)
pivot at the allowable row of an i-simplex s leaves a reduced column
supported on allowable rows up to s, whose boundary is zero; so the
boundary of s is a combination of the degree-i columns before it, which
are fed in the same basis order.  Its column would reduce to zero, and
skipping it leaves every pivot, hence both ranks, unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import Perversity, StratifiedComplex, perversity_ok
# not called here; perfbench/tracing.py still looks this name up on this module
from .complexes import allowable_simplex  # noqa: F401
from .exactla import ColumnReduction


@dataclass(frozen=True)
class ChainSpace:
    """Basis of allowable simplices in one degree, sorted vertex lists."""

    degree: int
    basis: tuple


@dataclass(frozen=True)
class BettiReport:
    """Per-degree intersection homology data of one complex."""

    ranks: tuple[int, ...]
    cycles: tuple[int, ...]
    boundaries: tuple[int, ...]
    perversity: Perversity

    def __post_init__(self):
        for b in self.ranks:
            if b < 0:
                raise AssertionError(f"negative rank in {self.ranks}")


def chain_spaces(k: StratifiedComplex) -> list[ChainSpace]:
    """Allowable simplices of every degree 0..dim, decided once per label vector."""
    m, p, strata = k.dim, k.perversity, k.strata
    verdicts = {}
    def allowed(f):
        labels = tuple([strata[v] for v in f])
        if labels not in verdicts:
            verdicts[labels] = perversity_ok(sorted(labels), len(f) - 1, m, p)
        return verdicts[labels]
    return [ChainSpace(i, tuple(filter(allowed, k.simplices_of_dim(i)))) for i in range(m + 1)]


def ih_ranks(k: StratifiedComplex) -> BettiReport:
    """Intersection homology Betti numbers under the complex's perversity.

    With the trivial filtration (every label at least dim) this is
    ordinary simplicial homology over the rationals.
    """
    m = k.dim
    if m < 0:
        return BettiReport((), (), (), k.perversity)
    spaces = chain_spaces(k)
    rank_nd = [0] * (m + 1)
    boundaries = [0] * (m + 1)
    # cleared[j]: the j-th allowable i-simplex's column is known to reduce to zero
    cleared = bytearray(len(spaces[m].basis))
    for i in range(m, 0, -1):
        n_allowed = len(spaces[i - 1].basis)
        rows = {f: j for j, f in enumerate(spaces[i - 1].basis)}
        for f in k.simplices_of_dim(i - 1):
            rows.setdefault(f, len(rows))
        red, below = ColumnReduction(), bytearray(n_allowed)
        for simplex, skip in zip(spaces[i].basis, cleared):
            if skip:
                continue
            low = red.add_column({rows[simplex[:l] + simplex[l + 1:]]: 1 - 2 * (l & 1)
                                  for l in range(len(simplex))})
            if low is not None and low < n_allowed:
                below[low] = 1
        rank_nd[i], boundaries[i - 1] = red.rank, below.count(1)
        cleared = below
        del red, rows
    cycles = [len(space.basis) - r for space, r in zip(spaces, rank_nd)]
    ranks = [z - b for z, b in zip(cycles, boundaries)]
    return BettiReport(tuple(ranks), tuple(cycles), tuple(boundaries), k.perversity)
