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
degree delivers both: with allowable rows indexed first, rank N_i is
the number of pivots in the non-allowable row suffix.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import Perversity, StratifiedComplex, allowable_simplex
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
    """Allowable simplices of every degree 0..dim."""
    return [ChainSpace(i, tuple(f for f in k.simplices_of_dim(i) if allowable_simplex(k, f)))
            for i in range(k.dim + 1)]


def _degree_ranks(space, prev_space, prev_all):
    """rank [N; D] and rank N for the boundary out of one degree."""
    allowed_prev = {f: j for j, f in enumerate(prev_space.basis)}
    rows = dict(allowed_prev)
    for f in prev_all:
        if f not in rows:
            rows[f] = len(rows)
    red = ColumnReduction()
    for simplex in space.basis:
        col = {}
        for l in range(len(simplex)):
            face = simplex[:l] + simplex[l + 1:]
            col[rows[face]] = 1 if l % 2 == 0 else -1
        red.add_column(col)
    return red.rank, red.rank_on_suffix(len(allowed_prev))


def ih_ranks(k: StratifiedComplex) -> BettiReport:
    """Intersection homology Betti numbers under the complex's perversity.

    With the trivial filtration (every label at least dim) this is
    ordinary simplicial homology over the rationals.
    """
    m = k.dim
    if m < 0:
        return BettiReport((), (), (), k.perversity)
    spaces = chain_spaces(k)
    rank_nd = [0] * (m + 2)
    rank_n = [0] * (m + 2)
    for i in range(1, m + 1):
        rank_nd[i], rank_n[i] = _degree_ranks(spaces[i], spaces[i - 1],
                                              k.simplices_of_dim(i - 1))
    cycles = []
    boundaries = []
    ranks = []
    for i in range(m + 1):
        z = len(spaces[i].basis) - rank_nd[i]
        b = rank_nd[i + 1] - rank_n[i + 1]
        cycles.append(z)
        boundaries.append(b)
        ranks.append(z - b)
    return BettiReport(tuple(ranks), tuple(cycles), tuple(boundaries), k.perversity)
