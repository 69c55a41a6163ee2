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

A simplex of degree i is the stratified simplex of shape (i,), and its
boundary signs are that shape's, `stratsimplex.facets`.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations, compress, count, filterfalse, repeat

from .complexes import StratifiedComplex, perversity_ok
# not called here; perfbench/tracing.py still looks this name up on this module
from .complexes import allowable_simplex  # noqa: F401
from .exactla import ColumnReduction
from .stratsimplex import facets


class ChainSpace(namedtuple("ChainSpace", "basis")):
    """Basis of allowable simplices in one degree, sorted vertex-number tuples."""

    __slots__ = ()


class BettiReport(namedtuple("BettiReport", "ranks cycles boundaries")):
    """Per-degree intersection homology data of one complex."""

    __slots__ = ()

    def __new__(cls, ranks, cycles, boundaries):
        for b in ranks:
            if b < 0:
                raise AssertionError(f"negative rank in {ranks}")
        return super().__new__(cls, ranks, cycles, boundaries)


def chain_spaces(k: StratifiedComplex) -> list[ChainSpace]:
    """Allowable simplices of every degree 0..dim, decided once per label vector.

    A simplex with no vertex labelled <= m - 2 meets no singular stratum
    and passes on sight.
    """
    m, p, label = k.dim, k.perversity, k.labels.__getitem__
    deep = frozenset(v for v, s in enumerate(k.labels) if s <= m - 2)
    verdicts = {}
    def allowed(f):
        labels = tuple(map(label, f))
        if labels not in verdicts:
            verdicts[labels] = perversity_ok(sorted(labels), len(f) - 1, m, p)
        return verdicts[labels]
    return [ChainSpace(tuple(f for f in k.simplices_of_dim(i) if deep.isdisjoint(f) or allowed(f)))
            for i in range(m + 1)]


def ih_ranks(k: StratifiedComplex) -> BettiReport:
    """Intersection homology Betti numbers under the complex's perversity.

    With the trivial filtration (every label at least dim) this is
    ordinary simplicial homology over the rationals.
    """
    m = k.dim
    if m < 0:
        return BettiReport((), (), ())
    spaces = chain_spaces(k)
    rank_nd = [0] * (m + 1)
    boundaries = [0] * (m + 1)
    # keep[j]: the j-th allowable i-simplex's column is not known to reduce to zero
    keep = bytearray(b"\1") * len(spaces[m].basis)
    for i in range(m, 0, -1):
        n_allowed = len(spaces[i - 1].basis)
        rows = dict(zip(spaces[i - 1].basis, count()))
        rows.update(zip(filterfalse(rows.__contains__, k.simplices_of_dim(i - 1)),
                        count(n_allowed)))
        red, keep_below = ColumnReduction(), bytearray(b"\1") * n_allowed
        # face q of combinations(simplex, i) drops vertex i - q
        signs = [sign for _, _, sign in reversed(facets((i,)))]
        faces = map(combinations, compress(spaces[i].basis, keep), repeat(i))
        for column in map(dict, map(zip, map(map, repeat(rows.__getitem__), faces), repeat(signs))):
            low = red.add_column(column)
            if low is not None and low < n_allowed:
                keep_below[low] = 0
        rank_nd[i], boundaries[i - 1] = red.rank, keep_below.count(0)
        keep = keep_below
        del red, rows
    cycles = [len(space.basis) - r for space, r in zip(spaces, rank_nd)]
    ranks = [z - b for z, b in zip(cycles, boundaries)]
    return BettiReport(tuple(ranks), tuple(cycles), tuple(boundaries))
