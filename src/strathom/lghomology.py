"""Order-one local-global intersection homology of stratified complexes.

Chains are built from small affine cells living inside single closed
simplices of the complex.  A cell of shape (i, j), j in {0, 1}, is modelled
on the stratified simplex simplex(j) x C(simplex(i)) of `stratsimplex`: it
records one cone map at each vertex of simplex(j), the image of the apex
followed by the images of the i+1 base corners, and sweeps between them.
Shape (i, 0) is a single cone, shape (i, 1) an interval crossed with one.
A cell is the pair (j, images), its j+1 cone maps stored end to end; the
base dimension i is read off the length of images.
The i+1 base columns, the images of one base corner under every cone map,
are the positions that the chain groups alternate over: permuting them
multiplies a cell by the sign of the permutation, so each chain group has
one basis element per cell with sorted columns.  A cell is degenerate, and
identified with zero, when a base column repeats or two cone maps are
equal; a repeat is fixed by an odd transposition, making the cell its own
negative.  Without this quotient the boundary would not square to zero
once degenerate summands are dropped.

The boundary of a cell is the boundary of its shape, `stratsimplex.facets`,
with the same signs: a facet of simplex(j) drops one cone map, a facet of
the base drops one column from every map, and the coning direction has no
facet.  The oracle in tests/oracles.py writes its signs out by hand,
apart from `stratsimplex`: a cone loses base corner l with sign (-1)^l, a
prism lists its end maps as +end1 - end0 and its base facets with sign
(-1)^(l+1).  Those are the signs here after rescaling each cell of shape
(i, j) by (-1)^i, a change of basis, so cycles, boundaries and ranks are
the same under both.

Allowability splits in two parts.  The perversity part constrains only the
slices away from the cone point.  A point of a closed simplex lies in X_d
exactly when every vertex of its barycentric support is labelled <= d, so
the preimage of X_{m-c} is cut out by label thresholds and its dimension is
pure counting: on the face of simplex(j) spanned by a set T of cone maps it
is (|A| - 1) + (|T| - 1), with A the base positions where every map in T
lands in X_{m-c}.  Each must stay within (i + j) - c + p(c).  The coning
direction itself is exempt: the apex may sit in any stratum.  What the
apex does is recorded separately by w_1(f), the deepest stratum the apex
path meets, and the apex floor w_1 <= w_1(f) selects cells whose cone
points sit at least that deep.  Order one carries this single w entry.

The rank of H_{(i,0);(w)} is dim Z - dim B, where Z collects the cycles
among allowed (i,0) cells and B the parts of boundaries landing on them.  A
boundary contributor is a formal sum of allowed (i+1,0) and (i,1) cells
whose stray terms, (i-1,1) facets and non-allowed (i,0) summands alike, are
required to cancel; whatever remains is then automatically a cycle
supported on the allowed cells.

In degree 0 the augmentation bounds B.  A (0,0) cell is a cone on one
point and has an empty boundary, so Z is spanned by every allowed (0,0)
cell.  A (1,0) or (0,1) cell has +x - y as the (0,0) part of its
boundary, x and y two distinct (0,0) cells, so the coefficients of every
boundary sum to zero over the (0,0) cells, and so do those a qualifying
combination leaves on the allowed ones.  B thus lies in the kernel of the
sum of coefficients on Z: dim B <= dim Z - 1 once Z is not zero, and the
rank at i = 0 is at least 1 whenever an allowed (0,0) cell exists.

Cells are enumerated from local templates.  The template set (i, j, s)
lists the canonical non-degenerate cells of shape (i, j) whose images span
exactly the local simplex 0..s-1, with their boundaries in local indices.
A simplex is the sorted tuple of its vertex numbers, so local order is
number order: writing simplex[q] for q renames a template into a cell of
that simplex with its columns still sorted, its boundary signs unchanged
and its facets still canonical.  Allowability reads only the labels the
images carry, so each template is judged once per label vector of a
simplex, however many simplices carry it, and each tuple of labels that
templates pick is judged once per enumeration.

Only a local basis of each simplex's columns is reduced.  The kept
templates of one template set and label vector have their boundaries
reduced once, in local indices, and a simplex carrying them feeds only
the templates whose local boundary took a new pivot.  This loses nothing:
renaming by simplex[q] is injective on the local vertices and linear on
chains, so a relation among the local boundaries of some templates is the
same relation among the global boundary columns of their cells on that
simplex.  Each dropped column is therefore a combination of columns that
are fed, and dropping it leaves unchanged the column space of the (i,0)
boundary map, and that of [S; A], the (i+1,0) and (i,1) boundaries split
into their stray rows S and their rows A on allowed (i,0) cells, together
with its projection on S.  So the cycles, the allowed (i,0) cells less the
rank of their boundary map, are unchanged, and so is
dim B = rank [S; A] - rank S.  Every allowed (i,0) cell stays a row, and
the cell counts count every allowed cell.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache, cached_property
from operator import itemgetter

from .complexes import StratifiedComplex, perversity_ok
from .errors import ValidationError
from .exactla import ColumnReduction
from .stratsimplex import facets

__all__ = [
    "LgReport",
    "enumerate_cells",
    "cell_boundary",
    "cell_allowed",
    "lg_ranks",
]


class LgReport(namedtuple("LgReport", "rank cells cycles boundaries")):
    __slots__ = ()


def _sizes(k: StratifiedComplex, i: int, j: int) -> range:
    """Sizes of the simplices of k that support cells of shape (i, j)."""
    return range(1, min(k.dim + 1, (j + 1) * (i + 2)) + 1)


class _Template:
    """One template, its boundary compiled on first use.

    cell is the template as a cell (j, images) in local indices, and
    pick(simplex) renames it into a cell of that simplex.  terms
    lists the template's boundary as (child j, child pick, coefficient) in
    `cell_boundary` order, the child's images being child pick(simplex).
    """

    def __init__(self, j, images):
        self.cell = j, images
        self.pick = itemgetter(*images)

    @cached_property
    def terms(self):
        return [(cj, itemgetter(*cimages), coef)
                for (cj, cimages), coef in cell_boundary(self.cell).items()]


def _templates(i: int, j: int, s: int) -> list:
    """A `_Template` for every canonical non-degenerate cell of shape (i, j)
    spanning exactly the local simplex 0..s-1.

    The order: column sets in itertools.combinations order, a column
    being the images of one base corner under the j+1 cone maps and the
    columns listed in itertools.product order; then apex images in
    itertools.product order.
    """
    n_maps = j + 1
    local = range(s)
    apex_choices = list(itertools.product(local, repeat=n_maps))
    out = []
    for cols in itertools.combinations(itertools.product(local, repeat=n_maps), i + 1):
        bases = tuple(zip(*cols))
        missing = set(local).difference(*bases)
        if len(missing) > n_maps:
            continue
        # two equal cone maps need equal bases and equal apexes
        tied = len(set(bases)) < n_maps
        for apexes in apex_choices:
            if missing.issubset(apexes) and not (tied and len(set(apexes)) < n_maps):
                out.append(_Template(j, tuple(itertools.chain.from_iterable(zip(apexes, *cols)))))
    return out


def enumerate_cells(k: StratifiedComplex, i: int, j: int = 0) -> list:
    """Every non-degenerate cell (j, images) of shape (i, j) with sorted
    columns.

    Canonical form: the columns increase, and the supporting simplex is
    the exact span of the images, so a cell never appears again from a
    larger simplex containing it.  The order is deterministic: supporting
    simplices by size then lexicographically; inside one, column sets in
    itertools.combinations order, then apex images in itertools.product
    order.  Each cell is a template of `_templates` renamed by its simplex.
    """
    if i < 0:
        raise ValidationError(f"base dimension must be >= 0, got {i}")
    if j not in (0, 1):
        raise ValidationError(f"cell shape (i, j) needs j in 0..1, got {j!r}")
    out = []
    for s in _sizes(k, i, j):
        templates = _templates(i, j, s)
        for simplex in k.simplices_of_dim(s - 1):
            out.extend((j, t.pick(simplex)) for t in templates)
    return out


@cache
def _facet_plan(i, j):
    """(sign, child j, image picker) for each facet of shape (i, j)."""
    w = i + 2
    positions = range((j + 1) * w)
    plan = []
    for factor, local, sign in facets((i, j)):
        if factor == 1:
            # a vertex of simplex(j): drop that cone map
            keep = [q for q in positions if q // w != local]
            plan.append((sign, j - 1, itemgetter(*keep)))
        else:
            # a base corner: drop that column from every cone map
            keep = [q for q in positions if q % w != local + 1]
            plan.append((sign, j, itemgetter(*keep)))
    return tuple(plan)


def _canonical(j, images):
    """(sign, images with sorted columns) of the cell (j, images).

    Permuting columns multiplies a cell by the sign of the permutation; a
    degenerate cell is zero and gives (0, None).
    """
    if j:
        w = len(images) // 2
        maps = images[:w], images[w:]
        keys = tuple(zip(maps[0][1:], maps[1][1:]))
    else:
        maps = (images,)
        keys = images[1:]
    if len(set(maps)) < len(maps) or len(set(keys)) < len(keys):
        return 0, None
    if keys == tuple(sorted(keys)):
        return 1, images
    order = sorted(range(len(keys)), key=keys.__getitem__)
    inversions = sum(1 for a, b in itertools.combinations(order, 2) if a > b)
    moved = tuple(itertools.chain.from_iterable(
        (f[0],) + tuple(f[q + 1] for q in order) for f in maps))
    return (-1 if inversions % 2 else 1), moved


def cell_boundary(cell: tuple) -> dict:
    """Signed facet sum of a cell (j, images), {cell with sorted columns:
    coefficient}.

    The facets and their signs are those of the cell's shape under
    `stratsimplex.facets`.  Degenerate summands are dropped, coefficients
    that cancel are left out, and degenerate input gives the empty sum.
    """
    j, images = cell
    sign, images = _canonical(j, images)
    out = {}
    if not sign:
        return out
    for fsign, child_j, pick in _facet_plan(len(images) // (j + 1) - 2, j):
        csign, child = _canonical(child_j, pick(images))
        if csign:
            key = child_j, child
            out[key] = out.get(key, 0) + sign * fsign * csign
    return {child: coef for child, coef in out.items() if coef}


@cache
def _map_sets(i, j):
    """(label slices, |T| - 1) for every nonempty set T of cone maps of
    shape (i, j); slice t picks the base labels of map t."""
    w = i + 2
    bases = [slice(t * w + 1, (t + 1) * w) for t in range(j + 1)]
    return tuple((tuple(bases[t] for t in ids), size - 1)
                 for size in range(1, j + 2) for ids in itertools.combinations(range(j + 1), size))


def _label_verdict(labels, j, m, p, w1):
    """Whether a cell of shape (i, j) whose images, end to end, carry these
    labels passes the perversity part and has its apex stratum w_1 at
    least w1."""
    width = len(labels) // (j + 1)
    for cuts, extra in _map_sets(width - 2, j):
        if extra:
            depth = sorted(map(max, *[labels[cut] for cut in cuts]))
        else:
            depth = sorted(labels[cuts[0]])
        if not perversity_ok(depth, width - 2 + j, m, p, extra):
            return False
    return max(labels[::width]) >= w1


def cell_allowed(k: StratifiedComplex, cell: tuple, w1: int) -> bool:
    """Perversity admissibility of one cell (j, images) with its apex at
    least as deep as the floor w1.

    Only slices with the coning parameter away from zero are constrained,
    so apex labels never enter the perversity part.  Writing d = m - c, for
    every nonempty set T of cone maps let A be the base positions where
    every map in T lands on a label <= d; the face of X_d on that part of
    the cell has dimension (|A| - 1) + (|T| - 1), which must stay within
    (i + j) - c + p(c) whenever A is nonempty.  The apex stratum w_1(f) is
    the largest apex label, the deepest point of the apex path, and must
    be at least w1.
    """
    j, images = cell
    return _label_verdict([k.labels[v] for v in images], j, k.dim, k.perversity, w1)


def _column(t: _Template, simplex, rows: dict) -> dict:
    """The boundary of t on simplex as a column {row: coefficient}; a child
    cell (j, images) that rows does not hold yet takes the next row."""
    return {rows.setdefault((cj, cpick(simplex)), len(rows)): coef for cj, cpick, coef in t.terms}


class _Kept(list):
    """The templates of one template set allowed on one label vector.

    basis is the sublist, in the same order, of the templates whose local
    boundaries each take a new pivot when reduced one after another, rows
    being the child cells in local indices 0..size-1.  It is reduced the
    first time it is read, so a template set and label vector that only
    ever reach `lg_ranks` past its exit are never reduced.
    """

    def __init__(self, templates, size):
        super().__init__(templates)
        self.local = range(size)

    @cached_property
    def basis(self):
        reduction = ColumnReduction()
        rows = {}
        return [t for t in self if reduction.add_column(_column(t, self.local, rows)) is not None]


def _allowed_cells(k: StratifiedComplex, i: int, j: int, w1: int):
    """(simplex, keep) for every simplex of a size that supports cells of
    shape (i, j), in `enumerate_cells` order; the cells of that simplex
    allowed at the apex floor w1 are t.pick(simplex) for t in keep, in
    that order.

    The templates kept are decided once per label vector of a simplex, and
    the same `_Kept` list is yielded for every simplex carrying it; its
    local basis is the part of it that `lg_ranks` feeds.  A template's
    verdict reads only the labels it picks, so `_label_verdict` runs once
    per picked label tuple, within one call.  Each template's boundary is
    compiled once, when that basis is first reduced and reads its terms,
    so the cells `lg_ranks` only counts past its exit compile nothing.
    Templates and verdicts are built anew on every call.
    """
    m, p, label = k.dim, k.perversity, k.labels.__getitem__
    judged = {}

    def allowed(picked):
        verdict = judged.get(picked)
        if verdict is None:
            verdict = judged[picked] = _label_verdict(picked, j, m, p, w1)
        return verdict

    for s in _sizes(k, i, j):
        templates = _templates(i, j, s)
        verdicts = {}
        for simplex in k.simplices_of_dim(s - 1):
            labels = tuple(map(label, simplex))
            keep = verdicts.get(labels)
            if keep is None:
                keep = verdicts[labels] = _Kept(
                    [t for t in templates if allowed(t.pick(labels))], s)
            yield simplex, keep


def lg_ranks(k: StratifiedComplex, i: int, w1: int) -> LgReport:
    """Rank of the order-one local-global group in degree (i,0) at the
    apex floor w1.

    Z is the kernel of the full boundary on allowed (i,0) cells.  B is
    assembled from allowed (i+1,0) and (i,1) cells: a combination qualifies
    when its boundary components off the allowed (i,0) cells cancel, and B
    is what it leaves on them.  Rows of allowed (i,0) cells come first, in
    enumeration order; each stray cell takes the next row when a column
    first meets it.  So a reduced column with its pivot among the allowed
    rows has no stray part, and the count of such pivots is dim B of the
    columns fed so far.

    B lies in Z: once the stray parts cancel, what a combination leaves is
    its whole boundary, a cycle because the boundary squares to zero.
    Column operations never remove a pivot, so that count only grows, and
    feeding stops once it reaches dim Z; the cells left are only counted,
    a simplex at a time, and their boundaries are never compiled.

    At i = 0 feeding stops one short, at dim Z - 1 when Z is not zero:
    by the augmentation (see the module docstring) B lies in a subspace of
    Z of that dimension, and reaching it, B is that subspace.

    Every allowed cell is counted and every allowed (i,0) cell is a row,
    but a simplex feeds both reductions only the local basis of its kept
    templates, which gives the same Z and B (see the module docstring).
    """
    if w1 < 0:
        raise ValidationError(f"w-sequence entries must be integers >= 0, got {w1!r}")
    if i < 0:
        raise ValidationError(f"base dimension must be >= 0, got {i}")
    m = k.dim
    keys = (f"({i},0)", f"({i + 1},0)", f"({i},1)")
    if m < 0:
        return LgReport(rank=0, cells=dict.fromkeys(keys, 0), cycles=0, boundaries=0)
    if w1 > m:
        raise ValidationError(f"w_1 must lie in 0..{m} for this complex, got {w1}")

    pos = {}
    rows = {}
    zred = ColumnReduction()
    # rows are keyed by (j, images) of the cells they stand for
    for simplex, keep in _allowed_cells(k, i, 0, w1):
        for t in keep:
            pos[0, t.pick(simplex)] = len(pos)
        for t in keep.basis:
            zred.add_column(_column(t, simplex, rows))
    n_allowed = len(pos)
    cycles = n_allowed - zred.rank

    # the most B can reach, by the augmentation at i = 0
    full = cycles - 1 if i == 0 and cycles else cycles
    bred = ColumnReduction()
    boundaries = 0
    counts = [n_allowed]
    for base_dim, j in ((i + 1, 0), (i, 1)):
        n = 0
        for simplex, keep in _allowed_cells(k, base_dim, j, w1):
            n += len(keep)
            if boundaries == full:
                continue
            for t in keep.basis:
                if boundaries == full:
                    break
                low = bred.add_column(_column(t, simplex, pos))
                if low is not None and low < n_allowed:
                    boundaries += 1
        counts.append(n)

    assert 0 <= boundaries <= cycles, "boundary space escaped the cycle space"
    return LgReport(
        rank=cycles - boundaries, cells=dict(zip(keys, counts)),
        cycles=cycles, boundaries=boundaries,
    )
