"""Stratified simplicial complexes over named vertices.

A complex is given by its maximal simplices plus a stratum label s(v)
per vertex, the real dimension of the stratum containing v.  Labels
induce the filtration X_0 <= X_1 <= ... <= X_m = X where X_d is the
full subcomplex on {v : s(v) <= d}; validation rejects inputs where
some X_d with d < m contains a simplex of dimension above d, since no
stratification could carry such labels.  Labels at or above m mark
vertices of the open top stratum; values above m are tolerated so that
a base complex can already carry the labels its cone or suspension
will need.

A vertex's number is its position in the sorted tuple of vertex names,
and a simplex is always the sorted tuple of its vertex numbers.  Numbers
follow name order, so every sorted order of simplices is the order of
their names.  Names come back only where a complex meets the outside:
its JSON document, error messages, and the new vertices that cone,
suspension and barycentric subdivision name.

Allowability is stated in real codimension c: an i-simplex F passes
when dim(F cap X_{m-c}) <= i - c + p(c) for every c in {2, ..., m}.
Strata closures are full subcomplexes here by construction, so the
intersection is the face of F spanned by the vertices with label at
most m-c and the test is exact integer arithmetic.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import chain, combinations, permutations

from .errors import ValidationError, is_int


class Perversity(namedtuple("Perversity", "values label")):
    """Values p(2), ..., p(m) subject to p(2) = 0 and unit growth."""

    __slots__ = ()

    def __new__(cls, values, label="explicit"):
        vals = tuple(values)
        if vals:
            if vals[0] != 0:
                raise ValidationError(f"perversity must start at p(2) = 0, got {vals[0]}")
            for k, (a, b) in enumerate(zip(vals, vals[1:]), start=2):
                if b not in (a, a + 1):
                    raise ValidationError(
                        f"perversity must grow by 0 or 1: p({k})={a}, p({k + 1})={b}"
                    )
        return super().__new__(cls, vals, label)

    @staticmethod
    def middle(m: int) -> "Perversity":
        return Perversity(tuple((c - 2) // 2 for c in range(2, m + 1)), "middle")

    @property
    def top_codim(self) -> int:
        return len(self.values) + 1

    def __call__(self, c: int) -> int:
        if not 2 <= c <= self.top_codim:
            raise ValidationError(f"perversity defined for 2..{self.top_codim}, got {c}")
        return self.values[c - 2]

    def resized(self, m: int) -> "Perversity":
        """The same schedule cut or extended to codimensions 2..m.

        The middle perversity regrows from its formula; an explicit one
        is truncated, or extended by repeating its last value (the
        minimal growth), when a cone or suspension changes the dimension.
        """
        if self.label == "middle":
            return Perversity.middle(m)
        want = max(m - 1, 0)
        vals = self.values[:want]
        while len(vals) < want:
            vals = vals + (vals[-1] if vals else 0,)
        return Perversity(vals, self.label)

    def to_json(self):
        if self.label == "middle":
            return "middle"
        return {str(c): self(c) for c in range(2, self.top_codim + 1)}

    @staticmethod
    def from_json(doc, m: int) -> "Perversity":
        if doc == "middle":
            return Perversity.middle(m)
        if not isinstance(doc, dict):
            raise ValidationError("perversity must be \"middle\" or a codim->value map")
        try:
            codims = [int(key) for key in doc]
        except (TypeError, ValueError) as exc:
            raise ValidationError("perversity map needs integer codims and values") from exc
        spelled = {}  # codim -> its key in doc
        for c, key in zip(codims, doc):
            if c in spelled:
                raise ValidationError(
                    f"perversity entries {spelled[c]!r} and {key!r} name the same codimension")
            spelled[c] = key
        if not all(is_int(v) for v in doc.values()):
            raise ValidationError("perversity map needs integer codims and values")
        if sorted(spelled) != list(range(2, m + 1)):
            raise ValidationError(f"perversity map must cover codimensions 2..{m}" if m > 1 else
                                  f"perversity map must be empty for a complex of dimension {m}")
        return Perversity(tuple(doc[spelled[c]] for c in range(2, m + 1)))


class StratifiedComplex:
    """Finite abstract simplicial complex with stratum labels.

    strata maps every vertex to its label; maximal_simplices is any
    family of vertex collections whose union is the vertex set (repeats,
    empty sets and entries that are faces of others are dropped).  The
    empty complex (no vertices) is legal and has dimension -1.

    `vertices` holds the names in sorted order and `labels[v]` the label
    of vertex number v.  Every simplex is held as the sorted tuple of its
    vertex numbers, once: the sorted per-degree buckets of
    `simplices_of_dim`, filled by size while the faces are generated, are
    the one store of simplices.  `maximal` shares their tuple objects, and
    `simplices` is a view derived from them.
    """

    __slots__ = ("vertices", "strata", "labels", "maximal", "dim", "perversity", "_by_dim")

    def __init__(self, strata, maximal_simplices, perversity=None):
        strata = dict(strata)
        for v, s in strata.items():
            if not isinstance(v, str):
                raise ValidationError(f"vertex names must be strings, got {v!r}")
            if not is_int(s) or s < 0:
                raise ValidationError(f"stratum label of {v!r} must be an integer >= 0")
        try:
            facets = [set(f) for f in maximal_simplices]
        except TypeError as exc:
            raise ValidationError("maximal simplices must be collections of vertex names") from exc
        # checked before any sort, so a member that is no vertex name cannot reach one
        covered = set().union(*facets)
        if covered != set(strata):
            missing = sorted(set(strata) - covered) + sorted(covered - set(strata), key=str)
            raise ValidationError(
                f"vertex set and union of maximal simplices disagree on {missing}"
            )
        self.vertices = tuple(sorted(strata))
        number = {v: n for n, v in enumerate(self.vertices)}
        facets = {tuple(sorted(map(number.__getitem__, f))) for f in facets if f}
        # largest first: every strictly larger facet has already put its
        # faces in the bucket of f's size, so f is maximal exactly when it is not there yet
        maximal = []
        by_size = [set() for _ in range(max(map(len, facets), default=0) + 1)]
        for f in sorted(facets, key=len, reverse=True):
            if f in by_size[len(f)]:
                continue
            maximal.append(f)
            by_size[len(f)].add(f)
            for size in range(1, len(f)):
                by_size[size].update(combinations(f, size))
        self.strata = strata
        self.labels = labels = tuple(map(strata.__getitem__, self.vertices))
        self.maximal = tuple(sorted(maximal))
        # each size's set is dropped as soon as its bucket is sorted
        self._by_dim = tuple(tuple(sorted(by_size.pop(1))) for _ in range(len(by_size) - 1))
        self.dim = m = len(self._by_dim) - 1
        # a face of X_t (t < m) above dimension t exists exactly when some
        # facet's sorted labels have l_q < m and q > l_q: its first q + 1
        # vertices span a q-face in X_{l_q}
        for vec in {tuple(map(labels.__getitem__, f)) for f in maximal}:
            if any(q > t for q, t in enumerate(sorted(vec)) if t < m):
                f, top = min(
                    (g, t) for g in chain.from_iterable(self._by_dim)
                    if (t := max(labels[v] for v in g)) < m and len(g) - 1 > t
                )
                raise ValidationError(
                    f"simplex {self.names(f)} lies in X_{top} but has dimension {len(f) - 1}"
                )
        if perversity is None:
            perversity = Perversity.middle(m)
        if perversity.top_codim != max(m, 1):
            raise ValidationError(
                f"perversity covers codimensions 2..{perversity.top_codim}, complex needs 2..{m}"
            )
        self.perversity = perversity

    def simplices_of_dim(self, i: int) -> tuple[tuple[int, ...], ...]:
        """The i-simplices as sorted vertex-number tuples, in sorted order (bucket i)."""
        return self._by_dim[i] if 0 <= i <= self.dim else ()

    @property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        """Every simplex, by dimension and then in sorted order."""
        return tuple(chain.from_iterable(self._by_dim))

    def has_simplex(self, f) -> bool:
        """Whether the vertex numbers in f, in any order and with repeats, span a simplex."""
        try:
            f = tuple(sorted(set(f)))
            bucket = self.simplices_of_dim(len(f) - 1)
            j = bisect_left(bucket, f)
        except TypeError:  # a member that is no number, such as a vertex name
            return False
        return bucket[j:j + 1] == (f,)

    def names(self, f) -> list[str]:
        """The names of the vertex numbers in f, in the order of f."""
        return [self.vertices[v] for v in f]

    def with_strata(self, strata) -> "StratifiedComplex":
        """The same complex relabeled; strata may be a map or a constant."""
        if isinstance(strata, int):
            strata = {v: strata for v in self.vertices}
        return StratifiedComplex(strata, map(self.names, self.maximal), self.perversity)

    def with_perversity(self, perversity: Perversity) -> "StratifiedComplex":
        return StratifiedComplex(self.strata, map(self.names, self.maximal), perversity)


def allowable_simplex(k: StratifiedComplex, simplex) -> bool:
    """Perversity test for one simplex of the complex.

    For every codimension c the face of the simplex spanned by vertices
    with label <= m-c must have dimension <= i - c + p(c); an empty
    intersection passes.
    """
    f = set(simplex)
    if not k.has_simplex(f):
        shown = k.names(sorted(f)) if f <= set(range(len(k.vertices))) else simplex
        raise ValidationError(f"{shown} is not a simplex of the complex")
    depth = sorted(k.labels[v] for v in f)
    return perversity_ok(depth, len(f) - 1, k.dim, k.perversity)


def perversity_ok(depth, degree: int, m: int, p: Perversity, extra: int = 0) -> bool:
    """The perversity bound on one face, given its sorted vertex labels.

    With deep the number of labels <= m-c, the face of X_{m-c} has
    dimension deep - 1 + extra, which must stay within degree - c + p(c)
    for every codimension c in 2..m where deep > 0.
    """
    for c in range(2, m + 1):
        deep = bisect_right(depth, m - c)
        if not deep:
            break
        if deep - 1 + extra > degree - c + p(c):
            return False
    return True


def _fresh_names(taken, stems):
    out = []
    taken = set(taken)
    for stem in stems:
        name = stem
        k = 0
        while name in taken:
            name = f"{stem}{k}"
            k += 1
        taken.add(name)
        out.append(name)
    return out


def cone(k: StratifiedComplex) -> StratifiedComplex:
    """Join a fresh apex vertex, labeled 0, to every simplex; dimension grows by 1."""
    (name,) = _fresh_names(k.vertices, ["apex"])
    strata = dict(k.strata)
    strata[name] = 0
    maximal = [k.names(f) + [name] for f in k.maximal] or [(name,)]
    return StratifiedComplex(strata, maximal, k.perversity.resized(k.dim + 1))


def suspension(k: StratifiedComplex) -> StratifiedComplex:
    """Join two fresh apexes, labeled 0, to every simplex (not to each other)."""
    north, south = _fresh_names(k.vertices, ["north", "south"])
    strata = dict(k.strata)
    strata[north] = strata[south] = 0
    maximal = [k.names(f) + [apex] for apex in (north, south) for f in k.maximal]
    maximal = maximal or [(north,), (south,)]
    return StratifiedComplex(strata, maximal, k.perversity.resized(k.dim + 1))


def barycentric_subdivision(k: StratifiedComplex) -> StratifiedComplex:
    """One barycentric subdivision with inherited labels.

    Each simplex F becomes a vertex named by joining its members with
    "|", labeled max over F: the relative interior of F lies in the
    stratum of its highest-labeled vertex because strata closures are
    full.  Maximal simplices are the flags inside old maximal ones.
    """
    name = {f: "|".join(k.names(f)) for f in chain.from_iterable(k._by_dim)}
    strata = {v: max(map(k.labels.__getitem__, f)) for f, v in name.items()}
    maximal = [[name[tuple(sorted(order[:j]))] for j in range(1, len(order) + 1)]
               for f in k.maximal for order in permutations(f)]
    return StratifiedComplex(strata, maximal, k.perversity)


# ----------------------------------------------------------------- json


def complex_to_json(k: StratifiedComplex) -> dict:
    return {
        "dim": k.dim,
        "vertices": list(k.vertices),
        "strata": {v: k.strata[v] for v in k.vertices},
        "maximal_simplices": [k.names(f) for f in k.maximal],
        "perversity": k.perversity.to_json(),
    }


def complex_from_json(doc) -> StratifiedComplex:
    if not isinstance(doc, dict):
        raise ValidationError("complex document must be a JSON object")
    for key in ("dim", "vertices", "strata", "maximal_simplices"):
        if key not in doc:
            raise ValidationError(f"complex document is missing {key!r}")
    if not is_int(doc["dim"]):
        raise ValidationError(f"'dim' must be an integer, got {doc['dim']!r}")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValidationError("'vertices' must be a list of vertex names")
    strata = doc["strata"]
    if not isinstance(strata, dict):
        raise ValidationError("'strata' must map vertex names to labels")
    if sorted(strata) != sorted(vertices):
        raise ValidationError("'vertices' and 'strata' must name the same vertices")
    maximal = doc["maximal_simplices"]
    if not isinstance(maximal, list) or not all(
        isinstance(f, list) and all(isinstance(v, str) for v in f) for f in maximal
    ):
        raise ValidationError("'maximal_simplices' must be a list of lists of vertex names")
    # the dimension the constructor computes, so the perversity is read against it
    m = max((len(set(f)) for f in maximal), default=0) - 1
    if m != doc["dim"]:
        raise ValidationError(f"declared dim {doc['dim']} does not match computed dimension {m}")
    perversity = Perversity.from_json(doc.get("perversity", "middle"), m)
    return StratifiedComplex(strata, maximal, perversity)
