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

A simplex is always the tuple of its vertex names in sorted order.

Allowability is stated in real codimension c: an i-simplex F passes
when dim(F cap X_{m-c}) <= i - c + p(c) for every c in {2, ..., m}.
Strata closures are full subcomplexes here by construction, so the
intersection is the face of F spanned by the vertices with label at
most m-c and the test is exact integer arithmetic.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import ValidationError, is_int


@dataclass(frozen=True)
class Perversity:
    """Values p(2), ..., p(m) subject to p(2) = 0 and unit growth."""

    values: tuple[int, ...]
    label: str = "explicit"

    def __post_init__(self):
        vals = tuple(self.values)
        if vals:
            if vals[0] != 0:
                raise ValidationError(f"perversity must start at p(2) = 0, got {vals[0]}")
            for k, (a, b) in enumerate(zip(vals, vals[1:]), start=2):
                if b not in (a, a + 1):
                    raise ValidationError(
                        f"perversity must grow by 0 or 1: p({k})={a}, p({k + 1})={b}"
                    )
        object.__setattr__(self, "values", vals)

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
        minimal growth), when a cone or link changes the dimension.
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
            entries = {int(c): v for c, v in doc.items()}
        except (TypeError, ValueError) as exc:
            raise ValidationError("perversity map needs integer codims and values") from exc
        if not all(is_int(v) for v in entries.values()):
            raise ValidationError("perversity map needs integer codims and values")
        if sorted(entries) != list(range(2, m + 1)):
            raise ValidationError(f"perversity map must cover codimensions 2..{m}")
        return Perversity(tuple(entries[c] for c in range(2, m + 1)))


class StratifiedComplex:
    """Finite abstract simplicial complex with stratum labels.

    strata maps every vertex to its label; maximal_simplices is any
    family of vertex collections whose union is the vertex set (repeats,
    empty sets and entries that are faces of others are dropped).  The
    empty complex (no vertices) is legal and has dimension -1.

    Every simplex is held as the tuple of its vertex names in sorted
    order: `maximal` and `simplices` hold such tuples, and the buckets of
    `simplices_of_dim` share the tuple objects of `simplices`.
    """

    __slots__ = ("vertices", "strata", "maximal", "simplices", "dim", "perversity", "_by_dim")

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
        facets = {tuple(sorted(f)) for f in facets if f}
        # largest first: every strictly larger facet has already put its
        # faces in `faces`, so a facet is maximal exactly when it is not there yet
        maximal = []
        faces = set()
        for f in sorted(facets, key=len, reverse=True):
            if f in faces:
                continue
            maximal.append(f)
            faces.add(f)
            for size in range(1, len(f)):
                faces.update(combinations(f, size))
        self.vertices = tuple(sorted(strata))
        self.strata = strata
        self.maximal = tuple(sorted(maximal))
        self.simplices = frozenset(faces)
        self.dim = max(map(len, maximal), default=0) - 1
        m = self.dim
        for f in faces:
            top = max(strata[v] for v in f)
            if top < m and len(f) - 1 > top:
                # name the least offender, whatever order the set yields them in
                f, top = min(
                    (g, t) for g in faces
                    if (t := max(strata[v] for v in g)) < m and len(g) - 1 > t
                )
                raise ValidationError(
                    f"simplex {list(f)} lies in X_{top} but has dimension {len(f) - 1}"
                )
        if perversity is None:
            perversity = Perversity.middle(m)
        if perversity.top_codim != max(m, 1):
            raise ValidationError(
                f"perversity covers codimensions 2..{perversity.top_codim}, complex needs 2..{m}"
            )
        self.perversity = perversity
        self._by_dim = None

    def label(self, v: str) -> int:
        return self.strata[v]

    def simplices_of_dim(self, i: int) -> tuple[tuple[str, ...], ...]:
        """The i-simplices as sorted vertex tuples, in sorted order.

        All degrees are bucketed in one pass on the first call and shared
        by later ones.
        """
        if self._by_dim is None:
            buckets = [[] for _ in range(self.dim + 1)]
            for f in self.simplices:
                buckets[len(f) - 1].append(f)
            self._by_dim = tuple(tuple(sorted(b)) for b in buckets)
        return self._by_dim[i] if 0 <= i <= self.dim else ()

    def has_simplex(self, f) -> bool:
        """Whether the vertices of f, in any order and with repeats, span a simplex."""
        f = set(f)
        return f <= self.strata.keys() and tuple(sorted(f)) in self.simplices

    def euler_characteristic(self) -> int:
        return sum(-1 if len(f) % 2 == 0 else 1 for f in self.simplices)

    def same_labeled_complex(self, other: "StratifiedComplex") -> bool:
        """Equality of underlying labeled complexes, perversity aside."""
        return (self.strata == other.strata
                and self.simplices == other.simplices)

    def with_strata(self, strata) -> "StratifiedComplex":
        """The same complex relabeled; strata may be a map or a constant."""
        if isinstance(strata, int):
            strata = {v: strata for v in self.vertices}
        return StratifiedComplex(strata, self.maximal, self.perversity)

    def with_perversity(self, perversity: Perversity) -> "StratifiedComplex":
        return StratifiedComplex(self.strata, self.maximal, perversity)


def allowable_simplex(k: StratifiedComplex, simplex) -> bool:
    """Perversity test for one simplex of the complex.

    For every codimension c the face of the simplex spanned by vertices
    with label <= m-c must have dimension <= i - c + p(c); an empty
    intersection passes.
    """
    f = set(simplex)
    if not k.has_simplex(f):
        raise ValidationError(f"{sorted(f)} is not a simplex of the complex")
    depth = sorted(k.strata[v] for v in f)
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


def cone(k: StratifiedComplex, apex_label: int = 0, apex_name: str = "apex") -> StratifiedComplex:
    """Join a fresh apex vertex to every simplex; dimension grows by 1."""
    (name,) = _fresh_names(k.vertices, [apex_name])
    strata = dict(k.strata)
    strata[name] = apex_label
    maximal = [f + (name,) for f in k.maximal] or [(name,)]
    return StratifiedComplex(strata, maximal, k.perversity.resized(k.dim + 1))


def suspension(k: StratifiedComplex, apex_labels=(0, 0)) -> StratifiedComplex:
    """Join two fresh apexes to every simplex (not to each other)."""
    north, south = _fresh_names(k.vertices, ["north", "south"])
    strata = dict(k.strata)
    strata[north], strata[south] = apex_labels
    maximal = [f + (apex,) for apex in (north, south) for f in k.maximal]
    maximal = maximal or [(north,), (south,)]
    return StratifiedComplex(strata, maximal, k.perversity.resized(k.dim + 1))


def link(k: StratifiedComplex, v: str) -> StratifiedComplex:
    """Simplices F with v not in F and F + v in the complex, labels kept."""
    if v not in k.strata:
        raise ValidationError(f"unknown vertex {v!r}")
    candidates = [[u for u in f if u != v] for f in k.maximal if v in f and len(f) > 1]
    verts = set().union(*candidates)
    strata = {u: k.strata[u] for u in verts}
    new_dim = max((len(f) for f in candidates), default=0) - 1
    return StratifiedComplex(strata, candidates, k.perversity.resized(new_dim))


def barycentric_subdivision(k: StratifiedComplex) -> StratifiedComplex:
    """One barycentric subdivision with inherited labels.

    Each simplex F becomes a vertex named by joining its members with
    "|", labeled max over F: the relative interior of F lies in the
    stratum of its highest-labeled vertex because strata closures are
    full.  Maximal simplices are the flags inside old maximal ones.
    """
    name = {f: "|".join(f) for f in k.simplices}
    strata = {name[f]: max(k.strata[v] for v in f) for f in k.simplices}
    maximal = [[name[tuple(sorted(order[:j]))] for j in range(1, len(order) + 1)]
               for f in k.maximal for order in permutations(f)]
    return StratifiedComplex(strata, maximal, k.perversity)


# ----------------------------------------------------------------- json


def complex_to_json(k: StratifiedComplex) -> dict:
    return {
        "dim": k.dim,
        "vertices": list(k.vertices),
        "strata": {v: k.strata[v] for v in k.vertices},
        "maximal_simplices": [list(f) for f in k.maximal],
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
    m_guess = max((len(set(f)) for f in maximal), default=0) - 1
    perversity = Perversity.from_json(doc.get("perversity", "middle"), m_guess)
    k = StratifiedComplex(strata, maximal, perversity)
    if k.dim != doc["dim"]:
        raise ValidationError(
            f"declared dim {doc['dim']} does not match computed dimension {k.dim}"
        )
    return k
