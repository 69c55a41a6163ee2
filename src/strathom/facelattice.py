"""Face lattices of convex polytopes built by pyramid and prism steps.

A lattice is an abstract graded poset: face ids with integer dimensions
from -1 (the empty face) to n (the whole polytope), plus the cover
relation.  No coordinates are stored; pyramid and prism act purely
combinatorially, so a word in the letters I (prism) and C (pyramid)
applied to a point determines a polytope up to combinatorial type.

Flag vectors count chains of proper faces by dimension set, with the
empty chain contributing the entry 1 at the empty set.

Pyramid and prism also act linearly on flag vectors (Ehrenborg-Readdy,
"Coproducts and the cd-index", 1998).  `ic_flag_vectors` and
`ic_flag_rank` use that to get the flag vectors of all words of one
length straight from the words, with no lattice; the lattices are the
reference they are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from operator import or_

from .errors import DomainError, ValidationError, is_int
from .exactla import dense_rank

WORD_LETTERS = "IC"


def parse_word(word: str) -> str:
    """Validate a word over the letters I and C; returns it unchanged."""
    for pos, ch in enumerate(word):
        if ch not in WORD_LETTERS:
            raise DomainError(
                f"invalid character {ch!r} at position {pos}: words use the letters I and C"
            )
    return word


class FaceLattice:
    """Graded bounded face poset with the diamond property.

    faces: mapping id -> dimension; covers: iterable of (lower id,
    upper id) pairs.  Construction validates every structural invariant
    and raises ValidationError naming the first violated one.
    """

    __slots__ = ("ids", "dims", "dim", "_index", "_up", "_down")

    def __init__(self, faces, covers):
        if not faces:
            raise ValidationError("lattice has no faces")
        ids = tuple(sorted(faces))
        dims = tuple(faces[i] for i in ids)
        for i, d in zip(ids, dims):
            if not is_int(d):
                raise ValidationError(f"face {i!r} has non-integer dimension {d!r}")
        n = max(dims)
        if n < 0:
            raise ValidationError("lattice must contain a face of dimension >= 0")
        if min(dims) != -1:
            raise ValidationError("lattice has no face of dimension -1")
        if sum(1 for d in dims if d == -1) != 1:
            raise ValidationError("lattice must have exactly one face of dimension -1")
        if sum(1 for d in dims if d == n) != 1:
            raise ValidationError(f"lattice must have exactly one face of top dimension {n}")
        index = {i: k for k, i in enumerate(ids)}
        up = [[] for _ in ids]
        down = [[] for _ in ids]
        for lo, hi in set(map(tuple, covers)):
            if lo not in index or hi not in index:
                raise ValidationError(f"cover ({lo!r}, {hi!r}) names an unknown face")
            a, b = index[lo], index[hi]
            if dims[b] != dims[a] + 1:
                raise ValidationError(
                    f"cover ({lo!r}, {hi!r}) must increase dimension by exactly 1"
                )
            up[a].append(b)
            down[b].append(a)
        for k, i in enumerate(ids):
            if dims[k] > -1 and not down[k]:
                raise ValidationError(f"face {i!r} has no lower cover")
            if dims[k] < n and not up[k]:
                raise ValidationError(f"face {i!r} has no upper cover")
        # Diamond property: every length-2 interval has exactly two middles.
        counts: dict[tuple[int, int], int] = {}
        for b in range(len(ids)):
            for a in down[b]:
                for c in up[b]:
                    counts[a, c] = counts.get((a, c), 0) + 1
        for (a, c), cnt in counts.items():
            if cnt != 2:
                raise ValidationError(
                    f"diamond property fails between {ids[a]!r} and {ids[c]!r}: "
                    f"{cnt} middle faces instead of 2"
                )
        self.ids = ids
        self.dims = dims
        self.dim = n
        self._index = index
        self._up = tuple(tuple(sorted(u)) for u in up)
        self._down = tuple(tuple(sorted(d)) for d in down)

    def face_counts(self) -> tuple[int, ...]:
        """Number of proper faces in each dimension 0..n-1 (the f-vector)."""
        out = [0] * self.dim
        for d in self.dims:
            if 0 <= d < self.dim:
                out[d] += 1
        return tuple(out)

    def cover_pairs(self) -> list[tuple[str, str]]:
        pairs = []
        for a, ups in enumerate(self._up):
            for b in ups:
                pairs.append((self.ids[a], self.ids[b]))
        return sorted(pairs)

    def __len__(self) -> int:
        return len(self.ids)


def _relabel(raw_faces: dict, raw_covers: set) -> FaceLattice:
    """Assign canonical ids d{dim}f{k} to structurally keyed faces."""
    order = sorted(raw_faces, key=lambda key: (raw_faces[key], key))
    names = {}
    counters: dict[int, int] = {}
    for key in order:
        d = raw_faces[key]
        k = counters.get(d, 0)
        counters[d] = k + 1
        names[key] = f"d{d}f{k}"
    faces = {names[key]: d for key, d in raw_faces.items()}
    covers = [(names[lo], names[hi]) for lo, hi in raw_covers]
    return FaceLattice(faces, covers)


def point() -> FaceLattice:
    return FaceLattice({"d-1f0": -1, "d0f0": 0}, [("d-1f0", "d0f0")])


def pyramid(lattice: FaceLattice) -> FaceLattice:
    """Cone over the polytope: every face F yields F and F + apex."""
    faces = {}
    covers = set()
    for i, d in zip(lattice.ids, lattice.dims):
        faces["c", i] = d
        faces["a", i] = d + 1
        covers.add((("c", i), ("a", i)))
    for lo, hi in lattice.cover_pairs():
        covers.add((("c", lo), ("c", hi)))
        covers.add((("a", lo), ("a", hi)))
    return _relabel(faces, covers)


def prism(lattice: FaceLattice) -> FaceLattice:
    """Product with a segment: bottom and top copies share the empty
    face, and every nonempty face F yields F x interval one dimension up."""
    bottom_id = lattice.ids[lattice.dims.index(-1)]
    faces = {("e",): -1}
    covers = set()
    for i, d in zip(lattice.ids, lattice.dims):
        if i == bottom_id:
            continue
        faces["b", i] = d
        faces["t", i] = d
        faces["m", i] = d + 1
        covers.add((("b", i), ("m", i)))
        covers.add((("t", i), ("m", i)))
    for lo, hi in lattice.cover_pairs():
        if lo == bottom_id:
            covers.add(((("e",)), ("b", hi)))
            covers.add(((("e",)), ("t", hi)))
        else:
            covers.add((("b", lo), ("b", hi)))
            covers.add((("t", lo), ("t", hi)))
            covers.add((("m", lo), ("m", hi)))
    return _relabel(faces, covers)


def from_word(word: str) -> FaceLattice:
    """Evaluate a word over {I, C} on the point, rightmost letter first."""
    parse_word(word)
    lattice = point()
    for ch in reversed(word):
        lattice = prism(lattice) if ch == "I" else pyramid(lattice)
    return lattice


def dual(lattice: FaceLattice) -> FaceLattice:
    """Order-reverse the lattice: a face of dimension d becomes one of
    dimension n-1-d and all covers flip.  Combinatorially this is polar
    duality, e.g. the dual of the cube lattice is the octahedron lattice."""
    n = lattice.dim
    faces = {("d", i): n - 1 - d for i, d in zip(lattice.ids, lattice.dims)}
    covers = {(("d", hi), ("d", lo)) for lo, hi in lattice.cover_pairs()}
    return _relabel(faces, covers)


def from_simplicial_facets(facets) -> FaceLattice:
    """Face lattice of a simplicial polytope boundary given by its facets.

    Every facet is a set of vertex names; proper faces are the nonempty
    vertex subsets of facets.  Used for query polytopes (octahedron,
    polygons) that are not products of pyramid and prism steps.
    """
    facets = [tuple(sorted(f)) for f in facets]
    if not facets:
        raise ValidationError("need at least one facet")
    sizes = {len(f) for f in facets}
    if len(sizes) != 1:
        raise ValidationError("facets of a simplicial polytope must share one size")
    n = sizes.pop()
    proper: set[tuple[str, ...]] = set()
    for f in facets:
        for size in range(1, len(f) + 1):
            proper.update(combinations(f, size))
    def fid(face):
        return ",".join(face)
    faces = {"(empty)": -1, "(top)": n}
    for face in proper:
        if fid(face) in faces:
            raise ValidationError(f"vertex name collides with reserved id {fid(face)!r}")
        faces[fid(face)] = len(face) - 1
    covers = []
    for face in proper:
        if len(face) == 1:
            covers.append(("(empty)", fid(face)))
        if len(face) == n:
            covers.append((fid(face), "(top)"))
        for drop in range(len(face)):
            sub = face[:drop] + face[drop + 1:]
            if sub:
                covers.append((fid(sub), fid(face)))
    return FaceLattice(faces, covers)


# ---------------------------------------------------------------- flags


@dataclass(frozen=True)
class FlagVector:
    """Chain counts of proper faces, one entry per subset of {0..n-1}."""

    dim: int
    entries: dict

    def entry(self, subset) -> int:
        return self.entries[frozenset(subset)]

    def as_row(self, order=None) -> list[int]:
        if order is None:
            order = subset_order(self.dim)
        return [self.entries[s] for s in order]

    def to_json(self) -> dict:
        keys = {",".join(map(str, sorted(s))): v for s, v in self.entries.items()}
        return {"dim": self.dim, "entries": keys}

    @staticmethod
    def from_json(doc) -> "FlagVector":
        if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
            raise ValidationError("flag vector document needs 'dim' and 'entries'")
        n = doc["dim"]
        if not is_int(n) or n < 0:
            raise ValidationError("flag vector 'dim' must be a non-negative integer")
        if not isinstance(doc["entries"], dict):
            raise ValidationError("flag vector 'entries' must map subsets to counts")
        entries = {}
        spelled = {}
        for key, v in doc["entries"].items():
            members = [int(p) for p in key.split(",") if p != ""]
            subset = frozenset(members)
            if any(not 0 <= j < n for j in subset):
                raise ValidationError(f"flag entry {key!r} is outside 0..{n - 1}")
            if len(subset) != len(members):
                raise ValidationError(f"flag entry {key!r} repeats a member")
            if subset in spelled:
                raise ValidationError(
                    f"flag entries {spelled[subset]!r} and {key!r} name the same subset")
            if not is_int(v):
                raise ValidationError(f"flag entry {key!r} must be an integer")
            spelled[subset] = key
            entries[subset] = v
        # distinct subsets of 0..n-1 cover them all exactly when there are 2^n
        if len(entries) != 1 << n:
            raise ValidationError("flag vector must cover every subset exactly once")
        return FlagVector(n, entries)


def subset_order(n: int) -> list[frozenset]:
    subsets = []
    for size in range(n + 1):
        subsets.extend(frozenset(s) for s in combinations(range(n), size))
    return subsets


def flag_vector(lattice: FaceLattice) -> FlagVector:
    """Count chains of proper faces for every dimension subset.

    Subsets are walked depth first.  A subset ending in dimension d
    carries its chain counts per face of dimension d; a child adding a
    larger dimension e sums them over the faces below each face of
    dimension e, so every entry costs one step from its parent's.
    """
    n = lattice.dim
    # levels[d] = the proper faces of dimension d, given consecutive bits
    levels = [[] for _ in range(n)]
    for k, d in enumerate(lattice.dims):
        if 0 <= d < n:
            levels[d].append(k)
    offset = [0] * n
    bit = {}
    for d, level in enumerate(levels):
        offset[d] = len(bit)
        for k in level:
            bit[k] = 1 << len(bit)
    # below[k] = bitmask of the proper faces strictly below face k
    below = {}
    for level in levels:
        for k in level:
            below[k] = reduce(or_, [below[j] | bit[j] for j in lattice._down[k] if j in bit], 0)
    # inc[a, b][q] = positions in levels[a] of the faces below levels[b][q];
    # level -1 is the empty face, below every face
    inc = {}
    for b, level in enumerate(levels):
        inc[-1, b] = [(0,)] * len(level)
        for a in range(b):
            width = (1 << len(levels[a])) - 1
            rows = []
            for k in level:
                m = below[k] >> offset[a] & width
                ps = []
                while m:
                    low = m & -m
                    ps.append(low.bit_length() - 1)
                    m ^= low
                rows.append(ps)
            inc[a, b] = rows
    entries = {frozenset(): 1}

    def extend(prefix, last, vec):
        for d in range(last + 1, n):
            nxt = [sum(map(vec.__getitem__, ps)) for ps in inc[last, d]]
            subset = prefix | {d}
            entries[subset] = sum(nxt)
            extend(subset, d, nxt)

    extend(frozenset(), -1, [1])
    return FlagVector(n, entries)


def flag_rank(lattices) -> int:
    """Rank over the rationals of the flag vectors of the given lattices,
    read one at a time."""
    rows = []
    for lattice in lattices:
        if not rows:
            n = lattice.dim
            order = subset_order(n)
        elif lattice.dim != n:
            raise DomainError(f"flag_rank needs equal dimensions, got {sorted({n, lattice.dim})}")
        rows.append(flag_vector(lattice).as_row(order))
    if not rows:
        raise DomainError("flag_rank needs at least one lattice")
    return dense_rank(rows)


def ic_words(n: int) -> list[str]:
    """All words of length n over {I, C}, sorted."""
    if n < 1:
        raise DomainError(f"IC words need length n >= 1, got {n}")
    return ["".join(letters) for letters in product(sorted(WORD_LETTERS), repeat=n)]


def ic_lattices(n: int):
    """All words of length n over {I, C} with their lattices, sorted, built one at a time."""
    return ((word, from_word(word)) for word in ic_words(n))


# ------------------------------------------------- IC words, no lattices


def _split_table(n: int):
    """Where the pyramid and prism steps into dimension n read their base.

    A subset T of {0..n-1} is a bitmask; call its members t_1 < ... < t_k.
    A chain of proper faces of Pyr(P) or P x I through dimensions T splits
    after its j-th face, j = 0..k: faces up to there lie in the base (or in
    an end copy of P), and each later face of dimension t sits over a face
    of P of dimension t - 1.  Split j reads P's flag number at
    U_j = {t_1..t_j} | {t_{j+1}-1, ..., t_k-1}, without -1 and without
    n - 1 (the dimension of P itself).  Per T this returns U_0, whether the
    prism counts split 0 (it has no face over the empty face, so only when
    0 is not in T), and (U_1, ..., U_k).
    """
    keep = (1 << (n - 1)) - 1
    table = []
    for t in range(1 << n):
        splits = []
        low = 0
        for d in range(n):
            if t >> d & 1:
                low |= 1 << d
                splits.append((low | (t ^ low) >> 1) & keep)
        table.append((t >> 1 & keep, not t & 1, tuple(splits)))
    return table


def _ic_word_rows(n: int):
    """(word, flag entries) for every word of length n over {I, C}.

    Entries are a list indexed by subset bitmask (bit d for dimension d).
    Words are evaluated rightmost letter first, so the walk goes depth
    first over suffixes, and one pass over a suffix's entries yields both
    of its extensions: with S_T = sum of f(U_1..U_k) from _split_table,
    f_T(Pyr P) = S_T + f(U_0) and f_T(P x I) = 2 S_T, plus f(U_0) when
    0 is not in T.  Words come out in depth-first order, not sorted.
    """
    ic_words(n)  # rejects n < 1 before any work
    tables = [_split_table(d) for d in range(1, n + 1)]

    def walk(suffix, f):
        if len(suffix) == n:
            yield suffix, f
            return
        pyr, prism = [], []
        for u0, prism_u0, rest in tables[len(suffix)]:
            s = sum(map(f.__getitem__, rest))
            pyr.append(s + f[u0])
            prism.append(2 * s + f[u0] if prism_u0 else 2 * s)
        yield from walk("C" + suffix, pyr)
        yield from walk("I" + suffix, prism)

    return walk("", [1])


def ic_flag_vectors(n: int) -> list:
    """(word, FlagVector) for every word of length n over {I, C}, sorted
    by word, computed from the word with no face lattice.  Every vector
    keys its entries in the same order, by subset bitmask."""
    rows = _ic_word_rows(n)
    keys = [frozenset(d for d in range(n) if mask >> d & 1) for mask in range(1 << n)]
    return sorted(((word, FlagVector(n, dict(zip(keys, row)))) for word, row in rows),
                  key=lambda pair: pair[0])


def ic_flag_rank(n: int) -> int:
    """Rank over the rationals of the flag vectors of all 2^n words of
    length n over {I, C}."""
    return dense_rank([row for _, row in _ic_word_rows(n)])


def fibonacci(n: int) -> int:
    """F(n) with F(1) = F(2) = 1; the IC flag vectors of dimension n span
    a space of dimension F(n+1)."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


# ----------------------------------------------------------------- json


def lattice_to_json(lattice: FaceLattice) -> dict:
    faces = [{"id": i, "dim": d} for i, d in zip(lattice.ids, lattice.dims)]
    faces.sort(key=lambda f: (f["dim"], f["id"]))
    covers = [[lo, hi] for lo, hi in lattice.cover_pairs()]
    return {"dim": lattice.dim, "faces": faces, "covers": covers}


def lattice_from_json(doc) -> FaceLattice:
    if not isinstance(doc, dict):
        raise ValidationError("lattice document must be a JSON object")
    for key in ("dim", "faces", "covers"):
        if key not in doc:
            raise ValidationError(f"lattice document is missing {key!r}")
    try:
        faces = {f["id"]: f["dim"] for f in doc["faces"]}
    except (TypeError, KeyError) as exc:
        raise ValidationError("each face needs an 'id' and a 'dim'") from exc
    if len(faces) != len(doc["faces"]):
        raise ValidationError("face ids must be unique")
    if not all(isinstance(i, str) for i in faces):
        raise ValidationError("face ids must be strings")
    if not isinstance(doc["covers"], list):
        raise ValidationError("'covers' must be a list of [lower, upper] pairs")
    covers = []
    for pair in doc["covers"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError("each cover must be a [lower, upper] pair")
        if not isinstance(pair[0], str) or not isinstance(pair[1], str):
            raise ValidationError(f"cover {pair!r} must name faces by their string ids")
        covers.append((pair[0], pair[1]))
    if not is_int(doc["dim"]):
        raise ValidationError(f"'dim' must be an integer, got {doc['dim']!r}")
    lattice = FaceLattice(faces, covers)
    if lattice.dim != doc["dim"]:
        raise ValidationError(
            f"declared dim {doc['dim']} does not match top face dimension {lattice.dim}"
        )
    return lattice
