"""Face lattices of convex polytopes built by pyramid and prism steps.

A lattice is an abstract graded poset: face ids with integer dimensions
from -1 (the empty face) to n (the whole polytope), plus the cover
relation.  No coordinates are stored; pyramid and prism act purely
combinatorially, so a word in the letters I (prism) and C (pyramid)
applied to a point determines a polytope up to combinatorial type.

Flag vectors count chains of proper faces by dimension set, with the
empty chain contributing the entry 1 at the empty set.  A dimension set
is a bitmask, bit d for dimension d, and `FlagVector.entries` is the
tuple of the 2^n counts indexed by that mask; only the JSON form spells
the sets out.

Pyramid and prism also act linearly on flag vectors (Ehrenborg-Readdy,
"Coproducts and the cd-index", 1998).  `ic_basis` uses that to walk a
basis of the span of the flag vectors of all words of one length
straight from the words, level by level, with no lattice; the lattices
are the reference it is tested against.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, product

from .errors import DomainError, ValidationError, is_int
from .exactla import ColumnReduction
# not called here; perfbench/tracing.py still looks this name up on this module
from .exactla import dense_rank  # noqa: F401

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

    __slots__ = ("ids", "dims", "dim", "_down")

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
        for lo, hi in dict.fromkeys(map(tuple, covers)):
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
        # Diamond property: every length-2 interval has exactly two middles,
        # so the faces two levels below a face, sorted, come in pairs of
        # equal faces, and no two pairs are equal.
        for c_down in down:
            g = sorted(chain.from_iterable(map(down.__getitem__, c_down)))
            pairs = g[::2]
            if pairs != g[1::2] or len(set(pairs)) != len(pairs):
                raise _diamond_error(ids, down, up)
        self.ids = ids
        self.dims = dims
        self.dim = n
        self._down = tuple(tuple(sorted(d)) for d in down)

    def cover_pairs(self) -> list[tuple[str, str]]:
        ids = self.ids
        return sorted((ids[a], ids[b]) for b, downs in enumerate(self._down) for a in downs)

    def __len__(self) -> int:
        return len(self.ids)


def _diamond_error(ids, down, up) -> ValidationError:
    """The error for the first interval, met through its middles in id
    order, that does not have exactly two middles."""
    counts = Counter(chain.from_iterable(map(product, down, up)))
    a, c = next(key for key, cnt in counts.items() if cnt != 2)
    return ValidationError(f"diamond property fails between {ids[a]!r} and {ids[c]!r}: "
                           f"{counts[a, c]} middle faces instead of 2")


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


# ---------------------------------------------------------------- flags


class FlagVector(namedtuple("FlagVector", "dim entries")):
    """Chain counts of proper faces, one entry per subset of {0..dim-1}:
    entries[mask] counts the chains whose dimensions have bitmask mask."""

    __slots__ = ()

    def dual(self) -> "FlagVector":
        """The flag vector of the dual polytope: dimension d is read as
        dim-1-d, so each mask has its bits reversed."""
        masks = [0]  # masks[m] = m with bit d moved to bit dim-1-d
        for bit in reversed(range(self.dim)):
            masks += [m | 1 << bit for m in masks]
        return FlagVector(self.dim, tuple(map(self.entries.__getitem__, masks)))

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": dict(zip(_subset_keys(self.dim), self.entries))}

    @staticmethod
    def from_json(doc) -> "FlagVector":
        if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
            raise ValidationError("flag vector document needs 'dim' and 'entries'")
        n = doc["dim"]
        if not is_int(n) or n < 0:
            raise ValidationError("flag vector 'dim' must be a non-negative integer")
        entries = doc["entries"]
        if not isinstance(entries, dict):
            raise ValidationError("flag vector 'entries' must map subsets to counts")
        spelled = {}  # the sorted spelling of each subset -> its key in entries
        for key, v in entries.items():
            parts = [p for p in key.split(",") if p != ""]
            # only ASCII digits: int() alone would take " 1", "1_0" and non-ASCII digits
            if not all(p.isascii() and p.isdigit() for p in parts):
                raise ValidationError(f"flag entry {key!r} is not a list of integers")
            members = sorted(map(int, parts))
            if any(not 0 <= j < n for j in members):
                raise ValidationError(f"flag entry {key!r} is outside 0..{n - 1}")
            if len(set(members)) != len(members):
                raise ValidationError(f"flag entry {key!r} repeats a member")
            canonical = ",".join(map(str, members))
            if canonical in spelled:
                raise ValidationError(
                    f"flag entries {spelled[canonical]!r} and {key!r} name the same subset")
            if not is_int(v):
                raise ValidationError(f"flag entry {key!r} must be an integer")
            spelled[canonical] = key
        # distinct subsets of 0..n-1 cover them all exactly when there are
        # 2^n; the bit length is compared first so a huge n costs nothing
        if len(spelled).bit_length() != n + 1 or len(spelled) != 1 << n:
            raise ValidationError("flag vector must cover every subset exactly once")
        return FlagVector(n, tuple(entries[spelled[key]] for key in _subset_keys(n)))


def _subset_keys(n: int) -> list[str]:
    """The JSON key of every subset of {0..n-1}, indexed by its mask: the
    members in increasing order, joined by commas."""
    keys = [""]
    for d in range(n):
        keys += [f"{key},{d}" if key else str(d) for key in keys]
    return keys


def flag_vector(lattice: FaceLattice) -> FlagVector:
    """Count chains of proper faces for every dimension subset, in one pass
    over the faces in order of dimension.

    Each proper face k carries one integer chains[k] packing 2^n fields of
    `width` bits: field m counts the chains with dimension set m whose top
    face is k.  Such a chain is k on top of a chain of faces strictly below
    k, whose dimension set lies under bit dim k, so chains[k] is 1 (the
    empty chain) plus the sum of chains[j] over the faces j below k, shifted
    by width << dim k: that moves field m to field m + 2^dim k.  The flag
    vector is 1 + the sum of all chains[k], read off field by field.  The
    cost is one packed addition per comparable pair of proper faces.

    No field carries into the next.  Chains with different top faces are
    different, so a field of any sum formed here counts distinct chains with
    one dimension set T and is at most f_T.  Construction has validated the
    lattice as graded with covers one dimension apart, so every T-chain
    extends along covers to a maximal chain from the empty face to the top:
    f_T is at most their number N, which `paths` counts over the covers,
    and width is the bit length of N rounded up to whole bytes.
    """
    n = lattice.dim
    dims, down = lattice.dims, lattice._down
    order = sorted(range(len(dims)), key=dims.__getitem__)
    paths = [1] * len(dims)  # maximal chains from the empty face to each face
    for k in order[1:]:
        paths[k] = sum(map(paths.__getitem__, down[k]))
    size = (paths[order[-1]].bit_length() + 7) // 8
    width = 8 * size
    below = [()] * len(dims)  # below[k] = the proper faces at or below k
    chains = [0] * len(dims)
    for k in order[1:-1]:
        faces = set().union(*map(below.__getitem__, down[k]))
        chains[k] = (1 + sum(map(chains.__getitem__, faces))) << (width << dims[k])
        below[k] = (*faces, k)  # a tuple holds them in a fraction of a set's memory
    packed = (1 + sum(chains)).to_bytes(size << n, "little")
    return FlagVector(n, tuple(int.from_bytes(packed[i:i + size], "little")
                               for i in range(0, size << n, size)))


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
    0 is not in T), and (U_1, ..., U_k).  With S_T = sum of f(U_1..U_k),
    f_T(Pyr P) = S_T + f(U_0) and f_T(P x I) = 2 S_T (+ f(U_0) if 0 not in T).
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


def _steps(table, f):
    """The pyramid and prism of the flag row f (indexed by subset bitmask)
    of a (d-1)-polytope, by table = _split_table(d)."""
    pyr, prism = [], []
    for u0, prism_u0, rest in table:
        s = sum(map(f.__getitem__, rest))
        pyr.append(s + f[u0])
        prism.append(2 * s + f[u0] if prism_u0 else 2 * s)
    return pyr, prism


def ic_extensions(n: int):
    """(word, flag row) for the pyramid and the prism of every row of
    ic_basis(n - 1), with no face lattice: 2 F(n) rows spanning the flag
    vectors of the length-n words over {I, C}, made one pair at a time.

    Pyramid and prism act linearly on flag vectors, and words are evaluated
    rightmost letter first, so the pyramids and prisms of a basis at length
    n - 1 span length n.  At length 0 the basis is the point.
    """
    if n < 1:
        raise DomainError(f"IC words need length n >= 1, got {n}")
    table = _split_table(n)
    return ((letter + word, row)
            for word, f in (ic_basis(n - 1) if n > 1 else [("", [1])])
            for letter, row in zip("CI", _steps(table, f)))


def ic_basis(n: int) -> list:
    """(word, flag row) for a basis of the span of the flag vectors of the
    length-n words over {I, C}: the rows of ic_extensions(n) that take a new
    pivot in an integer ColumnReduction; their number is the exact rank."""
    span = ColumnReduction()
    return [(word, row) for word, row in ic_extensions(n)
            if span.add_column(dict(enumerate(row))) is not None]


def ic_flag_rank(n: int) -> int:
    """Rank over the rationals of the flag vectors of all 2^n words of
    length n over {I, C}: the size of ic_basis(n)."""
    return len(ic_basis(n))


def fibonacci(n: int) -> int:
    """F(n) with F(1) = F(2) = 1; the IC flag vectors of dimension n span
    a space of dimension F(n+1)."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


# ----------------------------------------------------------------- json


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
