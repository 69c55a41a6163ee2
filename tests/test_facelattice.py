"""Lattice construction, flag vectors, duality, serialization."""
import tracemalloc
from itertools import combinations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    OCTA_FACETS,
    PENTAGON_FACETS,
    cyclic_facets,
    dense_rank,
    ic_words,
    simplicial_lattice,
)
from strathom import facelattice
from strathom.errors import DomainError, ValidationError
from strathom.facelattice import (
    FaceLattice,
    FlagVector,
    dual,
    fibonacci,
    flag_vector,
    from_word,
    ic_basis,
    ic_flag_rank,
    lattice_from_json,
    parse_word,
    point,
    prism,
    pyramid,
)


def face_counts(lattice):
    """The f-vector: the flag vector's entries at one-element dimension sets."""
    fv = flag_vector(lattice)
    return tuple(fv.entries[1 << d] for d in range(fv.dim))


def word_rank(words):
    """Rank of the flag vectors of the words' lattices, by the oracle."""
    return dense_rank([flag_vector(from_word(word)).entries for word in words])


def chain_counts(lattice):
    """Flag vector by listing every chain of proper faces: the strict order
    is the transitive closure of the cover relation."""
    n = lattice.dim
    dim = dict(zip(lattice.ids, lattice.dims))
    above = {i: set() for i in lattice.ids}
    for lo, hi in lattice.cover_pairs():
        above[lo].add(hi)
    for i in sorted(lattice.ids, key=dim.get, reverse=True):
        for j in list(above[i]):
            above[i] |= above[j]
    counts = [0] * (1 << n)

    def grow(mask, top):
        counts[mask] += 1
        for face in above[top]:
            if dim[face] < n:
                grow(mask | 1 << dim[face], face)

    grow(0, next(i for i in lattice.ids if dim[i] == -1))
    return tuple(counts)


def members(mask, n):
    """The dimensions in the subset with bitmask mask, increasing."""
    return [d for d in range(n) if mask >> d & 1]


def by_subset(fv):
    """The entries of fv keyed by the sorted tuple of their dimensions."""
    return {tuple(members(mask, fv.dim)): v for mask, v in enumerate(fv.entries)}


def reversed_entries(fv):
    """The entries of fv with every subset S replaced by {n-1-s : s in S}."""
    n = fv.dim
    out = [0] * (1 << n)
    for mask, v in enumerate(fv.entries):
        out[sum(1 << (n - 1 - d) for d in members(mask, n))] = v
    return tuple(out)


def test_parse_word_accepts_ic_only():
    assert parse_word("ICCI") == "ICCI"
    with pytest.raises(DomainError, match="position 2"):
        parse_word("ICxI")


def test_point_lattice():
    p = point()
    assert p.dim == 0 and len(p) == 2
    assert face_counts(p) == ()


@pytest.mark.parametrize("word, counts", [
    ("I", (2,)),
    ("C", (2,)),
    ("II", (4, 4)),
    ("IC", (4, 4)),
    ("CI", (3, 3)),
    ("CC", (3, 3)),
    ("III", (8, 12, 6)),
    ("CCC", (4, 6, 4)),
])
def test_from_word_face_counts(word, counts):
    assert face_counts(from_word(word)) == counts


def test_validation_catches_broken_posets():
    with pytest.raises(ValidationError, match="no faces"):
        FaceLattice({}, [])
    with pytest.raises(ValidationError, match="dimension -1"):
        FaceLattice({"v": 0}, [])
    with pytest.raises(ValidationError, match="top dimension"):
        FaceLattice({"e": -1, "u": 0, "v": 0}, [("e", "u"), ("e", "v")])
    with pytest.raises(ValidationError, match="increase dimension"):
        FaceLattice({"e": -1, "t": 1}, [("e", "t")])
    with pytest.raises(ValidationError, match="no lower cover"):
        FaceLattice({"e": -1, "u": 0, "v": 0, "t": 1},
                    [("e", "u"), ("u", "t"), ("v", "t")])
    # Segment with three endpoints: the interval (empty, top) has 3 middles.
    with pytest.raises(ValidationError, match="diamond"):
        FaceLattice({"e": -1, "u": 0, "v": 0, "w": 0, "t": 1},
                    [("e", "u"), ("e", "v"), ("e", "w"),
                     ("u", "t"), ("v", "t"), ("w", "t")])


def test_diamond_failure_names_the_first_interval_met():
    # A triangle whose edge x gets a third vertex d: (e, x) has 3 middles and
    # (d, t) has 1.  Intervals are met through their middles in id order, so
    # (e, x), reached through the middle a, is named before (d, t), reached
    # through the middle x, although "d" sorts before "e".
    faces = {"e": -1, "a": 0, "b": 0, "c": 0, "d": 0, "x": 1, "y": 1, "z": 1, "t": 2}
    covers = [("e", v) for v in "abcd"] + [
        ("a", "x"), ("b", "x"), ("d", "x"), ("b", "y"), ("c", "y"), ("c", "z"), ("a", "z"),
        ("x", "t"), ("y", "t"), ("z", "t")]
    with pytest.raises(ValidationError) as info:
        FaceLattice(faces, covers)
    assert str(info.value) == "diamond property fails between 'e' and 'x': 3 middle faces instead of 2"


# four edges on the same two vertices a and b: every interval below an edge has
# two middles, but (a, t) and (b, t) have four each, so the faces two levels
# below t come in equal pairs (a, a, a, a, b, b, b, b) and only their count fails
FOUR_MIDDLES = {"e": -1, "a": 0, "b": 0, "w": 1, "x": 1, "y": 1, "z": 1, "t": 2}
FOUR_MIDDLES_COVERS = [("e", "a"), ("e", "b")] + [(v, f) for f in "wxyz" for v in "ab"] + [
    (f, "t") for f in "wxyz"]
# a triangle x, y, z with a pendant edge p from x to u, all under one top t:
# (u, t) has one middle and (x, t) three, so t has an even number of faces two
# levels below; the first interval is met through p, whose lower covers are
# read in document order
ONE_AND_THREE = {"e": -1, "u": 0, "x": 0, "y": 0, "z": 0, "p": 1, "q": 1, "r": 1, "s": 1, "t": 2}
ONE_AND_THREE_COVERS = [("e", v) for v in "uxyz"] + [
    ("x", "q"), ("y", "q"), ("x", "r"), ("z", "r"), ("y", "s"), ("z", "s")] + [
    (f, "t") for f in "pqrs"]


@pytest.mark.parametrize("faces, covers, interval, middles", [
    (FOUR_MIDDLES, FOUR_MIDDLES_COVERS, ("a", "t"), 4),
    (ONE_AND_THREE, [("u", "p"), ("x", "p")] + ONE_AND_THREE_COVERS, ("u", "t"), 1),
    (ONE_AND_THREE, [("x", "p"), ("u", "p")] + ONE_AND_THREE_COVERS, ("x", "t"), 3),
], ids=["four-middles", "one-then-three", "three-then-one"])
def test_diamond_failure_names_intervals_of_four_one_or_three_middles(
        faces, covers, interval, middles):
    with pytest.raises(ValidationError) as info:
        FaceLattice(faces, covers)
    lo, hi = interval
    assert str(info.value) == (f"diamond property fails between {lo!r} and {hi!r}: "
                               f"{middles} middle faces instead of 2")


def test_square_flag_vector():
    fv = flag_vector(from_word("II"))
    assert fv.entries[0b00] == 1
    assert fv.entries[0b01] == 4
    assert fv.entries[0b10] == 4
    assert fv.entries[0b11] == 8


def test_octahedron_flag_vector():
    fv = flag_vector(lattice_from_json(simplicial_lattice(OCTA_FACETS)))
    want = {(): 1, (0,): 6, (1,): 12, (2,): 8,
            (0, 1): 24, (0, 2): 24, (1, 2): 24, (0, 1, 2): 48}
    assert by_subset(fv) == want


def test_cube_flag_vector():
    fv = flag_vector(from_word("III"))
    want = {(): 1, (0,): 8, (1,): 12, (2,): 6,
            (0, 1): 24, (0, 2): 24, (1, 2): 24, (0, 1, 2): 48}
    assert by_subset(fv) == want


def test_flag_vector_is_an_immutable_value():
    fv = flag_vector(from_word("II"))
    assert fv == FlagVector(2, (1, 4, 4, 8)) and fv is not flag_vector(from_word("II"))
    assert hash(fv) == hash(FlagVector(2, (1, 4, 4, 8)))
    assert fv != FlagVector(2, (1, 4, 4, 9)) and fv != FlagVector(3, fv.entries)
    assert repr(fv) == "FlagVector(dim=2, entries=(1, 4, 4, 8))"
    with pytest.raises(AttributeError):
        fv.dim = 3
    with pytest.raises(AttributeError):
        fv.extra = 0


def test_dual_is_an_involution_and_swaps_cube_octahedron():
    cube = from_word("III")
    assert flag_vector(dual(dual(cube))).entries == flag_vector(cube).entries
    octa = lattice_from_json(simplicial_lattice(OCTA_FACETS))
    assert flag_vector(dual(cube)).entries == flag_vector(octa).entries
    assert face_counts(octa) == (6, 12, 8)


def test_flag_rank_small_dimensions():
    got = [word_rank(ic_words(n)) for n in range(1, 5)]
    assert got == [1, 2, 3, 5]


def test_lattice_json_roundtrip():
    doc = simplicial_lattice(OCTA_FACETS)
    lat = lattice_from_json(doc)
    faces = sorted(zip(lat.dims, lat.ids))
    assert [{"id": i, "dim": d} for d, i in faces] == doc["faces"]
    assert [list(pair) for pair in lat.cover_pairs()] == doc["covers"]
    with pytest.raises(ValidationError, match="missing"):
        lattice_from_json({"dim": 3, "faces": doc["faces"]})
    with pytest.raises(ValidationError, match="declared dim"):
        lattice_from_json({**doc, "dim": 7})
    doubled = {**doc, "faces": doc["faces"] + [doc["faces"][0]]}
    with pytest.raises(ValidationError, match="unique"):
        lattice_from_json(doubled)


def test_flag_vector_json_roundtrip_and_validation():
    fv = flag_vector(from_word("II"))
    back = FlagVector.from_json(fv.to_json())
    assert back == fv
    doc = fv.to_json()
    shuffled = {"dim": 2, "entries": dict(reversed(doc["entries"].items()))}
    assert FlagVector.from_json(shuffled) == fv
    partial = {"dim": 2, "entries": {k: v for k, v in doc["entries"].items() if k}}
    with pytest.raises(ValidationError, match="every subset"):
        FlagVector.from_json(partial)
    with pytest.raises(ValidationError, match="outside"):
        FlagVector.from_json({"dim": 1, "entries": {"": 1, "0": 2, "5": 3}})


def test_flag_vector_size_is_checked_before_listing_subsets(monkeypatch):
    def refuse(n):
        raise AssertionError("_subset_keys must not run before the count check")

    monkeypatch.setattr(facelattice, "_subset_keys", refuse)
    with pytest.raises(ValidationError, match="every subset"):
        FlagVector.from_json({"dim": 64, "entries": {}})


def test_flag_vector_count_check_costs_nothing_at_a_huge_dim():
    # 1 << 10**8 alone would take 12 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="every subset"):
            FlagVector.from_json({"dim": 10 ** 8, "entries": {"": 1}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

@settings(deadline=None, max_examples=30)
@given(st.text(alphabet="IC", min_size=1, max_size=5))
def test_word_length_is_dimension(word):
    lat = from_word(word)
    assert lat.dim == len(word)
    assert dual(lat).dim == len(word)


@settings(deadline=None, max_examples=20)
@given(st.text(alphabet="IC", min_size=1, max_size=4))
def test_flag_entries_grow_under_refinement(word):
    # A chain through dimensions S extends through any further dimension j,
    # so the chain count can only grow when j is added to S.
    fv = flag_vector(from_word(word))
    n = fv.dim
    for mask in range(1 << n):
        for j in range(n):
            if not mask >> j & 1:
                assert fv.entries[mask | 1 << j] >= fv.entries[mask]


FIXED_LATTICES = {
    "octahedron": lambda: lattice_from_json(simplicial_lattice(OCTA_FACETS)),
    "pentagon": lambda: lattice_from_json(simplicial_lattice(PENTAGON_FACETS)),
    "C(7,4)": lambda: lattice_from_json(simplicial_lattice(cyclic_facets(7, 4))),
}


@pytest.mark.parametrize("name", sorted(FIXED_LATTICES))
def test_flag_vector_counts_every_chain(name):
    lattice = FIXED_LATTICES[name]()
    assert flag_vector(lattice).entries == chain_counts(lattice)
    assert flag_vector(dual(lattice)).entries == chain_counts(dual(lattice))


@settings(deadline=None, max_examples=25)
@given(st.text(alphabet="IC", min_size=1, max_size=5))
def test_flag_vector_counts_every_chain_of_ic_polytopes(word):
    lattice = from_word(word)
    assert flag_vector(lattice).entries == chain_counts(lattice)
    assert flag_vector(dual(lattice)).entries == chain_counts(dual(lattice))


def test_flag_vector_of_cube7_is_the_closed_form():
    n = 7
    fv = flag_vector(from_word("I" * n))
    for mask, value in enumerate(fv.entries):
        s = members(mask, n)
        want = 1
        if s:
            want = comb(n, s[-1]) * 2 ** (n - s[-1]) * prod(
                comb(b, a) * 2 ** (b - a) for a, b in zip(s, s[1:]))
        assert value == want, s
    assert len(fv.entries) == 2 ** n


def test_flag_vector_of_cyclic_12_8_is_the_closed_form():
    facets = cyclic_facets(12, 8)
    fv = flag_vector(lattice_from_json(simplicial_lattice(facets)))
    f = [len({face for facet in facets for face in combinations(facet, k + 1)})
         for k in range(8)]
    for mask, value in enumerate(fv.entries):
        s = members(mask, 8)
        want = 1
        if s:
            want = f[s[-1]] * prod(comb(b + 1, a + 1) for a, b in zip(s, s[1:]))
        assert value == want, s
    assert len(fv.entries) == 2 ** 8


def thin_lattice(n):
    """Two faces in every dimension 0..n-1, each covering both faces one
    dimension down: a chain through T picks one of two faces per member, so
    f_T = 2^|T|."""
    ranks = [["e"]] + [[f"{d}a", f"{d}b"] for d in range(n)] + [["t"]]
    faces = {i: d - 1 for d, rank in enumerate(ranks) for i in rank}
    return FaceLattice(faces, [(lo, hi) for below, above in zip(ranks, ranks[1:])
                               for lo in below for hi in above])


def test_flag_vector_of_thin_lattices_is_the_closed_form():
    # the largest entry, 2^n, needs a wider field at n = 8 and n = 16
    for n in range(17):
        fv = flag_vector(thin_lattice(n))
        assert fv.entries == tuple(1 << bin(mask).count("1") for mask in range(1 << n)), n


@settings(deadline=None, max_examples=30)
@given(st.lists(st.sampled_from([pyramid, prism, dual]), max_size=12))
def test_flag_vector_counts_every_chain_of_pyramids_prisms_and_duals(steps):
    # duals reach polytopes that no word over {I, C} builds, the octahedron among them
    lattice = point()
    for step in steps:
        if step is dual or lattice.dim < 5:
            lattice = step(lattice)
    assert flag_vector(lattice).entries == chain_counts(lattice)


@pytest.mark.parametrize("name", sorted(FIXED_LATTICES))
def test_dual_flag_vector_reverses_the_dimensions(name):
    lattice = FIXED_LATTICES[name]()
    assert flag_vector(dual(lattice)).entries == reversed_entries(flag_vector(lattice))


@pytest.mark.parametrize("name", sorted(FIXED_LATTICES))
def test_bit_reversal_gives_the_dual_lattice_flag_vector(name):
    lattice = FIXED_LATTICES[name]()
    fv = flag_vector(lattice)
    assert fv.dual() == flag_vector(dual(lattice))
    assert fv.dual().dual() == fv


@settings(deadline=None, max_examples=25)
@given(st.text(alphabet="IC", min_size=1, max_size=6))
def test_dual_flag_vector_reverses_the_dimensions_of_ic_polytopes(word):
    lattice = from_word(word)
    assert flag_vector(dual(lattice)).entries == reversed_entries(flag_vector(lattice))


def test_flag_vector_of_point_and_segment():
    fv = flag_vector(point())
    assert fv.dim == 0 and fv.entries == (1,)
    fv = flag_vector(from_word("I"))
    assert fv.dim == 1 and fv.entries == (1, 2)


def test_word_flag_vectors_equal_the_lattice_flag_vectors():
    for n in range(1, 7):
        basis = ic_basis(n)
        assert all(len(word) == n for word, _ in basis)
        # independent rows: with ic_flag_rank == word_rank below, a basis
        assert word_rank(word for word, _ in basis) == len(basis)
        for word, row in basis:
            lattice = from_word(word)
            fv = FlagVector(n, tuple(row))
            assert fv == flag_vector(lattice), word
            # the dual's flag numbers are these with dimension d read as n-1-d
            assert FlagVector(n, reversed_entries(fv)) == flag_vector(dual(lattice)), word


def test_word_flag_vectors_of_cube_and_simplex_are_the_closed_forms():
    cube = simplex = [1]
    for n in range(1, 11):
        table = facelattice._split_table(n)
        simplex = facelattice._steps(table, simplex)[0]  # pyramid: C^n
        cube = facelattice._steps(table, cube)[1]  # prism: I^n
        for mask in range(1 << n):
            s = members(mask, n)
            if not s:
                assert cube[mask] == simplex[mask] == 1
                continue
            # cube: a face of dimension b of the b-cube has comb(b, a) 2^(b-a) faces of dimension a
            assert cube[mask] == comb(n, s[-1]) * 2 ** (n - s[-1]) * prod(
                comb(b, a) * 2 ** (b - a) for a, b in zip(s, s[1:])), (n, s)
            # simplex: nested vertex sets of sizes s_1+1 < ... < s_k+1 out of n+1
            sizes = [0] + [d + 1 for d in s] + [n + 1]
            assert simplex[mask] == factorial(n + 1) // prod(
                factorial(b - a) for a, b in zip(sizes, sizes[1:])), (n, s)


def test_word_flag_vectors_span_fibonacci_many_dimensions():
    for n in range(1, 7):
        assert ic_flag_rank(n) == word_rank(ic_words(n)), n
    assert [ic_flag_rank(n) for n in range(1, 11)] == [fibonacci(n + 1) for n in range(1, 11)]
    assert [fibonacci(n + 1) for n in range(1, 11)] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    with pytest.raises(DomainError, match="n >= 1"):
        ic_flag_rank(0)
    with pytest.raises(DomainError, match="n >= 1"):
        ic_basis(-1)


@pytest.mark.parametrize("entries, match", [
    ({"": 1, "0": 2, "0,0": 3}, "repeats a member"),
    ({"": 1, "0,0": 2}, "repeats a member"),
])
def test_flag_vector_json_rejects_a_repeated_member(entries, match):
    with pytest.raises(ValidationError, match=match):
        FlagVector.from_json({"dim": 1, "entries": entries})


def test_flag_vector_json_rejects_two_spellings_of_one_subset():
    entries = {"": 1, "0": 4, "1": 4, "0,1": 8, "1,0": 8}
    with pytest.raises(ValidationError, match="'0,1' and '1,0' name the same subset"):
        FlagVector.from_json({"dim": 2, "entries": entries})
