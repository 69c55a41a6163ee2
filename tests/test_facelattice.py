"""Lattice construction, flag vectors, duality, serialization."""
from itertools import combinations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from strathom import facelattice
from strathom.errors import DomainError, ValidationError
from strathom.facelattice import (
    FaceLattice,
    FlagVector,
    dual,
    fibonacci,
    flag_rank,
    flag_vector,
    from_simplicial_facets,
    from_word,
    ic_flag_rank,
    ic_flag_vectors,
    ic_lattices,
    ic_words,
    lattice_from_json,
    lattice_to_json,
    parse_word,
    point,
    subset_order,
)

OCTA_FACETS = [
    ("a", "b", "c"), ("a", "b", "f"), ("a", "c", "e"), ("a", "e", "f"),
    ("b", "c", "d"), ("b", "d", "f"), ("c", "d", "e"), ("d", "e", "f"),
]
PENTAGON_FACETS = [("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p4", "p5"), ("p5", "p1")]


def cyclic_facets(n, d):
    """Facets of the cyclic polytope C(n, d) by Gale's evenness condition."""
    out = []
    for facet in combinations(range(n), d):
        gaps = [v for v in range(n) if v not in facet]
        if all(sum(1 for x in facet if i < x < j) % 2 == 0 for i, j in combinations(gaps, 2)):
            out.append(tuple(f"v{x}" for x in facet))
    return out


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
    counts = {frozenset(s): 0 for k in range(n + 1) for s in combinations(range(n), k)}

    def grow(dims, top):
        counts[frozenset(dims)] += 1
        for face in above[top]:
            if dim[face] < n:
                grow(dims + (dim[face],), face)

    grow((), next(i for i in lattice.ids if dim[i] == -1))
    return counts


def reversed_entries(fv):
    """The entries of fv with every subset S replaced by {n-1-s : s in S}."""
    return {frozenset(fv.dim - 1 - s for s in subset): v for subset, v in fv.entries.items()}


def test_parse_word_accepts_ic_only():
    assert parse_word("ICCI") == "ICCI"
    with pytest.raises(DomainError, match="position 2"):
        parse_word("ICxI")


def test_point_lattice():
    p = point()
    assert p.dim == 0 and len(p) == 2
    assert p.face_counts() == ()


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
    assert from_word(word).face_counts() == counts


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


def test_square_flag_vector():
    fv = flag_vector(from_word("II"))
    assert fv.entry(()) == 1
    assert fv.entry({0}) == 4
    assert fv.entry({1}) == 4
    assert fv.entry({0, 1}) == 8


def test_octahedron_flag_vector():
    fv = flag_vector(from_simplicial_facets(OCTA_FACETS))
    want = {(): 1, (0,): 6, (1,): 12, (2,): 8,
            (0, 1): 24, (0, 2): 24, (1, 2): 24, (0, 1, 2): 48}
    assert {tuple(sorted(s)): v for s, v in fv.entries.items()} == want


def test_cube_flag_vector():
    fv = flag_vector(from_word("III"))
    want = {(): 1, (0,): 8, (1,): 12, (2,): 6,
            (0, 1): 24, (0, 2): 24, (1, 2): 24, (0, 1, 2): 48}
    assert {tuple(sorted(s)): v for s, v in fv.entries.items()} == want


def test_dual_is_an_involution_and_swaps_cube_octahedron():
    cube = from_word("III")
    assert flag_vector(dual(dual(cube))).entries == flag_vector(cube).entries
    octa = from_simplicial_facets(OCTA_FACETS)
    assert flag_vector(dual(cube)).entries == flag_vector(octa).entries
    assert from_simplicial_facets(OCTA_FACETS).face_counts() == (6, 12, 8)


def test_flag_rank_small_dimensions():
    got = [flag_rank([l for _, l in ic_lattices(n)]) for n in range(1, 5)]
    assert got == [1, 2, 3, 5]


def test_flag_rank_rejects_mixed_or_empty_input():
    with pytest.raises(DomainError, match="at least one"):
        flag_rank([])
    with pytest.raises(DomainError, match="equal dimensions"):
        flag_rank([from_word("I"), from_word("II")])


def test_ic_lattices_sorted_and_sized():
    pairs = list(ic_lattices(3))
    assert [w for w, _ in pairs] == sorted(w for w, _ in pairs)
    assert len(pairs) == 8
    assert all(l.dim == 3 for _, l in pairs)
    with pytest.raises(DomainError):
        ic_lattices(0)


def test_lattice_json_roundtrip():
    lat = from_simplicial_facets(OCTA_FACETS)
    doc = lattice_to_json(lat)
    back = lattice_from_json(doc)
    assert back.ids == lat.ids and back.dims == lat.dims
    assert back.cover_pairs() == lat.cover_pairs()
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
    partial = {"dim": 2, "entries": {k: v for k, v in doc["entries"].items() if k}}
    with pytest.raises(ValidationError, match="every subset"):
        FlagVector.from_json(partial)
    with pytest.raises(ValidationError, match="outside"):
        FlagVector.from_json({"dim": 1, "entries": {"": 1, "0": 2, "5": 3}})


def test_flag_vector_size_is_checked_before_listing_subsets(monkeypatch):
    def refuse(n):
        raise AssertionError("subset_order must not run while parsing")

    monkeypatch.setattr(facelattice, "subset_order", refuse)
    with pytest.raises(ValidationError, match="every subset"):
        FlagVector.from_json({"dim": 64, "entries": {}})


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
    for s in subset_order(n):
        for j in range(n):
            if j not in s:
                assert fv.entry(s | {j}) >= fv.entry(s)


FIXED_LATTICES = {
    "octahedron": lambda: from_simplicial_facets(OCTA_FACETS),
    "pentagon": lambda: from_simplicial_facets(PENTAGON_FACETS),
    "C(7,4)": lambda: from_simplicial_facets(cyclic_facets(7, 4)),
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
    for subset, value in fv.entries.items():
        s = sorted(subset)
        want = 1
        if s:
            want = comb(n, s[-1]) * 2 ** (n - s[-1]) * prod(
                comb(b, a) * 2 ** (b - a) for a, b in zip(s, s[1:]))
        assert value == want, s
    assert len(fv.entries) == 2 ** n


def test_flag_vector_of_cyclic_12_8_is_the_closed_form():
    facets = cyclic_facets(12, 8)
    fv = flag_vector(from_simplicial_facets(facets))
    f = [len({face for facet in facets for face in combinations(facet, k + 1)})
         for k in range(8)]
    for subset, value in fv.entries.items():
        s = sorted(subset)
        want = 1
        if s:
            want = f[s[-1]] * prod(comb(b + 1, a + 1) for a, b in zip(s, s[1:]))
        assert value == want, s
    assert len(fv.entries) == 2 ** 8


@pytest.mark.parametrize("name", sorted(FIXED_LATTICES))
def test_dual_flag_vector_reverses_the_dimensions(name):
    lattice = FIXED_LATTICES[name]()
    assert flag_vector(dual(lattice)).entries == reversed_entries(flag_vector(lattice))


@settings(deadline=None, max_examples=25)
@given(st.text(alphabet="IC", min_size=1, max_size=6))
def test_dual_flag_vector_reverses_the_dimensions_of_ic_polytopes(word):
    lattice = from_word(word)
    assert flag_vector(dual(lattice)).entries == reversed_entries(flag_vector(lattice))


def test_flag_vector_of_point_and_segment():
    fv = flag_vector(point())
    assert fv.dim == 0 and fv.entries == {frozenset(): 1}
    fv = flag_vector(from_word("I"))
    assert fv.dim == 1 and fv.entries == {frozenset(): 1, frozenset({0}): 2}


def test_word_flag_vectors_equal_the_lattice_flag_vectors():
    for n in range(1, 7):
        words = ic_words(n)
        vectors = ic_flag_vectors(n)
        assert [w for w, _ in vectors] == words
        for word, fv in vectors:
            lattice = from_word(word)
            assert fv == flag_vector(lattice), word
            # the dual's flag numbers are these with dimension d read as n-1-d
            dv = {frozenset(n - 1 - d for d in s): v for s, v in fv.entries.items()}
            assert FlagVector(n, dv) == flag_vector(dual(lattice)), word


def test_word_flag_vectors_of_cube_and_simplex_are_the_closed_forms():
    for n in range(1, 11):
        vectors = dict(ic_flag_vectors(n))
        cube, simplex = vectors["I" * n], vectors["C" * n]
        for subset in subset_order(n):
            s = sorted(subset)
            if not s:
                assert cube.entry(s) == simplex.entry(s) == 1
                continue
            # cube: a face of dimension b of the b-cube has comb(b, a) 2^(b-a) faces of dimension a
            assert cube.entry(s) == comb(n, s[-1]) * 2 ** (n - s[-1]) * prod(
                comb(b, a) * 2 ** (b - a) for a, b in zip(s, s[1:])), (n, s)
            # simplex: nested vertex sets of sizes s_1+1 < ... < s_k+1 out of n+1
            sizes = [0] + [d + 1 for d in s] + [n + 1]
            assert simplex.entry(s) == factorial(n + 1) // prod(
                factorial(b - a) for a, b in zip(sizes, sizes[1:])), (n, s)


def test_word_flag_vectors_span_fibonacci_many_dimensions():
    assert [ic_flag_rank(n) for n in range(1, 9)] == [fibonacci(n + 1) for n in range(1, 9)]
    assert [fibonacci(n + 1) for n in range(1, 9)] == [1, 2, 3, 5, 8, 13, 21, 34]
    with pytest.raises(DomainError, match="n >= 1"):
        ic_flag_rank(0)
    with pytest.raises(DomainError, match="n >= 1"):
        ic_flag_vectors(-1)


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
