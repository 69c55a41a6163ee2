"""Lattice construction, flag vectors, duality, serialization."""
import pytest
from hypothesis import given, settings, strategies as st

from strathom import facelattice
from strathom.errors import DomainError, ValidationError
from strathom.facelattice import (
    FaceLattice,
    FlagVector,
    dual,
    flag_rank,
    flag_vector,
    from_simplicial_facets,
    from_word,
    ic_lattices,
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
    pairs = ic_lattices(3)
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
