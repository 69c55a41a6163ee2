"""Cells of shape (i,0) and (i,1), allowability with w-constraints, rank oracle checks."""
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _closure,
    _lg_allowed,
    _lg_boundary,
    _lg_cone_cells,
    _lg_prism_cells,
    naive_lg_rank,
)
from random_complexes import small_complexes
from strathom.complexes import StratifiedComplex, barycentric_subdivision
from strathom.corpus import by_name, small_members
from strathom.errors import ValidationError
from strathom.lghomology import (
    Cell,
    WSequence,
    _allowed_cells,
    cell_allowed,
    cell_boundary,
    cells_dd_check,
    enumerate_cells,
    lg_ranks,
)


def _single_edge():
    return StratifiedComplex({"u": 1, "v": 1}, [{"u", "v"}])


def _oracle_inputs(k):
    strata = {v: k.label(v) for v in k.vertices}
    maximal = [tuple(sorted(f)) for f in k.maximal]
    return strata, maximal


def _oracle_form(cell):
    """The oracle's spelling of a cell: ("cone", apex, base) or
    ("prism", apex0, base0, apex1, base1)."""
    maps = cell.maps()
    if cell.j == 0:
        return ("cone", maps[0][0], maps[0][1:])
    return ("prism", maps[0][0], maps[0][1:], maps[1][0], maps[1][1:])


# ------------------------------------------------------------------ cells


def test_cell_degeneracy_rules():
    assert not Cell.from_maps(("a", "u", "v")).degenerate
    assert Cell.from_maps(("a", "u", "u")).degenerate
    assert not Cell.from_maps(("u", "u")).degenerate
    assert Cell.from_maps(("a", "u"), ("a", "u")).degenerate
    assert Cell.from_maps(("a", "u", "v"), ("b", "u", "v")).degenerate is False
    # Same column at two slots collapses the sweep.
    assert Cell.from_maps(("a", "u", "u"), ("b", "v", "v")).degenerate
    with pytest.raises(ValidationError, match="base length"):
        Cell.from_maps(("a", "u"), ("b", "u", "v"))


def test_cell_shape_and_maps():
    cell = Cell.from_maps(("a", "u", "x"), ("b", "v", "y"))
    assert (cell.i, cell.j) == (1, 1)
    assert cell.maps() == (("a", "u", "x"), ("b", "v", "y"))
    assert str(cell) == "(a; u,x -> b; v,y)"
    assert str(Cell.from_maps(("a", "u", "v"))) == "(a; u,v)"


def test_enumerate_cells_on_an_edge():
    edge = _single_edge()
    cones = enumerate_cells(edge, 0, 0)
    assert len(cones) == 4
    assert {c.images for c in cones} == {
        ("u", "u"), ("v", "v"), ("u", "v"), ("v", "u")}
    prisms = enumerate_cells(edge, 0, 1)
    assert len(prisms) == 12


def test_enumerate_cells_degenerate_base_excluded():
    vertex = StratifiedComplex({"u": 0}, [{"u"}])
    assert enumerate_cells(vertex, 1, 0) == []


def test_enumerate_cells_validation():
    edge = _single_edge()
    with pytest.raises(ValidationError, match=">= 0"):
        enumerate_cells(edge, -1, 0)
    with pytest.raises(ValidationError, match="needs j in"):
        enumerate_cells(edge, 0, 2)


def test_enumerate_cells_matches_oracle_enumerators():
    # Sorted-column cells, each once, exactly those the oracle spells out
    # from the definitions.
    oracle = {0: _lg_cone_cells, 1: _lg_prism_cells}
    for entry, k in small_members():
        simplices = sorted(_closure(k.maximal))
        for i in (0, 1, 2):
            for j in (0, 1):
                cells = [_oracle_form(c) for c in enumerate_cells(k, i, j)]
                assert len(cells) == len(set(cells)), (entry.name, i, j)
                assert set(cells) == set(oracle[j](simplices, i)), (entry.name, i, j)


def test_template_cells_are_the_specified_cells():
    # The cells lg_ranks reduces, and their boundaries, are those that
    # enumerate_cells, cell_allowed and cell_boundary define one by one.
    for entry, base in small_members():
        for k in (base, barycentric_subdivision(base)):
            counts = {}
            for i in (0, 1, 2):
                for j in (0, 1):
                    cells = enumerate_cells(k, i, j)
                    # cells allowed at a larger w are allowed at w = 0, so
                    # every boundary in use is compared at w = 0
                    for w1 in range(k.dim + 1):
                        w = WSequence((w1,))
                        spec = [c for c in cells if cell_allowed(k, c, w)]
                        got = list(_allowed_cells(k, i, j, w1))
                        assert [(j, pick(simplex)) for simplex, pick, _ in got] == \
                            [(c.j, c.images) for c in spec], (entry.name, i, j, w1)
                        for c, (simplex, _, terms) in zip(spec, got) if w1 == 0 else ():
                            assert {(cj, cpick(simplex)): coef for cj, cpick, coef in terms} == \
                                {(child.j, child.images): coef
                                 for child, coef in cell_boundary(c).items()}
                        counts[i, j, w1] = len(spec)
            for w1 in range(k.dim + 1):
                assert list(lg_ranks(k, 0, (w1,)).cells.values()) == [
                    counts[0, 0, w1], counts[1, 0, w1], counts[0, 1, w1]]


def test_cell_boundary_is_the_oracle_boundary_resigned():
    # The oracle keeps the old sign rule; a cell of shape (i, j) here is
    # (-1)^i times the oracle's cell, so each coefficient picks up
    # (-1)^(i + i') for a facet of base dimension i'.
    for name in ("cone_hexagon", "susp_hexagon"):
        k = by_name(name)
        for i in (0, 1, 2):
            for j in (0, 1):
                for cell in enumerate_cells(k, i, j):
                    got = {_oracle_form(child): coef * (-1) ** (i + child.i)
                           for child, coef in cell_boundary(cell).items()}
                    assert got == _lg_boundary(_oracle_form(cell)), (name, str(cell))


def test_cone_boundary_alternates_over_base_deletions():
    got = cell_boundary(Cell.from_maps(("a", "u0", "u1")))
    assert list(got.items()) == [(Cell.from_maps(("a", "u1")), -1),
                                 (Cell.from_maps(("a", "u0")), 1)]
    assert cell_boundary(Cell.from_maps(("a", "u"))) == {}
    assert cell_boundary(Cell.from_maps(("a", "u", "u"))) == {}


def test_prism_boundary_over_base_dim_zero():
    got = cell_boundary(Cell.from_maps(("a", "u"), ("b", "v")))
    assert list(got.items()) == [(Cell.from_maps(("b", "v")), 1),
                                 (Cell.from_maps(("a", "u")), -1)]


def test_prism_boundary_drops_degenerate_summands():
    # Deleting the distinguishing column leaves an equal-ends prism.
    cell = Cell.from_maps(("a", "u", "x"), ("a", "u", "y"))
    reps = set(cell_boundary(cell))
    assert Cell.from_maps(("a", "u"), ("a", "u")) not in reps
    assert Cell.from_maps(("a", "x"), ("a", "y")) in reps


def test_boundary_sorts_columns_with_the_permutation_sign():
    # An end map with unsorted base is its sorted twin times the sign of
    # the sort; two facets landing on one cell add up.
    cell = Cell.from_maps(("a", "u", "v"), ("a", "v", "u"))
    assert cell_boundary(cell)[Cell.from_maps(("a", "u", "v"))] == -2
    swapped = Cell.from_maps(("a", "v", "u"))
    assert cell_boundary(swapped) == {
        child: -coef for child, coef in cell_boundary(Cell.from_maps(("a", "u", "v"))).items()}


# ------------------------------------------------------------ allowability


def test_cell_allowed_desk_cases():
    ch = by_name("cone_hexagon")
    rim = cell_allowed(ch, Cell.from_maps(("apex", "v0", "v1")), WSequence((0,)))
    assert rim.allowed and rim.perversity_ok and rim.w_ok
    assert rim.w1 == 0
    deep_base = cell_allowed(ch, Cell.from_maps(("v1", "apex", "v0")), WSequence((0,)))
    assert not deep_base.allowed and not deep_base.perversity_ok
    high_apex = cell_allowed(ch, Cell.from_maps(("v0", "v1", "v2")), WSequence((1,)))
    assert high_apex.allowed and high_apex.w1 == 2
    low_apex = cell_allowed(ch, Cell.from_maps(("apex", "v0", "v1")), WSequence((1,)))
    assert not low_apex.allowed and low_apex.perversity_ok and not low_apex.w_ok
    assert low_apex.w1 == 0


def test_w_sequence_validation():
    with pytest.raises(ValidationError, match="at least one"):
        WSequence(())
    with pytest.raises(ValidationError, match=">= 0"):
        WSequence((-1,))
    with pytest.raises(ValidationError, match="single w entry"):
        cell_allowed(by_name("cone_hexagon"), Cell.from_maps(("apex", "v0")),
                     WSequence((0, 0)))


def test_w_raises_the_apex_floor_monotonically():
    # Cells allowed at a larger w form a subset of those allowed at a
    # smaller one; the rank itself is not monotone and is not asserted.
    ch = by_name("cone_hexagon")
    for i in (0, 1):
        for j in (0, 1):
            cells = enumerate_cells(ch, i, j)
            allowed = {w1: {c for c in cells if cell_allowed(ch, c, WSequence((w1,)))}
                       for w1 in (0, 1, 2)}
            assert allowed[2] <= allowed[1] <= allowed[0]


# ------------------------------------------------------------------ ranks


def test_lg_ranks_desk_values():
    ch = by_name("cone_hexagon")
    rep0 = lg_ranks(ch, 0, (0,))
    assert rep0.rank == 1
    assert rep0.cells == {"(0,0)": 24, "(1,0)": 18, "(0,1)": 168}
    rep1 = lg_ranks(ch, 1, (0,))
    assert rep1.rank == 0
    assert rep1.cells == {"(1,0)": 18, "(2,0)": 18, "(1,1)": 1314}


@pytest.mark.parametrize("name, i, w1, expected", [
    ("cone_hexagon", 0, 0, 1),
    ("cone_hexagon", 1, 0, 0),
    ("cone_hexagon", 0, 1, 1),
    ("cone_hexagon", 0, 2, 1),
    ("cone_square", 0, 0, 1),
    ("circle6", 0, 0, 1),
    ("circle6", 1, 0, 0),
    ("susp_hexagon", 0, 0, 1),
])
def test_lg_ranks_match_brute_force_oracle(name, i, w1, expected):
    k = by_name(name)
    live = lg_ranks(k, i, (w1,)).rank
    strata, maximal = _oracle_inputs(k)
    assert live == naive_lg_rank(strata, maximal, k.perversity, i, w1) == expected


@settings(deadline=None, max_examples=25)
@given(small_complexes(), st.data())
def test_lg_ranks_match_the_oracle_on_random_complexes(k, data):
    # The cell counts pin the allowability down as well: on small
    # complexes the rank alone rarely depends on it.
    strata, maximal = _oracle_inputs(k)
    simplices = sorted(_closure(maximal))
    w1 = data.draw(st.integers(min_value=0, max_value=k.dim))

    def allowed(cells):
        return sum(1 for c in cells if _lg_allowed(c, strata, k.dim, k.perversity, w1))

    for i in (0, 1) if k.dim <= 1 else (0,):
        report = lg_ranks(k, i, (w1,))
        assert report.rank == naive_lg_rank(strata, maximal, k.perversity, i, w1)
        assert list(report.cells.values()) == [
            allowed(_lg_cone_cells(simplices, i)), allowed(_lg_cone_cells(simplices, i + 1)),
            allowed(_lg_prism_cells(simplices, i))]


def test_lg_ranks_validation_and_empty_complex():
    ch = by_name("cone_hexagon")
    with pytest.raises(ValidationError, match="order-one"):
        lg_ranks(ch, 0, (0, 0))
    with pytest.raises(ValidationError, match=">= 0"):
        lg_ranks(ch, -1, (0,))
    with pytest.raises(ValidationError, match="w_1 must lie"):
        lg_ranks(ch, 0, (3,))
    empty = StratifiedComplex({}, [])
    assert lg_ranks(empty, 0, (0,)).rank == 0
    assert lg_ranks(empty, 2, (0,)).rank == 0


def test_lg_ranks_independent_of_stratification():
    # Ranks agree between the stratified labeling and the trivial one.
    for name in ("cone_hexagon", "cone_square", "susp_hexagon", "circle6"):
        k = by_name(name)
        flat = k.with_strata(max(k.dim, 0))
        for i in (0, 1):
            assert lg_ranks(k, i, (0,)).rank == lg_ranks(flat, i, (0,)).rank, (name, i)


def test_lg_ranks_stable_under_barycentric_subdivision():
    ch = by_name("cone_hexagon")
    sd = barycentric_subdivision(ch)
    assert lg_ranks(sd, 0, (0,)).rank == lg_ranks(ch, 0, (0,)).rank == 1
    assert lg_ranks(sd, 1, (0,)).rank == lg_ranks(ch, 1, (0,)).rank == 0


def test_double_boundary_vanishes_on_corpus_cells():
    for entry, k in small_members():
        assert cells_dd_check(k), entry.name
