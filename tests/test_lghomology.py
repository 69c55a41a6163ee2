"""Cells of shape (i,0) and (i,1), allowability with the apex floor, rank oracle checks."""
import gc
import sys
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _closure,
    _lg_allowed,
    _lg_boundary,
    _lg_cone_cells,
    _lg_prism_cells,
    lg_closure_basis,
    naive_lg_rank,
    sparse_lg_rank,
)
from random_complexes import small_complexes
from strathom import lghomology
from strathom.complexes import Perversity, StratifiedComplex, barycentric_subdivision, cone
from strathom.corpus import by_name, small_members, torus7
from strathom.errors import ValidationError
from strathom.exactla import ColumnReduction
from strathom.lghomology import (
    _Table,
    _canonical,
    _sizes,
    _templates,
    cell_allowed,
    cell_boundary,
    enumerate_cells,
    lg_ranks,
)


def _single_edge():
    return StratifiedComplex({"u": 1, "v": 1}, [{"u", "v"}])


def _oracle_inputs(k):
    strata = {v: k.strata[v] for v in k.vertices}
    maximal = [tuple(k.vertices[v] for v in f) for f in k.maximal]
    return strata, maximal


def _cell(*maps):
    """The cell (j, images) sweeping over the given cone maps, (apex, base...) each."""
    return len(maps) - 1, tuple(chain(*maps))


def _named(k, cell):
    """The cell (j, images) of k with each vertex number replaced by its name."""
    j, images = cell
    return j, tuple(k.vertices[v] for v in images)


def _numbered(k, cell):
    """The cell (j, images) of k with each vertex name replaced by its number."""
    j, images = cell
    return j, tuple(k.vertices.index(v) for v in images)


def _base_dim(cell):
    j, images = cell
    return len(images) // (j + 1) - 2


def _oracle_form(cell):
    """The oracle's spelling of a cell: ("cone", apex, base) or
    ("prism", apex0, base0, apex1, base1)."""
    j, images = cell
    if j == 0:
        return ("cone", images[0], images[1:])
    w = len(images) // 2
    return ("prism", images[0], images[1:w], images[w], images[w + 1:])


# ------------------------------------------------------------------ cells


def test_cell_degeneracy_rules():
    def degenerate(*maps):
        return _canonical(*_cell(*maps))[0] == 0

    assert not degenerate(("a", "u", "v"))
    assert degenerate(("a", "u", "u"))
    assert not degenerate(("u", "u"))
    assert degenerate(("a", "u"), ("a", "u"))
    assert not degenerate(("a", "u", "v"), ("b", "u", "v"))
    # Same column at two slots collapses the sweep.
    assert degenerate(("a", "u", "u"), ("b", "v", "v"))


def test_enumerate_cells_on_an_edge():
    edge = _single_edge()
    cones = enumerate_cells(edge, 0, 0)
    assert len(cones) == 4
    assert {_named(edge, c)[1] for c in cones} == {
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
        simplices = sorted(_closure(_oracle_inputs(k)[1]))
        for i in (0, 1, 2):
            for j in (0, 1):
                cells = [_oracle_form(_named(k, c)) for c in enumerate_cells(k, i, j)]
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
                        spec = [c for c in cells if cell_allowed(k, c, w1)]
                        table = _Table(k, i, j, w1)
                        got = [(simplex, t) for simplex, labels in table.cells()
                               for t in table[labels]]
                        assert [(j, t.pick(simplex)) for simplex, t in got] == spec, \
                            (entry.name, i, j, w1)
                        for c, (simplex, t) in zip(spec, got) if w1 == 0 else ():
                            assert [(cpick(simplex), coef) for cpick, coef in t.terms] == \
                                [(images, coef) for (_, images), coef in cell_boundary(c).items()]
                        counts[i, j, w1] = len(spec)
            for w1 in range(k.dim + 1):
                assert list(lg_ranks(k, 0, w1).cells.values()) == [
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
                    got = {_oracle_form(_named(k, child)): coef * (-1) ** (i + _base_dim(child))
                           for child, coef in cell_boundary(cell).items()}
                    assert got == _lg_boundary(_oracle_form(_named(k, cell))), (name, cell)


def test_cone_boundary_alternates_over_base_deletions():
    got = cell_boundary(_cell(("a", "u0", "u1")))
    assert list(got.items()) == [(_cell(("a", "u1")), -1),
                                 (_cell(("a", "u0")), 1)]
    assert cell_boundary(_cell(("a", "u"))) == {}
    assert cell_boundary(_cell(("a", "u", "u"))) == {}


def test_prism_boundary_over_base_dim_zero():
    got = cell_boundary(_cell(("a", "u"), ("b", "v")))
    assert list(got.items()) == [(_cell(("b", "v")), 1),
                                 (_cell(("a", "u")), -1)]


def test_prism_boundary_drops_degenerate_summands():
    # Deleting the distinguishing column leaves an equal-ends prism.
    cell = _cell(("a", "u", "x"), ("a", "u", "y"))
    reps = set(cell_boundary(cell))
    assert _cell(("a", "u"), ("a", "u")) not in reps
    assert _cell(("a", "x"), ("a", "y")) in reps


def test_boundary_sorts_columns_with_the_permutation_sign():
    # An end map with unsorted base is its sorted twin times the sign of
    # the sort; two facets landing on one cell add up.
    cell = _cell(("a", "u", "v"), ("a", "v", "u"))
    assert cell_boundary(cell)[_cell(("a", "u", "v"))] == -2
    swapped = _cell(("a", "v", "u"))
    assert cell_boundary(swapped) == {
        child: -coef for child, coef in cell_boundary(_cell(("a", "u", "v"))).items()}


def test_degree_zero_boundaries_sum_to_zero_over_the_point_cells():
    # The premise of the exit at i = 0 in lg_ranks: a (0,0) cell has an
    # empty boundary, and a (1,0) or (0,1) cell has +x - y on the (0,0)
    # cells, so every boundary column sums to zero over them.  Templates
    # stand for every cell, since renaming commutes with the boundary.
    for s in range(1, 5):
        for t in _templates(0, 0, s):
            assert cell_boundary(t.cell) == {}, t.cell
        for i, j in ((1, 0), (0, 1)):
            for t in _templates(i, j, s):
                on_points = sorted(coef for child, coef in cell_boundary(t.cell).items()
                                   if child[0] == 0 and _base_dim(child) == 0)
                assert on_points == [-1, 1], t.cell
    assert [len(_templates(0, 0, s)) for s in (1, 2)] == [1, 2]


# ------------------------------------------------------------ allowability


def test_cell_allowed_desk_cases():
    # a cell passes the perversity part exactly when it is allowed at w1 = 0,
    # and its apex stratum is the largest w1 at which it is allowed
    ch = by_name("cone_hexagon")
    rim = _numbered(ch, _cell(("apex", "v0", "v1")))
    assert cell_allowed(ch, rim, 0) is True
    assert cell_allowed(ch, rim, 1) is False
    deep_base = _numbered(ch, _cell(("v1", "apex", "v0")))
    assert cell_allowed(ch, deep_base, 0) is False
    high_apex = _numbered(ch, _cell(("v0", "v1", "v2")))
    assert cell_allowed(ch, high_apex, 2) and not cell_allowed(ch, high_apex, 3)


def test_each_picked_label_tuple_is_judged_once_per_call(monkeypatch):
    # Within one table the verdict of a template reads only the labels it
    # picks, and each distinct picked tuple is judged once;
    # nothing outlives the call, so two identical lg_ranks calls judge as
    # many tuples each.
    k = barycentric_subdivision(by_name("susp_hexagon"))
    judged = []
    verdict = lghomology._label_verdict

    def counted(labels, *args):
        judged.append(labels)
        return verdict(labels, *args)

    monkeypatch.setattr(lghomology, "_label_verdict", counted)
    for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)):
        picked = {t.pick(tuple(k.labels[v] for v in simplex))
                  for s in _sizes(k, i, j) for t in _templates(i, j, s)
                  for simplex in k.simplices_of_dim(s - 1)}
        for w1 in range(k.dim + 1):
            judged.clear()
            table = _Table(k, i, j, w1)
            for _, labels in table.cells():
                table[labels]
            assert sorted(judged) == sorted(picked), (i, j, w1)
    judged.clear()
    first = lg_ranks(k, 1, 0)
    calls = len(judged)
    judged.clear()
    assert lg_ranks(k, 1, 0) == first
    assert len(judged) == calls > 0


def test_w_sequence_validation():
    # the apex floor is checked first, before the base dimension and even
    # on the empty complex
    for k in (by_name("cone_hexagon"), StratifiedComplex({}, [])):
        for i in (-1, 0):
            with pytest.raises(ValidationError, match="w-sequence entries must be integers >= 0"):
                lg_ranks(k, i, -1)


def test_w_raises_the_apex_floor_monotonically():
    # Cells allowed at a larger w form a subset of those allowed at a
    # smaller one; the rank itself is not monotone and is not asserted.
    ch = by_name("cone_hexagon")
    for i in (0, 1):
        for j in (0, 1):
            cells = enumerate_cells(ch, i, j)
            allowed = {w1: {c for c in cells if cell_allowed(ch, c, w1)}
                       for w1 in (0, 1, 2)}
            assert allowed[2] <= allowed[1] <= allowed[0]


# The cone over torus7 (torus labels 3, apex 0) is the smallest tested
# complex whose lg rank depends on both w and the perversity.  Its values
# and those of susp_torus7 were checked once against the oracle's cells and
# ranks, which take about a minute per case.  Cells of w = 1..3 agree, as
# no label lies in 1..2.
_CONE_TORUS_CELLS = ({"(1,0)": 105, "(2,0)": 56, "(1,1)": 6825},
                     {"(1,0)": 84, "(2,0)": 42, "(1,1)": 6468})
_CONE_TORUS_UPPER_CELLS = ({"(1,0)": 105, "(2,0)": 161, "(1,1)": 17241},
                           {"(1,0)": 84, "(2,0)": 126, "(1,1)": 16401})
_SUSP_TORUS_CELLS = ({"(1,0)": 126, "(2,0)": 70, "(1,1)": 9702},
                     {"(1,0)": 84, "(2,0)": 42, "(1,1)": 8988})


@pytest.mark.parametrize("build, ranks, cells", [
    pytest.param(lambda: cone(torus7(3)), (2, 0, 0, 0), _CONE_TORUS_CELLS,
                 id="cone_torus7-middle"),
    pytest.param(lambda: cone(torus7(3)).with_perversity(Perversity((0, 1))), (0, 0, 0, 0),
                 _CONE_TORUS_UPPER_CELLS, id="cone_torus7-upper"),
    pytest.param(lambda: by_name("susp_torus7"), (4, 0, 0, 0), _SUSP_TORUS_CELLS,
                 id="susp_torus7"),
])
def test_allowed_cells_pinned_at_every_w(build, ranks, cells):
    # The cell counts pin the allowed set, which the ranks alone barely see.
    k = build()
    got = [lg_ranks(k, 1, w1) for w1 in range(4)]
    assert [r.rank for r in got] == list(ranks)
    assert [r.cells for r in got] == [cells[0], cells[1], cells[1], cells[1]]


@pytest.mark.parametrize("build, w1, rank", [
    pytest.param(lambda: cone(torus7(3)), w1, rank, id=f"cone_torus7-middle-{w1}")
    for w1, rank in enumerate((2, 0, 0, 0))
] + [
    pytest.param(lambda: cone(torus7(3)).with_perversity(Perversity((0, 1))), 0, 0,
                 id="cone_torus7-upper-0"),
] + [
    pytest.param(lambda: by_name("susp_torus7"), w1, rank, id=f"susp_torus7-{w1}")
    for w1, rank in ((0, 4), (1, 0), (3, 0))
] + [
    pytest.param(lambda: by_name("susp_torus7").with_strata(3), 0, 0, id="susp_torus7-flat-0"),
])
def test_pinned_ranks_match_the_sparse_oracle(build, w1, rank):
    # Eight of the twelve pinned (complex, w) cases at i = 1, and susp_torus7
    # under the trivial stratification.  The other four agree too; they
    # would add about 4 s.
    k = build()
    strata, maximal = _oracle_inputs(k)
    assert lg_ranks(k, 1, w1).rank == sparse_lg_rank(strata, maximal, k.perversity, 1, w1) == rank


# ------------------------------------------------------------------ ranks


def test_lg_ranks_desk_values():
    ch = by_name("cone_hexagon")
    rep0 = lg_ranks(ch, 0, 0)
    assert rep0.rank == 1
    assert rep0.cells == {"(0,0)": 24, "(1,0)": 18, "(0,1)": 168}
    rep1 = lg_ranks(ch, 1, 0)
    assert rep1.rank == 0
    assert rep1.cells == {"(1,0)": 18, "(2,0)": 18, "(1,1)": 1314}


def test_lg_ranks_pinned_on_subdivided_susp_torus7():
    # Here most relations among a simplex's cells reach its faces: at i = 1
    # the closure bases cut the columns fed, local reductions included,
    # from 228,380 to 70,854.  Both ranks agree with sparse_lg_rank (about
    # 30 s at i = 1).
    sd = barycentric_subdivision(by_name("susp_torus7"))
    assert lg_ranks(sd, 0, 0) == (1, {"(0,0)": 1638, "(1,0)": 4956, "(0,1)": 65688}, 1638, 1637)
    assert lg_ranks(sd, 1, 0) == (4, {"(1,0)": 4956, "(2,0)": 5460, "(1,1)": 709212}, 3446, 3442)


@pytest.mark.parametrize("name, i, w1, expected", [
    ("cone_hexagon", 0, 0, 1),
    ("cone_hexagon", 1, 0, 0),
    ("cone_hexagon", 0, 1, 1),
    ("cone_hexagon", 0, 2, 1),
    ("cone_square", 0, 0, 1),
    ("circle6", 0, 0, 1),
    ("circle6", 1, 0, 0),
    ("susp_hexagon", 0, 0, 1),
    # a rank above 1 at i = 0, so an exit cutting B below dim Z - 1 fails
    ("two_circles", 0, 0, 2),
])
def test_lg_ranks_match_brute_force_oracle(name, i, w1, expected):
    k = by_name(name)
    live = lg_ranks(k, i, w1).rank
    strata, maximal = _oracle_inputs(k)
    assert live == naive_lg_rank(strata, maximal, k.perversity, i, w1) == expected
    assert sparse_lg_rank(strata, maximal, k.perversity, i, w1) == expected


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

    for i in (0, 1) if k.dim <= 2 else (0,):
        report = lg_ranks(k, i, w1)
        assert report.rank == naive_lg_rank(strata, maximal, k.perversity, i, w1) == \
            sparse_lg_rank(strata, maximal, k.perversity, i, w1)
        assert list(report.cells.values()) == [
            allowed(_lg_cone_cells(simplices, i)), allowed(_lg_cone_cells(simplices, i + 1)),
            allowed(_lg_prism_cells(simplices, i))]


@settings(deadline=None, max_examples=25)
@given(small_complexes(), st.data())
def test_degree_zero_rank_is_positive_exactly_when_a_point_cell_is_allowed(k, data):
    # B at i = 0 lies in the kernel of the sum of coefficients on Z, so the
    # rank is at least 1 once Z is not zero; the oracle knows nothing of it.
    strata, maximal = _oracle_inputs(k)
    w1 = data.draw(st.integers(min_value=0, max_value=k.dim))
    points = any(_lg_allowed(c, strata, k.dim, k.perversity, w1)
                 for c in _lg_cone_cells(sorted(_closure(maximal)), 0))
    rank = sparse_lg_rank(strata, maximal, k.perversity, 0, w1)
    assert (rank >= 1) == points
    assert lg_ranks(k, 0, w1).rank == rank


def test_boundary_columns_stop_once_they_span_the_cycles(monkeypatch):
    # At i = 1 the group vanishes and B spans Z within the (2,0) columns,
    # so no (1,1) prism is fed.  At i = 0 the group has rank 1, and feeding
    # stops once B reaches dim Z - 1, so fewer columns are fed than the
    # local bases hold and some (0,1) prism templates are counted but
    # never compiled.  Only the columns fed to the two global reductions
    # are counted, not those of the local bases' reductions.  The local
    # bases hold 0 (0,0), 108 (1,0) and 60 (0,1) columns in all.
    sd = barycentric_subdivision(by_name("cone_hexagon"))
    tables = [_Table(sd, i, j, 0) for i, j in ((0, 0), (1, 0), (0, 1))]
    bases = sum(len(table.basis(labels)) for table in tables for _, labels in table.cells())
    prisms = len({id(t) for _, labels in tables[2].cells() for t in tables[2][labels]})
    calls = 0
    add_column = ColumnReduction.add_column
    compiled = Counter()
    boundary = lghomology.cell_boundary

    def counted(self, col):
        nonlocal calls
        calls += sys._getframe(1).f_code.co_name == "lg_ranks"
        return add_column(self, col)

    def counted_boundary(cell):
        compiled[_base_dim(cell), cell[0]] += 1
        return boundary(cell)

    monkeypatch.setattr(ColumnReduction, "add_column", counted)
    vanishing = lg_ranks(sd, 1, 0)
    assert vanishing.rank == 0
    assert vanishing.cells == {"(1,0)": 180, "(2,0)": 108, "(1,1)": 9396}
    assert 0 < calls <= vanishing.cells["(1,0)"] + vanishing.cells["(2,0)"]
    calls = 0
    monkeypatch.setattr(lghomology, "cell_boundary", counted_boundary)
    nonzero = lg_ranks(sd, 0, 0)
    assert nonzero.rank == 1
    assert nonzero.cells == {"(0,0)": 132, "(1,0)": 180, "(0,1)": 1632}
    assert (nonzero.cycles, nonzero.boundaries) == (132, 131)
    assert 0 < calls < bases == 168
    assert 0 < compiled[0, 1] < prisms


def test_an_empty_kept_list_is_its_own_basis_without_a_reduction(monkeypatch):
    # A label vector that keeps no template has nothing to reduce, so its
    # basis feeds no column, not even those of the bases on its faces.
    sd = barycentric_subdivision(by_name("cone_hexagon"))
    basis = _Table.basis
    add_column = ColumnReduction.add_column
    asked_empty = 0
    fed = []

    def asked(self, labels):
        nonlocal asked_empty
        asked_empty += not self[labels]
        return basis(self, labels)

    def counted(self, col):
        frame = sys._getframe(1)
        if frame.f_code is basis.__code__:
            fed.append(frame.f_locals["self"][frame.f_locals["labels"]])
        return add_column(self, col)

    monkeypatch.setattr(_Table, "basis", asked)
    monkeypatch.setattr(ColumnReduction, "add_column", counted)
    for i in (0, 1):
        for w1 in range(sd.dim + 1):
            lg_ranks(sd, i, w1)
    assert asked_empty > 0 and fed
    assert all(fed)


def test_lg_ranks_leaves_no_reference_cycles():
    # A call's tables, kept lists, bases and caches refer to no table, so
    # everything a call builds is freed by reference count; cli.main pauses
    # the cyclic collector for the work, so cycles would wait for it.
    sd = barycentric_subdivision(by_name("cone_square"))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in (0, 1):
            for w1 in range(sd.dim + 1):
                lg_ranks(sd, i, w1)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_childs_length_fixes_its_j_within_one_row_map():
    # The row maps key a cell by its images alone.  One row map holds the
    # boundary children of one shape's templates and, for a prism shape
    # (i, 1), those of the (i+1,0) templates it reduces against and the
    # (i,0) cells that lg_ranks numbers first; no images may stand for two
    # cells of different j among them.
    for i in range(4):
        for j in (0, 1):
            seen = {}
            for s in range(1, 5):
                for shape in ((i, j), (i + 1, 0)) if j else ((i, j),):
                    for t in _templates(*shape, s):
                        for cj, images in cell_boundary(t.cell):
                            seen.setdefault(images, set()).add(cj)
                for t in _templates(i, 0, s) if j else ():
                    seen.setdefault(t.cell[1], set()).add(0)
            assert all(len(js) == 1 for js in seen.values()), (i, j)


def test_prisms_past_the_exit_are_counted_but_never_compiled(monkeypatch):
    # At i = 1 on sd(cone_square) B spans Z within the (2,0) columns, so the
    # (1,1) prisms are only counted and none of their boundaries is built.
    sd = barycentric_subdivision(by_name("cone_square"))
    compiled = Counter()
    boundary = lghomology.cell_boundary

    def counted(cell):
        compiled[_base_dim(cell), cell[0]] += 1
        return boundary(cell)

    monkeypatch.setattr(lghomology, "cell_boundary", counted)
    report = lg_ranks(sd, 1, 0)
    assert compiled[1, 1] == 0 and compiled[1, 0] > 0
    assert (report.rank, report.cycles) == (0, 49)
    assert report.cells == {"(1,0)": 120, "(2,0)": 72, "(1,1)": 6264}


def test_each_simplex_feeds_a_basis_of_its_allowed_boundaries():
    # For every shape lg_ranks feeds at i <= 1, a simplex feeds exactly the
    # allowed cells whose oracle boundary is independent of those of the
    # allowed cells of the closed simplex fed before it: so they are a
    # basis of its columns relative to its faces, picked in template order.
    # Renaming the vertices in order carries the oracle's cells and
    # boundaries of one simplex onto another's, and every simplex with the
    # same labels shares one kept list, so the oracle runs once per
    # sequence of labels.
    oracle = (_lg_cone_cells, _lg_prism_cells)
    for entry, base in small_members():
        for k in (base, barycentric_subdivision(base)):
            strata, _ = _oracle_inputs(k)
            checked = set()
            for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1)):
                for w1 in range(k.dim + 1):
                    table = _Table(k, i, j, w1)
                    for simplex, labels in table.cells():
                        named = tuple(k.vertices[v] for v in simplex)
                        key = i, j, w1, tuple(strata[v] for v in named)
                        if key in checked:
                            continue
                        checked.add(key)
                        cells = [_oracle_form(_named(k, (j, t.pick(simplex))))
                                 for t in table[labels]]
                        fed = [_oracle_form(_named(k, (j, t.pick(simplex))))
                               for t in table.basis(labels)]
                        assert sorted(cells) == [
                            c for c in oracle[j]([named], i)
                            if _lg_allowed(c, strata, k.dim, k.perversity, w1)], (entry.name, key)
                        assert fed == lg_closure_basis(named, (i, j), cells, strata, k.dim,
                                                       k.perversity, w1), (entry.name, key)


def test_lg_report_is_an_immutable_value():
    ch = by_name("cone_hexagon")
    report = lg_ranks(ch, 0, 0)
    assert report == lg_ranks(ch, 0, 0) and report is not lg_ranks(ch, 0, 0)
    assert report != lg_ranks(ch, 0, 1) and report != lg_ranks(ch, 1, 0)
    assert repr(report) == (f"LgReport(rank=1, cells={report.cells!r}, "
                            f"cycles={report.cycles}, boundaries={report.boundaries})")
    with pytest.raises(AttributeError):
        report.rank = 2
    with pytest.raises(AttributeError):
        report.extra = 0


def test_lg_ranks_validation_and_empty_complex():
    ch = by_name("cone_hexagon")
    empty = StratifiedComplex({}, [])
    with pytest.raises(ValidationError, match="base dimension must be >= 0"):
        lg_ranks(ch, -1, 0)
    with pytest.raises(ValidationError, match="w_1 must lie"):
        lg_ranks(ch, 0, 3)
    assert lg_ranks(empty, 0, 0).rank == 0
    assert lg_ranks(empty, 2, 0).rank == 0


def test_lg_ranks_independent_of_stratification():
    """On the four members listed, the ranks at w = 0 agree between the
    stratified labeling and the trivial one.

    This is a fact about these members, not a general property: on
    susp_torus7 at i = 1, w = 0 the stratified rank is 4 and the trivial
    rank is 0, and the sparse oracle gives both values too.
    """
    for name in ("cone_hexagon", "cone_square", "susp_hexagon", "circle6"):
        k = by_name(name)
        flat = k.with_strata(max(k.dim, 0))
        for i in (0, 1):
            assert lg_ranks(k, i, 0).rank == lg_ranks(flat, i, 0).rank, (name, i)


def test_lg_ranks_stable_under_barycentric_subdivision():
    ch = by_name("cone_hexagon")
    sd = barycentric_subdivision(ch)
    assert lg_ranks(sd, 0, 0).rank == lg_ranks(ch, 0, 0).rank == 1
    assert lg_ranks(sd, 1, 0).rank == lg_ranks(ch, 1, 0).rank == 0


@settings(deadline=None, max_examples=25)
@given(small_complexes().filter(lambda k: k.dim <= 2))
def test_lg_ranks_invariant_under_barycentric_subdivision(k):
    sd = barycentric_subdivision(k)
    for i in (0, 1):
        for w1 in range(k.dim + 1):
            assert lg_ranks(sd, i, w1).rank == lg_ranks(k, i, w1).rank, (i, w1)
