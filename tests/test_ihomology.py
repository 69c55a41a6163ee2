"""Intersection homology ranks against independent dense-rank oracles."""
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import OCTA_FACETS, naive_ih_betti, naive_ih_report, naive_ordinary_betti
from random_complexes import every_perversity, small_complexes
from strathom.complexes import (
    Perversity,
    StratifiedComplex,
    allowable_simplex,
    barycentric_subdivision,
    suspension,
)
from strathom.corpus import CORPUS, by_name, torus7
from strathom.exactla import ColumnReduction
from strathom.ihomology import BettiReport, chain_spaces, ih_ranks

EXPECTED_MIDDLE = {
    "single_edge": (1, 0),
    "circle6": (1, 1),
    "hexagon_rim2": (1, 1),
    "sphere2": (1, 0, 1),
    "torus7": (1, 2, 1),
    "two_circles": (2, 2),
    "wedge": (1, 2),
    "cone_hexagon": (1, 0, 0),
    "cone_square": (1, 0, 0),
    "susp_hexagon": (1, 0, 1),
    "susp_torus7": (1, 2, 0, 1),
}


def _oracle_inputs(k):
    strata = {v: k.strata[v] for v in k.vertices}
    maximal = [tuple(k.vertices[v] for v in f) for f in k.maximal]
    return strata, maximal


@pytest.mark.parametrize("name", sorted(EXPECTED_MIDDLE))
def test_middle_perversity_ranks_frozen(name):
    assert ih_ranks(by_name(name)).ranks == EXPECTED_MIDDLE[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_MIDDLE))
def test_middle_perversity_ranks_match_oracle(name):
    k = by_name(name)
    strata, maximal = _oracle_inputs(k)
    assert ih_ranks(k).ranks == naive_ih_betti(strata, maximal, k.perversity)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_trivial_filtration_is_ordinary_homology(entry):
    k = entry()
    flat = k.with_strata(max(k.dim, 0))
    _, maximal = _oracle_inputs(k)
    assert ih_ranks(flat).ranks == naive_ordinary_betti(maximal)


def test_suspended_torus_middle_pair():
    k = by_name("susp_torus7")
    lower = ih_ranks(k)
    assert lower.ranks == (1, 2, 0, 1)
    upper = ih_ranks(k.with_perversity(Perversity((0, 1))))
    assert upper.ranks == (1, 0, 2, 1)
    # The two middles exchange under rank reversal, and the upper one
    # coincides with ordinary homology for this suspension.
    assert tuple(reversed(lower.ranks)) == upper.ranks
    assert upper.ranks == naive_ordinary_betti(_oracle_inputs(k)[1])
    assert lower.ranks != upper.ranks


def test_twice_subdivided_suspended_torus():
    # subdivision invariance on 16,128 facets
    k = barycentric_subdivision(barycentric_subdivision(by_name("susp_torus7")))
    assert len(k.maximal) == 16128 and len(k.simplices) == 70394
    # the top degree fills columns in to 1,506 entries, past the reduction's heap threshold
    rep = ih_ranks(k)
    assert rep.ranks == (1, 2, 0, 1)
    assert rep.cycles == (2940, 15625, 15121, 1)
    assert rep.boundaries == (2939, 15623, 15121, 0)


def test_cycle_and_boundary_counts():
    rep = ih_ranks(by_name("circle6"))
    assert rep.cycles == (6, 1) and rep.boundaries == (5, 0)
    rep = ih_ranks(by_name("susp_torus7"))
    assert rep.cycles == (7, 15, 1, 1)
    assert rep.boundaries == (6, 13, 1, 0)
    assert tuple(z - b for z, b in zip(rep.cycles, rep.boundaries)) == rep.ranks


def test_chain_spaces_drop_disallowed_simplices():
    sizes = [len(s.basis) for s in chain_spaces(by_name("cone_hexagon"))]
    # Apex vertex and the six spoke edges fail allowability; all six
    # triangles pass.
    assert sizes == [6, 6, 6]


def test_empty_complex_has_no_ranks():
    assert ih_ranks(StratifiedComplex({}, [])).ranks == ()


def test_betti_report_rejects_negative_ranks():
    with pytest.raises(AssertionError):
        BettiReport((-1,), (0,), (1,))


@settings(deadline=None, max_examples=25)
@given(st.tuples(*[st.integers(min_value=2, max_value=3) for _ in range(7)]))
def test_labels_at_or_above_top_dimension_are_interchangeable(labels):
    # Any mix of labels >= dim marks the open top stratum, so ranks agree
    # with the all-2 labeling of the same torus.
    k = by_name("torus7")
    relabeled = k.with_strata({v: l for v, l in zip(sorted(k.vertices), labels)})
    assert ih_ranks(relabeled).ranks == (1, 2, 1)


@settings(deadline=None, max_examples=60)
@given(small_complexes())
def test_ih_report_matches_the_oracle_on_random_complexes(k):
    strata, maximal = _oracle_inputs(k)
    rep = ih_ranks(k)
    assert (rep.ranks, rep.cycles, rep.boundaries) == naive_ih_report(strata, maximal, k.perversity)


@settings(deadline=None, max_examples=50)
@given(small_complexes())
def test_ih_ranks_invariant_under_barycentric_subdivision(k):
    # sd(k) stratifies the same space: a new vertex takes the largest label
    # of its simplex, and intersection homology is a topological invariant
    assert ih_ranks(barycentric_subdivision(k)).ranks == ih_ranks(k).ranks


@settings(deadline=None, max_examples=100)
@given(small_complexes().filter(lambda link: link.dim >= 1))
# few random links have homology above degree 0, so the circle, the 2-sphere and
# a circle beside a triangle make both sides of the cut degree count
@example(StratifiedComplex(dict.fromkeys("abc", 1), [["a", "b"], ["b", "c"], ["a", "c"]]))
@example(StratifiedComplex(dict.fromkeys("abcd", 2), map(list, combinations("abcd", 3))))
@example(StratifiedComplex(dict.fromkeys("abcde", 2),
                           [["a", "b"], ["b", "c"], ["a", "c"], ["c", "d", "e"]]))
def test_cone_formula_on_random_links(link):
    # IH_i(cL) = IH_i(L) for i < n - 1 - p(n) and 0 above, for a link L of
    # dimension n - 1 (Goresky-MacPherson 1983); the apex is the point stratum
    n = link.dim + 1
    strata = {v: label + 1 for v, label in link.strata.items()}
    strata["apex"] = 0
    facets = [link.names(f) + ["apex"] for f in link.maximal]
    for p in every_perversity(n):
        link_ranks = ih_ranks(link.with_perversity(Perversity(p.values[:n - 2]))).ranks
        cut = n - 1 - p(n)
        want = tuple(link_ranks[i] if i < cut else 0 for i in range(n + 1))
        assert ih_ranks(StratifiedComplex(strata, facets, p)).ranks == want, p


@pytest.mark.parametrize("build", [
    lambda: by_name("susp_torus7"),
    lambda: by_name("susp_torus7").with_perversity(Perversity((0, 1))),
    lambda: barycentric_subdivision(by_name("cone_hexagon")),
], ids=["susp_torus7-middle", "susp_torus7-upper", "sd-cone_hexagon"])
def test_clearing_skips_every_column_an_upper_pivot_proves_zero(monkeypatch, build):
    # In degree i the allowable i-simplices hit by a degree-(i+1) pivot on
    # an allowable row are exactly boundaries[i] many, and none of them is fed.
    k = build()
    calls = 0
    add_column = ColumnReduction.add_column

    def counted(self, col):
        nonlocal calls
        calls += 1
        return add_column(self, col)

    monkeypatch.setattr(ColumnReduction, "add_column", counted)
    rep = ih_ranks(k)
    sizes = [len(space.basis) for space in chain_spaces(k)]
    assert sum(rep.boundaries[1:]) > 0
    assert calls == sum(sizes[i] - rep.boundaries[i] for i in range(1, k.dim + 1))


@pytest.mark.parametrize("subdivided", [False, True], ids=["plain", "sd"])
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_chain_spaces_keep_exactly_the_allowable_simplices(entry, subdivided):
    k = entry()
    if subdivided:
        k = barycentric_subdivision(k)
    # the middle perversity is one of them
    for perversity in every_perversity(k.dim):
        k = k.with_perversity(perversity)
        spaces = chain_spaces(k)
        assert len(spaces) == k.dim + 1
        for i, space in enumerate(spaces):
            assert space.basis == tuple(f for f in k.simplices_of_dim(i) if allowable_simplex(k, f))


def _manifolds():
    sphere, torus = by_name("sphere2"), by_name("torus7")
    # the 3-sphere, every vertex in the top stratum
    s3 = suspension(sphere.with_strata(3)).with_strata(3)
    return [
        pytest.param(sphere, id="sphere2"),
        pytest.param(torus, id="torus7"),
        pytest.param(barycentric_subdivision(sphere), id="sd-sphere2"),
        pytest.param(barycentric_subdivision(torus), id="sd-torus7"),
        *(pytest.param(s3.with_perversity(p), id="susp_sphere2-p" + "".join(map(str, p.values)))
          for p in every_perversity(3)),
    ]


@pytest.mark.parametrize("k", _manifolds())
def test_a_manifold_vertex_is_a_removable_stratum(k):
    # Labeling one vertex of a manifold as a point stratum leaves the
    # intersection homology unchanged (King, Topology Appl. 1985).
    ranks = ih_ranks(k).ranks
    for v in k.vertices:
        assert ih_ranks(k.with_strata({**k.strata, v: 0})).ranks == ranks, v


_ORIENTABLE_SURFACES = {
    "tetrahedron": [set("abcd") - {v} for v in "abcd"],
    "octahedron": OCTA_FACETS,
    "torus7": [torus7().names(f) for f in torus7().maximal],
}


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(sorted(_ORIENTABLE_SURFACES)), st.integers(min_value=0, max_value=2),
       st.data())
def test_poincare_duality_on_suspended_surfaces(surface, subdivisions, data):
    # IH^p_i = IH^q_{m-i} over Q for complementary perversities on a closed
    # oriented pseudomanifold (Goresky-MacPherson 1980); the suspension of
    # a closed orientable surface is one, with two point strata when the
    # surface is no sphere, and (0, 0) and (0, 1) are complementary in
    # dimension 3.
    k = StratifiedComplex(dict.fromkeys(set().union(*_ORIENTABLE_SURFACES[surface]), 3),
                          _ORIENTABLE_SURFACES[surface])
    for _ in range(subdivisions):
        k = barycentric_subdivision(k)
    k = suspension(k.with_strata(3))
    names = data.draw(st.permutations(k.vertices))
    rename = dict(zip(k.vertices, names))
    k = StratifiedComplex({rename[v]: label for v, label in k.strata.items()},
                          [[rename[v] for v in k.names(f)] for f in k.maximal])
    lower = ih_ranks(k.with_perversity(Perversity((0, 0)))).ranks
    upper = ih_ranks(k.with_perversity(Perversity((0, 1)))).ranks
    assert lower == tuple(reversed(upper))
