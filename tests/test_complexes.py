"""Stratified complexes: validation, constructions, allowability, JSON."""
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from strathom.complexes import (
    Perversity,
    StratifiedComplex,
    allowable_simplex,
    barycentric_subdivision,
    complex_from_json,
    complex_to_json,
    cone,
    perversity_ok,
    suspension,
)
from strathom.corpus import by_name, circle, small_members
from strathom.errors import ValidationError


def euler(k):
    """The Euler characteristic: the alternating sum of the bucket lengths."""
    return sum((-1) ** i * len(k.simplices_of_dim(i)) for i in range(k.dim + 1))


# ------------------------------------------------------------- perversity


def test_middle_perversity_values():
    assert Perversity.middle(4).values == (0, 0, 1)
    assert Perversity.middle(2).values == (0,)
    assert Perversity.middle(1).values == ()
    p = Perversity.middle(6)
    assert [p(c) for c in range(2, 7)] == [0, 0, 1, 1, 2]


def test_perversity_growth_constraints():
    Perversity((0, 1, 1, 2))
    with pytest.raises(ValidationError, match="start at"):
        Perversity((1,))
    with pytest.raises(ValidationError, match="grow by 0 or 1"):
        Perversity((0, 2))
    with pytest.raises(ValidationError, match="grow by 0 or 1"):
        Perversity((0, 1, 0))


def test_perversity_is_an_immutable_value():
    p = Perversity([0, 1])
    assert p.values == (0, 1) and p.label == "explicit"
    assert p == Perversity((0, 1)) and hash(p) == hash(Perversity((0, 1)))
    assert p != Perversity((0, 0)) and p != Perversity((0, 1), "other")
    assert Perversity.middle(4) == Perversity((0, 0, 1), "middle")
    assert repr(p) == "Perversity(values=(0, 1), label='explicit')"
    with pytest.raises(AttributeError):
        p.values = (0,)
    with pytest.raises(AttributeError):
        p.extra = 0


def test_perversity_call_range():
    p = Perversity((0, 1))
    assert p(2) == 0 and p(3) == 1
    with pytest.raises(ValidationError):
        p(1)
    with pytest.raises(ValidationError):
        p(4)


def test_perversity_resized():
    assert Perversity((0, 1)).resized(5).values == (0, 1, 1, 1)
    assert Perversity((0, 1)).resized(2).values == (0,)
    assert Perversity((0,)).resized(1).values == ()
    # The middle one regrows from its formula instead of repeating.
    assert Perversity.middle(3).resized(4).values == (0, 0, 1)


def test_perversity_json():
    assert Perversity.middle(3).to_json() == "middle"
    assert Perversity.from_json("middle", 4).values == (0, 0, 1)
    assert Perversity.from_json({"2": 0, "3": 1}, 3).values == (0, 1)
    # a leading zero still names the codimension
    assert Perversity.from_json({"2": 0, "03": 1}, 3).values == (0, 1)
    assert Perversity((0, 1)).to_json() == {"2": 0, "3": 1}
    with pytest.raises(ValidationError, match="cover"):
        Perversity.from_json({"2": 0}, 3)
    with pytest.raises(ValidationError):
        Perversity.from_json([0, 1], 3)


# ---------------------------------------------------------------- complex


def _numbers(k, names):
    """The vertex numbers of the named vertices, in the given order."""
    return [k.vertices.index(v) for v in names]


def test_complex_normalizes_maximal_simplices():
    k = StratifiedComplex({"a": 1, "b": 1}, [{"a", "b"}, {"a"}])
    assert k.vertices == ("a", "b") and k.labels == (1, 1)
    assert k.maximal == ((0, 1),)
    assert k.dim == 1
    assert k.has_simplex(_numbers(k, "a")) and k.has_simplex(_numbers(k, "ab"))
    # 2 is no vertex number, as "c" is no vertex
    assert not k.has_simplex({0, 2})


def test_has_simplex_reads_any_order_and_repeats():
    k = StratifiedComplex({"a": 1, "b": 1, "c": 1}, [["b", "a", "a"], ["c"]])
    assert k.maximal == ((0, 1), (2,))
    assert k.has_simplex(_numbers(k, "baa")) and k.has_simplex(tuple(_numbers(k, "ba")))
    assert not k.has_simplex(_numbers(k, "caa"))
    # members that are no vertex numbers, as 1 is no vertex name
    assert not k.has_simplex([0, 3]) and not k.has_simplex([-1])
    # a vertex name, a number past the end and a negative number give False without raising
    assert not any(map(k.has_simplex, (["a"], ["a", 1], [3], [-1, 0])))
    with pytest.raises(ValidationError) as info:
        allowable_simplex(k, ["a"])
    assert str(info.value) == "['a'] is not a simplex of the complex"


@pytest.mark.parametrize("facets", [
    [["a", 1, "b"]],
    [["a", ["b"]]],
    [["a", "b"], [None, 2]],
    [["a", "b"], 5],
])
def test_facet_members_must_be_vertex_names(facets):
    with pytest.raises(ValidationError):
        StratifiedComplex({"a": 1, "b": 1}, facets)


@st.composite
def _families(draw):
    """Families over five vertices: repeats, empty sets, nested faces, and
    the same set listed again in another order."""
    family = draw(st.lists(st.lists(st.sampled_from("abcde"), max_size=5), max_size=8))
    if family:
        family += [f[::-1] for f in draw(st.lists(st.sampled_from(family), max_size=4))]
    return draw(st.permutations(family))


@settings(deadline=None, max_examples=200)
@given(_families())
# an isolated vertex beside a triangle, which also lists one of its vertices
@example([["e"], ["a", "b", "c"], ["c"]])
# an input edge that is a face of an input triangle
@example([["a", "b"], ["c", "b", "a"]])
# a repeated facet, once in another order
@example([["a", "b", "c"], ["c", "a", "b"], ["a", "b", "c"]])
# a maximal edge beside a tetrahedron, whose edges no maximal triangle holds
@example([["a", "b", "c", "d"], ["d", "e"]])
# the empty complex
@example([])
def test_construction_matches_brute_force(family):
    sets = {frozenset(f) for f in family} - {frozenset()}
    strata = {v: 9 for f in sets for v in f}
    k = StratifiedComplex(strata, family)
    assert k.vertices == tuple(sorted(strata))

    def named(simplices):
        return tuple(tuple(k.vertices[v] for v in f) for f in simplices)

    maximal = {f for f in sets if not any(f < g for g in sets)}
    assert named(k.maximal) == tuple(sorted(tuple(sorted(f)) for f in maximal))
    closure = {c for f in sets for r in range(1, len(f) + 1)
               for c in combinations(sorted(f), r)}
    assert set(named(k.simplices)) == closure
    assert k.dim == max(map(len, sets), default=0) - 1
    for i in range(-1, k.dim + 2):
        assert named(k.simplices_of_dim(i)) == tuple(sorted(f for f in closure if len(f) == i + 1))
    numbers = range(len(k.vertices))
    for f in (c for r in range(1, len(numbers) + 1) for c in combinations(numbers, r)):
        assert k.has_simplex(f) == (tuple(k.vertices[v] for v in f) in closure)
    assert euler(k) == sum((-1) ** (len(f) - 1) for f in closure)
    # one tuple object per simplex, shared by `maximal` and the buckets
    stored = {f: f for f in k.simplices}
    assert all(stored[f] is f for f in k.maximal)
    assert all(stored[f] is f for i in range(k.dim + 1) for f in k.simplices_of_dim(i))


@settings(deadline=None, max_examples=200)
@given(_families(), st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5))
def test_filtration_check_is_the_per_face_check(family, labels):
    # the constructor tests maximal simplices only; every face is tested here
    sets = {frozenset(f) for f in family} - {frozenset()}
    strata = {v: labels["abcde".index(v)] for f in sets for v in f}
    m = max(map(len, sets), default=0) - 1
    breaking = sorted(f for g in sets for r in range(1, len(g) + 1)
                      for f in combinations(sorted(g), r)
                      if (t := max(strata[v] for v in f)) < m and len(f) - 1 > t)
    if not breaking:
        StratifiedComplex(strata, family)
        return
    least = breaking[0]
    with pytest.raises(ValidationError) as info:
        StratifiedComplex(strata, family)
    top = max(strata[v] for v in least)
    assert str(info.value) == f"simplex {list(least)} lies in X_{top} but has dimension {len(least) - 1}"


def test_complex_vertex_and_label_validation():
    with pytest.raises(ValidationError, match="strings"):
        StratifiedComplex({1: 1}, [{1}])
    with pytest.raises(ValidationError, match=">= 0"):
        StratifiedComplex({"a": -1}, [{"a"}])
    with pytest.raises(ValidationError, match="disagree"):
        StratifiedComplex({"a": 1, "b": 1}, [{"a"}])


def test_filtration_rejects_deep_high_dimensional_simplices():
    with pytest.raises(ValidationError, match="lies in X_0"):
        StratifiedComplex({"u": 0, "v": 0}, [{"u", "v"}])


def test_empty_complex():
    k = StratifiedComplex({}, [])
    assert k.dim == -1
    assert k.simplices == ()
    assert euler(k) == 0


def test_euler_characteristic():
    assert euler(by_name("circle6")) == 0
    assert euler(by_name("sphere2")) == 2
    assert euler(by_name("torus7")) == 0
    assert euler(by_name("cone_hexagon")) == 1


def test_cone_and_suspension_structure():
    ch = by_name("cone_hexagon")
    assert ch.dim == 2
    assert ch.strata["apex"] == 0
    assert len(ch.maximal) == 6
    sus = by_name("susp_hexagon")
    assert sus.dim == 2 and len(sus.maximal) == 12
    assert sus.strata["north"] == sus.strata["south"] == 0
    st7 = by_name("susp_torus7")
    assert st7.dim == 3 and len(st7.maximal) == 28


def test_cone_picks_fresh_apex_name():
    k = StratifiedComplex({"apex": 2, "b": 2}, [{"apex", "b"}])
    coned = cone(k)
    assert sorted(coned.vertices) == ["apex", "apex0", "b"]
    assert coned.strata["apex0"] == 0


def test_cone_of_empty_complex_is_a_point():
    k = cone(StratifiedComplex({}, []))
    assert k.vertices == ("apex",) and k.dim == 0


def test_suspension_of_two_points_is_a_circle():
    two = StratifiedComplex({"u": 1, "v": 1}, [{"u"}, {"v"}])
    sus = suspension(two)
    assert sorted(sorted(sus.vertices[v] for v in f) for f in sus.maximal) == [
        ["north", "u"], ["north", "v"], ["south", "u"], ["south", "v"]]
    assert sus.dim == 1


def test_barycentric_subdivision_counts_and_labels():
    sd = barycentric_subdivision(by_name("circle6"))
    assert len(sd.vertices) == 12 and len(sd.maximal) == 12
    sd2 = barycentric_subdivision(by_name("cone_hexagon"))
    assert len(sd2.vertices) == 25 and len(sd2.maximal) == 36
    # An edge barycenter inherits the deeper endpoint's stratum reading.
    assert sd2.strata["apex|v0"] == 2
    assert sd2.strata["apex"] == 0


@pytest.mark.parametrize("name", [e.name for e, _ in small_members()])
def test_subdivision_preserves_euler_characteristic(name):
    k = by_name(name)
    assert euler(barycentric_subdivision(k)) == euler(k)


def test_allowability_on_the_coned_hexagon():
    ch = by_name("cone_hexagon")
    assert not allowable_simplex(ch, _numbers(ch, ["apex"]))
    assert allowable_simplex(ch, _numbers(ch, ["v0"]))
    assert not allowable_simplex(ch, _numbers(ch, ["apex", "v0"]))
    assert allowable_simplex(ch, _numbers(ch, ["v0", "v1"]))
    assert allowable_simplex(ch, _numbers(ch, ["apex", "v0", "v1"]))
    # the message names the vertices
    with pytest.raises(ValidationError, match=r"\['v0', 'v3'\] is not a simplex"):
        allowable_simplex(ch, _numbers(ch, ["v0", "v3"]))


def test_allowable_simplex_reads_any_order_and_repeats():
    ch = by_name("cone_hexagon")
    assert allowable_simplex(ch, _numbers(ch, ["v1", "v0", "v0"]))
    assert not allowable_simplex(ch, _numbers(ch, ["v0", "apex", "apex"]))
    assert allowable_simplex(ch, _numbers(ch, ["v1", "apex", "v0", "v1"]))
    with pytest.raises(ValidationError, match="not a simplex"):
        allowable_simplex(ch, _numbers(ch, ["v3", "v0", "v0"]))
    for simplex in ([0, len(ch.vertices)], [-1, 0]):
        with pytest.raises(ValidationError, match="not a simplex"):
            allowable_simplex(ch, simplex)


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_perversity_ok_is_the_bound_for_every_codimension(m, data):
    labels = data.draw(st.lists(st.integers(min_value=0, max_value=m + 1), min_size=1, max_size=6))
    degree = data.draw(st.integers(min_value=0, max_value=m))
    extra = data.draw(st.integers(min_value=0, max_value=2))
    values = [0] if m >= 2 else []
    for _ in range(m - 2):
        values.append(values[-1] + data.draw(st.integers(min_value=0, max_value=1)))
    p = Perversity(tuple(values))
    expected = True
    for c in range(2, m + 1):
        deep = sum(1 for l in labels if l <= m - c)
        if deep and deep - 1 + extra > degree - c + p(c):
            expected = False
    assert perversity_ok(sorted(labels), degree, m, p, extra) == expected


def test_with_strata_and_with_perversity():
    k = by_name("torus7")
    flat = k.with_strata(2)
    assert flat.strata == k.strata and flat.simplices == k.simplices
    upper = k.with_perversity(Perversity((0,)))
    assert upper.perversity.values == (0,)
    with pytest.raises(ValidationError, match="covers codimensions"):
        k.with_perversity(Perversity((0, 1)))


def test_complex_json_roundtrip():
    k = by_name("susp_torus7")
    doc = complex_to_json(k)
    back = complex_from_json(doc)
    assert back.strata == k.strata and back.simplices == k.simplices
    assert back.perversity.to_json() == k.perversity.to_json()
    with pytest.raises(ValidationError, match="missing"):
        complex_from_json({"dim": 3})
    with pytest.raises(ValidationError, match="declared dim"):
        complex_from_json({**doc, "dim": 9})
    with pytest.raises(ValidationError, match="same vertices"):
        complex_from_json({**doc, "vertices": doc["vertices"][:-1]})


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=1, max_value=4))
def test_circles_of_any_size_validate(n, label):
    k = circle(n, label)
    assert k.dim == 1
    assert len(k.simplices) == 2 * n
    assert euler(k) == 0
