"""Symbolic stratified simplices: shapes, facets, d.d = 0."""
from hypothesis import given, settings, strategies as st

from strathom.stratsimplex import dd_check, facets, iter_shapes


def total_dim(dims):
    return sum(dims) + len(dims) - 1


def child(dims, factor):
    return dims[:factor] + (dims[factor] - 1,) + dims[factor + 1:]


def test_facets_of_plain_simplex():
    got = [(j, l, sign, child((2,), j)) for j, l, sign in facets((2,))]
    assert got == [(0, 0, 1, (1,)), (0, 1, -1, (1,)), (0, 2, 1, (1,))]


def test_point_factors_have_no_facets():
    assert facets((0,)) == []
    assert facets((0, 0)) == []


def test_facets_interleave_factors_with_global_signs():
    got = [(j, l, sign, child((1, 1), j)) for j, l, sign in facets((1, 1))]
    assert got == [
        (1, 0, 1, (1, 0)),
        (1, 1, -1, (1, 0)),
        (0, 0, 1, (0, 1)),
        (0, 1, -1, (0, 1)),
    ]


def test_iter_shapes_small():
    assert list(iter_shapes(2)) == [
        (0,), (0, 0), (0, 0, 0), (0, 1), (1,), (1, 0), (2,)]
    assert sum(1 for _ in iter_shapes(6)) == 127
    assert list(iter_shapes(-1)) == []


def test_iter_shapes_respects_budget():
    for dims in iter_shapes(5):
        assert total_dim(dims) <= 5


def test_dd_check_exhaustive():
    shapes = list(iter_shapes(6))
    assert shapes
    for dims in shapes:
        assert dd_check(dims), f"double boundary fails on {dims}"


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4))
def test_dd_check_generic(dims):
    assert dd_check(tuple(dims))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4))
def test_facet_count_and_dimension_drop(dims):
    dims = tuple(dims)
    refs = facets(dims)
    assert len(refs) == sum(d + 1 for d in dims if d > 0)
    for j, _, sign in refs:
        assert total_dim(child(dims, j)) == total_dim(dims) - 1
        assert sign in (-1, 1)
