"""Symbolic stratified simplices: shapes, facets, d.d = 0."""
import pytest
from hypothesis import given, settings, strategies as st

from strathom.errors import ValidationError
from strathom.stratsimplex import (
    StratifiedShape,
    dd_check,
    facets,
    iter_shapes,
)


def test_shape_basics():
    s = StratifiedShape((2, 0, 1))
    assert s.order == 2
    assert s.total_dim == 5
    assert str(s) == "(2,0,1)"


def test_shape_validation():
    with pytest.raises(ValidationError, match="at least one"):
        StratifiedShape(())
    with pytest.raises(ValidationError, match=">= 0"):
        StratifiedShape((1, -1))


def test_facets_of_plain_simplex():
    got = [(f.factor, f.local, f.sign, f.child.dims)
           for f in facets(StratifiedShape((2,)))]
    assert got == [(0, 0, 1, (1,)), (0, 1, -1, (1,)), (0, 2, 1, (1,))]


def test_point_factors_have_no_facets():
    assert facets(StratifiedShape((0,))) == []
    assert facets(StratifiedShape((0, 0))) == []


def test_facets_interleave_factors_with_global_signs():
    got = [(f.factor, f.local, f.sign, f.child.dims)
           for f in facets(StratifiedShape((1, 1)))]
    assert got == [
        (1, 0, 1, (1, 0)),
        (1, 1, -1, (1, 0)),
        (0, 0, 1, (0, 1)),
        (0, 1, -1, (0, 1)),
    ]


def test_iter_shapes_small():
    assert [str(s) for s in iter_shapes(2)] == [
        "(0)", "(0,0)", "(0,0,0)", "(0,1)", "(1)", "(1,0)", "(2)"]
    assert sum(1 for _ in iter_shapes(6)) == 127
    assert list(iter_shapes(-1)) == []


def test_iter_shapes_respects_budget():
    for shape in iter_shapes(5):
        assert shape.total_dim <= 5


def test_dd_check_exhaustive():
    shapes = list(iter_shapes(6))
    assert shapes
    for shape in shapes:
        assert dd_check(shape), f"double boundary fails on {shape}"


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4))
def test_dd_check_generic(dims):
    assert dd_check(StratifiedShape(tuple(dims)))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4))
def test_facet_count_and_dimension_drop(dims):
    shape = StratifiedShape(tuple(dims))
    refs = facets(shape)
    assert len(refs) == sum(d + 1 for d in dims if d > 0)
    for ref in refs:
        assert ref.child.total_dim == shape.total_dim - 1
        assert ref.sign in (-1, 1)
