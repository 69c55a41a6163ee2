"""Exact rank of dense integer matrices against the Fraction oracle."""
from hypothesis import given, settings, strategies as st

from oracles import dense_rank as oracle_rank
from strathom.exactla import dense_rank


def matrices(entries):
    return st.integers(0, 6).flatmap(
        lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7))


@settings(deadline=None, max_examples=200)
@given(matrices(st.integers(-3, 3)))
def test_dense_rank_matches_oracle(rows):
    assert dense_rank(rows) == oracle_rank(rows)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 3).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k), min_size=1, max_size=6),
    st.lists(st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=5, max_size=5),
             min_size=k, max_size=k))))
def test_dense_rank_of_a_product_with_large_entries(factors):
    # rows = U V has rank at most k; large entries push past the growth limit
    u, v = factors
    rows = [[sum(a * row[c] for a, row in zip(coeffs, v)) for c in range(5)] for coeffs in u]
    assert dense_rank(rows) == oracle_rank(rows)
