"""Exact rank and solving of dense matrices against the Fraction oracle."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import dense_rank as oracle_rank
from strathom.exactla import dense_rank, solve_right


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


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 5).flatmap(lambda ncols: st.integers(0, 2).flatmap(lambda k: st.lists(
    st.tuples(st.lists(st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4),
                       min_size=ncols, max_size=ncols),
              st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=k, max_size=k)),
    min_size=1, max_size=6))))
def test_solve_right_matches_the_oracle(system):
    a = [row for row, _ in system]
    b = [rhs for _, rhs in system]
    ncols, k = len(a[0]), len(b[0])
    solutions = solve_right(a, b)
    consistent = all(oracle_rank(a) == oracle_rank([r + [rhs[j]] for r, rhs in zip(a, b)])
                     for j in range(k))
    assert (solutions is not None) == consistent
    if solutions is None:
        return
    assert len(solutions) == k
    # free variables are zero: only the leftmost independent columns carry a value
    ranks = [oracle_rank([r[:c] for r in a]) for c in range(ncols + 1)]
    for x, j in zip(solutions, range(k)):
        assert all(type(v) is Fraction for v in x)
        assert [sum(v * c for v, c in zip(r, x)) for r in a] == [rhs[j] for rhs in b]
        assert all(x[c] == 0 for c in range(ncols) if ranks[c + 1] == ranks[c])
