"""Exact rank, column pivots and solving, checked against the Fraction oracles."""
import signal
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import column_pivots, dense_rank as oracle_rank
from strathom.exactla import _GROWTH_LIMIT, _HEAP_AFTER, ColumnReduction, dense_rank, solve_right


def matrices(entries):
    return st.integers(0, 6).flatmap(
        lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7))


@st.composite
def _sparse_columns(draw):
    """Integer columns over up to three times the heap threshold in rows:
    sparse ones, half-dense ones that can pass the threshold, and integer
    combinations of earlier columns, which reduce to zero through long
    fill-in.  About one column in ten has entries past the growth limit."""
    nrows = draw(st.integers(1, 3 * _HEAP_AFTER))
    rnd = draw(st.randoms(use_true_random=True))
    columns = []
    for _ in range(draw(st.integers(1, 40))):
        shape = rnd.choice(["sparse", "dense", "combination"])
        bound = 4 * _GROWTH_LIMIT if rnd.random() < 0.1 else 6
        def coefficient():
            return rnd.choice([-1, 1]) * rnd.randint(1, bound)
        if shape == "combination" and columns:
            col = {}
            for earlier in rnd.sample(columns, min(len(columns), rnd.randint(1, 3))):
                a = coefficient()
                for r, v in earlier.items():
                    col[r] = col.get(r, 0) + a * v
        elif shape == "dense":
            col = {r: coefficient() for r in range(nrows) if rnd.random() < 0.5}
        else:
            col = {rnd.randrange(nrows): coefficient() for _ in range(rnd.randint(0, 8))}
        columns.append(col)
    return columns


def _stop(signum, frame):
    raise TimeoutError


@settings(deadline=None, max_examples=150)
@given(_sparse_columns())
def test_add_column_claims_the_oracle_pivots(columns):
    # a step that fails to zero the low row loops forever, so it must fail, not hang
    reduction = ColumnReduction()
    previous = signal.signal(signal.SIGALRM, _stop)
    signal.alarm(2)
    try:
        pivots = [reduction.add_column(col) for col in columns]
    except TimeoutError:
        pivots = "a reduction still running after 2 s"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert pivots == column_pivots(columns)


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
