"""Rules I and C, the consistency identity, and the rational flag fit."""
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    OCTA_FACETS,
    PENTAGON_FACETS,
    cyclic_facets,
    ic_words,
    nullspace,
    row_reduce,
    simplicial_h_vector,
    simplicial_lattice,
    toric_h,
)
from strathom import hcalc
from strathom.errors import DomainError
from strathom.facelattice import (
    FlagVector,
    dual,
    fibonacci,
    flag_vector,
    from_word,
    ic_basis,
    lattice_from_json,
)
from strathom.hcalc import (
    eval_word,
    fit_and_predict,
    ic_check,
    ic_training_data,
    rule_C,
    rule_I,
)

SQUARE_FACETS = [("q1", "q2"), ("q2", "q3"), ("q3", "q4"), ("q4", "q1")]
CYCLIC_7_4_FACETS = cyclic_facets(7, 4)


@lru_cache(maxsize=None)
def all_pairs(n):
    """(dual flag vector, h-vector) for every word of length n, sorted by
    word, from face lattices: the training ic_training_data's basis pairs
    stand in for."""
    return tuple((flag_vector(dual(from_word(w))), eval_word(w)) for w in ic_words(n))


def test_rule_I_convolves():
    assert rule_I((1,)) == (1, 1)
    assert rule_I((1, 3, 3, 1)) == (1, 4, 6, 4, 1)


def test_rule_C_middle_repetition_table():
    # The five shortest palindromic patterns, instantiated at a,b,c = 1,2,3.
    a, b, c = 1, 2, 3
    assert rule_C((a,)) == (a, a)
    assert rule_C((a, a)) == (a, a, a)
    assert rule_C((a, b, a)) == (a, b, b, a)
    assert rule_C((a, b, b, a)) == (a, b, b, b, a)
    assert rule_C((a, b, c, b, a)) == (a, b, c, c, b, a)


def test_rule_C_rejects_non_palindromes():
    with pytest.raises(DomainError, match="non-palindromic"):
        rule_C((1, 2))
    with pytest.raises(DomainError):
        rule_C(())


def test_boundary_condition():
    assert eval_word("I") == eval_word("C") == (1, 1)


@pytest.mark.parametrize("word, h", [
    ("III", (1, 3, 3, 1)),
    ("CCC", (1, 1, 1, 1)),
    ("CIC", (1, 2, 2, 1)),
    ("CII", (1, 2, 2, 1)),
])
def test_eval_word_values(word, h):
    assert eval_word(word) == h


def test_eval_word_rejects_bad_letters():
    with pytest.raises(DomainError):
        eval_word("IXC")


def test_ic_check_holds_on_all_short_words():
    words = [w for n in range(1, 7) for w in ic_words(n)]
    assert len(words) == 126
    for word in words:
        assert ic_check(eval_word(word)), word


def test_ic_check_fails_under_a_rule_C_that_breaks_the_identity(monkeypatch):
    # both sides of the identity are linear in h on palindromes of one length and
    # it holds on a basis of them, so no valid input can tell ic_check from a
    # check that always holds; a rule C that keeps palindromes but adds 1 to the
    # middle entries of its output breaks the identity, and ic_check must say so
    real_C = hcalc.rule_C

    def shifted_C(h):
        out = list(real_C(h))
        for q in {(len(out) - 1) // 2, len(out) // 2}:
            out[q] += 1
        return tuple(out)

    vectors = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1))
    assert [ic_check(h) for h in vectors] == [True] * 4
    for h in ((1, 2), ()):
        with pytest.raises(DomainError):
            ic_check(h)
    monkeypatch.setattr(hcalc, "rule_C", shifted_C)
    assert [ic_check(h) for h in vectors] == [False] * 4


def test_fit_predicts_octahedron_h_vector():
    training = ic_training_data(3)
    octa = flag_vector(lattice_from_json(simplicial_lattice(OCTA_FACETS)))
    prediction = fit_and_predict(training, octa)
    assert prediction == (1, 3, 3, 1)
    assert prediction == simplicial_h_vector(OCTA_FACETS)


def test_fit_predicts_cube_and_polygons():
    training3 = ic_training_data(3)
    cube = flag_vector(from_word("III"))
    assert fit_and_predict(training3, cube) == (1, 5, 5, 1)
    training2 = list(ic_training_data(2))
    pentagon = flag_vector(lattice_from_json(simplicial_lattice(PENTAGON_FACETS)))
    square = flag_vector(lattice_from_json(simplicial_lattice(SQUARE_FACETS)))
    assert fit_and_predict(training2, pentagon) == (1, 3, 1)
    assert fit_and_predict(training2, square) == (1, 2, 1)
    assert fit_and_predict(training2, pentagon) == simplicial_h_vector(PENTAGON_FACETS)


def test_fit_rejects_bad_training_and_queries():
    # the pairs are fed as generators: each refusal is met while they stream
    # in, and no pair after the one that breaks the shape is read
    square = flag_vector(from_word("II"))
    read = []

    def feed(pairs):
        for pair in pairs:
            read.append(pair)
            yield pair

    with pytest.raises(DomainError, match="fit needs at least one training pair"):
        fit_and_predict(feed([]), square)
    two, three = list(ic_training_data(2)), list(ic_training_data(3))
    with pytest.raises(DomainError, match=r"must share one dimension, got \[2, 3\]"):
        fit_and_predict(feed([*two, *three]), square)
    assert len(read) == len(two) + 1
    read.clear()
    flag, h = two[1]
    with pytest.raises(DomainError, match="training h-vectors must share one length"):
        fit_and_predict(feed([two[0], (flag, h + (0,)), *two[2:]]), square)
    assert len(read) == 2
    with pytest.raises(DomainError, match="dimension"):
        fit_and_predict(ic_training_data(3), flag_vector(from_word("II")))


def span_weights(flags, query):
    """Some c with sum_j c_j flags[j] = query, by the oracle's elimination."""
    m = len(flags)
    rank, red = row_reduce([[row[i] for row in flags] + [q] for i, q in enumerate(query)])
    weights = [Fraction(0)] * m
    for row in red[:rank]:
        pivot = next(j for j, v in enumerate(row) if v != 0)
        assert pivot < m, "query is outside the span"
        weights[pivot] = row[m]
    return weights


@pytest.mark.parametrize("n, query", [
    (3, lambda: flag_vector(lattice_from_json(simplicial_lattice(OCTA_FACETS)))),
    (3, lambda: flag_vector(from_word("III"))),
    (4, lambda: flag_vector(lattice_from_json(simplicial_lattice(CYCLIC_7_4_FACETS)))),
    # the query column reduces to its tag row alone: the prediction is 0
    (2, lambda: FlagVector(2, (0,) * 4)),
])
def test_prediction_is_the_span_combination_of_training_h_vectors(n, query):
    training = all_pairs(n)
    flags = [flag.entries for flag, _ in training]
    hs = [h for _, h in training]
    q = query()
    weights = span_weights(flags, q.entries)
    want = tuple(sum(w * h[k] for w, h in zip(weights, hs)) for k in range(n + 1))
    assert fit_and_predict(training, q) == want
    assert fit_and_predict(ic_training_data(n), q) == want
    # every relation among the training flag vectors holds among their
    # h-vectors, so the combination does not depend on the weights chosen
    relations = nullspace([[row[i] for row in flags] for i in range(2 ** n)], len(flags))
    assert relations
    for rel in relations:
        assert all(sum(r * h[k] for r, h in zip(rel, hs)) == 0 for k in range(n + 1))


def test_prediction_undetermined_off_the_span():
    # Flag vectors of polytopes satisfy linear relations; bumping one
    # coordinate leaves the training span and the prediction must refuse.
    octa = flag_vector(lattice_from_json(simplicial_lattice(OCTA_FACETS)))
    bumped = list(octa.entries)
    bumped[0b001] += 1
    with pytest.raises(DomainError, match="not determined"):
        fit_and_predict(ic_training_data(3), FlagVector(3, tuple(bumped)))
    ones = FlagVector(3, (1,) * 8)
    with pytest.raises(DomainError, match="prediction not determined"):
        fit_and_predict(ic_training_data(3), ones)


@settings(deadline=None, max_examples=40)
@given(st.text(alphabet="IC", min_size=1, max_size=7))
def test_eval_word_is_symmetric_and_positive(word):
    h = eval_word(word)
    assert len(h) == len(word) + 1
    assert h == h[::-1]
    assert all(entry > 0 for entry in h)


@settings(deadline=None, max_examples=40)
@given(st.text(alphabet="IC", min_size=1, max_size=7))
def test_ic_check_holds_generically(word):
    assert ic_check(eval_word(word))


@pytest.mark.parametrize("index", range(8))
def test_fit_refuses_training_with_one_bumped_h_vector(index):
    # the 8 words of length 3 span F(4) = 3 dimensions, so each pair is
    # determined by the others
    training = list(all_pairs(3))
    flag, h = training[index]
    training[index] = (flag, (h[0] + 1,) + h[1:])
    octa = flag_vector(lattice_from_json(simplicial_lattice(OCTA_FACETS)))
    with pytest.raises(DomainError, match="no linear function fits"):
        fit_and_predict(training, octa)


def _feed_orders(n):
    """Every training index once, plus up to four repeated ones, in any order."""
    return st.lists(st.integers(0, 2 ** n - 1), max_size=4).flatmap(
        lambda repeats: st.permutations(list(range(2 ** n)) + repeats))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-4, 4), min_size=2 ** n, max_size=2 ** n),
    _feed_orders(n))))
def test_prediction_of_a_combination_is_the_combination_of_h_vectors(case):
    # the basis the reduction keeps depends on the order the pairs are fed in
    n, coeffs, order = case
    training = all_pairs(n)
    query = FlagVector(n, tuple(sum(c * flag.entries[m] for c, (flag, _) in zip(coeffs, training))
                                for m in range(2 ** n)))
    want = tuple(sum(c * h[k] for c, (_, h) in zip(coeffs, training)) for k in range(n + 1))
    assert fit_and_predict([training[j] for j in order], query) == want


def test_training_data_pairs_each_word_with_its_dual_polytope():
    # the words are the pyramid and the prism of each basis word one shorter
    for n in range(1, 7):
        shorter = [w for w, _ in ic_basis(n - 1)] if n > 1 else [""]
        assert list(ic_training_data(n)) == [(flag_vector(dual(from_word(c + w))), eval_word(c + w))
                                       for w in shorter for c in "CI"]


def test_basis_training_predicts_what_all_pairs_training_predicts():
    for n in range(1, 7):
        training = list(ic_training_data(n))
        assert len(training) == 2 * fibonacci(n)
        for flag, _ in all_pairs(n):
            # flag is the dual of a word's polytope, flag.dual() the polytope
            for query in (flag, flag.dual()):
                assert fit_and_predict(training, query) == fit_and_predict(all_pairs(n), query)


def test_fit_and_predict_takes_rational_pairs():
    octa = flag_vector(lattice_from_json(simplicial_lattice(OCTA_FACETS)))
    thirds = [(flag, tuple(Fraction(v, 3) for v in h)) for flag, h in all_pairs(3)]
    assert fit_and_predict(thirds, octa) == (Fraction(1, 3), 1, 1, Fraction(1, 3))
    halves = [(flag, tuple(v / 2 for v in h)) for flag, h in ic_training_data(3)]
    assert fit_and_predict(halves, octa) == (0.5, 1.5, 1.5, 0.5)
    half_octa = FlagVector(3, tuple(Fraction(v, 2) for v in octa.entries))
    assert fit_and_predict(ic_training_data(3), half_octa) == (Fraction(1, 2), Fraction(3, 2),
                                                               Fraction(3, 2), Fraction(1, 2))
    flag, h = thirds[5]
    thirds[5] = (flag, (h[0] + Fraction(1, 7),) + h[1:])
    with pytest.raises(DomainError, match="no linear function fits"):
        fit_and_predict(thirds, octa)


@settings(deadline=None, max_examples=30)
@given(st.one_of(st.text(alphabet="IC", min_size=3, max_size=6),
                 st.integers(3, 6).flatmap(lambda d: st.tuples(st.integers(d + 1, d + 4),
                                                               st.just(d)))),
       st.booleans())
def test_fit_computes_the_toric_h_vector(polytope, take_dual):
    """IC words and cyclic polytopes C(m, d) in dims 3-6, and their duals."""
    if isinstance(polytope, str):
        lattice = from_word(polytope)
    else:
        lattice = lattice_from_json(simplicial_lattice(cyclic_facets(*polytope)))
    if take_dual:
        lattice = dual(lattice)
    n = lattice.dim
    h = fit_and_predict(ic_training_data(n), flag_vector(lattice))
    assert h == toric_h(dict(zip(lattice.ids, lattice.dims)), lattice.cover_pairs())
    # g_i = h_i - h_{i-1} >= 0 up to the middle (Stanley 1987; Karu 2004)
    assert all(h[i] >= h[i - 1] for i in range(1, n // 2 + 1))
