"""Acceptance gate: ten checks, one verdict line each on the live terminal.

Each test prints "criterion N: PASS/FAIL (...)" through the unbuffered
real stdout so the verdicts survive pytest's capture, then asserts.  Time
budgets are part of the criteria and are asserted, not just reported.
"""
import sys
import time
from collections import Counter

from oracles import (
    OCTA_FACETS,
    dense_rank,
    ic_words,
    naive_ih_betti,
    naive_lg_rank,
    naive_ordinary_betti,
    simplicial_h_vector,
    simplicial_lattice,
    sparse_lg_rank,
)
from strathom.complexes import Perversity, barycentric_subdivision
from strathom.corpus import CORPUS, by_name
from strathom.facelattice import flag_vector, from_word, lattice_from_json
from strathom.hcalc import eval_word, fit_and_predict, ic_check, ic_training_data, rule_C
from strathom.ihomology import ih_ranks
from strathom.lghomology import _templates, cell_boundary, lg_ranks
from strathom.stratsimplex import dd_check, iter_shapes


def _line(capsys, n, ok, detail):
    with capsys.disabled():
        sys.stdout.write(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})\n")
        sys.stdout.flush()


def _oracle_inputs(k):
    strata = {v: k.strata[v] for v in k.vertices}
    maximal = [tuple(k.vertices[v] for v in f) for f in k.maximal]
    return strata, maximal


def _upper_middle(m):
    return Perversity(tuple((c - 1) // 2 for c in range(2, m + 1)))


def test_criterion_01_rule_c_table(capsys):
    t0 = time.monotonic()
    a, b, c = 1, 2, 3
    lines = [
        (rule_C((a,)), (a, a)),
        (rule_C((a, a)), (a, a, a)),
        (rule_C((a, b, a)), (a, b, b, a)),
        (rule_C((a, b, b, a)), (a, b, b, b, a)),
        (rule_C((a, b, c, b, a)), (a, b, c, c, b, a)),
    ]
    elapsed = time.monotonic() - t0
    ok = all(got == want for got, want in lines) and elapsed < 1.0
    _line(capsys, 1, ok, f"5 middle-repetition lines at (a,b,c)=(1,2,3), {elapsed:.2f}s")
    assert all(got == want for got, want in lines)
    assert elapsed < 1.0


def test_criterion_02_boundary_condition(capsys):
    t0 = time.monotonic()
    values = (eval_word("I"), eval_word("C"))
    elapsed = time.monotonic() - t0
    ok = values == ((1, 1), (1, 1)) and elapsed < 1.0
    _line(capsys, 2, ok, f"eval_word('I') = eval_word('C') = (1, 1), {elapsed:.2f}s")
    assert values == ((1, 1), (1, 1))
    assert elapsed < 1.0


def test_criterion_03_ic_equation_on_short_words(capsys):
    t0 = time.monotonic()
    checked = 0
    failures = []
    for n in range(1, 7):
        for word in ic_words(n):
            checked += 1
            if not ic_check(eval_word(word)):
                failures.append(word)
    elapsed = time.monotonic() - t0
    ok = checked == 126 and not failures and elapsed < 1.0
    _line(capsys, 3, ok, f"{checked} words of length 1-6, {len(failures)} failures, {elapsed:.2f}s")
    assert checked == 126
    assert failures == []
    assert elapsed < 1.0


def test_criterion_04_fibonacci_flag_ranks(capsys):
    t0 = time.monotonic()
    got = tuple(dense_rank([flag_vector(from_word(word)).entries for word in ic_words(n)])
                for n in range(1, 6))
    elapsed = time.monotonic() - t0
    ok = got == (1, 2, 3, 5, 8) and elapsed < 30.0
    _line(capsys, 4, ok, f"flag ranks {got} for dimensions 1-5, {elapsed:.1f}s")
    assert got == (1, 2, 3, 5, 8)
    assert elapsed < 30.0


def test_criterion_05_fit_predicts_octahedron(capsys):
    t0 = time.monotonic()
    octa = flag_vector(lattice_from_json(simplicial_lattice(OCTA_FACETS)))
    prediction = fit_and_predict(ic_training_data(3), octa)
    oracle = simplicial_h_vector(OCTA_FACETS)
    elapsed = time.monotonic() - t0
    ok = prediction == oracle == (1, 3, 3, 1) and elapsed < 5.0
    shown = tuple(int(v) if v.denominator == 1 else v for v in prediction)
    _line(capsys, 5, ok, f"octahedron prediction {shown}, oracle {oracle}, {elapsed:.1f}s")
    assert prediction == (1, 3, 3, 1)
    assert prediction == oracle
    assert elapsed < 5.0


def _double_boundary(cell):
    total = Counter()
    for child, coef in cell_boundary(cell).items():
        for grand, coef2 in cell_boundary(child).items():
            total[grand] += coef * coef2
    return {grand: coef for grand, coef in total.items() if coef}


def test_criterion_06_double_boundary_vanishes(capsys):
    # Every cell is a template renamed by the vertex numbers of its simplex,
    # and renaming commutes with the boundary, so the templates of one
    # simplex size stand for the cells of every simplex of that size.  Four
    # vertices reach dimension 3, that of sd(susp_torus7).
    t0 = time.monotonic()
    shapes = list(iter_shapes(6))
    shape_failures = [str(s) for s in shapes if not dd_check(s)]
    templates = [t for i in range(3) for j in (0, 1) for s in range(1, 5)
                 for t in _templates(i, j, s)]
    cell_failures = [t.cell for t in templates if _double_boundary(t.cell)]
    elapsed = time.monotonic() - t0
    ok = (len(shapes) == 127 and not shape_failures and not cell_failures
          and elapsed < 60.0)
    _line(capsys, 6, ok, f"{len(shapes)} shapes of total dim <= 6 plus {len(templates)} cone/prism "
                 f"cell templates of base dim <= 2 on 1 to 4 vertices, {elapsed:.1f}s")
    assert len(shapes) == 127
    assert shape_failures == []
    assert cell_failures == []
    assert elapsed < 60.0


def test_criterion_07_trivial_filtration_is_ordinary_homology(capsys):
    names = ["circle6", "sphere2", "torus7", "two_circles", "wedge"]
    mismatches = []
    for name in names:
        k = by_name(name)
        flat = k.with_strata(max(k.dim, 0))
        got = ih_ranks(flat).ranks
        want = naive_ordinary_betti(_oracle_inputs(k)[1])
        if got != want:
            mismatches.append((name, got, want))
    ok = not mismatches
    _line(capsys, 7, ok, f"{len(names)} complexes against the naive oracle, "
                 f"{len(mismatches)} mismatches")
    assert mismatches == []


def test_criterion_08_suspended_torus_flagship(capsys):
    t0 = time.monotonic()
    k = by_name("susp_torus7")
    mpih = ih_ranks(k).ranks
    strata, maximal = _oracle_inputs(k)
    oracle = naive_ih_betti(strata, maximal, k.perversity)
    ordinary = ih_ranks(k.with_strata(3)).ranks
    elapsed = time.monotonic() - t0
    ok = (mpih == oracle == (1, 2, 0, 1) and ordinary == (1, 0, 2, 1)
          and mpih != ordinary and elapsed < 60.0)
    _line(capsys, 8, ok, f"middle ranks {mpih} = oracle, ordinary {ordinary}, {elapsed:.1f}s")
    # The middle-perversity ranks come from the independent dense oracle:
    # the singular point forces IH_1 to keep both torus circles while the
    # suspended 2-cycle dies, the exact opposite of ordinary homology.
    assert mpih == oracle
    assert mpih == (1, 2, 0, 1)
    assert ordinary == naive_ordinary_betti(maximal) == (1, 0, 2, 1)
    assert mpih != ordinary
    assert elapsed < 60.0


def test_criterion_09_rank_palindromicity_on_closed_members(capsys):
    # Rank reversal pairs the two middle perversities; where they agree
    # (every closed member of dimension <= 2) this is literally
    # b_i = b_{m-i} under the shipped middle perversity.
    failures = []
    checked = 0
    for entry in CORPUS:
        if not entry.closed:
            continue
        k = entry()
        checked += 1
        lower = ih_ranks(k).ranks
        upper = ih_ranks(k.with_perversity(_upper_middle(k.dim))).ranks
        if tuple(reversed(lower)) != upper:
            failures.append((entry.name, lower, upper))
        if k.dim <= 2 and lower != tuple(reversed(lower)):
            failures.append((entry.name, lower, "not palindromic"))
    ok = not failures and checked >= 5
    _line(capsys, 9, ok, f"{checked} closed members, {len(failures)} duality failures")
    assert checked >= 5
    assert failures == []


def test_criterion_10_local_global_desk_results(capsys):
    t0 = time.monotonic()
    ch = by_name("cone_hexagon")
    strata, maximal = _oracle_inputs(ch)
    flat = ch.with_strata(2)
    flat_inputs = _oracle_inputs(flat)

    desk = {}
    for i, want in ((0, 1), (1, 0)):
        live = lg_ranks(ch, i, 0).rank
        oracle = naive_lg_rank(strata, maximal, ch.perversity, i, 0)
        sparse = sparse_lg_rank(strata, maximal, ch.perversity, i, 0)
        flat_live = lg_ranks(flat, i, 0).rank
        flat_oracle = naive_lg_rank(*flat_inputs, flat.perversity, i, 0)
        flat_sparse = sparse_lg_rank(*flat_inputs, flat.perversity, i, 0)
        desk[i] = (live, oracle, sparse, flat_live, flat_oracle, flat_sparse, want)

    independent = all(
        lg_ranks(k, i, 0).rank == lg_ranks(k.with_strata(max(k.dim, 0)), i, 0).rank
        for k in map(by_name, ("cone_square", "susp_hexagon", "circle6"))
        for i in (0, 1))

    sd = barycentric_subdivision(ch)
    stable = (lg_ranks(sd, 0, 0).rank, lg_ranks(sd, 1, 0).rank) == (1, 0)

    elapsed = time.monotonic() - t0
    desk_ok = all(len(set(vals)) == 1 for vals in desk.values())
    ok = desk_ok and independent and stable and elapsed < 120.0
    _line(capsys, 10, ok, f"cone(hexagon) ranks (i=0) -> {desk[0][0]}, (i=1) -> {desk[1][0]} "
                  f"= oracle on both stratifications; subdivision stable, {elapsed:.1f}s")
    for i, vals in desk.items():
        assert len(set(vals)) == 1, (i, vals)
    assert independent
    assert stable
    assert elapsed < 120.0
