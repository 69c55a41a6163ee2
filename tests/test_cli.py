"""End-to-end CLI behavior: exact JSON bytes, exit codes, determinism."""
import gc
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import strathom
from oracles import OCTA_FACETS, dense_rank, ic_words, simplicial_lattice
from strathom import cli, facelattice, hcalc
from strathom.cli import main
from strathom.complexes import complex_to_json
from strathom.corpus import by_name
from strathom.facelattice import flag_vector, lattice_from_json
from strathom.hcalc import eval_word, rule_C, rule_I


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def thin_lattice_doc(n):
    """The lattice document with two faces in every dimension 0..n-1, each
    covering both faces one dimension down: valid, with 2n + 2 faces."""
    ranks = [["e"]] + [[f"{d}a", f"{d}b"] for d in range(n)] + [["t"]]
    faces = [{"id": i, "dim": d - 1} for d, rank in enumerate(ranks) for i in rank]
    covers = [[lo, hi] for below, above in zip(ranks, ranks[1:]) for lo in below for hi in above]
    return {"dim": n, "faces": faces, "covers": covers}


def test_word(capsys):
    code, out, err = run(capsys, ["word", "--word", "III"])
    assert code == 0 and err == ""
    assert out == '{"h": [1, 3, 3, 1]}\n'
    code, out, _ = run(capsys, ["word", "--word", "CIC"])
    assert code == 0 and out == '{"h": [1, 2, 2, 1]}\n'


def test_iccheck(capsys):
    code, out, err = run(capsys, ["iccheck", "--max-len", "4"])
    assert code == 0 and err == ""
    assert out == '{"all_hold": true, "max_len": 4, "words": 30}\n'


def test_iccheck_checks_a_basis_of_the_h_vectors_of_each_length(capsys, monkeypatch):
    seen = {}

    def record(h):
        seen.setdefault(len(h) - 1, []).append(h)
        return True

    monkeypatch.setattr(cli, "ic_check", record)
    code, out, err = run(capsys, ["iccheck", "--max-len", "18"])
    assert (code, err) == (0, "")
    assert out == '{"all_hold": true, "max_len": 18, "words": 524286}\n'
    assert sorted(seen) == list(range(1, 19))
    level = {(1,)}
    for n in range(1, 19):
        # eval_word(Xw) = rule_X(eval_word(w)), so level n is the set of h-vectors
        # of the words of length n; the words themselves are checked up to n = 10
        level = {rule(h) for h in level for rule in (rule_I, rule_C)}
        if n <= 10:
            assert level == {eval_word(w) for w in ic_words(n)}
        kept = seen[n]
        assert set(kept) <= level
        # ceil((n+1)/2) is the dimension of the palindromes of length n + 1
        assert dense_rank(kept) == len(kept) == dense_rank(level) == (n + 2) // 2


def test_iccheck_prints_false_under_a_linear_rule_C_that_breaks_the_identity(
        capsys, monkeypatch):
    # ic_check holds on a level exactly when it holds on a basis of its span only
    # while the rules are linear, so the wrong rule C here is linear too; it breaks
    # the identity at the words CC and CI but not at II or IC, so a walk that checks
    # only some of the images of a level can miss it.  It goes into cli for the walk
    # and into hcalc for ic_check and eval_word: with the real ic_check, which holds
    # on every palindrome, the verdict could not change.
    real_C = hcalc.rule_C

    def wrong_C(h):
        out = list(real_C(h))
        if len(h) == 4:
            out[2] += h[1] - 2 * h[0]
        return tuple(out)

    for module in (cli, hcalc):
        monkeypatch.setattr(module, "rule_C", wrong_C)
    assert [w for w in ic_words(2) if not hcalc.ic_check(eval_word(w))] == ["CC", "CI"]
    for max_len in range(1, 7):
        holds = all(hcalc.ic_check(eval_word(w)) for n in range(1, max_len + 1)
                    for w in ic_words(n))
        assert holds == (max_len == 1)
        code, out, err = run(capsys, ["iccheck", "--max-len", str(max_len)])
        words = 2 ** (max_len + 1) - 2
        assert (code, err) == (0, "")
        assert out == (f'{{"all_hold": {json.dumps(holds)}, "max_len": {max_len}, '
                       f'"words": {words}}}\n')


def test_fibrank(capsys):
    code, out, err = run(capsys, ["fibrank", "--dim", "3"])
    assert code == 0 and err == ""
    assert out == '{"fibonacci": 3, "match": true, "rank": 3}\n'


def test_flag(capsys, tmp_path):
    path = write_json(tmp_path, "octa.json", simplicial_lattice(OCTA_FACETS))
    code, out, err = run(capsys, ["flag", "--in", path])
    assert code == 0 and err == ""
    assert out == ('{"dim": 3, "entries": {"": 1, "0": 6, "0,1": 24, '
                   '"0,1,2": 48, "0,2": 24, "1": 12, "1,2": 24, "2": 8}}\n')


def test_fit_accepts_lattice_or_flag_vector(capsys, tmp_path):
    doc = simplicial_lattice(OCTA_FACETS)
    lat_path = write_json(tmp_path, "octa_lattice.json", doc)
    code, out, _ = run(capsys, ["fit", "--dim", "3", "--predict", lat_path])
    assert code == 0 and out == '{"h": [1, 3, 3, 1]}\n'
    flag_path = write_json(tmp_path, "octa_flag.json",
                           flag_vector(lattice_from_json(doc)).to_json())
    code, out, _ = run(capsys, ["fit", "--dim", "3", "--predict", flag_path])
    assert code == 0 and out == '{"h": [1, 3, 3, 1]}\n'


def test_fit_refuses_a_query_off_the_training_span(capsys, tmp_path):
    ones = {",".join(map(str, s)): 1 for r in range(4) for s in combinations(range(3), r)}
    path = write_json(tmp_path, "ones.json", {"dim": 3, "entries": ones})
    code, out, err = run(capsys, ["fit", "--dim", "3", "--predict", path])
    assert code == 1 and out == ""
    assert err == "error: prediction not determined\n"


def test_fit_refuses_a_query_of_another_dimension_before_training(
        capsys, monkeypatch, tmp_path):
    def refuse(n):
        raise AssertionError("no training data may be built for a mismatched query")

    monkeypatch.setattr(cli, "ic_training_data", refuse)
    path = write_json(tmp_path, "octa_flag.json",
                      flag_vector(lattice_from_json(simplicial_lattice(OCTA_FACETS))).to_json())
    code, out, err = run(capsys, ["fit", "--dim", "10", "--predict", path])
    assert code == 1 and out == ""
    assert err == "error: query has dimension 3, training has dimension 10\n"


def test_fit_refuses_a_lattice_query_of_another_dimension_before_its_flag_vector(
        capsys, monkeypatch, tmp_path):
    # the flag vector of a 40-dimensional lattice has 2^40 entries
    def refuse(*args):
        raise AssertionError("no flag vector may be counted for a mismatched query")

    monkeypatch.setattr(cli, "flag_vector", refuse)
    monkeypatch.setattr(cli, "ic_training_data", refuse)
    path = write_json(tmp_path, "thin40.json", thin_lattice_doc(40))
    code, out, err = run(capsys, ["fit", "--dim", "6", "--predict", path])
    assert code == 1 and out == ""
    assert err == "error: query has dimension 40, training has dimension 6\n"


def test_ih(capsys, tmp_path):
    path = write_json(tmp_path, "st7.json", complex_to_json(by_name("susp_torus7")))
    code, out, err = run(capsys, ["ih", "--in", path])
    assert code == 0 and err == ""
    assert out == ('{"boundaries": [6, 13, 1, 0], "cycles": [7, 15, 1, 1], '
                   '"perversity": "middle", "ranks": [1, 2, 0, 1]}\n')


def test_lg(capsys, tmp_path):
    path = write_json(tmp_path, "ch.json", complex_to_json(by_name("cone_hexagon")))
    code, out, err = run(capsys, ["lg", "--in", path, "--dim-seq", "0,0", "--w", "0"])
    assert code == 0 and err == ""
    assert out == ('{"cells": {"(0,0)": 24, "(0,1)": 168, "(1,0)": 18}, '
                   '"rank": 1, "w": [0]}\n')


def test_shapes(capsys):
    code, out, err = run(capsys, ["shapes", "--dd-check", "--max-total-dim", "4"])
    assert code == 0 and err == ""
    assert out == '{"all_zero": true}\n'


def test_identical_invocations_are_byte_identical(capsys, tmp_path):
    path = write_json(tmp_path, "st7.json", complex_to_json(by_name("susp_torus7")))
    _, first, _ = run(capsys, ["ih", "--in", path])
    _, second, _ = run(capsys, ["ih", "--in", path])
    assert first == second


@pytest.mark.parametrize("argv", [
    ["word", "--word", "IXC"],
    ["iccheck", "--max-len", "0"],
    ["ih", "--in", "/does/not/exist.json"],
    ["shapes", "--max-total-dim", "3"],
    ["shapes", "--dd-check", "--max-total-dim", "-3"],
    ["lg", "--in", "EDGE", "--dim-seq", "1_0,0", "--w", "0"],
    ["lg", "--in", "EDGE", "--dim-seq", "x,0", "--w", "0"],
    ["fibrank", "--dim", "0"],
    ["fit", "--dim", "-5", "--predict", "EDGE"],
])
def test_validation_failures_exit_one_with_message(capsys, tmp_path, argv):
    # a valid complex, so only the arguments can be at fault
    argv = [write_json(tmp_path, "edge.json", EDGE) if a == "EDGE" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, work", [
    (["iccheck", "--max-len", str(cli.MAX_ICCHECK_LEN + 1)], "ic_check"),
    (["fibrank", "--dim", "14"], "ic_flag_rank"),
    (["fit", "--dim", "14", "--predict", "QUERY"], "ic_training_data"),
    (["shapes", "--dd-check", "--max-total-dim", "15"], "iter_shapes"),
    (["flag", "--in", "THIN17"], "flag_vector"),
    (["word", "--word", "I" * (cli.MAX_WORD_LEN + 1)], "eval_word"),
])
def test_exponential_subcommands_refuse_arguments_above_their_limit(
        capsys, monkeypatch, tmp_path, argv, work):
    def refuse(*args):
        raise AssertionError("no work may start above the limit")

    monkeypatch.setattr(cli, work, refuse)
    files = {"QUERY": write_json(tmp_path, "q.json", {"dim": 8, "entries": {}}),
             "THIN17": write_json(tmp_path, "thin17.json", thin_lattice_doc(17))}
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "above the limit" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["fibrank", "--dim", "0"],
    ["fit", "--dim", "-5", "--predict", "QUERY"],
], ids=["fibrank", "fit"])
def test_dim_below_one_is_refused_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def refuse(*args):
        raise AssertionError("no work may start below --dim 1")

    for work in ("_load_json", "ic_flag_rank", "ic_training_data"):
        monkeypatch.setattr(cli, work, refuse)
    query = write_json(tmp_path, "q.json", thin_lattice_doc(2))
    argv = [query if a == "QUERY" else a for a in argv]
    assert run(capsys, argv) == (1, "", "error: --dim must be at least 1\n")


class _FailingStdout:
    def write(self, text):
        raise OSError(5, "Input/output error")


def test_output_errors_exit_one_with_one_line(capsys, monkeypatch):
    # the work succeeds, then serialising or writing its document fails
    if hasattr(sys, "set_int_max_str_digits"):
        # the default limit, whatever PYTHONINTMAXSTRDIGITS says
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(cli, "eval_word", lambda word: (10 ** 4300,))
                code, out, err = run(capsys, ["word", "--word", "I"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "4300" in err and err.count("\n") == 1
    monkeypatch.setattr(sys, "stdout", _FailingStdout())
    code, out, err = run(capsys, ["word", "--word", "III"])
    assert code == 1 and out == ""
    assert err == "error: [Errno 5] Input/output error\n"


def test_internal_errors_exit_two_with_a_traceback(capsys, monkeypatch):
    def fail(word):
        raise RuntimeError("internal failure")
    monkeypatch.setattr(cli, "eval_word", fail)
    code, out, err = run(capsys, ["word", "--word", "I"])
    assert code == 2 and out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: internal failure\n")


@pytest.mark.parametrize("outcome, code", [
    ((1, 1), 0), (ValueError("bad word"), 1), (RuntimeError("internal failure"), 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_the_cyclic_collector_is_paused_for_the_work_only(capsys, monkeypatch, outcome, code):
    seen = []

    def record(word):
        seen.append(gc.isenabled())
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    monkeypatch.setattr(cli, "eval_word", record)
    assert gc.isenabled()
    assert run(capsys, ["word", "--word", "I"])[0] == code
    assert seen == [False] and gc.isenabled()
    # a caller that turned the collector off finds it still off
    gc.disable()
    try:
        assert run(capsys, ["word", "--word", "I"])[0] == code
        assert seen == [False, False] and not gc.isenabled()
    finally:
        gc.enable()


EDGE = {"dim": 1, "vertices": ["a", "b"], "strata": {"a": 1, "b": 1},
        "maximal_simplices": [["a", "b"]]}
TRIANGLE = {"dim": 2, "vertices": ["a", "b", "c"], "strata": {"a": 2, "b": 2, "c": 2},
            "maximal_simplices": [["a", "b", "c"]], "perversity": {"2": 0}}
SEGMENT = {"dim": 1,
           "faces": [{"id": "e", "dim": -1}, {"id": "a", "dim": 0}, {"id": "b", "dim": 0},
                     {"id": "s", "dim": 1}],
           "covers": [["e", "a"], ["e", "b"], ["a", "s"], ["b", "s"]]}
POINT_FACES = [{"id": "e", "dim": -1}, {"id": "p", "dim": 0}]


@pytest.mark.parametrize("command, doc", [
    ("ih", {**EDGE, "vertices": 5}),
    ("ih", {**EDGE, "vertices": ["a", 5]}),
    ("ih", {**EDGE, "maximal_simplices": [["a", ["b"]]]}),
    ("ih", {**EDGE, "maximal_simplices": [["a", 2]]}),
    ("ih", {**EDGE, "strata": {"a": True, "b": 1}}),
    ("ih", {**EDGE, "dim": "1"}),
    ("ih", {**EDGE, "dim": True}),
    ("ih", {**TRIANGLE, "perversity": {"2": False}}),
    ("ih", {**TRIANGLE, "perversity": {"2": "0"}}),
    ("flag", {"dim": 0, "faces": POINT_FACES, "covers": 5}),
    ("flag", {"dim": 0, "faces": POINT_FACES, "covers": [[["e"], "p"]]}),
    ("flag", {"dim": 0, "faces": POINT_FACES, "covers": [["e", 0]]}),
    ("flag", {"dim": 0, "faces": [{"id": "e", "dim": -1}, {"id": 0, "dim": 0}],
              "covers": [["e", 0]]}),
    ("flag", {**SEGMENT, "faces": SEGMENT["faces"][:3] + [{"id": "s", "dim": True}]}),
    ("flag", {**SEGMENT, "dim": True}),
    ("fit", {"dim": 3, "entries": [1, 6, 12, 8]}),
    ("fit", {"dim": True, "entries": {"": 1, "0": 2}}),
    ("fit", {"dim": 1, "entries": {"": 1, "0": 2, "0,0": 3}}),
    ("fit", {"dim": 1, "entries": {"": 1, "0,0": 2}}),
    ("fit", {"dim": 2, "entries": {"": 1, "0": 4, "1": 4, "0,1": 8, "1,0": 8}}),
], ids=[
    "vertices-int", "vertex-int", "simplex-nested", "simplex-int", "label-bool",
    "dim-string", "dim-bool", "perversity-bool", "perversity-string", "covers-int", "cover-list-id", "cover-int-id", "face-int-id",
    "face-dim-bool", "lattice-dim-bool", "entries-list", "flag-dim-bool",
    "entry-repeats-member-beside-subset", "entry-repeats-member", "subset-spelled-twice",
])
def test_malformed_documents_exit_one_with_one_line(capsys, tmp_path, command, doc):
    path = write_json(tmp_path, "bad.json", doc)
    if command == "fit":
        # fit at the document's own dimension, so only the document can be at fault
        dim = str(doc["dim"]) if type(doc["dim"]) is int else "3"
        argv = ["fit", "--dim", dim, "--predict", path]
    else:
        argv = [command, "--in", path]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_FUZZ_VALUES = [None, True, False, 0, 1, 2, 3, -1, 10 ** 20, 0.5, "", "x", "middle", [], {}, [[]],
                {"2": 0}, {"2": 1}]


def _mutated(node, rng, names):
    """A copy of a JSON value with one random edit somewhere inside it: an
    entry dropped, repeated or renamed, an integer shifted, or a value
    replaced by a vertex name or an odd JSON value."""
    if isinstance(node, (dict, list)) and node and rng.random() < 0.75:
        out = dict(node) if isinstance(node, dict) else list(node)
        key = rng.choice(list(out) if isinstance(out, dict) else range(len(out)))
        r = rng.random()
        if r < 0.15:
            del out[key]
        elif r < 0.25 and isinstance(out, list):
            out.insert(rng.randrange(len(out) + 1), out[key])
        elif r < 0.3 and isinstance(out, dict):
            out[rng.choice(names)] = out[key]
        else:
            out[key] = _mutated(node[key], rng, names)
        return out
    if type(node) is int and rng.random() < 0.5:
        return node + rng.choice((-2, -1, 1, 2))
    return rng.choice(names + _FUZZ_VALUES if rng.random() < 0.5 else _FUZZ_VALUES)


def _guarded_run(capsys, argv, doc):
    """Exit code of one call, which must compute (0) or refuse with one
    error line (1), never a traceback (2) or an escaping exception."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1), (argv, doc, err)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (doc, err)
    return code


def test_mutated_complex_documents_exit_zero_or_one(capsys, tmp_path):
    # a regression guard: every input either computes or is refused with one line
    rng = random.Random(20261018)
    docs = [complex_to_json(by_name(name)) for name in ("cone_hexagon", "wedge", "susp_hexagon")]
    path = str(tmp_path / "doc.json")
    codes = []
    for _ in range(300):
        doc = rng.choice(docs)
        names = list(doc["vertices"])
        for _ in range(rng.randint(1, 3)):
            doc = _mutated(doc, rng, names)
        write_json(tmp_path, "doc.json", doc)
        lg = ["lg", "--in", path, "--dim-seq", f"{rng.randint(0, 1)},0", "--w", str(rng.randint(0, 2))]
        for argv in (["ih", "--in", path], lg):
            codes.append(_guarded_run(capsys, argv, doc))
    # the edits leave some documents valid, so the computations are reached too
    assert codes.count(0) >= 30 and codes.count(1) >= 30


def test_mutated_lattice_and_flag_vector_documents_exit_zero_or_one(capsys, tmp_path):
    rng = random.Random(20261019)
    # C(6,4) by Gale's evenness: the unions of two disjoint edges of the 6-cycle
    c64 = [(f"v{a}", f"v{a + 1}", f"v{b}", f"v{(b + 1) % 6}")
           for a, b in combinations(range(6), 2) if 2 <= b - a <= 4]
    # fit runs at the dimension of the document a mutant is cut from
    docs = [("3", simplicial_lattice(OCTA_FACETS)),
            ("4", flag_vector(lattice_from_json(simplicial_lattice(c64))).to_json())]
    path = str(tmp_path / "doc.json")
    codes = {"flag": [], "fit": []}
    for _ in range(200):
        dim, doc = rng.choice(docs)
        names = [f["id"] for f in doc["faces"]] if "faces" in doc else list(doc["entries"])
        for _ in range(rng.randint(1, 3)):
            doc = _mutated(doc, rng, names)
        write_json(tmp_path, "doc.json", doc)
        for argv in (["flag", "--in", path], ["fit", "--dim", dim, "--predict", path]):
            codes[argv[0]].append(_guarded_run(capsys, argv, doc))
    assert all(0 in c and 1 in c for c in codes.values())


def test_flag_vector_of_huge_dim_is_refused_without_listing_subsets(capsys, tmp_path, monkeypatch):
    def refuse(n):
        raise AssertionError("_subset_keys must not run before the count check")

    monkeypatch.setattr(facelattice, "_subset_keys", refuse)
    path = write_json(tmp_path, "huge.json", {"dim": 64, "entries": {}})
    code, out, err = run(capsys, ["fit", "--dim", "3", "--predict", path])
    assert code == 1 and out == ""
    assert "every subset" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ih", "--in", "DOC"],
    ["lg", "--in", "DOC", "--dim-seq", "1,0", "--w", "0"],
    ["flag", "--in", "DOC"],
    ["fit", "--dim", "3", "--predict", "DOC"],
], ids=["ih", "lg", "flag", "fit"])
def test_deeply_nested_json_exits_one_with_one_line(capsys, tmp_path, argv):
    # deep enough that json.load runs out of recursion depth
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run(capsys, [str(path) if a == "DOC" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps package functions by name, some of which only it looks up
    root = Path(strathom.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    code = (f"import sys; sys.path.insert(0, {str(root / 'perfbench')!r}); "
            "import tracing; tracing.install(tracing.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_heavy_modules():
    # every CLI call is a fresh interpreter, so whatever importing the CLI
    # loads is paid on every call; these modules are needed on no fast path
    root = Path(strathom.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    code = ("import sys; bare = set(sys.modules); import strathom.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "strathom.cli" in added
    assert not added & {"dataclasses", "inspect", "fractions", "decimal", "traceback"}


def test_string_dim_is_reported_as_such(capsys, tmp_path):
    path = write_json(tmp_path, "edge.json", {**EDGE, "dim": "1"})
    code, _, err = run(capsys, ["ih", "--in", path])
    assert code == 1 and "'dim' must be an integer" in err


# the cone over a tetrahedron's boundary, whose cycles depend on p(3)
CONE_TETRA = {"dim": 3, "vertices": ["a", "b", "c", "d", "x"],
              "strata": {"a": 3, "b": 3, "c": 3, "d": 3, "x": 0},
              "maximal_simplices": [[*f, "x"] for f in ("abc", "abd", "acd", "bcd")]}


@pytest.mark.parametrize("command, doc, message", [
    ("fit", {"dim": 1, "entries": {"": 1, "x": 2}}, "flag entry 'x' is not a list of integers"),
    # int() would read these as the subset {0}
    ("fit", {"dim": 1, "entries": {"": 1, "\u0660": 2}},
     "flag entry '\u0660' is not a list of integers"),
    ("fit", {"dim": 1, "entries": {"": 1, " 0": 2}}, "flag entry ' 0' is not a list of integers"),
    ("ih", {"dim": 2, "vertices": ["a"], "strata": {"a": 1}, "maximal_simplices": [["a"]],
            "perversity": {"2": 0}}, "declared dim 2 does not match computed dimension 0"),
    # '3' and '03' are one codimension, and taking either value would change the cycles
    ("ih", {**CONE_TETRA, "perversity": {"2": 0, "3": 0, "03": 1}},
     "perversity entries '3' and '03' name the same codimension"),
    # int() would read the first two as codimension 3 and the third as codimension 10
    ("ih", {**CONE_TETRA, "perversity": {"2": 0, "\u0663": 1}},
     "perversity codimension '\u0663' must be written in ASCII digits"),
    ("ih", {**CONE_TETRA, "perversity": {"2": 0, " 3 ": 1}},
     "perversity codimension ' 3 ' must be written in ASCII digits"),
    ("ih", {**CONE_TETRA, "perversity": {"2": 0, "1_0": 1}},
     "perversity codimension '1_0' must be written in ASCII digits"),
    ("ih", {**EDGE, "perversity": {"2": 0}},
     "perversity map must be empty for a complex of dimension 1"),
    ("flag", {"dim": -1, "faces": [{"id": "e", "dim": -1}], "covers": []},
     "lattice must contain a face of dimension >= 0"),
    ("flag", {"dim": 0, "faces": [{"id": "e", "dim": -1}, {"id": "f", "dim": -1},
                                  {"id": "a", "dim": 0}],
              "covers": [["e", "a"], ["f", "a"]]},
     "lattice must have exactly one face of dimension -1"),
    # a segment ab whose vertex b is covered by nothing
    ("flag", {"dim": 1, "faces": [{"id": "e", "dim": -1}, {"id": "a", "dim": 0},
                                  {"id": "b", "dim": 0}, {"id": "ab", "dim": 1}],
              "covers": [["e", "a"], ["e", "b"], ["a", "ab"]]},
     "face 'b' has no upper cover"),
], ids=["flag-entry-not-integer", "flag-entry-arabic-indic-zero", "flag-entry-spaced",
        "complex-dim-before-perversity", "perversity-codim-twice",
        "perversity-codim-arabic-indic", "perversity-codim-spaced", "perversity-codim-underscore",
        "perversity-map-in-dimension-one", "lattice-only-the-empty-face",
        "lattice-two-empty-faces", "lattice-vertex-without-upper-cover"])
def test_malformed_documents_name_their_fault(capsys, tmp_path, command, doc, message):
    path = write_json(tmp_path, "bad.json", doc)
    argv = ["fit", "--dim", "1", "--predict", path] if command == "fit" else [command, "--in", path]
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


def test_well_formed_base_documents_pass(capsys, tmp_path):
    # the documents the malformed cases are cut from are themselves valid
    assert run(capsys, ["ih", "--in", write_json(tmp_path, "edge.json", EDGE)])[0] == 0
    assert run(capsys, ["ih", "--in", write_json(tmp_path, "tri.json", TRIANGLE)])[0] == 0
    assert run(capsys, ["flag", "--in", write_json(tmp_path, "seg.json", SEGMENT)])[0] == 0
    # a facet that lists a vertex twice is the same facet, under either perversity form
    middle = {key: v for key, v in TRIANGLE.items() if key != "perversity"}
    for doc in (middle, TRIANGLE):
        code, want, _ = run(capsys, ["ih", "--in", write_json(tmp_path, "once.json", doc)])
        assert code == 0
        twice = {**doc, "maximal_simplices": [["a", "b", "c", "c"]]}
        assert run(capsys, ["ih", "--in", write_json(tmp_path, "twice.json", twice)]) == (0, want, "")


# two edges in X_0 break the filtration; the message names the least one
TWO_EDGES = {"dim": 1, "vertices": ["u", "v", "w", "x"], "strata": dict.fromkeys("uvwx", 0),
             "maximal_simplices": [["w", "x"], ["u", "v"]]}
# a triangle whose edges x and z each gain a third vertex: (e, x) and (e, z) both
# have 3 middles and are first met through the middle a, whose covers x and z
# are read in document order
TWO_FAT_EDGES = {
    "dim": 2,
    "faces": [{"id": i, "dim": d} for d, ids in enumerate(["e", "abcdg", "xyz", "t"], -1)
              for i in ids],
    "covers": [["e", v] for v in "abcdg"] + [
        ["a", "x"], ["b", "x"], ["d", "x"], ["b", "y"], ["c", "y"], ["a", "z"], ["c", "z"],
        ["g", "z"], ["x", "t"], ["y", "t"], ["z", "t"]],
}


@pytest.mark.parametrize("command, doc, message", [
    ("ih", TWO_EDGES, "simplex ['u', 'v'] lies in X_0 but has dimension 1"),
    ("flag", TWO_FAT_EDGES, "diamond property fails between 'e' and 'x': 3 middle faces instead of 2"),
], ids=["ih", "flag"])
def test_filtration_error_names_the_same_simplex_under_any_hash_seed(tmp_path, command, doc,
                                                                     message):
    path = write_json(tmp_path, "doc.json", doc)
    src = str(Path(strathom.__file__).resolve().parents[1])
    errors = set()
    for seed in range(1, 6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "strathom.cli", command, "--in", path],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        errors.add(proc.stderr)
    assert errors == {f"error: {message}\n"}


def test_bad_dim_seq_exits_one(capsys, tmp_path):
    path = write_json(tmp_path, "ch.json", complex_to_json(by_name("cone_hexagon")))
    code, _, err = run(capsys, ["lg", "--in", path, "--dim-seq", "1,1", "--w", "0"])
    assert code == 1 and "dim-seq" in err
    # only <digits>,0 is read; int() alone would take "1_0" as 10 and " 1" as 1
    for dim_seq in ("1_0,0", "x,0", " 1,0", "1, 0", "+1,0", "1,0,0", ",0", "1", "\u0661,0"):
        code, out, err = run(capsys, ["lg", "--in", path, "--dim-seq", dim_seq, "--w", "0"])
        assert (code, out, err) == (1, "", "error: --dim-seq must have the form 'i,0'\n"), dim_seq


USAGE = "usage: strathom [-h] {word,iccheck,flag,fibrank,fit,ih,lg,shapes} ..."
SUBCOMMAND_HELP = {
    "word": "h-vector of a word over {I, C}",
    "iccheck": "verify the IC-equation on all short words",
    "flag": "flag vector of a face lattice",
    "fibrank": "rank of the IC flag vectors in one dimension",
    "fit": "fit linear forms on IC data and predict a query",
    "ih": "intersection homology ranks of a complex",
    "lg": "order-one local-global rank of a complex",
    "shapes": "boundary-of-boundary sweep over shapes",
}


def test_usage_errors_and_help(capsys):
    # a call builds only the subparser it names, yet every usage line and
    # the top-level help still name all eight subcommands
    for argv in ([], ["nosuchcommand"], ["word", "--word", "IC", "extra"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0] == USAGE, argv
        assert lines[1].startswith("strathom: error: "), argv
        if not argv:
            assert "arguments are required: command" in lines[1]
    code, out, err = run(capsys, ["--help"])
    assert code == 0 and err == "" and out.startswith(USAGE + "\n")
    # help strings may wrap with the terminal width
    flat = " ".join(out.split())
    for name, help_text in SUBCOMMAND_HELP.items():
        assert f" {name} {help_text}" in flat, name
        code, out, err = run(capsys, [name, "-h"])
        assert code == 0 and err == "" and out.startswith(f"usage: strathom {name} [-h]")
    assert run(capsys, ["word"])[0] == 1
