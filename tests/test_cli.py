"""End-to-end CLI behavior: exact JSON bytes, exit codes, determinism."""
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import strathom
from strathom import cli, facelattice
from strathom.cli import main
from strathom.complexes import complex_to_json
from strathom.corpus import by_name
from strathom.facelattice import flag_vector, from_simplicial_facets, lattice_to_json

OCTA_FACETS = [
    ("a", "b", "c"), ("a", "b", "f"), ("a", "c", "e"), ("a", "e", "f"),
    ("b", "c", "d"), ("b", "d", "f"), ("c", "d", "e"), ("d", "e", "f"),
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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


def test_fibrank(capsys):
    code, out, err = run(capsys, ["fibrank", "--dim", "3"])
    assert code == 0 and err == ""
    assert out == '{"fibonacci": 3, "match": true, "rank": 3}\n'


def test_flag(capsys, tmp_path):
    lattice = from_simplicial_facets(OCTA_FACETS)
    path = write_json(tmp_path, "octa.json", lattice_to_json(lattice))
    code, out, err = run(capsys, ["flag", "--in", path])
    assert code == 0 and err == ""
    assert out == ('{"dim": 3, "entries": {"": 1, "0": 6, "0,1": 24, '
                   '"0,1,2": 48, "0,2": 24, "1": 12, "1,2": 24, "2": 8}}\n')


def test_fit_accepts_lattice_or_flag_vector(capsys, tmp_path):
    lattice = from_simplicial_facets(OCTA_FACETS)
    lat_path = write_json(tmp_path, "octa_lattice.json", lattice_to_json(lattice))
    code, out, _ = run(capsys, ["fit", "--dim", "3", "--predict", lat_path])
    assert code == 0 and out == '{"h": [1, 3, 3, 1]}\n'
    flag_path = write_json(tmp_path, "octa_flag.json", flag_vector(lattice).to_json())
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
                      flag_vector(from_simplicial_facets(OCTA_FACETS)).to_json())
    code, out, err = run(capsys, ["fit", "--dim", "10", "--predict", path])
    assert code == 1 and out == ""
    assert err == "error: query has dimension 3, training has dimension 10\n"


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
])
def test_validation_failures_exit_one_with_message(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, work", [
    (["iccheck", "--max-len", "19"], "ic_words"),
    (["fibrank", "--dim", "12"], "ic_flag_rank"),
    (["fit", "--dim", "12", "--predict", "QUERY"], "ic_training_data"),
    (["shapes", "--dd-check", "--max-total-dim", "15"], "iter_shapes"),
])
def test_exponential_subcommands_refuse_arguments_above_their_limit(
        capsys, monkeypatch, tmp_path, argv, work):
    def refuse(*args):
        raise AssertionError("no work may start above the limit")

    monkeypatch.setattr(cli, work, refuse)
    query = write_json(tmp_path, "q.json", {"dim": 8, "entries": {}})
    code, out, err = run(capsys, [query if a == "QUERY" else a for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "above the limit" in err
    assert err.count("\n") == 1


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


def test_mutated_complex_documents_exit_zero_or_one(capsys, tmp_path):
    # a regression guard: every input either computes or is refused with
    # one line, never a traceback (exit 2) or an escaping exception
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
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert code in (0, 1), (argv, doc, err)
            if code == 1:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (doc, err)
            codes.append(code)
    # the edits leave some documents valid, so the computations are reached too
    assert codes.count(0) >= 30 and codes.count(1) >= 30


def test_flag_vector_of_huge_dim_is_refused_without_listing_subsets(capsys, tmp_path, monkeypatch):
    def refuse(n):
        raise AssertionError("_subset_keys must not run before the count check")

    monkeypatch.setattr(facelattice, "_subset_keys", refuse)
    path = write_json(tmp_path, "huge.json", {"dim": 64, "entries": {}})
    code, out, err = run(capsys, ["fit", "--dim", "3", "--predict", path])
    assert code == 1 and out == ""
    assert "every subset" in err and err.count("\n") == 1


def test_string_dim_is_reported_as_such(capsys, tmp_path):
    path = write_json(tmp_path, "edge.json", {**EDGE, "dim": "1"})
    code, _, err = run(capsys, ["ih", "--in", path])
    assert code == 1 and "'dim' must be an integer" in err


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


def test_filtration_error_names_the_same_simplex_under_any_hash_seed(tmp_path):
    # two edges in X_0 break the filtration; the message names the least one
    doc = {"dim": 1, "vertices": ["u", "v", "w", "x"], "strata": dict.fromkeys("uvwx", 0),
           "maximal_simplices": [["w", "x"], ["u", "v"]]}
    path = write_json(tmp_path, "two_edges.json", doc)
    src = str(Path(strathom.__file__).resolve().parents[1])
    errors = set()
    for seed in range(1, 6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "strathom.cli", "ih", "--in", path],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        errors.add(proc.stderr)
    assert errors == {"error: simplex ['u', 'v'] lies in X_0 but has dimension 1\n"}


def test_bad_dim_seq_exits_one(capsys, tmp_path):
    path = write_json(tmp_path, "ch.json", complex_to_json(by_name("cone_hexagon")))
    code, _, err = run(capsys, ["lg", "--in", path, "--dim-seq", "1,1", "--w", "0"])
    assert code == 1 and "dim-seq" in err


def test_usage_errors_and_help(capsys):
    assert run(capsys, ["nosuchcommand"])[0] == 1
    assert run(capsys, [])[0] == 1
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["word"])[0] == 1
