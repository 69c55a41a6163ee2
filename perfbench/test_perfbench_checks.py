"""Every benchmark check must accept the right answer and refuse a wrong one."""
import json

import pytest

from checks import FAILED, OK, WRONG, judge
from oracle import cyclic_h, flag_closed_form, word_h
from workloads import Call
import docs

EXPECTED = {
    "ih": {"susp_torus7/middle": [1, 2, 0, 1]},
    "lg": {"cone_hexagon/1/2": 0},
    "h": {"C(9,6)": [1, 3, 6, 10, 6, 3, 1]},
    "word": {"CIII": [1, 3, 3, 3, 1]},
    "flag": {"seg": {"dim": 1, "entries": {"": 1, "0": 2}}},
    "fibrank": {"6": 13},
    "iccheck": {"7": 254},
    "shapes": {"6": True},
}
IH = Call(("ih", "--in", "x.json"), "ih", "susp_torus7/middle")
LG = Call(("lg", "--in", "x.json", "--dim-seq", "1,0", "--w", "2"), "lg", "cone_hexagon/1/2")

# (call, right answer, wrong answers)
CASES = [
    (IH, {"ranks": [1, 2, 0, 1], "cycles": [3, 4, 2, 1], "boundaries": [2, 2, 2, 0],
          "perversity": "middle"},
     [{"ranks": [1, 2, 1, 1], "cycles": [3, 4, 3, 1], "boundaries": [2, 2, 2, 0],
       "perversity": "middle"},
      {"ranks": [1, 2, 0, 1], "cycles": [3, 4, 2, 1], "boundaries": [2, 2, 1, 0],
       "perversity": "middle"}]),
    (LG, {"rank": 0, "cells": {}, "w": [2]},
     [{"rank": 1, "cells": {}, "w": [2]}, {"rank": 0, "cells": {}, "w": [0]}]),
    (Call(("fit",), "h", "C(9,6)"), {"h": [1, 3, 6, 10, 6, 3, 1]},
     [{"h": [1, 3, 6, 10, 6, 4, 1]}, {"h": [1, 3, 6, 10, 6, 3]}]),
    (Call(("word",), "word", "CIII"), {"h": [1, 3, 3, 3, 1]}, [{"h": [1, 3, 3, 1]}]),
    (Call(("flag",), "flag", "seg"), {"dim": 1, "entries": {"": 1, "0": 2}},
     [{"dim": 1, "entries": {"": 1, "0": 3}}, {"dim": 2, "entries": {"": 1, "0": 2}}]),
    (Call(("fibrank",), "fibrank", "6"), {"rank": 13, "fibonacci": 13, "match": True},
     [{"rank": 12, "fibonacci": 13, "match": False}, {"rank": 12, "fibonacci": 12, "match": True}]),
    (Call(("iccheck", "--max-len", "7"), "iccheck", "7"),
     {"all_hold": True, "max_len": 7, "words": 254},
     [{"all_hold": False, "max_len": 7, "words": 254},
      {"all_hold": True, "max_len": 7, "words": 126}]),
    (Call(("shapes",), "shapes", "6"), {"all_zero": True}, [{"all_zero": False}]),
]


def _out(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


@pytest.mark.parametrize("call,right,wrongs", CASES, ids=[c[0].check for c in CASES])
def test_check_accepts_right_and_refuses_wrong(call, right, wrongs):
    assert judge(call, EXPECTED, 0, _out(right), "") == OK
    for doc in wrongs:
        assert judge(call, EXPECTED, 0, _out(doc), "") == WRONG
    assert judge(call, EXPECTED, 0, "not json\n", "") == WRONG
    assert judge(call, EXPECTED, 0, _out(right) * 2, "") == WRONG
    assert judge(call, EXPECTED, 2, "", "Traceback (most recent call last):\n") == FAILED
    assert judge(call, EXPECTED, 1, "", "error: bad\n") == FAILED


def test_reject_needs_exit_1_and_one_line():
    bad = Call(("ih", "--in", "bad.json"), "reject", "bool_label")
    assert judge(bad, EXPECTED, 1, "", "error: stratum label must be an integer\n") == OK
    assert judge(bad, EXPECTED, 0, _out({"ranks": [1, 0]}), "") == FAILED
    assert judge(bad, EXPECTED, 2, "", "Traceback (most recent call last):\n  x\nTypeError\n") == FAILED
    assert judge(bad, EXPECTED, 1, "", "error: one\nerror: two\n") == FAILED
    assert judge(bad, EXPECTED, 1, "", "Traceback (most recent call last)\n") == FAILED


def test_closed_forms_refuse_perturbed_values():
    assert cyclic_h(9, 6) == [1, 3, 6, 10, 6, 3, 1]
    assert cyclic_h(10, 7) == [1, 3, 6, 10, 10, 6, 3, 1]
    assert word_h("CIII") == [1, 3, 3, 3, 1]
    square = docs.cube_lattice(2)
    counted = docs.chain_counts(square)["entries"]
    assert counted == flag_closed_form("cube2", square) == {"": 1, "0": 4, "1": 4, "0,1": 8}
    tetra = docs.simplicial_lattice(docs.cyclic_facets(4, 3))
    assert docs.chain_counts(tetra)["entries"]["0,1,2"] == 24
    counted["0,1"] += 1
    assert counted != flag_closed_form("cube2", square)
