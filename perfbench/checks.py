"""Judging one command-line call against expected.json.

A call is "ok" when it did what its check demands, "failed" when it gave no
answer (a nonzero exit on valid input, or anything but a clean rejection of
a malformed document), and "wrong" when it exited 0 with an answer that
disagrees with the expected value.  A run is correct when no call is wrong.
"""
from __future__ import annotations

import json

OK, FAILED, WRONG = "ok", "failed", "wrong"


def answer_ok(check, doc, want, argv) -> bool:
    """Whether a parsed exit-0 answer matches the expected value."""
    if check == "ih":
        ranks, cycles, boundaries = doc["ranks"], doc["cycles"], doc["boundaries"]
        return (ranks == want and len(cycles) == len(boundaries) == len(ranks)
                and all(z - b == r for z, b, r in zip(cycles, boundaries, ranks)))
    if check == "lg":
        return doc["rank"] == want and doc["w"] == [int(argv[argv.index("--w") + 1])]
    if check in ("h", "word"):
        return doc == {"h": want}
    if check == "flag":
        return doc == want
    if check == "fibrank":
        return doc == {"rank": want, "fibonacci": want, "match": True}
    if check == "iccheck":
        return doc == {"all_hold": True, "max_len": int(argv[-1]), "words": want}
    if check == "shapes":
        return doc == {"all_zero": want}
    raise NotImplementedError(f"no check named {check!r}")


def judge(call, expected, code, out, err) -> str:
    if call.check == "reject":
        clean = (code == 1 and out == "" and err.endswith("\n") and err.count("\n") == 1
                 and "Traceback" not in err)
        return OK if clean else FAILED
    if code != 0:
        return FAILED
    if not out.endswith("\n") or out.count("\n") != 1:
        return WRONG
    want = expected[call.check][call.key]
    try:
        good = answer_ok(call.check, json.loads(out), want, call.argv)
    except (ValueError, KeyError, TypeError):
        # not JSON, or JSON without the fields the answer must have
        return WRONG
    return OK if good else WRONG
