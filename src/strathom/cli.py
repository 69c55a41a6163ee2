"""Command-line front end: one subcommand per computation, JSON out.

Every success path prints a single newline-terminated JSON document on
stdout with sorted keys, so identical invocations are byte-identical.  All
numbers are exact; nothing here ever goes through a float.  Exit status is
0 on success, 1 for bad input (usage, validation, domain errors; message on
stderr), 2 for internal failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .complexes import complex_from_json
from .errors import DomainError
from .facelattice import (
    FlagVector,
    fibonacci,
    flag_vector,
    ic_flag_rank,
    lattice_from_json,
)
from .hcalc import eval_word, fit_and_predict, ic_check, ic_training_data, rule_C, rule_I
from .ihomology import ih_ranks
from .lghomology import lg_ranks
from .stratsimplex import dd_check, iter_shapes

__all__ = ["main"]

# Largest arguments of the subcommands whose cost grows steeply with them; the
# largest allowed call of each takes under a minute (see README).
MAX_WORD_LEN = 10000
MAX_ICCHECK_LEN = 32
MAX_FIBRANK_DIM = 13
MAX_FIT_DIM = 13
MAX_FLAG_DIM = 16
MAX_SHAPES_TOTAL_DIM = 14


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to read as JSON") from None


def _check_limit(option: str, value: int, limit: int, least: int | None = None) -> None:
    if least is not None and value < least:
        raise ValueError(f"{option} must be at least {least}")
    if value > limit:
        raise ValueError(f"{option} {value} is above the limit {limit}: larger calls take too long")


def _cmd_word(args) -> dict:
    _check_limit("--word length", len(args.word), MAX_WORD_LEN)
    return {"h": list(eval_word(args.word))}


def _cmd_iccheck(args) -> dict:
    """Check the IC-equation on every word of length 1..max_len, one level
    of distinct h-vectors per length.

    eval_word(Xw) = rule_X(eval_word(w)), so level n is exactly the set of
    eval_word values over the words of length n.  ic_check's verdict
    reads only h, so a level's verdict is the verdict over its words.
    """
    _check_limit("--max-len", args.max_len, MAX_ICCHECK_LEN, least=1)
    level = {(1,)}
    all_hold = True
    for _ in range(args.max_len):
        level = {rule(h) for h in level for rule in (rule_I, rule_C)}
        all_hold = all_hold and all(map(ic_check, level))
    return {"max_len": args.max_len, "words": 2 ** (args.max_len + 1) - 2, "all_hold": all_hold}


def _cmd_flag(args) -> dict:
    lattice = lattice_from_json(_load_json(args.infile))
    _check_limit("lattice dimension", lattice.dim, MAX_FLAG_DIM)
    return flag_vector(lattice).to_json()


def _cmd_fibrank(args) -> dict:
    _check_limit("--dim", args.dim, MAX_FIBRANK_DIM, least=1)
    rank = ic_flag_rank(args.dim)
    target = fibonacci(args.dim + 1)
    return {"rank": rank, "fibonacci": target, "match": rank == target}


def _cmd_fit(args) -> dict:
    _check_limit("--dim", args.dim, MAX_FIT_DIM, least=1)
    doc = _load_json(args.predict)
    # the query may arrive as a face lattice or directly as a flag vector
    if isinstance(doc, dict) and "faces" in doc:
        query = lattice_from_json(doc)
    else:
        query = FlagVector.from_json(doc)
    if query.dim != args.dim:
        # refused before any flag vector, basis or training pair is built
        raise DomainError(f"query has dimension {query.dim}, training has dimension {args.dim}")
    if not isinstance(query, FlagVector):
        query = flag_vector(query)
    prediction = fit_and_predict(ic_training_data(args.dim), query)
    return {"h": [int(v) for v in prediction]}


def _cmd_ih(args) -> dict:
    k = complex_from_json(_load_json(args.infile))
    report = ih_ranks(k)
    return {
        "ranks": list(report.ranks),
        "cycles": list(report.cycles),
        "boundaries": list(report.boundaries),
        "perversity": k.perversity.to_json(),
    }


def _cmd_lg(args) -> dict:
    i, _, rest = args.dim_seq.partition(",")
    if rest != "0" or not (i.isascii() and i.isdigit()):
        raise ValueError("--dim-seq must have the form 'i,0'")
    k = complex_from_json(_load_json(args.infile))
    report = lg_ranks(k, int(i), args.w)
    return {"rank": report.rank, "cells": report.cells, "w": [args.w]}


def _cmd_shapes(args) -> dict:
    if not args.dd_check:
        raise ValueError("shapes requires --dd-check")
    if args.max_total_dim < 0:
        raise ValueError(f"--max-total-dim must be >= 0, got {args.max_total_dim}")
    _check_limit("--max-total-dim", args.max_total_dim, MAX_SHAPES_TOTAL_DIM)
    all_zero = all(dd_check(shape) for shape in iter_shapes(args.max_total_dim))
    return {"all_zero": all_zero}


_IN = ("--in", {"dest": "infile", "required": True})

# name -> (handler, help, arguments); each argument is (flag, add_argument options)
_COMMANDS = {
    "word": (_cmd_word, "h-vector of a word over {I, C}", [
        ("--word", {"required": True, "help": f"at most {MAX_WORD_LEN} letters"}),
    ]),
    "iccheck": (_cmd_iccheck, "verify the IC-equation on all short words", [
        ("--max-len", {"type": int, "required": True, "help": f"at most {MAX_ICCHECK_LEN}"}),
    ]),
    "flag": (_cmd_flag, "flag vector of a face lattice", [
        ("--in", {"dest": "infile", "required": True,
                  "help": f"face lattice of dimension at most {MAX_FLAG_DIM}"}),
    ]),
    "fibrank": (_cmd_fibrank, "rank of the IC flag vectors in one dimension", [
        ("--dim", {"type": int, "required": True, "help": f"at most {MAX_FIBRANK_DIM}"}),
    ]),
    "fit": (_cmd_fit, "fit linear forms on IC data and predict a query", [
        ("--dim", {"type": int, "required": True, "help": f"at most {MAX_FIT_DIM}"}),
        ("--predict", {"required": True, "help": "lattice or flag vector JSON"}),
    ]),
    "ih": (_cmd_ih, "intersection homology ranks of a complex", [_IN]),
    "lg": (_cmd_lg, "order-one local-global rank of a complex", [
        _IN,
        ("--dim-seq", {"required": True, "help": "dimension sequence, e.g. 1,0"}),
        ("--w", {"type": int, "required": True}),
    ]),
    "shapes": (_cmd_shapes, "boundary-of-boundary sweep over shapes", [
        ("--dd-check", {"action": "store_true"}),
        ("--max-total-dim", {"type": int, "required": True,
                             "help": f"at most {MAX_SHAPES_TOTAL_DIM}"}),
    ]),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for one call: only the subparser that argv[0] names, or
    all of them when it names none (help, usage errors).

    The usage line is spelled out so that it lists every subcommand either
    way, and the subparsers take their prog from `add_subparsers` rather
    than from that usage line.
    """
    parser = argparse.ArgumentParser(
        prog="strathom",
        usage=f"%(prog)s [-h] {{{','.join(_COMMANDS)}}} ...",
        description="Exact intersection homology and pyramid/prism h-calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="strathom")
    for name in [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS:
        handler, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help; fold usage
        # problems into the validation-error status
        return 0 if exc.code == 0 else 1
    try:
        # serialising can raise ValueError (an integer past the interpreter's
        # digit limit) and writing OSError, so both are handled like the work
        sys.stdout.write(json.dumps(args.handler(args), sort_keys=True) + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback  # here, so that start-up does not load it
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
