"""Check `lg_ranks` and `ih_ranks` against the independent oracles in
tests/oracles.py on the barycentric subdivision of `susp_torus7` (128
vertices, 2,942 simplices), a size tier-1 leaves out.

Run it from the repository root:

    PYTHONPATH=src python3 tests/scale_check.py

Each case prints the package's answer and the oracle's with the time each
took, and the script exits 1 if any pair differs.  Nothing is cached
between runs.  On 2 x86-64 cores with Python 3.11 the script takes about
a minute, nearly all of it in the oracles: 3 s for `lg` at i = 0, 39 s
at i = 1 and 22 s for `ih`.  pytest does not collect this file, since its
name does not start with test_.
"""
import sys
import time

from oracles import naive_ih_report, sparse_lg_rank
from strathom.complexes import barycentric_subdivision
from strathom.corpus import by_name
from strathom.ihomology import ih_ranks
from strathom.lghomology import lg_ranks


def _timed(f):
    start = time.perf_counter()
    out = f()
    return out, time.perf_counter() - start


def main() -> int:
    k = barycentric_subdivision(by_name("susp_torus7"))
    strata = {v: k.strata[v] for v in k.vertices}
    maximal = [tuple(k.vertices[v] for v in f) for f in k.maximal]
    p = k.perversity
    cases = [(f"lg i={i} w=0 rank", lambda i=i: lg_ranks(k, i, 0).rank,
              lambda i=i: sparse_lg_rank(strata, maximal, p, i, 0)) for i in (0, 1)]
    cases.append(("ih (ranks, cycles, boundaries)", lambda: tuple(ih_ranks(k)),
                  lambda: naive_ih_report(strata, maximal, p)))
    bad = 0
    for name, package, oracle in cases:
        got, got_s = _timed(package)
        want, want_s = _timed(oracle)
        bad += got != want
        verdict = "ok" if got == want else "MISMATCH"
        print(f"sd(susp_torus7) {name}: {verdict}, package {got} in {got_s:.2f} s, "
              f"oracle {want} in {want_s:.2f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
