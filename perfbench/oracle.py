"""Regenerate expected.json, the answers every benchmark run is checked against.

    python3 perfbench/oracle.py            # from the repository root, ~8 min

Nothing here calls the package.  Homology ranks come from the dense
Fraction oracles in tests/oracles.py, run on the unsubdivided complexes:
intersection homology is a topological invariant, so the subdivided
inputs the workloads read must give the same ranks.  h-vectors come from
`simplicial_h_vector` and are held to the cyclic-polytope closed form;
flag vectors come from the benchmark's own chain enumeration and are held
to the closed forms for simplicial polytopes and cubes; word h-vectors and
Fibonacci ranks are closed forms.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

import docs  # noqa: E402
from oracles import naive_ih_betti, naive_lg_rank, simplicial_h_vector  # noqa: E402
from workloads import LG_COMPLEXES, OCTAHEDRON, UPPER_MIDDLE_3, lattices  # noqa: E402

SIMPLICIAL = {
    "octahedron": OCTAHEDRON,
    "C(6,4)": docs.cyclic_facets(6, 4),
    "C(7,4)": docs.cyclic_facets(7, 4),
    "C(8,5)": docs.cyclic_facets(8, 5),
    "C(9,6)": docs.cyclic_facets(9, 6),
    "C(10,6)": docs.cyclic_facets(10, 6),
    "C(12,8)": docs.cyclic_facets(12, 8),
}
FLAG_LATTICES = ("octahedron", "cube3", "C(6,4)", "cube7", "C(10,6)", "C(12,8)")
WORDS = ("IIII", "CCCC", "IICC", "CIII")


def _log(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def perversity_fn(spec):
    if spec == "middle":
        return lambda c: (c - 2) // 2
    return lambda c: spec[str(c)]


def _require(ok, what):
    if not ok:
        raise SystemExit(f"oracle disagrees with a closed form: {what}")


def cyclic_h(n, d):
    """h_k = C(n-d-1+k, k) for k <= d/2, mirrored above (upper bound theorem)."""
    return [comb(n - d - 1 + min(k, d - k), min(k, d - k)) for k in range(d + 1)]


def flag_closed_form(name, lattice):
    """f_S = f_{max S} times the faces of each dimension in S inside one face
    of the next: C(e+1, d+1) for simplices, C(e, d) 2^(e-d) for cubes."""
    faces, _ = lattice
    n = max(faces.values())
    fvec = [sum(1 for d in faces.values() if d == j) for j in range(n)]
    if name.startswith("cube"):
        inner = lambda d, e: comb(e, d) * 2 ** (e - d)  # noqa: E731
    else:
        inner = lambda d, e: comb(e + 1, d + 1)  # noqa: E731
    out = {"": 1}
    for mask in range(1, 2 ** n):
        s = [j for j in range(n) if mask >> j & 1]
        value = fvec[s[-1]]
        for d, e in zip(s, s[1:]):
            value *= inner(d, e)
        out[",".join(map(str, s))] = value
    return out


def word_h(word):
    """Rules I (convolve with (1, 1)) and C (repeat the middle entry), applied
    to (1) from the right."""
    h = [1]
    for ch in reversed(word):
        if ch == "I":
            h = [a + b for a, b in zip(h + [0], [0] + h)]
        else:
            mid = (len(h) - 1) // 2
            h = h[:mid + 1] + h[mid:]
    return h


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "expected.json"))
    args = parser.parse_args()

    ih = {}
    for name, build in docs.CORPUS.items():
        strata, facets = build()
        specs = {"middle": "middle"}
        if name == "susp_torus7":
            specs["0,1"] = UPPER_MIDDLE_3
        for tag, spec in specs.items():
            ih[f"{name}/{tag}"] = list(naive_ih_betti(strata, facets, perversity_fn(spec)))
            _log(f"ih {name}/{tag} = {ih[f'{name}/{tag}']}")

    lg = {}
    for name in LG_COMPLEXES:
        strata, facets = docs.CORPUS[name]()
        m = docs.complex_dim((strata, facets))
        for i in (0, 1):
            for w in range(m + 1):
                lg[f"{name}/{i}/{w}"] = naive_lg_rank(strata, facets, perversity_fn("middle"), i, w)
                _log(f"lg {name}/{i}/{w} = {lg[f'{name}/{i}/{w}']}")

    h = {}
    for name, facets in SIMPLICIAL.items():
        h[name] = list(simplicial_h_vector(facets))
        if name.startswith("C("):
            n, d = map(int, name[2:-1].split(","))
            _require(h[name] == cyclic_h(n, d), f"h-vector of {name}")

    lat = lattices()
    flag = {}
    for name in FLAG_LATTICES:
        counted = docs.chain_counts(lat[name])
        _require(counted["entries"] == flag_closed_form(name, lat[name]), f"flag vector of {name}")
        flag[name] = counted
        _log(f"flag {name}: {len(counted['entries'])} entries")

    words = {word: word_h(word) for word in WORDS}
    _require(words["IIII"] == [comb(4, k) for k in range(5)], "IIII is the 4-cube")
    _require(words["CCCC"] == [1] * 5, "CCCC is the 4-simplex")

    fib = [1, 1]
    while len(fib) < 10:
        fib.append(fib[-1] + fib[-2])
    expected = {
        "ih": ih,
        "lg": lg,
        "h": h,
        "flag": flag,
        "word": words,
        # rank of the IC flag vectors in dimension n is F(n+1), F(1) = F(2) = 1
        "fibrank": {str(n): fib[n] for n in (4, 6)},
        "iccheck": {"7": 2 ** 8 - 2},
        # the double boundary of every stratified simplex vanishes
        "shapes": {"6": True},
    }
    Path(args.out).write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    _log(f"wrote {args.out}")


if __name__ == "__main__":
    main()
