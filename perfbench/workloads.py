"""The four workloads: which command-line calls each makes, on which inputs.

Every call carries the name of its check and the key of its expected value
in expected.json (see checks.py).  Documents are written into a scratch
directory; names and list order inside them come from the seeded
generator, the objects they describe do not.

ih_sd2   one `ih` call on the twice-subdivided cone over the 7-vertex
         torus: complex construction and long-column reduction.
lg_sd    `lg` at i in {0, 1} and every w on once-subdivided cones and
         suspensions: cell enumeration, allowability, short columns.
ic_fit   `fit`, `fibrank` and `flag` in dimensions 6 to 8: face lattices,
         flag vectors and dense Fraction elimination only.
desk     every subcommand on corpus-sized inputs, plus six malformed
         documents that must be rejected: per-call costs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import docs

UPPER_MIDDLE_3 = {"2": 0, "3": 1}
LG_COMPLEXES = ("cone_hexagon", "cone_square", "susp_hexagon", "susp_square")
OCTAHEDRON = [(a, b, c) for a in "ad" for b in "be" for c in "cf"]


@dataclass(frozen=True)
class Call:
    argv: tuple
    check: str
    key: str


def lattices():
    """Every face lattice the workloads read, by the name expected.json uses."""
    return {
        "octahedron": docs.simplicial_lattice(OCTAHEDRON),
        "cube3": docs.cube_lattice(3),
        "cube7": docs.cube_lattice(7),
        "C(6,4)": docs.simplicial_lattice(docs.cyclic_facets(6, 4)),
        "C(7,4)": docs.simplicial_lattice(docs.cyclic_facets(7, 4)),
        "C(8,5)": docs.simplicial_lattice(docs.cyclic_facets(8, 5)),
        "C(9,6)": docs.simplicial_lattice(docs.cyclic_facets(9, 6)),
        "C(10,6)": docs.simplicial_lattice(docs.cyclic_facets(10, 6)),
        "C(12,8)": docs.simplicial_lattice(docs.cyclic_facets(12, 8)),
    }


# Seed-independent malformed documents; each must exit 1 with one line.
BAD_DOCS = {
    "nested_simplex": ("ih", {
        "dim": 2, "vertices": ["a", "b", "c"], "strata": {"a": 2, "b": 2, "c": 2},
        "maximal_simplices": [["a", ["b"], "c"]], "perversity": "middle"}),
    "vertices_int": ("ih", {
        "dim": 1, "vertices": 5, "strata": {"a": 1, "b": 1},
        "maximal_simplices": [["a", "b"]]}),
    "bool_label": ("ih", {
        "dim": 1, "vertices": ["a", "b"], "strata": {"a": True, "b": 1},
        "maximal_simplices": [["a", "b"]]}),
    "entries_list": ("fit", {"dim": 3, "entries": [1, 6, 12, 8]}),
    "covers_int": ("flag", {
        "dim": 0, "faces": [{"id": "e", "dim": -1}, {"id": "p", "dim": 0}], "covers": 5}),
    "cover_list_id": ("flag", {
        "dim": 0, "faces": [{"id": "e", "dim": -1}, {"id": "p", "dim": 0}],
        "covers": [[["e"], "p"]]}),
}


class _Writer:
    def __init__(self, workdir: Path, rng):
        self.workdir = workdir
        self.rng = rng

    def write(self, name, doc):
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def complex(self, name, k, perversity="middle"):
        return self.write(name, docs.complex_doc(k, self.rng, perversity))

    def lattice(self, name, lattice):
        return self.write(name, docs.lattice_doc(lattice, self.rng))

    def flag_vector(self, name, flag):
        entries = list(flag["entries"].items())
        self.rng.shuffle(entries)
        return self.write(name, {"dim": flag["dim"], "entries": dict(entries)})


def _ih_sd2(w, expected):
    k = docs.subdivide(docs.subdivide(docs.CORPUS["cone_torus7"]()))
    return [Call(("ih", "--in", w.complex("sd2_cone_torus7", k)), "ih", "cone_torus7/middle")]


def _lg_sd(w, expected):
    calls = []
    for name in LG_COMPLEXES:
        k = docs.subdivide(docs.CORPUS[name]())
        path = w.complex(f"sd_{name}", k)
        for i in (0, 1):
            for w1 in range(docs.complex_dim(k) + 1):
                argv = ("lg", "--in", path, "--dim-seq", f"{i},0", "--w", str(w1))
                calls.append(Call(argv, "lg", f"{name}/{i}/{w1}"))
    return calls


def _ic_fit(w, expected):
    lat = lattices()
    return [
        Call(("fit", "--dim", "6", "--predict", w.lattice("C96", lat["C(9,6)"])), "h", "C(9,6)"),
        Call(("fit", "--dim", "6", "--predict", w.flag_vector("C106", expected["flag"]["C(10,6)"])),
             "h", "C(10,6)"),
        Call(("fibrank", "--dim", "6"), "fibrank", "6"),
        Call(("flag", "--in", w.lattice("cube7", lat["cube7"])), "flag", "cube7"),
        Call(("flag", "--in", w.lattice("C128", lat["C(12,8)"])), "flag", "C(12,8)"),
    ]


def _desk(w, expected):
    calls = []
    for name, build in docs.CORPUS.items():
        k = build()
        calls.append(Call(("ih", "--in", w.complex(name, k)), "ih", f"{name}/middle"))
        calls.append(Call(("ih", "--in", w.complex(f"sd_{name}", docs.subdivide(k))),
                          "ih", f"{name}/middle"))
    torus = docs.CORPUS["susp_torus7"]()
    for tag, k in (("", torus), ("sd_", docs.subdivide(torus))):
        path = w.complex(f"{tag}susp_torus7_upper", k, UPPER_MIDDLE_3)
        calls.append(Call(("ih", "--in", path), "ih", "susp_torus7/0,1"))
    for name, i, w1 in (("cone_hexagon", 0, 0), ("cone_square", 0, 1),
                        ("cone_square", 1, 0), ("susp_square", 0, 2)):
        path = w.complex(f"lg_{name}", docs.CORPUS[name]())
        argv = ("lg", "--in", path, "--dim-seq", f"{i},0", "--w", str(w1))
        calls.append(Call(argv, "lg", f"{name}/{i}/{w1}"))
    lat = lattices()
    for name in ("octahedron", "cube3", "C(6,4)"):
        calls.append(Call(("flag", "--in", w.lattice(f"flag_{name}", lat[name])), "flag", name))
    for dim, name in ((3, "octahedron"), (4, "C(7,4)"), (5, "C(8,5)")):
        path = w.lattice(f"fit_{name}", lat[name])
        calls.append(Call(("fit", "--dim", str(dim), "--predict", path), "h", name))
    path = w.flag_vector("fit_C64", expected["flag"]["C(6,4)"])
    calls.append(Call(("fit", "--dim", "4", "--predict", path), "h", "C(6,4)"))
    for word in ("IIII", "CCCC", "IICC", "CIII"):
        calls.append(Call(("word", "--word", word), "word", word))
    calls.append(Call(("fibrank", "--dim", "4"), "fibrank", "4"))
    calls.append(Call(("shapes", "--dd-check", "--max-total-dim", "6"), "shapes", "6"))
    calls.append(Call(("iccheck", "--max-len", "7"), "iccheck", "7"))
    for name, (command, doc) in BAD_DOCS.items():
        path = w.write(f"bad_{name}", doc)
        if command == "fit":
            argv = ("fit", "--dim", "3", "--predict", path)
        else:
            argv = (command, "--in", path)
        calls.append(Call(argv, "reject", name))
    return calls


BUILDERS = {"ih_sd2": _ih_sd2, "lg_sd": _lg_sd, "ic_fit": _ic_fit, "desk": _desk}


def build(name, rng, workdir: Path, expected):
    """Write the workload's documents into workdir and return its calls."""
    return BUILDERS[name](_Writer(workdir, rng), expected)
