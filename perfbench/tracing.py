"""Per-layer spans and counts, recorded from outside the package.

`install` replaces each public function the command line reaches with a
wrapper, under the name its caller looks it up by (`strathom.ihomology.
allowable_simplex`, `ColumnReduction.add_column`, ...).  A wrapper records a
span (name, start, end, parent) and bumps counters at the same boundary.
Spans stay in memory until the run ends; `layer_metrics` then turns them
into per-pass figures, where a layer's self time is its spans' duration
minus the part covered by their child spans.
"""
from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """fn traced as span `name`; count(counts, args, result) runs after
        it returns."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[nid, round(s - t0, 7), round(e - t0, 7), parent]
                for nid, s, e, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def _count_complex(counts, args, result):
    # complex_from_json(doc) is the only way the command line builds a complex
    counts["complexes.input_facets"] += len(args[0]["maximal_simplices"])
    counts["complexes.simplices"] += len(result.simplices)


def _count_basis(counts, args, result):
    counts["ihomology.basis"] += sum(len(space.basis) for space in result)


def _count_column(counts, args, result):
    counts["exactla.zero_columns" if result is None else "exactla.pivots"] += 1


def _count_dense(counts, args, result):
    rows = args[0]
    counts["exactla.dense_rows"] += len(rows)
    counts["exactla.dense_cols"] += len(rows[0]) if rows else 0


def _count_candidates(counts, args, result):
    counts["lghomology.candidates"] += len(result)


def _count_allowed(counts, args, result):
    counts["lghomology.allowed_cells"] += bool(result)


def _count_lattice(counts, args, result):
    counts["facelattice.lattices"] += 1
    counts["facelattice.faces"] += len(result)


def install(tracer):
    """Wrap every layer boundary; returns the traced `strathom.cli.main`."""
    from strathom import cli, complexes, exactla, facelattice, hcalc, ihomology, lghomology

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    patch(cli, "complex_from_json", "complexes.from_json", _count_complex)
    patch(complexes.StratifiedComplex, "__init__", "complexes.construct")
    patch(ihomology, "allowable_simplex", "complexes.allowable")
    patch(cli, "ih_ranks", "ihomology.ih_ranks")
    patch(ihomology, "chain_spaces", "ihomology.chain_spaces", _count_basis)
    patch(exactla.ColumnReduction, "add_column", "exactla.add_column", _count_column)
    patch(facelattice, "dense_rank", "exactla.dense", _count_dense)
    patch(hcalc, "solve_right", "exactla.dense", _count_dense)
    patch(cli, "lg_ranks", "lghomology.lg_ranks")
    patch(lghomology, "enumerate_cells", "lghomology.enumerate", _count_candidates)
    patch(lghomology, "cell_allowed", "lghomology.allowed", _count_allowed)
    patch(lghomology, "cell_boundary", "lghomology.boundary")
    patch(cli, "lattice_from_json", "facelattice.from_json", _count_lattice)
    patch(facelattice, "from_word", "facelattice.from_word", _count_lattice)
    patch(hcalc, "dual", "facelattice.dual", _count_lattice)
    patch(facelattice.FaceLattice, "__init__", "facelattice.validate")
    for owner in (cli, facelattice, hcalc):
        patch(owner, "flag_vector", "facelattice.flag_vector")
    patch(cli, "ic_training_data", "hcalc.training")
    patch(cli, "fit_and_predict", "hcalc.fit")
    for owner in (cli, hcalc):
        patch(owner, "eval_word", "hcalc.eval_word")
    patch(cli, "ic_check", "hcalc.ic_check")
    patch(cli, "dd_check", "stratsimplex.dd_check")
    return tracer.wrap("cli.main", cli.main)


# metric -> span whose self time it is
SELF_TIME = {
    "cli.self_s": "cli.main",
    "complexes.construct_s": "complexes.construct",
    "complexes.from_json_s": "complexes.from_json",
    "complexes.allowable_s": "complexes.allowable",
    "ihomology.chain_spaces_s": "ihomology.chain_spaces",
    "ihomology.self_s": "ihomology.ih_ranks",
    "exactla.add_column_s": "exactla.add_column",
    "exactla.dense_s": "exactla.dense",
    "lghomology.enumerate_s": "lghomology.enumerate",
    "lghomology.allowed_s": "lghomology.allowed",
    "lghomology.boundary_s": "lghomology.boundary",
    "lghomology.self_s": "lghomology.lg_ranks",
    "facelattice.from_json_s": "facelattice.from_json",
    "facelattice.from_word_s": "facelattice.from_word",
    "facelattice.dual_s": "facelattice.dual",
    "facelattice.validate_s": "facelattice.validate",
    "facelattice.flag_vector_s": "facelattice.flag_vector",
    "hcalc.training_s": "hcalc.training",
    "hcalc.fit_s": "hcalc.fit",
    "stratsimplex.dd_check_s": "stratsimplex.dd_check",
}
# metric -> span whose calls it counts
CALLS = {
    "complexes.allowable_calls": "complexes.allowable",
    "exactla.columns": "exactla.add_column",
    "lghomology.basis_cells": "lghomology.allowed",
    "lghomology.boundaries": "lghomology.boundary",
    "facelattice.flag_vectors": "facelattice.flag_vector",
    "hcalc.words": "hcalc.eval_word",
    "hcalc.ic_checks": "hcalc.ic_check",
    "stratsimplex.shapes": "stratsimplex.dd_check",
}
COUNTERS = (
    "complexes.input_facets", "complexes.simplices", "ihomology.basis",
    "exactla.pivots", "exactla.zero_columns", "exactla.dense_rows", "exactla.dense_cols",
    "lghomology.candidates", "lghomology.allowed_cells",
    "facelattice.lattices", "facelattice.faces",
)
RATIOS = {"lghomology.kept_ratio": ("lghomology.basis_cells", "lghomology.candidates")}


def units():
    """metric -> unit, in report order."""
    out = {m: "s" for m in SELF_TIME}
    out.update({m: "count" for m in (*CALLS, *COUNTERS)})
    out.update({m: "ratio" for m in RATIOS})
    return out


def layer_metrics(tracer, passes):
    """Per-pass self times and counts, keyed by metric name."""
    covered = [0.0] * len(tracer.spans)
    for nid, start, end, parent in tracer.spans:
        if parent >= 0:
            covered[parent] += end - start
    self_time = Counter()
    calls = Counter()
    for (nid, start, end, _), inner in zip(tracer.spans, covered):
        name = tracer.names[nid]
        self_time[name] += end - start - inner
        calls[name] += 1
    values = {m: self_time[span] for m, span in SELF_TIME.items()}
    values.update({m: calls[span] for m, span in CALLS.items()})
    values.update({m: tracer.counts[m] for m in COUNTERS})
    values = {m: v / passes for m, v in values.items()}
    for m, (num, den) in RATIOS.items():
        values[m] = values[num] / values[den] if values[den] else 0.0
    return values
