"""Runs one workload's calls through `strathom.cli.main` in this process.

    python3 perfbench/worker.py PLAN_JSON

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
PYTHONHASHSEED taken from the benchmark seed.  The calls run one after
another (a closed loop with one caller), in whole passes, until the
plan's seconds are used up; at least one pass always runs.  The report
holds every call's exit code, stdout, stderr and duration, each pass's
time in calls (the sum of its call durations), the process's peak
resident memory and, when tracing, the per-layer metrics.

A call's duration is read from the CPU clock, less the probes that ran
inside it, and scaled to the reference speed by the probes that ran
inside it, or by those of its whole pass when none did (see speed.py).
The run's length is kept on the wall clock.
"""
from __future__ import annotations

import gc
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from speed import Speedometer, cpu_seconds, scale


def run_pass(entry, calls, meter):
    """One pass over `calls`: ([[code, stdout, stderr, seconds], ...], the
    summed CPU seconds of the calls before scaling)."""
    first = len(meter.samples)
    timed = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        begin, spent = len(meter.samples), meter.spent
        t0 = cpu_seconds()
        with redirect_stdout(out), redirect_stderr(err):
            code = entry(argv)
        took = cpu_seconds() - t0 - (meter.spent - spent)
        timed.append(([code, out.getvalue(), err.getvalue(), took], begin, len(meter.samples)))
    whole = meter.samples[first:]
    unscaled = sum(call[3] for call, _, _ in timed)
    for call, begin, end in timed:
        call[3] *= scale(meter.samples[begin:end] or whole)
    return [call for call, _, _ in timed], unscaled


def main():
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import strathom.cli

    src = Path(plan["src"]).resolve()
    if src not in Path(strathom.cli.__file__).resolve().parents:
        print(f"error: strathom imported from {strathom.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    entry = strathom.cli.main
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        entry = tracing.install(tracer)

    # Every call starts from a collected heap, as it would in a fresh
    # process, so no call pays for collecting garbage its predecessors left;
    # the worker's own long-lived objects are kept out of every collection.
    # The collections and output capture between calls are not timed.
    gc.collect()
    gc.freeze()
    passes = []
    start = perf_counter()
    with Speedometer() as meter:
        while not passes or perf_counter() - start < plan["seconds"]:
            calls, unscaled = run_pass(entry, plan["calls"], meter)
            passes.append({"s": sum(call[3] for call in calls), "cpu_s": unscaled, "calls": calls})

    report = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer, len(passes))
        tracer.write(plan["trace_file"])
    Path(plan["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
