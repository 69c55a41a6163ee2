"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  The seed picks the spelling of every input document
(vertex names, face ids, list order) and becomes the PYTHONHASHSEED of the
process that runs the calls.  With --trace 0 the result holds the
end-to-end metrics, with --trace 1 the per-layer metrics, and the spans go
to perfbench/out/.  Every answer is checked against expected.json; the last
line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 20
SETUP_PROBES = 10
DEADLINE_S = 170.0


def _error(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _children_cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(env):
    """Median CPU time of a fresh interpreter importing strathom.cli, scaled
    to the reference speed by probes timed before each start-up (speed.py)."""
    times, samples = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            t0 = process_time()
            speed.probe()
            samples.append(process_time() - t0)
        t0 = _children_cpu_seconds()
        subprocess.run([sys.executable, "-c", "import strathom.cli"], env=env, cwd=ROOT, check=True)
        times.append(_children_cpu_seconds() - t0)
    return statistics.median(times) * speed.scale(samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (SRC / "strathom" / "cli.py").is_file():
        return _error(f"no package source at {SRC}; run from the root of a checkout")
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(args.seed % 2**32)}
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        calls = workloads.build(args.workload, random.Random(args.seed), workdir, expected)
        try:
            setup_s = setup_seconds(env)
        except subprocess.CalledProcessError:
            return _error("a fresh interpreter cannot import strathom.cli")
        plan = {
            "src": str(SRC),
            "calls": [list(call.argv) for call in calls],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "trace_file": str(OUT / f"trace-{tag}.json"),
            "report": str(workdir / "report.json"),
        }
        (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(workdir / "plan.json")],
                                  env=env, cwd=ROOT, timeout=DEADLINE_S - (perf_counter() - started))
        except subprocess.TimeoutExpired:
            return _error(f"the workload did not finish within {DEADLINE_S:.0f} s")
        if proc.returncode != 0:
            return _error(f"worker exited with status {proc.returncode}")
        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = []
    for one_pass in report["passes"]:
        for call, (code, out, err, _) in zip(calls, one_pass["calls"]):
            verdict = checks.judge(call, expected, code, out, err)
            verdicts.append(verdict)
            if verdict == checks.WRONG:
                print(f"wrong answer: {' '.join(call.argv)} -> {out.strip()}", file=sys.stderr)
    pass_s = [p["s"] for p in report["passes"]]
    call_p50_s = [statistics.median(c[3] for c in p["calls"]) for p in report["passes"]]
    if args.trace:
        units = tracing.units()
        metrics = {m: {"value": v, "unit": units[m]} for m, v in report["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(pass_s), "unit": "s"},
            "job_p50_s": {"value": statistics.median(call_p50_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        }
    print(f"{args.workload}: {len(pass_s)} passes, pass median {statistics.median(pass_s):.4f} s, "
          f"unscaled {statistics.median(p['cpu_s'] for p in report['passes']):.4f} s"
          f"{' (traced)' if args.trace else ''}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.WRONG not in verdicts,
        "attempted": len(verdicts),
        "failed": verdicts.count(checks.FAILED),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
