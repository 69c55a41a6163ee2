"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload lg_sd --runs 10 --first-seed 100

Runs `perfbench/run.py` once per seed, one after another, and prints for
each metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the quartile distance as a share
of the median, which is what each end-to-end bound in BENCHMARK.json is
compared against.  Runs are untraced; per-seed values go to stderr.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        shown = " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {shown} | {proc.stderr.strip().splitlines()[-1]}",
              file=sys.stderr, flush=True)
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {metric:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  iqr/median {spread:.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share {sorted(shares)}  all correct {all(r['correct'] for r in results)}")


if __name__ == "__main__":
    main()
