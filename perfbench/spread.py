#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fleet-rf --seeds 1-10 [--trace 0]

For every metric: the median over the runs, and the distance between
the first and third quartile (Python's statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound in
BENCHMARK.json, and the same for the host times before calibration
rescaling.  Raw results are appended to .perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    runs, unscaled = [], []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with {out.returncode}")
        info, result = (json.loads(l) for l in out.stdout.splitlines()[-2:])
        runs.append(result)
        unscaled.append(info.get("unscaled", {}))
        with open(os.path.join(ROOT, ".perfbench", "spread.jsonl"), "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, "info": info,
                                 "result": result}) + "\n")
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/{result['attempted']}",
              file=sys.stderr)
    print(f"{args.workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values) if len(values) >= 2 else 0.0
        bound = bounds.get(name) if not args.trace else None
        limit = f"  (bound/3 {bound / 3:.4f}{' OVER' if s > bound / 3 else ''})" if bound else ""
        print(f"  {name:34s} median {statistics.median(values):<12.6g} spread {s:.4f}{limit}")
    for name in unscaled[0]:
        values = [u[name] for u in unscaled]
        print(f"  unscaled {name:25s} median {statistics.median(values):<12.6g} spread {spread(values):.4f}")


if __name__ == "__main__":
    main()
