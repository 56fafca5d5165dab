#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload fleet-rf --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It builds perfbench/bin/perfbench.exe
with dune, runs it, cross-checks the metrics it prints against
BENCHMARK.json, and checks that the deterministic metrics repeat exactly
for a seed on the same sources (records under .perfbench/records).  The
last line of stdout is the result object; the line before it holds the
run's provenance and deterministic metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "perfbench.exe")
EXE_TIMEOUT_S = 170
# Sources the benchmark binary is built from; their hash names the
# program under test when the checkout is not a git repository.
SOURCES = ["dune-project", "lib", "perfbench"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def tree_hash():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
            files += [os.path.join(d, n) for n in names]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def check_record(workload, seed, tree, deterministic):
    """Compare deterministic metrics with earlier runs of the same seed
    on the same sources; returns the names that differ."""
    records = os.path.join(OUT_DIR, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{tree}-{workload}-seed{seed}.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    differ = sorted(k for k, v in deterministic.items() if k in known and known[k] != v)
    known.update({k: v for k, v in deterministic.items() if k not in known})
    with open(path, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return differ


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for src in ["dune-project", "lib", "BENCHMARK.json"]:
        if not os.path.exists(os.path.join(ROOT, src)):
            fail(f"{src} not found under {ROOT}: run from a full checkout of the repository")
    declared, workloads = declared_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; BENCHMARK.json defines {', '.join(workloads)}")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "-j", "2",
         "./perfbench/bin/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed", build.returncode)

    tree = tree_hash()
    commit = git_commit() or f"tree-{tree}"
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--commit", commit, "--out-dir", OUT_DIR],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=EXE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {EXE_TIMEOUT_S}s", 3)
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if run.returncode != 0 or len(lines) < 2:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}", run.returncode or 3)
    info, result = json.loads(lines[-2]), json.loads(lines[-1])

    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        fail(f"printed metrics {sorted(printed)} differ from BENCHMARK.json's {sorted(declared)}", 3)
    info["provenance"]["tree"] = tree
    differ = check_record(args.workload, args.seed, tree, info["deterministic"])
    if differ:
        print(f"perfbench: deterministic metrics changed between runs of seed {args.seed}: "
              f"{', '.join(differ)}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
