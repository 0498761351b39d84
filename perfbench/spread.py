#!/usr/bin/env python3
"""Run perfbench workloads repeatedly and report the spread of every metric.

Usage (from the repository root):

    python3 perfbench/spread.py --workload serve_cold --runs 5
    python3 perfbench/spread.py --workload all --runs 1        # every e2e metric once
    python3 perfbench/spread.py --workload all --trace 1       # every per-layer metric
    python3 perfbench/spread.py --workload all --determinism   # count metrics repeat?

Each run gets its own seed (--first-seed, +1, ...). For every metric the
report prints the median, the quartiles (statistics.quantiles(n=4)), the
interquartile range as a share of the median, and min/max. The script exits
non-zero if any run fails, reports an incorrect result, or (with
--determinism) a count metric differs between two runs with the same seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["model_lulesh", "model_milc", "serve_cold", "serve_edit_mix"]
# Per-layer metrics that are counts, not timings: they must repeat exactly
# for a given seed.
COUNT_METRICS = [
    "measure.insts_per_op",
    "extrap.models_per_op",
    "extrap.hypotheses_per_op",
    "store.writes_per_op",
    "store.hits_per_op",
    "store.objects",
    "store.sidecar_kb",
    "incremental.recomputed_per_op",
    "incremental.recompute_frac",
]
COMMAND = ["cargo", "run", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml", "--"]
# The repository root: perfbench runs from there (its stores go to .bench_store).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace, extra):
    cmd = COMMAND + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        print(f"  {workload} seed {seed}: exit {proc.returncode}, "
              f"result {'missing' if result is None else 'incorrect'}", file=sys.stderr)
    return ok, result


def report(workload, results):
    print(f"\n{workload}: {len(results)} run(s)")
    names = list(results[0]["metrics"])
    print(f"  {'metric':<34} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'min':>12} {'max':>12}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:<34} {unit:<8} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>8.3f} {min(values):>12.4f} {max(values):>12.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name or 'all'")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--determinism", action="store_true",
                    help="two traced runs per workload with the same seed; "
                         "count metrics must match exactly")
    ap.add_argument("--store-dir", help="passed through to perfbench")
    args = ap.parse_args()
    extra = ["--store-dir", args.store_dir] if args.store_dir else []
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    all_ok = True
    for workload in workloads:
        if args.determinism:
            pair = [run_once(workload, args.first_seed, args.seconds, 1, extra) for _ in range(2)]
            all_ok &= all(ok for ok, _ in pair)
            if not all(r for _, r in pair):
                continue
            a, b = (r["metrics"] for _, r in pair)
            for name in COUNT_METRICS:
                same = a[name]["value"] == b[name]["value"]
                all_ok &= same
                print(f"{workload:<16} {name:<32} {a[name]['value']!r:>14} "
                      f"{b[name]['value']!r:>14}  {'same' if same else 'DIFFERENT'}")
            continue
        results = []
        for k in range(args.runs):
            ok, result = run_once(workload, args.first_seed + k, args.seconds, args.trace, extra)
            all_ok &= ok
            if result is not None:
                results.append(result)
                values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"  {workload} seed {args.first_seed + k}: {values}", flush=True)
        if results:
            report(workload, results)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
