#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians, quartiles and spreads.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Each run is a fresh `run.py` process; every workload of BENCHMARK.json is
recorded.  For each workload and end-to-end metric this keeps every value, the
median, the quartiles (`statistics.quantiles(n=4)`) and the spread, i.e. the
distance between the quartiles as a share of the median, next to the metric's
bound; and, under "measured", the same for set-up and pass times before they
are scaled to reference seconds.  One traced run per workload (the first seed) adds the per-layer
breakdown.  A repeat set on as many following seeds (11-20 for 1-10) gives,
under "repeat", each metric's median, spread and the change of its median
against the first set.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import run


MEASURED = re.compile(r"^measured, .*: setup ([0-9.]+) s, pass ([0-9.]+) s$", re.M)


def one_run(workload, seed, seconds, trace):
    """-> (result line, the run's stdout)"""
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("%s seed %d trace %d: exit %d\n%s" % (workload, seed, trace, out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def run_set(workload, seeds, seconds, bounds):
    """Untraced runs, one per seed -> (results, per metric: unit, median, quartiles, spread,
    and the same for the set-up and pass times before scaling)."""
    results, measured = [], []
    for seed in seeds:
        result, stdout = one_run(workload, seed, seconds, 0)
        results.append(result)
        measured.append([float(x) for x in MEASURED.search(stdout).groups()])
        values = {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()}
        print(workload, seed, results[-1]["correct"], values, flush=True)
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q3, s = spread(values)
        median = statistics.median(values)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": s, "bound": bound, "values": values}
        print("  %-24s median %-12.5g spread %.3f (bound %.2f)" % (name, median, s, bound), flush=True)
    unscaled = {}
    for i, name in enumerate(("setup_s", "pass_s")):
        values = [m[i] for m in measured]
        unscaled[name] = {"median": statistics.median(values), "spread": spread(values)[2],
                          "values": values}
        print("  measured %-15s median %-12.5g spread %.3f"
              % (name, statistics.median(values), spread(values)[2]), flush=True)
    return results, summary, unscaled


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    repeat_seeds = [s + len(args.seeds) for s in args.seeds]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "run_seconds": seconds,
           "seeds": args.seeds, "workloads": {},
           "repeat": {"seeds": repeat_seeds, "workloads": {}}}
    for workload in (w["name"] for w in spec["workloads"]):
        results, end_to_end, unscaled = run_set(workload, args.seeds, seconds, bounds)
        traced, _ = one_run(workload, args.seeds[0], seconds, 1)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "measured": unscaled,
            "per_layer_seed%d" % args.seeds[0]: {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print("  repeat set", flush=True)
        results, again, unscaled = run_set(workload, repeat_seeds, seconds, bounds)
        doc["repeat"]["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "end_to_end": {
                name: {"median": m["median"], "spread": m["spread"],
                       "median_change": m["median"] / end_to_end[name]["median"] - 1}
                for name, m in again.items()},
            "measured": unscaled,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
