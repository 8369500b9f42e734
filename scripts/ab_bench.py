#!/usr/bin/env python3
"""Paired benchmark of a change against its parent commit: BENCH_<pr>.json.

    python3 scripts/ab_bench.py --parent HEAD~1 --seeds 701-710 --out BENCH_7.json

Exports the parent into a temporary directory (`git archive`, removed
afterwards) and runs `perfbench/run.py` of each tree, parent and change (this checkout,
as it is on disk), on every workload BENCHMARK.json lists (or on those named by
`--workloads`, to iterate on a subset; a committed file runs them all), one seed at a time
with the order alternating from seed to seed: untraced runs of the length
BENCHMARK.json sets, the same on both sides.  For each workload and end-to-end
metric the output keeps both sides' values, medians
and quartiles, the ratio of the medians, the pairs the change wins (by the
metric's direction in BENCHMARK.json), whether the gap between the
medians exceeds the parent's interquartile range, and whether the change's
median is worse than the parent's by more than the metric's `bound` in
BENCHMARK.json (`regressed`).  Each workload also records whether the change
failed a larger share of its requests (`failed_share_rose`).  Every regressed
metric and every risen failed share is printed as a `REGRESSED` line.  One
traced run per side on the first seed adds each side's per-layer breakdown.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def one_run(tree, workload, seed, seconds, trace):
    """The result line of one `perfbench/run.py` run in `tree`."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 600)
    if out.returncode != 0:
        sys.exit("%s: %s seed %d: exit %d\n%s" % (tree, workload, seed, out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3)"""
    return tuple(statistics.quantiles(values, n=4))


def compare(parent_runs, change_runs, spec):
    """Per end-to-end metric: both sides' values and summary, pair wins, the verdicts."""
    out = {}
    for m in spec["end_to_end"]:
        name, direction, bound = m["name"], m["better"], m["bound"]
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        sign = 1 if direction == "lower" else -1
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        out[name] = {
            "unit": parent_runs[0]["metrics"][name]["unit"],
            "better": direction,
            "parent": {"median": pmed, "q1": pq1, "q3": pq3, "values": p},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": c},
            "ratio": cmed / pmed if pmed else None,
            "pair_wins": sum(sign * (y - x) < 0 for x, y in zip(p, c)),
            "pairs": len(p),
            "gap_exceeds_parent_iqr": sign * (pmed - cmed) > pq3 - pq1,
            "bound": bound,
            "regressed": sign * (cmed - pmed) > bound * abs(pmed),
        }
    return out


def bench(parent_tree, args, spec):
    seconds = spec["run_seconds"]
    sides = {"parent": parent_tree, "change": ROOT}
    doc = {"parent": git("rev-parse", args.parent), "change": "working tree on " + git("rev-parse", "HEAD"),
           "python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "run_seconds": seconds, "seeds": args.seeds,
           "order": "even positions run the parent first, odd ones the change",
           "workloads": {}}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(args.seeds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                runs[side].append(one_run(sides[side], workload, seed, seconds, 0))
            row = {s: round(runs[s][-1]["metrics"]["wall_s"]["value"], 4) for s in runs}
            print(workload, seed, row, flush=True)
        traced = {s: one_run(sides[s], workload, args.seeds[0], seconds, 1) for s in sides}
        attempted = {s: sum(r["attempted"] for r in runs[s]) for s in runs}
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        share = {s: failed[s] / attempted[s] for s in runs}
        doc["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "failed_share_rose": share["change"] > share["parent"],
            "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
            "end_to_end": compare(runs["parent"], runs["change"], spec),
            "per_layer_seed%d" % args.seeds[0]: {
                s: {k: v["value"] for k, v in traced[s]["metrics"].items()} for s in traced},
        }
        for name, m in doc["workloads"][workload]["end_to_end"].items():
            print("  %-24s %.5g -> %.5g  wins %d/%d  gap>IQR %s" % (
                name, m["parent"]["median"], m["change"]["median"], m["pair_wins"], m["pairs"],
                m["gap_exceeds_parent_iqr"]), flush=True)
    for workload, w in doc["workloads"].items():
        for name, m in w["end_to_end"].items():
            if m["regressed"]:
                print("REGRESSED %s %s: %.5g -> %.5g, worse by more than its bound %g" % (
                    workload, name, m["parent"]["median"], m["change"]["median"], m["bound"]))
        if w["failed_share_rose"]:
            print("REGRESSED %s failed share: %d of %d -> %d of %d" % (
                workload, w["failed"]["parent"], w["attempted"]["parent"],
                w["failed"]["change"], w["attempted"]["change"]))
    return doc


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="the commit to compare against")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--out", required=True)
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", nargs="+", choices=names, default=names, metavar="NAME",
                    help="the workloads to run, of %s (default: all)" % ", ".join(names))
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tree:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        doc = bench(tree, args, spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
