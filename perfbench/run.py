#!/usr/bin/env python3
"""destcalc benchmark: one seeded, closed-loop workload per run, one client, no threads.

    python3 perfbench/run.py --workload concat|requests|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  The run repeats the workload's fixed input set ("pass") while the
next pass still fits in `--seconds`.  Between passes it times set-up (import
plus `load_prelude()`) in fresh processes, spread evenly over the run.  Every
output is checked against `reference`.  The end-to-end times are in reference
seconds: each stretch of work is scaled by the machine's speed measured next
to it (see `clock.py`).  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end metrics
under `--trace 0` and the per-layer metrics under `--trace 1`.  A traced run
alternates untraced and traced passes; the difference of their median measured
times is `trace.overhead_s`, and its spans are written to `.perfbench/`.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 10

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
import clock
before = clock.spin()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import destcalc.cli
from destcalc.prelude import load_prelude
load_prelude()
seconds = time.perf_counter() - t0
print(seconds, seconds * clock.scale(before, clock.spin()))
"""


def use_checkout_source():
    """Import destcalc from this checkout's `src/`, or exit with status 1 when there is none."""
    if not (SRC / "destcalc" / "__init__.py").is_file():
        sys.exit("perfbench: no destcalc sources at %s; run from a destcalc checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import destcalc

    if Path(destcalc.__file__).resolve().parent != SRC / "destcalc":
        sys.exit("perfbench: imported destcalc from %s, not %s" % (destcalc.__file__, SRC))


def setup_once():
    """Seconds a fresh process takes to import destcalc and load the prelude ->
    (measured, reference seconds); the process times the calibration loop
    before and after."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    measured, reference = map(float, out.stdout.split())
    return measured, reference


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result dict, report lines)."""
    from destcalc.prelude import load_prelude
    import workloads as W
    from clock import Clock
    from tracer import Tracer

    os.chdir(ROOT)
    os.makedirs(W.WORKDIR, exist_ok=True)
    lines = ["workload %s seed %d seconds %s trace %d" % (workload, seed, seconds, trace)]
    wl = W.WORKLOADS[workload](**(sizes or {}))
    env = None if workload == "cli" else load_prelude()  # the CLI loads its own per call
    wl.prepare(env, random.Random(seed))

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}  # whole pass, calibration loops included: paces the run
    measured = {False: [], True: []}  # pass without calibration loops
    reference = []  # untraced passes in reference seconds
    passes = {False: [], True: []}  # per pass, its records; untraced ones in reference seconds
    setups = []  # untraced runs: one set-up process between passes when one is due
    start = time.perf_counter()
    traced_next, rid = False, 0
    while True:
        if not trace and time.perf_counter() - start >= len(setups) * seconds / SETUP_PROCESSES:
            setups.append(setup_once())
        gc.collect()  # every pass starts from the same heap state
        t0 = time.perf_counter()
        if traced_next:
            tracer.install()
            try:
                with tracer.bench_span():
                    recs = wl.run_pass(tracer, None, rid)
            finally:
                tracer.uninstall()
            measured[True].append(time.perf_counter() - t0)
        else:
            clock = Clock()
            recs = wl.run_pass(None, clock, rid)
            clock.close()
            measured[False].append(clock.measured_seconds())
            reference.append(clock.reference_seconds())
            recs = [r._replace(seconds=r.seconds * clock.scale(r.stretch)) for r in recs]
        walls[traced_next].append(time.perf_counter() - t0)
        passes[traced_next].append(recs)
        rid += len(recs)
        if trace:
            traced_next = not traced_next
        done = all(walls[t] for t in ((False, True) if trace else (False,)))
        estimate = statistics.median(walls[traced_next] or walls[not traced_next])
        if done and time.perf_counter() - start + estimate > seconds:
            break

    while not trace and len(setups) < SETUP_PROCESSES:
        setups.append(setup_once())
    every = [r for t in (False, True) for recs in passes[t] for r in recs]
    failures = [r for r in every if r.error is not None]
    lines.append("passes: %d untraced, %d traced; %d requests per pass"
                 % (len(walls[False]), len(walls[True]), len(passes[False][0])))
    lines.append("failed_ratio %.6f (%d of %d)" % (len(failures) / len(every), len(failures), len(every)))
    lines += ["failure: request %d %s size %d: %s" % (r.rid, r.kind, r.size, r.error)
              for r in failures[:5]]

    if not trace:
        lat = [sorted(r.seconds * 1e3 for r in recs) for recs in passes[False]]
        metrics = {
            "setup_s": metric(statistics.median(r for _, r in setups), "s"),
            "wall_s": metric(statistics.median(reference), "s"),
            "request_p50_ms": metric(statistics.median(statistics.median(v) for v in lat), "ms"),
            "request_p99_ms": metric(statistics.median(percentile(v, 0.99) for v in lat), "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "dlist_time_per_doubling": metric(W.growth_per_doubling(dlist_points(passes[False])),
                                              "ratio"),
        }
        n = len(lat[0])
        lines.append("request latency: %d passes of %d samples, %d beyond p99 in each"
                     % (len(lat), n, n - math.ceil(0.99 * n)))
        lines.append("measured, before scaling to the reference machine: setup %.4f s, pass %.4f s"
                     % (statistics.median(m for m, _ in setups), statistics.median(measured[False])))
    else:
        traced = [r for recs in passes[True] for r in recs]
        metrics = layer_metrics(tracer, measured, traced)
        path = os.path.join(W.WORKDIR, "spans-%s-seed%d.tsv" % (workload, seed))
        tracer.write(path)
        lines.append("spans: %d written to %s" % (len(tracer.spans), path))
    lines += ["%s %r %s" % (k, m["value"], m["unit"]) for k, m in metrics.items()]
    result = {"correct": not failures, "attempted": len(every), "failed": len(failures),
              "metrics": metrics}
    return result, lines


def dlist_points(passes):
    """(k, mean seconds of a pass's dlist requests of size k), one point per pass and k.
    A pass's requests of one size, such as cli's trace and verify of one program,
    make one point, so the median per size is not taken across two kinds of call."""
    out = []
    for recs in passes:
        by_size = {}
        for r in recs:
            if r.kind == "dlist":
                by_size.setdefault(r.size, []).append(r.seconds)
        out += [(k, statistics.mean(v)) for k, v in by_size.items()]
    return out


def layer_metrics(tracer, measured, traced_records):
    """Per-layer metrics per traced pass, in measured seconds."""
    import workloads as W
    from tracer import VERIFY_PASSES

    n = len(measured[True])
    self_s = tracer.self_times()
    calls = tracer.span_counts()
    incl = tracer.inclusive_times()
    c = tracer.counts
    steps = c["machine.steps"]
    dl_steps = [(r.size, tracer.request_steps[r.rid]) for r in traced_records
                if r.kind == "dlist" and tracer.request_steps[r.rid]]
    out = {}
    for layer in ("machine", "typecheck", "syntax", "harness", "printer", "parser", "prelude",
                  "cli", "bench"):
        out[layer + ".self_s"] = metric(self_s[layer] / n, "s")
    out.update({
        "machine.us_per_step": metric(self_s["machine"] / steps * 1e6 if steps else 0.0, "us"),
        "machine.steps": metric(steps / n, "count"),
        "machine.runs": metric(c["machine.runs"] / n, "count"),
        "machine.max_ctx_depth": metric(c["machine.max_ctx_depth"], "count"),
        "machine.dlist_step_growth": metric(W.growth_per_doubling(dl_steps), "ratio"),
        "typecheck.calls": metric(calls["typecheck"] / n, "count"),
        "typecheck.dest_coercions": metric(c["typecheck.dest_coercions"] / n, "count"),
        "syntax.calls": metric(calls["syntax"] / n, "count"),
        "syntax.core_nodes": metric(c["syntax.core_nodes"] / n, "count"),
        "harness.commands_verified": metric(c["harness.commands_verified"] / n, "count"),
        "harness.verdict_failures": metric(c["harness.verdict_failures"] / n, "count"),
        "printer.commands": metric(c["printer.commands"] / n, "count"),
        "printer.bytes_out": metric(c["printer.bytes_out"] / n, "B"),
        "parser.calls": metric(calls["parser"] / n, "count"),
        "parser.source_bytes": metric(c["parser.source_bytes"] / n, "B"),
        "prelude.defs": metric(c["prelude.defs"] / n, "count"),
        "cli.invocations": metric(calls["cli"] / n, "count"),
        "trace.wall_s": metric(tracer.wall() / n, "s"),
        "trace.overhead_s": metric(statistics.median(measured[True]) - statistics.median(measured[False]),
                                   "s"),
    })
    for fn, name in VERIFY_PASSES.items():
        out[name] = metric(incl[fn] / n, "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("concat", "requests", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    use_checkout_source()
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
