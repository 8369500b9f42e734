#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced run emits exactly the end-to-end
metrics of BENCHMARK.json and a traced run exactly the per-layer metrics, each
with its unit; that the layer self times plus the benchmark's remainder add
up to the traced wall time; that the cli counts each loaded definition once;
that a correct run has no failures; and that a
deliberately wrong reference (or pinned trace digest) makes requests fail.
Exits 1 on the first broken check.
"""

import json
import math
import os
import random
import sys

import run

TINY = {
    "concat": {"dlist_ks": (4, 8), "naive_ks": (2, 4)},
    "requests": {"maps": (6, 4), "relabels": (3, 2), "dlists": (6, 4), "queues": (4, 6)},
    "cli": {"dlist_ks": (1, 2), "map_ns": (1,)},
}


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def emitted_as_declared(result, declared, label):
    metrics = result["metrics"]
    check(set(metrics) == set(declared), "%s: metric names %s" % (label, sorted(set(metrics) ^ set(declared)) or "match"))
    for name, unit in declared.items():
        m = metrics[name]
        check(m["unit"] == unit and isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              "%s: %s = %r %s" % (label, name, m["value"], m["unit"]))


def cli_prelude_defs(W, sizes, seed):
    """Definitions a cli pass loads: each call loads the prelude, then its program."""
    from destcalc.prelude import load_prelude

    wl = W.Cli(**sizes)
    wl.prepare(None, random.Random(seed))
    own = 0
    for path, *_ in wl.progs:
        with open(run.ROOT / path, encoding="utf-8") as fh:
            own += sum(line.startswith("def ") for line in fh)
    calls = 2  # trace --json and run --verify
    return calls * (len(wl.progs) * len(load_prelude().order) + own)


def main():
    run.use_checkout_source()
    import reference as R
    import workloads as W

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(sorted(TINY) == sorted(w["name"] for w in spec["workloads"]), "workloads match BENCHMARK.json")
    with open(run.HERE / "predictions.json", encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    predicted = [m for row in rows for m in row["layer_metrics"]]
    check(sorted(predicted) == sorted(per_layer),
          "predictions.json has one row for each per-layer metric")

    for name, sizes in TINY.items():
        result, _ = run.measure(name, 7, 0, 0, sizes)
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              "%s: %d requests, none failed" % (name, result["attempted"]))
        emitted_as_declared(result, end_to_end, name)

        result, _ = run.measure(name, 7, 0, 1, sizes)
        check(result["correct"], "%s traced: none failed" % name)
        emitted_as_declared(result, per_layer, name + " traced")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        selves = sum(v for k, v in m.items() if k.endswith(".self_s"))
        check(abs(selves - m["trace.wall_s"]) <= 1e-6 * m["trace.wall_s"],
              "%s traced: layer self times + bench remainder %.6f s = wall %.6f s"
              % (name, selves, m["trace.wall_s"]))
        check(m["typecheck.dest_coercions"] == 0 and m["harness.verdict_failures"] == 0,
              "%s traced: no destination coercions, no verdict failures" % name)
        if name == "cli":
            check(m["prelude.defs"] == cli_prelude_defs(W, sizes, 7),
                  "cli traced: prelude.defs %r = one prelude plus the program's own defs per call"
                  % m["prelude.defs"])

    # a wrong reference must count as failures
    wrong = [
        ("concat", R, "concat_expected", lambda k: [(i + 1) % 10 for i in range(k)]),
        ("requests", R, "succ_all", lambda xs: [x + 2 for x in xs]),
        ("requests", R, "bfs_relabel", lambda t: None),
        ("requests", R, "replay_queue", lambda ops: [x for _, x in ops]),
        ("cli", R, "succ_all", lambda xs: list(xs)),
    ]
    bad_digests = run.ROOT / W.WORKDIR / "wrong_digests.json"
    with open(W.DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    with open(bad_digests, "w", encoding="utf-8") as fh:
        json.dump({p: d[::-1] for p, d in pinned.items()}, fh)
    wrong.append(("cli", W, "DIGESTS", bad_digests))
    for name, owner, attr, replacement in wrong:
        saved = getattr(owner, attr)
        setattr(owner, attr, replacement)
        try:
            result, _ = run.measure(name, 7, 0, 0, TINY[name])
        finally:
            setattr(owner, attr, saved)
        ratio = result["failed"] / result["attempted"]
        check(ratio > 0 and not result["correct"],
              "%s with a wrong %s: failed_ratio %.3f > 0" % (name, attr, ratio))
    os.remove(bad_digests)
    print("selftest passed")


if __name__ == "__main__":
    main()
