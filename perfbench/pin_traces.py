#!/usr/bin/env python3
"""Pin the sha256 of `destcalc trace --json FILE` for every program the cli workload can draw.

    python3 perfbench/pin_traces.py

Writes `perfbench/trace_digests.json`.  The cli workload draws its programs
from this finite pool (`Cli.pool()`), so every trace it
prints has a pinned digest; traces, rule names and hole numerals must stay
byte-identical unless a change means to alter them, and then it re-pins.
"""

import json
import os
import sys

import run


def main():
    run.use_checkout_source()
    import workloads as W

    os.chdir(run.ROOT)
    pool = W.Cli().pool()
    W.write_sources(pool)
    digests = {}
    for path, *_ in pool:
        code, _, digest, err = W.invoke(["trace", "--json", path])
        if code != 0:
            sys.exit("%s: exit %d: %s" % (path, code, err))
        digests[path] = digest
    with open(W.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("pinned %d trace digests in %s" % (len(digests), W.DIGESTS))


if __name__ == "__main__":
    main()
