#!/usr/bin/env python3
"""The verification ladder: what `--verify` costs on difference-list concatenation.

    PYTHONPATH=src python3 scripts/complexity_bench.py [--sizes 16 32 64 128]

For `toListN` over k left-nested `concatN` of `dsingleN (i % 10)` it runs the
machine, then times the preservation pass (`check_preservation` with a new
checker), the balance scan (`scan_trace_balance`) and the printing of every
command (`cli.print_command` with one table of forms for the trace) over the
trace, and counts the `Checker._infer` and `Checker.infer_value` calls a
preservation pass makes, on a second run of the machine so that counting does
not slow the timed pass.  After the first size each column also shows its growth since
the size before: doubling k doubles the steps, so a pass linear in the trace
grows about 2x per doubling.
"""

import argparse
import time

from destcalc import harness as H
from destcalc import machine as M
from destcalc import syntax as S
from destcalc.cli import Shown, print_command
from destcalc.prelude import load_prelude
from destcalc.typecheck import Checker


def dlist_prog(env, k):
    concat, dsingle = env.runnable("concatN"), env.runnable("dsingleN")
    acc = S.App(dsingle, S.Val(H.encode_nat(0)))
    for i in range(1, k):
        acc = S.App(S.App(concat, acc), S.App(dsingle, S.Val(H.encode_nat(i % 10))))
    return S.App(env.runnable("toListN"), acc)


def _trace(term):
    trace = M.run_term(term, 10**7).trace
    list(trace.steps)  # build the commands before anything is timed
    return trace


def _timed(fn, *args):
    start = time.perf_counter()
    verdict = fn(*args)
    if not verdict.ok:
        raise SystemExit("verdict failure: %s" % verdict.failures[:1])
    return time.perf_counter() - start


def _printed(trace):
    """Seconds to print every command of the trace, as `destcalc trace` does."""
    start, shown = time.perf_counter(), Shown()
    for _, cmd in trace.steps:
        print_command(cmd, shown)
    return time.perf_counter() - start


def _counted_preservation(env, trace, ty):
    """(`_infer` calls, `infer_value` calls) of one preservation pass."""
    calls = {"_infer": 0, "infer_value": 0}
    originals = {name: getattr(Checker, name) for name in calls}

    def counting(name):
        original = originals[name]

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        return counted

    for name in calls:
        setattr(Checker, name, counting(name))
    try:
        _timed(H.check_preservation, trace, Checker(env.tyenv), ty)
    finally:
        for name, original in originals.items():
            setattr(Checker, name, original)
    return calls["_infer"], calls["infer_value"]


def ladder_row(env, k):
    """(steps, preservation s, balance s, print s, `_infer` calls, `infer_value` calls) at size k."""
    term = dlist_prog(env, k)
    ty = env.checker().check_command(M.Command((), term))
    trace = _trace(term)
    preservation = _timed(H.check_preservation, trace, Checker(env.tyenv), ty)
    balance = _timed(H.scan_trace_balance, trace)
    printing = _printed(trace)
    return ((len(trace.steps), preservation, balance, printing)
            + _counted_preservation(env, _trace(term), ty))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64, 128])
    args = ap.parse_args()
    env = load_prelude()
    heads = ("steps", "preservation s", "balance s", "print s", "_infer calls",
             "infer_value calls")
    print("%5s" % "k" + "".join("%21s" % h for h in heads))
    prev = None
    for k in args.sizes:
        row = ladder_row(env, k)
        cells = []
        for i, x in enumerate(row):
            shown = ("%.3f" if isinstance(x, float) else "%d") % x
            if prev is not None:
                shown += " (%.2fx)" % (x / prev[i])
            cells.append("%21s" % shown)
        print("%5d" % k + "".join(cells), flush=True)
        prev = row


if __name__ == "__main__":
    main()
