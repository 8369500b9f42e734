#!/usr/bin/env python3
"""Machine-step growth of difference-list vs naive list concatenation.

Builds k singleton lists, concatenates them left-nested, and converts to
a plain list.  Difference lists graft in place (linear total steps); the
structural append retraverses its left argument (quadratic).  For each
doubling of k it prints the ratio of steps and the ratio of wall time
(one run per size, so small sizes are noisy).
"""

import argparse
import time

from destcalc import harness as H
from destcalc import syntax as S
from destcalc.prelude import load_prelude


def dlist_prog(env, k):
    concat, dsingle = env.runnable("concatN"), env.runnable("dsingleN")
    acc = S.App(dsingle, S.Val(H.encode_nat(0)))
    for i in range(1, k):
        acc = S.App(S.App(concat, acc), S.App(dsingle, S.Val(H.encode_nat(i % 10))))
    return S.App(env.runnable("toListN"), acc)


def naive_prog(env, k):
    app, cons, nil = (env.runnable(n) for n in ("appendListN", "consN", "nilN"))

    def single(i):
        return S.App(S.App(cons, S.Val(H.encode_nat(i % 10))), nil)

    acc = single(0)
    for i in range(1, k):
        acc = S.App(S.App(app, acc), single(i))
    return acc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32, 64])
    args = ap.parse_args()
    env = load_prelude()
    print("%6s %12s %9s %12s %9s" % ("k", "dlist steps", "dlist s", "naive steps", "naive s"))
    prev = None
    for k in args.sizes:
        row = _timed_steps(dlist_prog(env, k)) + _timed_steps(naive_prog(env, k))
        ratios = ""
        if prev is not None:
            r = [a / b for a, b in zip(row, prev)]
            ratios = "   step ratios: dlist %.2f, naive %.2f; time ratios: dlist %.2f, naive %.2f" % (
                r[0], r[2], r[1], r[3])
        print("%6d %12d %9.3f %12d %9.3f%s" % ((k,) + row + (ratios,)))
        prev = row


def _timed_steps(term):
    start = time.perf_counter()
    steps = H.count_steps(term, 10**7)
    return steps, time.perf_counter() - start

if __name__ == "__main__":
    main()
