"""Acceptance criteria A1-A10.

Each test prints one PASS/FAIL line.  Random inputs use fixed seeds so
reruns are bit-identical; step-count thresholds are calibration-pinned
constants.
"""

import collections
import random
import time

import pytest

from destcalc import harness as H
from destcalc import machine as M
from destcalc import syntax as S
from destcalc.modes import INF, Mode, UNIT, mode_leq, mode_plus, mode_times
from destcalc.parser import parse_term, parse_type
from destcalc.oracle import oracle_declarative_check
from destcalc.prelude import _read, load_source
from destcalc.typecheck import Checker, TypeCheckError

from conftest import app_chain, dlist_prog, golden_term, run_ok

SEED = 20260810


def report(criterion, ok, detail=""):
    print("%s %s %s" % (criterion, "PASS" if ok else "FAIL", detail), flush=True)
    assert ok, "%s: %s" % (criterion, detail)


def test_a1_golden_trace():
    t0 = time.time()
    res = M.run_term(golden_term(), 10**4)
    elapsed = time.time() - t0
    ok = isinstance(res, M.Finished)
    detail = []
    if ok:
        rules = [r for r, _ in res.trace.steps]
        value_ok = res.value == S.InrV(S.PairV(S.UnitV(), S.InlV(S.UnitV())))
        prefix_ok = rules[:5] == ["⋉FROM′F", "⋉UPDF", "⋉NEWC", "⋉UPDU", "⋉OP"]
        suffix_ok = rules[-3:] == ["⋉CL", "⋉FROM′U", "⋉FROM′C"]
        minted, seen = [], set()
        for _, cmd in res.trace.steps:
            names = M.hnames(cmd)
            minted += sorted(names - seen)
            seen |= names
        numerals_ok = minted == [1, 2, 4, 6, 7]
        time_ok = elapsed < 1.0
        ok = value_ok and prefix_ok and suffix_ok and numerals_ok and time_ok
        detail = ["value=%s prefix=%s suffix=%s numerals=%s %.3fs"
                  % (value_ok, prefix_ok, suffix_ok, numerals_ok, elapsed)]
    report("A1 golden-trace", ok, " ".join(map(str, detail)))


def test_a2_preservation(suite, preservation):
    total = 0
    failures = []
    for name, (_, _, trace) in suite.items():
        total += len(trace.steps)
        v, _ = preservation[name]
        if not v.ok:
            failures.append((name, v.failures[:1]))
    ok = not failures and total >= 500
    report("A2 preservation", ok, "%d steps across %d traces %s" % (total, len(suite), failures))


def test_a3_progress_determinism(suite):
    failures = []
    for name, (_, _, trace) in suite.items():
        v = H.check_progress_determinism(trace)
        if not v.ok:
            failures.append((name, v.failures[:1]))
    report("A3 progress+determinism", not failures, str(failures))


def test_a4_scope_escape(env):
    # program 1 typechecks and evaluates to the true encoding
    res = run_ok(env.runnable("scopeStore"))
    p1_ok = H.decode_bool(res.value) is True
    # programs 2 and 3 are rejected with the age diagnostic
    kinds = []
    for fname in ("scope_escape2.ld", "scope_escape3.ld"):
        try:
            load_source(_read(fname), base=env)
            kinds.append("accepted")
        except TypeCheckError as e:
            kinds.append(e.kind)
    rejected_ok = kinds == ["AgeEscape", "AgeEscape"]
    # the declarative oracle agrees on all three
    scope_sources = {
        True: """from'* (upd (new* : Bool >< Dest Bool) with d ->
                 (from'* (upd (new* : Dest Bool >< Dest (Dest Bool)) with dd -> dd <! d)) <! 0)""",
        False: """from'* (upd (new* : Dest Bool >< Dest (Dest Bool)) with dd ->
                  case (from'* (upd (new* : Bool >< Dest Bool) with d -> dd <! d)) of {
                    Inl u -> u, Inr u -> u })""",
    }
    third = """from'* (upd (new* : (Bool * Dest Bool) >< Dest (Bool * Dest Bool)) with d ->
               case (d <| Pair) of (d1, dd1) -> dd1 <! d1)"""
    oracle_ok = True
    checks = [(scope_sources[True], "Bool", True),
              (scope_sources[False], "Dest Bool", False),
              (third, "Bool * Dest Bool", False)]
    for src, tys, expect in checks:
        t = S.desugar(parse_term(src))
        verdict = oracle_declarative_check(t, {}, env.tyenv, parse_type(tys), {})
        oracle_ok = oracle_ok and (verdict == expect)
    ok = p1_ok and rejected_ok and oracle_ok
    report("A4 scope-escape", ok,
           "run-to-true=%s rejections=%s oracle=%s" % (p1_ok, kinds, oracle_ok))


def _naive_prog(env, k):
    app = env.runnable("appendListN")
    cons = env.runnable("consN")
    nil = env.runnable("nilN")

    def single(i):
        return S.App(app_chain(cons, H.encode_nat(i % 10)), nil)

    acc = single(0)
    for i in range(1, k):
        acc = S.App(S.App(app, acc), single(i))
    return acc


def test_a5_complexity(env):
    t0 = time.time()
    d = {k: len(run_ok(dlist_prog(env, k), 10**7).trace.steps) for k in (16, 32, 64)}
    n = {k: len(run_ok(_naive_prog(env, k), 10**7).trace.steps) for k in (16, 32, 64)}
    elapsed = time.time() - t0
    dlist_ratios = (d[32] / d[16], d[64] / d[32])
    naive_ratios = (n[32] / n[16], n[64] / n[32])
    dlist_ok = all(1.8 <= r <= 2.3 for r in dlist_ratios)
    naive_ok = all(r >= 3.2 for r in naive_ratios)
    time_ok = elapsed < 30.0
    ok = dlist_ok and naive_ok and time_ok
    report("A5 complexity", ok,
           "dlist %.2f/%.2f in [1.8,2.3]; naive %.2f/%.2f >= 3.2; %.1fs < 30s"
           % (*dlist_ratios, *naive_ratios, elapsed))


def test_a6_program_oracles(env):
    rng = random.Random(SEED)
    mapN, succ = env.runnable("mapN"), env.runnable("succ")
    bad = 0
    for _ in range(100):
        xs = H.random_list(rng)
        res = run_ok(S.App(S.App(mapN, succ), S.Val(H.encode_list(xs))))
        if H.decode_list(res.value) != [v + 1 for v in xs]:
            bad += 1
    map_ok = bad == 0

    relabel = env.runnable("relabelDps")
    bad = 0
    for _ in range(50):
        tree = H.random_tree(rng, 31)
        res = run_ok(S.App(relabel, S.Val(H.encode_unit_tree(tree))))
        if H.decode_tree(res.value) != H.bfs_relabel(tree):
            bad += 1
    relabel_ok = bad == 0

    singleton = env.runnable("singletonN")
    enqueue = env.runnable("enqueueN")
    dequeue = env.runnable("dequeueN")
    bad = 0
    for _ in range(200):
        ops = H.random_queue_ops(rng)
        native = collections.deque()
        q = None
        match = True
        for op in ops:
            if op[0] == "enq":
                if q is None:
                    q = run_ok(S.App(singleton, S.Val(H.encode_nat(op[1])))).value
                else:
                    q = run_ok(S.App(S.App(enqueue, S.Val(q)), S.Val(H.encode_nat(op[1])))).value
                native.append(op[1])
            else:
                if q is None:
                    if native:
                        match = False
                    continue
                r = run_ok(S.App(dequeue, S.Val(q))).value
                if isinstance(r, S.InlV):
                    got = None
                    q = None
                else:
                    got = H.decode_nat(r.value.fst)
                    q = r.value.snd
                want = native.popleft() if native else None
                if got != want:
                    match = False
        if not match:
            bad += 1
    queue_ok = bad == 0
    ok = map_ok and relabel_ok and queue_ok
    report("A6 program-oracles", ok,
           "map=%s relabel=%s queue=%s" % (map_ok, relabel_ok, queue_ok))


def test_a7_sharing(env):
    res = run_ok(env.runnable("sharing"))
    got = H.decode_list(res.value)
    report("A7 sharing", got == [0, 1, 0, 2], "decoded %s" % got)


# -- A8: checker vs declarative oracle on an enumerated pool -----------------------

_POOL_MODES = ["[1 ^0]", "[w ^0]", "[1 inf]", "[w inf]", "[1 ^1]"]
_POOL_PAYLOADS = ["T", "1", "Bool"]


def _pool():
    """Deterministic pool of closed, annotated terms (pre-desugaring size <= 12)."""
    items = []

    def add(src, ty):
        items.append((src, ty))

    for m in _POOL_MODES:
        for p in _POOL_PAYLOADS:
            add(r"\x %s -> x" % m, "%s -o%s %s" % (p, m, p))
            add(r"\x %s -> ()" % m, "%s -o%s 1" % (p, m))
            add(r"\x %s -> (x, x)" % m, "%s -o%s (%s * %s)" % (p, m, p, p))
            add(r"\x %s -> from'* (upd (new* : %s >< Dest %s) with d -> d <! x)" % (m, p, p),
                "%s -o%s %s" % (p, m, p))
            add(r"\x %s -> to* x" % m, "%s -o%s (%s >< 1)" % (p, m, p))
            add(r"\a %s -> upd a with d -> d" % m,
                "(%s >< Dest %s) -o%s (%s >< Dest %s)" % (p, p, m, p, p))
            add(r"\a %s -> from'* a" % m, "(%s >< 1) -o%s %s" % (p, m, p))
            add(r"fix f : (%s -o%s %s) -> \y %s -> f y" % (p, m, p, m),
                "%s -o%s %s" % (p, m, p))
        add(r"\x %s -> x ; x" % m, "1 -o%s 1" % m)
        add(r"\b %s -> case b of { Inl u -> u, Inr u -> u }" % m, "Bool -o%s 1" % m)
        add(r"\p %s -> case p of (a, b) -> a ; b" % m, "(1 * 1) -o%s 1" % m)
        add(r"\b %s -> case [w ^0] b of { Inl u -> u ; 0, Inr u -> u ; 1 }" % m,
            "Bool -o%s Nat" % m)
        add(r"\x %s -> x ; ()" % m, "T -o%s 1" % m)  # type error: T vs 1
        add(r"\d %s -> d <| Inl" % m, "Dest 1 -o%s Dest 1" % m)  # type error: not a sum
        for m2 in _POOL_MODES:
            add(r"\x %s -> Mod %s x" % (m, m2), "T -o%s (!%s T)" % (m, m2))
            add(r"\mx %s -> case mx of Mod %s x -> x" % (m, m2),
                "(!%s T) -o%s T" % (m2, m))
    return items


def test_a8_checker_vs_oracle(env):
    t0 = time.time()
    pool = _pool()
    disagreements = []
    for src, tys in pool:
        t = S.desugar(parse_term(src))
        want = parse_type(tys)
        try:
            Checker(env.tyenv).check_term({}, t, want)
            accepted = True
        except TypeCheckError:
            accepted = False
        verdict = oracle_declarative_check(t, {}, env.tyenv, want, {})
        if accepted != verdict:
            disagreements.append((src, tys, accepted, verdict))
    elapsed = time.time() - t0
    ok = not disagreements and len(pool) >= 200 and elapsed < 60.0
    report("A8 checker-vs-oracle", ok,
           "%d terms, %d disagreements, %.1fs < 60s %s"
           % (len(pool), len(disagreements), elapsed, disagreements[:3]))


def test_a9_algebra_laws():
    rng = random.Random(SEED)
    ages = list(range(9)) + [INF]
    universe = [Mode(p, a) for p in ("1", "w") for a in ages]
    bad = 0
    for _ in range(10**4):
        m, n, k = (rng.choice(universe) for _ in range(3))
        laws = [
            mode_plus(m, n) == mode_plus(n, m),
            mode_plus(mode_plus(m, n), k) == mode_plus(m, mode_plus(n, k)),
            mode_times(mode_times(m, n), k) == mode_times(m, mode_times(n, k)),
            mode_times(UNIT, m) == m and mode_times(m, UNIT) == m,
            mode_times(k, mode_plus(m, n))
            == mode_plus(mode_times(k, m), mode_times(k, n)),
        ]
        if mode_leq(m, n):
            laws.append(mode_leq(mode_times(k, m), mode_times(k, n)))
            laws.append(mode_leq(mode_plus(m, k), mode_plus(n, k)))
        if not all(laws):
            bad += 1
    report("A9 algebra-laws", bad == 0, "%d failing triples of 10^4" % bad)


def test_a10_balance(suite, preservation):
    failures = []
    coercions = 0
    for name, (_, _, trace) in suite.items():
        v = H.scan_trace_balance(trace)
        if not v.ok:
            failures.append((name, v.failures[:1]))
        # the preservation pass re-checked every command, so its counter covers the trace
        coercions += preservation[name][1].dest_coercions
    ok = not failures and coercions == 0
    report("A10 balance", ok, "failures=%s dest-coercions=%d" % (failures, coercions))
