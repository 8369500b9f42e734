"""Trace verdicts, encodings, the native oracle, step counting."""

import random

import pytest

from destcalc import harness as H
from destcalc import machine as M
from destcalc import syntax as S
from destcalc.modes import UNIT
from destcalc.typecheck import Checker, CheckStats, TypeEnv
from destcalc.parser import TypeDef, parse_type

from conftest import dlist_prog, frame_of, run_ok


def _golden():
    body = S.CasePair(
        UNIT, S.FillPair(S.FillInr(S.Var("d"))), "dx", "dxs",
        S.Seq(S.FillLeaf(S.Var("dx"), S.Val(S.UnitV())),
              S.FillLeaf(S.Var("dxs"), S.Val(S.InlV(S.UnitV())))),
    )
    return S.FromAmparPrime(S.UpdWith(S.NewAmpar(None), "d", body))


@pytest.fixture(scope="module")
def golden_trace():
    tyenv = TypeEnv({"List": TypeDef("List", ("a",), parse_type("1 + (a * List a)"))})
    ck = Checker(tyenv)
    term = _golden()
    ty = ck.check_command(M.Command((), term), parse_type("List 1"))
    res = M.run_term(term, 1000)
    return ck, ty, res.trace


def test_preservation_ok(golden_trace):
    ck, ty, trace = golden_trace
    assert H.check_preservation(trace, ck, ty).ok


def test_preservation_single_value_trace(golden_trace):
    ck, _, _ = golden_trace
    tr = M.Trace(M.Command((), S.Val(S.UnitV())), [])
    assert H.check_preservation(tr, ck, S.TUnit()).ok


def test_preservation_detects_corruption(golden_trace):
    ck, ty, trace = golden_trace
    steps = list(trace.steps)
    for i, (rule, cmd) in enumerate(steps):
        newctx, changed = [], False
        for e in cmd.ctx:
            if isinstance(e, M.OpenAmpar) and isinstance(e.left, S.HoleV) and not changed:
                newctx.append(M.OpenAmpar(e.holes, S.UnitV()))
                changed = True
            else:
                newctx.append(e)
        if changed:
            steps[i] = (rule, M.Command(tuple(newctx), cmd.focus))
            break
    bad = M.Trace(trace.origin, steps)
    v = H.check_preservation(bad, ck, ty)
    assert not v.ok and v.failures


def test_progress_determinism(golden_trace):
    _, _, trace = golden_trace
    assert H.check_progress_determinism(trace).ok
    # final command alone: zero obligations
    tr = M.Trace(M.Command((), S.Val(S.UnitV())), [])
    assert H.check_progress_determinism(tr).ok
    # ill-typed command reports stuck
    bad = M.Command((), S.CaseSum(UNIT, S.Val(S.UnitV()), "x", S.Var("x"), "y", S.Var("y")))
    v = H.check_progress_determinism(M.Trace(bad, []))
    assert not v.ok and "stuck" in v.failures[0][1]


def test_balance(golden_trace):
    _, _, trace = golden_trace
    assert H.scan_balance(M.Command((), S.Val(S.AmparV(frozenset({1}), S.HoleV(1), S.DestV(1))))).ok
    assert H.scan_trace_balance(trace).ok
    dup = M.Command(
        (M.OpenAmpar(frozenset({1}), S.HoleV(1)),),
        S.Seq(S.FillUnit(S.Val(S.DestV(1))), S.FillUnit(S.Val(S.DestV(1)))),
    )
    assert not H.scan_balance(dup).ok


class _FreshPerCommand:
    """A checker stand-in that checks every command with a new `Checker` that
    neither reads nor keeps a typing on a node (`type_log`)."""

    def __init__(self, tyenv):
        self.tyenv, self.stats = tyenv, CheckStats()

    def check_command(self, cmd, expected=None):
        ck = Checker(self.tyenv, type_log={})
        try:
            return ck.check_command(cmd, expected)
        finally:
            self.stats.dest_coercions += ck.stats.dest_coercions


def test_preservation_shared_checker_matches_fresh(suite, preservation):
    # one checker per trace (the fixture) against one checker per command
    for name, (ck, ty, trace) in suite.items():
        shared, shared_stats = preservation[name]
        fresh = _FreshPerCommand(ck.tyenv)
        v = H.check_preservation(trace, fresh, ty)
        assert (v.ok, v.failures) == (shared.ok, shared.failures), name
        assert fresh.stats.dest_coercions == shared_stats.dest_coercions, name


def _kept_component(steps, run=4):
    """(k, e): a frame with a term field, in command k and, as the same
    object, in the `run` commands after it."""
    for k, (_, cmd) in enumerate(steps):
        for e in cmd.ctx:
            if isinstance(e, M.Frame) and e.cls in (S.Seq, S.CasePair, S.CaseSum) and all(
                any(x is e for x in later.ctx) for _, later in steps[k + 1 : k + 1 + run]
            ):
                return k, e
    raise AssertionError("no component stays in place")


def test_preservation_fails_where_a_kept_component_breaks(suite):
    ck, ty, trace = suite["queue"]
    steps = list(trace.steps)
    k, e = _kept_component(steps)
    field = {S.Seq: "rest", S.CasePair: "body", S.CaseSum: "left_body"}[e.cls]
    fields = list(e.fields)
    fields[S.field_order(e.cls).index(field)] = S.Var("nowhere")
    bad = M.Frame(e.cls, tuple(fields), e.slot)
    for j in range(k, len(steps)):
        rule, cmd = steps[j]
        if any(x is e for x in cmd.ctx):
            ctx = tuple(bad if x is e else x for x in cmd.ctx)
            steps[j] = (rule, M.Command(ctx, cmd.focus))
    corrupted = M.Trace(trace.origin, steps)
    shared = H.check_preservation(corrupted, Checker(ck.tyenv), ty)
    fresh = H.check_preservation(corrupted, _FreshPerCommand(ck.tyenv), ty)
    assert not shared.ok and shared.failures == fresh.failures
    assert shared.failures[0][0] == k + 1  # steps are numbered from 1
    # the same checker, still holding what it learnt before the corruption, agrees
    ck2 = Checker(ck.tyenv)
    assert H.check_preservation(trace, ck2, ty).ok
    assert H.check_preservation(corrupted, ck2, ty).failures == fresh.failures


def test_checks_by_levels_retype_the_levels_above_a_changed_slot(monkeypatch):
    ck = Checker(TypeEnv({}))
    to_amp = frame_of(S.ToAmpar(S.Val(S.UnitV())), "inner")
    ctx = (to_amp, to_amp)  # to* (to* [])
    one, pair = S.TUnit(), S.TProd(S.TUnit(), S.TUnit())
    assert ck.check_command(M.Command(ctx, S.Val(S.UnitV()))) == (
        S.TAmpar(S.TAmpar(one, one), one))
    # the same components, and a focus of another type: both levels are typed again
    assert ck.check_command(M.Command(ctx, S.Val(S.PairV(S.UnitV(), S.UnitV())))) == (
        S.TAmpar(S.TAmpar(pair, one), one))
    # a focus of the same typing: the walk up stops at the innermost level
    calls = []
    infer = Checker._infer
    monkeypatch.setattr(Checker, "_infer", lambda self, *a: calls.append(a[1]) or infer(self, *a))
    assert ck.check_command(M.Command(ctx, S.Val(S.PairV(S.UnitV(), S.UnitV())))) == (
        S.TAmpar(S.TAmpar(pair, one), one))
    assert [type(t) for t in calls] == [S.Val]


def test_a_corrupted_command_fails_as_its_whole_check_does(suite):
    # a chain built on the clean commands before the corrupted one, then a focus
    # that no longer types, and an open ampar whose structure no longer types
    ck, ty, trace = suite["dlist"]
    steps = list(trace.steps)
    k = next(i for i, (_, cmd) in enumerate(steps)
             if len(cmd.ctx) > 3 and any(isinstance(e, M.OpenAmpar) for e in cmd.ctx))
    rule, cmd = steps[k]
    opened = next(j for j, e in enumerate(cmd.ctx) if isinstance(e, M.OpenAmpar))
    broken_ctx = list(cmd.ctx)
    broken_ctx[opened] = M.OpenAmpar(cmd.ctx[opened].holes, S.PairV(S.UnitV(), S.UnitV()))
    for bad in (M.Command(cmd.ctx, S.Var("nowhere")), M.Command(tuple(broken_ctx), cmd.focus)):
        corrupted = M.Trace(trace.origin, steps[:k] + [(rule, bad)] + steps[k + 1:])
        fresh = H.check_preservation(corrupted, _FreshPerCommand(ck.tyenv), ty)
        assert not fresh.ok and fresh.failures[0][0] == k + 1
        shared = Checker(ck.tyenv)
        assert H.check_preservation(corrupted, shared, ty).failures == fresh.failures
        # and the same checker, after a clean pass over the whole trace
        assert H.check_preservation(trace, shared, ty).ok
        assert H.check_preservation(corrupted, shared, ty).failures == fresh.failures


def test_preservation_infers_linearly_in_the_steps(env, monkeypatch):
    # `_infer` calls of the preservation pass over dlist k = 16, 32, 64
    calls = [0]
    infer = Checker._infer

    def counted(self, *args):
        calls[0] += 1
        return infer(self, *args)

    monkeypatch.setattr(Checker, "_infer", counted)
    counts = []
    for k in (16, 32, 64):
        term = dlist_prog(env, k)
        ty = Checker(env.tyenv).check_command(M.Command((), term))
        trace = M.run_term(term, 10**6).trace
        list(trace.steps)
        before = calls[0]
        assert H.check_preservation(trace, Checker(env.tyenv), ty).ok
        counts.append(calls[0] - before)
    assert all(b <= 2.3 * a for a, b in zip(counts, counts[1:])), counts


def _per_command_balance(tr):
    return [(i, msg) for i, cmd in enumerate([tr.origin] + [c for _, c in tr.steps])
            for _, msg in H.scan_balance(cmd).failures]


def test_trace_balance_matches_per_command_scans(suite):
    for name, (_, _, trace) in suite.items():
        assert H.scan_trace_balance(trace).failures == _per_command_balance(trace), name


def test_trace_balance_reports_a_repeated_unbalanced_component():
    open1 = M.OpenAmpar(frozenset({1}), S.HoleV(1))
    twice = frame_of(S.Seq(
        None, S.Seq(S.FillUnit(S.Val(S.DestV(1))), S.FillUnit(S.Val(S.DestV(1))))), "first")
    lone = frame_of(  # no destination for 2
        S.App(None, S.Val(S.AmparV(frozenset({2}), S.HoleV(2), S.UnitV()))), "fn")
    uneven = frame_of(
        S.CaseSum(UNIT, None, "x", S.FillUnit(S.Val(S.DestV(1))), "y", S.Val(S.UnitV())), "scrut")
    unit = S.Val(S.UnitV())
    cmds = [
        M.Command((open1, lone, twice), unit),
        M.Command((open1, lone, twice), S.FillUnit(S.Val(S.DestV(1)))),
        M.Command((open1, lone, uneven, twice), unit),
        M.Command((open1, uneven), S.Val(S.DestV(1))),
        M.Command((open1, uneven), unit),
    ]
    tr = M.Trace(cmds[0], [("r", c) for c in cmds[1:]])
    want = _per_command_balance(tr)
    assert {i for i, _ in want} == set(range(len(cmds)))
    assert any("unevenly" in msg for _, msg in want)
    assert H.scan_trace_balance(tr).failures == want


def test_count_steps():
    assert len(run_ok(S.Val(S.UnitV())).trace.steps) == 0
    res = M.run_term(S.Fix("x", S.TNamed("T", ()), S.Var("x")), 50)
    assert isinstance(res, M.OutOfFuel)
    assert len(res.trace.steps) == 50


def test_encodings_round_trip():
    for n in range(65):
        assert H.decode_nat(H.encode_nat(n)) == n
    assert H.decode_bool(S.InlV(S.UnitV())) is True
    assert H.decode_bool(S.InrV(S.UnitV())) is False
    rng = random.Random(11)
    for _ in range(100):
        xs = H.random_list(rng)
        assert H.decode_list(H.encode_list(xs)) == xs
    assert H.decode_tree(H.encode_tree((1, (2, None, None), None))) == (1, (2, None, None), None)


def test_decode_rejects_noncanonical():
    with pytest.raises(H.DecodeError):
        H.decode_nat(S.PairV(S.UnitV(), S.UnitV()))
    with pytest.raises(H.DecodeError):
        H.decode_list(S.InrV(S.UnitV()))


def test_native_oracles():
    two = ((), ((), None, None), None)
    out = H.bfs_relabel(two)
    assert out == (1, (2, None, None), None)  # root 1, left child 2
    deep = ((), ((), None, ((), None, None)), ((), None, None))
    # level order: root=1, children 2,3, grandchild 4
    assert H.bfs_relabel(deep) == (1, (2, None, (4, None, None)), (3, None, None))


def test_random_generators_bounds():
    rng = random.Random(0)
    for _ in range(50):
        assert len(H.random_list(rng)) <= 32
        ops = H.random_queue_ops(rng)
        assert 1 <= len(ops) <= 64 and ops[0][0] == "enq"

        def count(t):
            return 0 if t is None else 1 + count(t[1]) + count(t[2])

        assert count(H.random_tree(rng)) <= 31
