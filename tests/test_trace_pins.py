"""Pinned traces: the rule, the printed command of every step and the final value.

The digests were recorded before the machine's state became a heap of hole
cells; traces, rule names and minted hole numerals must stay byte-identical.
A deliberate change to the semantics re-pins them.
"""

import hashlib
import sys

import pytest

from destcalc import cli
from destcalc import harness as H
from destcalc import machine as M
from destcalc import syntax as S
from destcalc.cli import print_command
from destcalc.prelude import _read, load_source
from destcalc.printer import print_value
from destcalc.typecheck import Checker

from conftest import (app_chain, bound_over, dlist_prog, plain_fv, plain_hmax, suite_programs,
                      whole_check)

PINNED = {
    "golden": "f63d555da4413942889322de959244c9ee5a0605760dc0984878a22d47de8e26",
    "map": "2b51e9ebfcda1b65c82860664d0bbfe99edee44ba860ac53aa5297acce42d6d2",
    "sharing": "aee1b34f2e66b11c4e2d8cfdfd2a34ed22e050063ef405607e8bb5e5aae777fe",
    "minamide": "130f51fe4b502ae8dcef83d5530a988745f57a11af367457da8a6bf334144c4e",
    "scope_store": "9ab702b783c6447bae50704ecf0588043ad6ae65cb17a8ba8d4287df96889c1c",
    "queue": "2e59d06196714543736cba9c1ba6e41a0af2d940e690ea2599384f58d775cd40",
    "dlist": "7d53619236246cc8bd396abce607ed7b802dea884f72bdf8da3405a45c95c691",
    "relabel": "04bbe77dbbb70ad4066dd94013e4b29a9dcab33a101889d7323516dbf7935ef9",
    "cons_example": "b1f62da09e3fec09cc6221f467c6b3f9d520f49786235b668df8dd197c231791",
    "cons_example_from_prime": "1a321d25d8d6bef004cfcc2b4818b64062211136a6695df5a1f5e850743b721c",
    "dlist16": "b16a1a419afb23bd3b5b4a32a3a52f3b06419fab572af6d7bb92500f7f3f65b5",
    "map8": "387b83b0a7d60ec9258a436716784c05ef18fd4aae66c04fdc784c8597b11390",
    "shadow": "44936428179aa9eebe5916ead3bc1b8153369b5a2da36ad35b5384e07ec8ebc1",
    "hole_max": "8d51165f032ac58c6592c8c98f4db0cb742dceda0cc053486cf752d564588822",
    "fix_outer": "a66a59a76fc2e015a5777d3c302cd7e3e95f6fde8c5d55471fbf6e2ac3ba123b",
    "bang_slots": "828f41fdb71c0dbc5867aee276f2be5c05c158109a3a6aeec9091ef40bea8dd2",
    "sum_slots": "5dd0fdbcd9cac583f945b33c6070687787ca98e9b492d9cbc2318f6b5ceb5790",
    "fun_slot": "ad463869634f1bbb1197ed65bd55c18d25b3e6279915895cf6e280962fb411a9",
    "comp_slots": "5f70f6bcb182f4b0211db0742c864e994d6e08c824517fc85b5268f5a715d794",
    "to_slot": "d6c82997fdca868c59b43138e3a3e40a97c2eb25773b8943f7177690cfe3a02d",
}

# programs that bind under an environment: a `case` that shadows a bound
# difference list while its frame is on the stack; a bound difference list
# that holds the context's largest hole name while a frame pushed under it
# does not mention it; a `fix` whose body reads a variable bound outside it.
# Then programs that put an application in each slot the library never
# focuses on: a `Mod` case's scrutinee, the destination of `<| Mod`, `<| Inl`,
# `<| Inr`, `<| Fun` and `<o`, the child of `<o`, and the operand of `to*`
SOURCES = {
    "shadow": r"""
def shadowBody : DList Nat -o List Nat * List Nat =
  \ys -> case ((toListN ys, toListN (dsingleN 4)) : List Nat * List Nat) of (a, ys) -> (ys, a)
def shadow : List Nat * List Nat = shadowBody (appendN (appendN (dsingleN 1) 2) 3)
main = shadow
""",
    "hole_max": r"""
def holeMaxBody : DList Nat -o List Nat =
  \ys2 -> toListN (concatN (dsingleN 5) ys2)
def holeMax : List Nat = holeMaxBody (appendN (dsingleN 7) 8)
main = holeMax
""",
    "fix_outer": r"""
def fillAll : Nat -o[w inf] List Nat -o[1 ^1] Dest (List Nat) -o 1 =
  \n [w inf] -> fix go : (List Nat -o[1 ^1] Dest (List Nat) -o 1) ->
    \l [1 ^1] -> \dl ->
      case [1 ^1] l of {
        Inl u -> case (dl <| Inr <| Pair) of (dx, dxs) -> dx <! n ; dxs <| Inl <! u,
        Inr c -> case [1 ^1] c of (x, xs) ->
          case (dl <| Inr <| Pair) of (dx, dxs) -> dx <! x ; go xs dxs }
def fixOuter : List Nat =
  from'* (upd (new* : List Nat >< Dest (List Nat)) with dl ->
    fillAll 9 (consN 1 (consN 2 nilN)) dl)
main = fixOuter
""",
    "bang_slots": r"""
def idBangDest : Dest (![1 inf] Nat) -o Dest (![1 inf] Nat) = \d -> d
def idBang : ![1 inf] Nat -o ![1 inf] Nat = \b -> b
def bangSlots : Nat =
  case (idBang (from'* (upd (new* : (![1 inf] Nat) >< Dest (![1 inf] Nat)) with d ->
    (idBangDest d) <| Mod [1 inf] <! 5))) of Mod [1 inf] n -> n
main = bangSlots
""",
    "sum_slots": r"""
def idBoolDest : Dest Bool -o Dest Bool = \d -> d
def sumSlots : Bool * Bool =
  (from'* (upd (new* : Bool >< Dest Bool) with d -> (idBoolDest d) <| Inl <| Unit),
   from'* (upd (new* : Bool >< Dest Bool) with d -> (idBoolDest d) <| Inr <| Unit))
main = sumSlots
""",
    "fun_slot": r"""
def idFunDest : Dest (Nat -o Nat) -o Dest (Nat -o Nat) = \d -> d
def funSlot : Nat =
  (from'* (upd (new* : (Nat -o Nat) >< Dest (Nat -o Nat)) with d ->
    (idFunDest d) <| Fun x -> succ x)) 3
main = funSlot
""",
    "comp_slots": r"""
def idListDest : Dest (List Nat) -o Dest (List Nat) = \d -> d
def compSlots : List Nat =
  toListN (upd (dsingleN 1) with d -> (idListDest d) <o (dsingleN 2))
main = compSlots
""",
    "to_slot": r"""
def toSlot : Nat = from'* (to* (succ 2))
main = toSlot
""",
}


def trace_digest(term) -> str:
    res = M.run_term(term, 10**6)
    assert isinstance(res, M.Finished)
    sha, shown = hashlib.sha256(), cli.Shown()
    for rule, cmd in res.trace.steps:
        sha.update(("%s\t%s\n" % (rule, print_command(cmd, shown))).encode("utf-8"))
    sha.update(("final\t%s\n" % print_value(res.value)).encode("utf-8"))
    return sha.hexdigest()


@pytest.fixture(scope="module")
def programs(env):
    progs = {name: term for name, (term, _) in suite_programs(env).items()}
    demo = load_source(_read("demos/cons_example.ld"), base=env)
    progs["cons_example"] = demo.runnable(demo.main)
    progs["cons_example_from_prime"] = demo.runnable(demo.main, from_prime=True)
    progs.update(library_programs(env))
    for name, src in SOURCES.items():
        prog = load_source(src, base=env)
        progs[name] = prog.runnable(prog.main)
    return progs


def library_programs(env):
    return {
        "dlist16": dlist_prog(env, 16),
        "map8": app_chain(S.App(env.runnable("mapN"), env.runnable("succ")),
                          H.encode_list([3, 1, 4, 1, 5, 9, 2, 6])),
    }


def _applied(term):
    """The function at the head of an application spine."""
    while isinstance(term, S.App):
        term = term.fn
    return term


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_pinned(programs, name):
    assert trace_digest(programs[name]) == PINNED[name]


@pytest.mark.parametrize("name", ["dlist16", "map8"])
def test_shared_runnables_trace_the_same_again(env, programs, name):
    # a second request off the same env reuses the runnable terms the first one ran
    again = library_programs(env)[name]
    assert _applied(again) is _applied(programs[name])
    env.checker().check_command(M.Command((), again))
    assert trace_digest(again) == PINNED[name]
    assert trace_digest(programs[name]) == PINNED[name]


def test_pinned_traces_fire_every_rule(programs):
    # every focusing, unfocusing and contraction rule the tables hold is pinned
    fired = set()
    for name in PINNED:
        fired.update(M.run_term(programs[name], 10**6).trace.steps.rules)
    frames = {rule[0] for kind in M.FRAMES.values() for rule in (kind.focus, kind.unfocus)}
    contractions = {n for name, _, _ in M._CONTRACTIONS.values() for n in name.split()}
    assert fired == frames | contractions | {"⋉CL"}


def test_run_never_reads_back(programs, monkeypatch):
    # binding extends an environment and a lambda keeps its own, so `run` reads
    # no term back but a `fix` that reads a bound variable, once each time it is
    # entered; materialising its steps does
    rules, calls = [], []
    read_back = M.read_back

    def spy(match):  # the stepping loop asks the matcher table for a term focus's rule
        def spy_match(t, env):
            rule = match(t, env)
            rules.append(rule and rule[0])
            return rule

        return spy_match

    for cls, match in list(M._MATCH.items()):
        monkeypatch.setitem(M._MATCH, cls, spy(match))
    monkeypatch.setattr(M, "read_back", lambda *a: calls.append((rules[-1], a[0])) or read_back(*a))
    for name in ("map8", "dlist16", "fix_outer"):
        res = M.run_term(programs[name], 10**6)
        assert isinstance(res, M.Finished)
        if name == "fix_outer":  # `fillAll` is applied once, and its `fix go` reads `n`
            assert [(rule, type(t), t.var, M.free_vars_cached(t)) for rule, t in calls] == [
                ("fixC", S.Fix, "go", {"n"})]
        else:
            assert calls == [], name
        calls.clear()
        list(res.trace.steps)
        assert calls, name
        calls.clear()
    assert {"⊸EC", "⊗EC", "fixC", "⋉OP", "[⊸]EC"} <= set(rules)


def test_environments_bind_only_values_and_fix_nodes(programs, monkeypatch):
    # `fixC` binds its variable to its fix node, so no environment binds a
    # `Closure`, in a run or in a replay: only `[⊸]EC` builds one, a lambda's body
    bound, closure = M._bound, M.Closure
    fixes, makers = [], set()

    def spy_bound(*a):
        env = bound(*a)
        for v in env.values():
            assert type(v) is S.Fix or isinstance(v, S._VALUE_TYPES), v
            if type(v) is S.Fix:
                fixes.append(v)
        return env

    def spy_closure(*a):
        makers.add(sys._getframe(1).f_code.co_name)
        return closure(*a)

    monkeypatch.setattr(M, "_bound", spy_bound)
    monkeypatch.setattr(M, "Closure", spy_closure)
    for name in sorted(PINNED):
        res = M.run_term(programs[name], 10**6)
        assert isinstance(res, M.Finished)
        list(res.trace.steps)
    assert fixes and makers == {"_fill_fun"}


def test_lazy_lambdas_are_the_classic_ones(programs, monkeypatch):
    # a lambda built under an environment keeps its body term and that environment;
    # it reads as the lambda whose body is read back, in runs and in replays
    written, write = [], M.OpenCells.write

    def spy(self, h, value, static):
        if type(value) is S.LamV and "_closure" in value.__dict__:
            assert "body" not in value.__dict__
            written.append((value, M.hmax_value(value)))
        return write(self, h, value, static)

    monkeypatch.setattr(M.OpenCells, "write", spy)
    for name in sorted(PINNED):
        list(M.run_term(programs[name], 10**6).trace.steps)
    assert len(written) > 100
    for lam, h in written:
        c = lam.__dict__["_closure"]
        classic = S.LamV(lam.var, lam.mode, M.read_back(c.term, c.env), lam.param_ty_, lam.cod_ty_)
        assert h == plain_hmax(classic, {})
        assert lam.body == classic.body
        assert print_value(lam) == print_value(classic)


def test_checks_by_levels_match_whole_checks(env, programs):
    # one checker over each pinned trace, reusing what it learnt from command to
    # command, against every command checked whole by a new checker
    expected = {name: ty for name, (_, ty) in suite_programs(env).items()}
    for name, term in sorted(programs.items()):
        ty = env.checker().check_command(M.Command((), term), expected.get(name))
        shared = Checker(env.tyenv)
        for i, (_, cmd) in enumerate(M.run_term(term, 10**6).trace.steps, start=1):
            before = shared.stats.dest_coercions
            got = shared.check_command(cmd, ty)
            assert (got, shared.stats.dest_coercions - before) == whole_check(env.tyenv, cmd, ty), (
                name, i)


def test_print_command_reuses_component_strings(programs, monkeypatch):
    calls = []
    original = cli.print_component
    monkeypatch.setattr(cli, "print_component",
                        lambda e, forms: calls.append(e) or original(e, forms))
    for name in ("golden", "queue", "dlist", "minamide"):
        cmds = [cmd for _, cmd in M.run_term(programs[name], 10**6).trace.steps]
        full = [print_command(cmd) for cmd in cmds]
        n_full = len(calls)
        shown = cli.Shown()
        assert [print_command(cmd, shown) for cmd in cmds] == full
        assert len(calls) - n_full < n_full / 4, name
        calls.clear()


def _commands(term):
    res = M.run_term(term, 10**6)
    assert isinstance(res, M.Finished)
    return res.trace.origin, list(res.trace.steps)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_applicable_rules_follow_the_run(programs, name):
    # the harness's rule scan and the run read one rule table
    cmd, steps = _commands(programs[name])
    for i, (rule, nxt) in enumerate(steps):
        assert M.applicable_rules(cmd) == [rule], i
        assert M.step(cmd).command == nxt, i
        cmd = nxt
    assert M.applicable_rules(cmd) == []


@pytest.mark.parametrize("name", sorted(PINNED))
def test_stored_caches_match_a_recomputation(programs, name):
    # read-back, the environments, the hole walks and fresh names read the `_fv`,
    # `_hmax` and frame cuts kept on nodes: a wrong one would make them unsound
    origin, steps = _commands(programs[name])
    seen, fv_memo, hmax_memo, checked, cuts = set(), {}, {}, 0, 0
    for cmd in [origin] + [cmd for _, cmd in steps]:
        todo = [cmd.focus] + [x for e in cmd.ctx
                              for x in (e.fields if isinstance(e, M.Frame) else (e.left,))]
        while todo:
            x = todo.pop()
            if id(x) in seen or not isinstance(x, S._TERM_TYPES + S._VALUE_TYPES):
                continue
            seen.add(id(x))
            names = S.field_order(type(x))
            todo.extend(getattr(x, f) for f in names)
            d = x.__dict__
            if "_fv" in d:
                assert d["_fv"] == plain_fv(x, fv_memo), (name, x)
                checked += 1
            if "_hmax" in d:
                assert d["_hmax"] == plain_hmax(x, hmax_memo), (name, x)
                checked += 1
            for slot in range(len(names)):
                cut = d.get("_cut%d" % slot)
                if cut is None:
                    continue
                fields = [getattr(x, f) for f in names]
                fields[slot] = None
                assert cut.fields == tuple(fields), (name, x, slot)
                if cut.hmax is not None:  # filled by a fresh name read
                    others = M.FRAMES[type(x), slot].others
                    assert cut.hmax == max(
                        (plain_hmax(fields[i], hmax_memo) for i in others), default=0)
                    assert cut.reads == set().union(
                        *(plain_fv(fields[i], fv_memo) - bound_over(x, names[i]) for i in others))
                    cuts += 1
    assert checked and cuts


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fresh_names_read_the_largest_name_of_the_context(programs, name):
    # the maximum every minted name is counted from, kept per frame, frame cut and
    # open structure, against the snapshot's context recomputed without a cache
    st, memo, steps = M._State.load(M.Command((), programs[name]), {}), {}, []

    def on_step(rule):
        want = 0
        for e in st.snapshot().ctx:
            if isinstance(e, M.Frame):
                parts = [e.fields[i] for i in e.kind.others]
            else:  # an open ampar: its structure and its holes
                parts = [e.left, *map(S.HoleV, e.holes)]
            want = max([want] + [plain_hmax(x, memo) for x in parts])
        assert st.ctx_max() == want, (name, len(steps), rule)
        steps.append(rule)

    assert isinstance(st.run(10**6, on_step), M.Final)
    assert steps == M.run_term(programs[name], 10**6).trace.steps.rules


def _round_trip(rule, cmd, nxt, reached):
    kind = rule.rstrip("₁₂")[-1]
    if kind == "F":  # pushes a frame; plugging the new focus into it gives the old focus
        outer, inner = cmd, nxt
        assert M.plug(nxt.ctx[-1], nxt.focus) == cmd.focus
        unfocus = "U".join(rule.rsplit("F", 1))  # the rule that pops this frame
    elif kind == "U":  # pops a frame and plugs the value focus into it
        outer, inner = nxt, cmd
        assert nxt.focus == M.plug(cmd.ctx[-1], cmd.focus)
        unfocus = rule
    else:
        return
    frame = inner.ctx[-1]
    assert isinstance(frame, M.Frame)
    assert M.FRAMES[frame.cls, frame.slot].unfocus[0] == unfocus
    assert len(inner.ctx) == len(outer.ctx) + 1
    assert all(a is b for a, b in zip(inner.ctx, outer.ctx))  # the other frames are shared
    reached.add((frame.cls, frame.slot))


def test_frames_round_trip(programs):
    reached = set()
    for name in sorted(PINNED):
        cmd, steps = _commands(programs[name])
        for rule, nxt in steps:
            _round_trip(rule, cmd, nxt, reached)
            cmd = nxt
    assert reached == set(M.FRAMES)
