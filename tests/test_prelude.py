"""The shipped program library: load-time checks and runtime behavior."""

import pytest

from destcalc import harness as H
from destcalc import machine as M
from destcalc import syntax as S
from destcalc.modes import UNIT
from destcalc.parser import parse, parse_type
from destcalc.prelude import load_prelude, load_source
from destcalc.typecheck import Checker, TypeCheckError

from conftest import (
    app_chain, dlist_prog, layout_diff, reference_load_prelude, reference_load_program, run_ok,
)

# name -> declared type of the library surface
EXPECTED_TYPES = {
    "map": "(T -o U) -o[w inf] List T -o List U",
    "map'": "(T -o U) -o[w inf] List T -o[1 ^1] Dest (List U) -o 1",
    "cons": "T -o List T -o List T",
    "append": "DList T -o T -o DList T",
    "concat": "DList T -o DList T -o DList T",
    "toList": "DList T -o List T",
    "singleton": "T -o Queue T",
    "enqueue": "Queue T -o T -o Queue T",
    "dequeue": "Queue T -o 1 + (T * Queue T)",
    "alloc": "(Dest T -o 1) -o[1 inf] T",
    "relabelDps": "Tree 1 -o[1 inf] Tree Nat",
    "sharing": "List Nat",
}


def test_loads_and_declared_types(env):
    checker = env.checker()
    for name, ty_src in EXPECTED_TYPES.items():
        assert checker.tyenv.equal(env.defs[name].ty, parse_type(ty_src)), name


def test_scope_escapes_rejected(env):
    from destcalc.prelude import _read

    for fname in ("scope_escape2.ld", "scope_escape3.ld"):
        with pytest.raises(TypeCheckError) as e:
            load_source(_read(fname), base=env)
        assert e.value.kind == "AgeEscape"


def test_scope_store_runs_to_true(env):
    res = run_ok(env.runnable("scopeStore"))
    assert H.decode_bool(res.value) is True


def test_literals_and_succ(env):
    res = run_ok(app_chain(env.runnable("succ"), H.encode_nat(2)))
    assert H.decode_nat(res.value) == 3
    # Nat literal 3 evaluates to Inr(Inr(Inr(Inl ())))
    res = run_ok(load_source("def three : Nat = 3\nmain = three", base=env).runnable("three"))
    assert res.value == S.InrV(S.InrV(S.InrV(S.InlV(S.UnitV()))))


def test_map_runs(env):
    term = app_chain(S.App(env.runnable("mapN"), env.runnable("succ")), H.encode_list([3, 1, 4]))
    res = run_ok(term)
    assert H.decode_list(res.value) == [4, 2, 5]


def test_dlist_ops(env):
    # toList (append (dsingle 1) 2) == [1, 2]
    t = S.App(env.runnable("toListN"),
              app_chain(S.App(env.runnable("appendN"),
                              app_chain(env.runnable("dsingleN"), H.encode_nat(1))),
                        H.encode_nat(2)))
    res = run_ok(t)
    assert H.decode_list(res.value) == [1, 2]


def test_concat_grafts(env):
    a = app_chain(env.runnable("dsingleN"), H.encode_nat(1))
    b = app_chain(env.runnable("dsingleN"), H.encode_nat(2))
    t = S.App(env.runnable("toListN"), S.App(S.App(env.runnable("concatN"), a), b))
    res = run_ok(t)
    assert H.decode_list(res.value) == [1, 2]


def test_sharing_program(env):
    res = run_ok(env.runnable("sharing"))
    assert H.decode_list(res.value) == [0, 1, 0, 2]


def test_minamide_demo(env):
    res = run_ok(env.runnable("haDemo"))
    assert H.decode_list(res.value) == [0, 7, 2]


def test_relabel_small(env):
    tree = ((), ((), None, None), ((), None, ((), None, None)))
    res = run_ok(app_chain(env.runnable("relabelDps"), H.encode_unit_tree(tree)), 10**6)
    assert H.decode_tree(res.value) == H.bfs_relabel(tree)


def test_queue_ops(env):
    q = run_ok(app_chain(env.runnable("singletonN"), H.encode_nat(5))).value
    q = run_ok(app_chain(S.App(env.runnable("enqueueN"), S.Val(q)), H.encode_nat(6))).value
    r = run_ok(S.App(env.runnable("dequeueN"), S.Val(q))).value
    assert isinstance(r, S.InrV)
    assert H.decode_nat(r.value.fst) == 5
    r2 = run_ok(S.App(env.runnable("dequeueN"), S.Val(r.value.snd))).value
    assert H.decode_nat(r2.value.fst) == 6
    r3 = run_ok(S.App(env.runnable("dequeueN"), S.Val(r2.value.snd))).value
    assert isinstance(r3, S.InlV)


def test_alloc_type(env):
    assert env.checker().tyenv.equal(env.defs["alloc"].ty, parse_type("(Dest T -o 1) -o[1 inf] T"))


def test_user_program_on_top_of_prelude(env):
    src = """
    def double : Nat -o Nat =
      fix dbl : (Nat -o Nat) ->
        \\n -> case n of { Inl u -> u ; 0, Inr m -> succ (succ (dbl m)) }
    main = double
    """
    user = load_source(src, base=env)
    res = run_ok(app_chain(user.runnable("double"), H.encode_nat(5)))
    assert H.decode_nat(res.value) == 10


# ---------------------------------------------------------------------------
# Shared runnable terms and the typing kept on their nodes

NAT = S.TNamed("Nat", ())


def _typing(ck, term, expected):
    """check_command on the origin of `term` -> (type, destination coercions it counted)."""
    before = ck.stats.dest_coercions
    ty = ck.check_command(M.Command((), term), expected)
    return ty, ck.stats.dest_coercions - before


def _request_origins(env):
    """One origin of each kind the benchmark's requests workload serves."""
    q1 = run_ok(app_chain(env.runnable("singletonN"), H.encode_nat(1))).value
    q2 = run_ok(app_chain(S.App(env.runnable("enqueueN"), S.Val(q1)), H.encode_nat(2))).value
    list_nat, queue_nat = S.TNamed("List", (NAT,)), S.TNamed("Queue", (NAT,))
    return {
        "map": (app_chain(S.App(env.runnable("mapN"), env.runnable("succ")),
                          H.encode_list([3, 0, 2])), list_nat),
        "relabel": (app_chain(env.runnable("relabelDps"),
                              H.encode_unit_tree(((), ((), None, None), None))),
                    S.TNamed("Tree", (NAT,))),
        "dlist": (dlist_prog(env, 8), list_nat),
        "singleton": (app_chain(env.runnable("singletonN"), H.encode_nat(1)), queue_nat),
        "enqueue": (app_chain(S.App(env.runnable("enqueueN"), S.Val(q1)), H.encode_nat(2)),
                    queue_nat),
        "dequeue": (S.App(env.runnable("dequeueN"), S.Val(q2)),
                    S.TSum(S.TUnit(), S.TProd(NAT, queue_nat))),
    }


def test_runnable_is_built_once_per_env(env):
    for name in env.order:
        for from_prime in (False, True):
            term = env.runnable(name, from_prime)
            assert env.runnable(name, from_prime) is term
            core = env.defs[name].core
            fresh = S.erase_annots(core if from_prime else S.lower_from_prime(core))
            assert term == fresh, name


def test_kept_typing_matches_the_uncached_path(env):
    cases = {name: (env.runnable(name), env.defs[name].ty) for name in env.order}
    cases.update(_request_origins(env))
    # a closed term typed under two binders keeps its typing too
    closed = app_chain(S.App(env.runnable("mapN"), env.runnable("succ")), H.encode_list([2, 0]))
    body = S.Seq(S.Var("a"), S.Seq(S.Var("b"), closed))
    pair = S.Val(S.PairV(S.UnitV(), S.UnitV()))
    cases["under a binder"] = (S.CasePair(UNIT, pair, "a", "b", body), S.TNamed("List", (NAT,)))
    memo = Checker(env.tyenv)
    for name, (term, expected) in cases.items():
        want = _typing(Checker(env.tyenv, type_log={}), term, expected)
        assert _typing(memo, term, expected) == want, name
        assert "_typed_" in term.__dict__, name
        assert _typing(memo, term, expected) == want, name
        assert _typing(Checker(env.tyenv), term, expected) == want, name
    assert "_typed_" in closed.__dict__


def test_request_types_only_what_it_adds(env, monkeypatch):
    def origin(xs):
        return app_chain(S.App(env.runnable("mapN"), env.runnable("succ")), H.encode_list(xs))

    expected = S.TNamed("List", (NAT,))
    Checker(env.tyenv).check_command(M.Command((), origin([1])), expected)
    visited = []
    infer = Checker._infer
    monkeypatch.setattr(Checker, "_infer", lambda ck, g, t, e: visited.append(t) or infer(ck, g, t, e))
    Checker(env.tyenv).check_command(M.Command((), origin([2, 7, 1])), expected)
    # the two new applications and the argument; mapN and succ are served whole
    assert [type(t) for t in visited] == [S.App, S.App, S.Val]


def test_command_wrappers_keep_no_typing(env, monkeypatch):
    # a check wraps the focus in one node per frame, plugged anew each time
    term = app_chain(S.App(env.runnable("mapN"), env.runnable("succ")), H.encode_list([1, 2]))
    ty = Checker(env.tyenv).check_command(M.Command((), term))
    steps = list(M.run_term(term).trace.steps)
    built, plug = [], M.plug
    monkeypatch.setattr(M, "plug", lambda *a: built.append(plug(*a)) or built[-1])
    ck = Checker(env.tyenv)
    for _, cmd in steps:
        ck.check_command(cmd, ty)
    assert built
    assert not [w for w in built if isinstance(w.__dict__.get("_typed_"), dict)]


def test_failures_are_not_kept(env):
    term = app_chain(S.App(env.runnable("mapN"), env.runnable("succ")),
                     H.encode_unit_tree(((), None, None)))
    expected = S.TNamed("List", (NAT,))
    memo, kinds = Checker(env.tyenv), []
    for ck in (Checker(env.tyenv, type_log={}), memo, memo, Checker(env.tyenv)):
        with pytest.raises(TypeCheckError) as e:
            ck.check_command(M.Command((), term), expected)
        kinds.append(e.value.kind)
    assert kinds == ["TypeMismatch"] * 4
    assert "_typed_" not in term.__dict__


def test_kept_typing_is_per_type_env(env):
    # declaring a type gives a program its own environment; declaring none shares the base's
    other = load_source("type Flag = 1 + 1\ndef one : Nat = 1\n", base=env)
    assert other.tyenv is not env.tyenv
    term, expected = env.runnable("mapN"), env.defs["mapN"].ty
    for tyenv in (env.tyenv, other.tyenv, env.tyenv, other.tyenv):
        assert Checker(tyenv).check_term({}, term, expected) == expected
    keys = [k for k in term.__dict__["_typed_"]
            if k[0] in (env.tyenv, other.tyenv) and k[1:] == (expected, True)]
    assert sorted(id(k[0]) for k in keys) == sorted((id(env.tyenv), id(other.tyenv)))


# ---------------------------------------------------------------------------
# Checked copies: a load builds what the cache-free reference builds

SHADOWS_SUCC = """
def succ : Nat -o Nat = \\n -> from'* (upd (new* : Nat >< Dest Nat) with d ->
  d <| Inr <! (from'* (upd (new* : Nat >< Dest Nat) with e -> e <| Inr <! n)))
def p : List Nat = mapN succ (consN 3 (consN 1 nilN))
def q : Nat -o Nat = \\n -> succ (succ n)
"""

DECLARES_A_TYPE = """
type Flag = 1 + 1
type DList a = (1 + (a * List a)) >< Dest (List a)
def two : List Nat = toListN (appendN (dsingleN 1) 2)
def yes : Flag = from'* (upd (new* : Flag >< Dest Flag) with d -> d <| Inl <| Unit)
def both : Nat * Nat = (1, succ 2)
def p : List Nat = mapN succ (consN 3 nilN)
"""

ON_A_DECLARED_TYPE = """
def flags : Flag * Flag = (yes, yes)
def r : Nat -o List Nat = \\n -> consN (succ n) p
"""


def _assert_loads_alike(env, ref, names):
    for name in names:
        got, want = env.defs[name], ref.defs[name]
        assert layout_diff(got.core, want.core) is None, (name, layout_diff(got.core, want.core))
        assert got.ty == want.ty, name
        for from_prime in (False, True):
            diff = layout_diff(env.runnable(name, from_prime), ref.runnable(name, from_prime))
            assert diff is None, (name, from_prime, diff)


def _term_nodes(env):
    terms = [d.core for d in env.defs.values()] + [d.sugar for d in env.defs.values()]
    return _nodes(terms + [env.runnable(n, fp) for n in env.order for fp in (False, True)])


def _nodes(terms):
    out = {}
    stack = list(terms)
    while stack:
        t = stack.pop()
        if id(t) not in out:
            out[id(t)] = t
            get, kids = S.layout(type(t))
            fields = get(t)
            stack.extend(fields[i] for i, _ in kids)
    return out


def test_load_matches_the_cache_free_reference():
    env, ref = load_prelude(), reference_load_prelude()
    assert env.order == ref.order
    _assert_loads_alike(env, ref, env.order)
    user, user_ref = env, ref
    for src in (SHADOWS_SUCC, DECLARES_A_TYPE, ON_A_DECLARED_TYPE):
        # the last one builds on the program that declares a type
        base, base_ref = (user, user_ref) if src is ON_A_DECLARED_TYPE else (env, ref)
        user = load_source(src, base=base)
        user_ref = reference_load_program(parse(src), base_ref)
        _assert_loads_alike(user, user_ref, [d.name for d in parse(src).term_defs])
    # two loads share no node
    assert not _term_nodes(env).keys() & _term_nodes(load_prelude()).keys()


REDEFINES_NAT = """
type Nat = 1 + Nat
def three : Nat = succ (succ 1)
def q : Nat -o List Nat = \\n -> consN (succ n) nilN
"""


def test_a_program_that_declares_types_puts_in_no_checked_copy():
    # its type environment is not its base's, so it desugars what it inlines
    # afresh: a node it shares with a base core is one of its own sugar, which
    # `desugar` keeps, never part of a checked copy stamped under the base's
    env = load_prelude()
    user = load_source(REDEFINES_NAT, base=env)
    assert user.tyenv is not env.tyenv
    base = _nodes(d.core for d in env.defs.values()).keys()
    names = [d.name for d in parse(REDEFINES_NAT).term_defs]
    for name in names:
        d = user.defs[name]
        assert _nodes([d.core]).keys() & base <= _nodes([d.sugar]).keys(), name
    ref = reference_load_program(parse(REDEFINES_NAT), reference_load_prelude())
    _assert_loads_alike(user, ref, names)


def test_a_program_that_declares_types_is_checked_over_unstamped_nodes(env, monkeypatch):
    # the base's checks stamped the cores of its definitions; desugaring a
    # reference afresh under a new type environment keeps none of those stamps
    stamped = []

    def count(node, _):
        if type(node) is S.Val:
            return None
        d = node.__dict__
        stamped.append("_typed_" in d or any(d[f] is not None for f in S.field_order(type(node))
                                             if f.endswith("_")))
        return S.DESCEND

    desugar = S.desugar

    def counted(*args):
        core = desugar(*args)
        S.walk(core, count)
        return core

    monkeypatch.setattr(S, "desugar", counted)
    user = load_source("type Flag = 1 + 1\n"
                       "def p : List Nat = toListN (appendN (dsingleN 1) 2)\n", base=env)
    assert user.tyenv is not env.tyenv
    assert len(stamped) == 95 and not any(stamped)
    assert H.decode_list(run_ok(user.runnable("p")).value) == [1, 2]


def test_a_load_types_each_definition_once(monkeypatch):
    # the prelude's own code only: inlined definitions come in typed
    visited = []
    infer = Checker._infer
    monkeypatch.setattr(Checker, "_infer", lambda ck, g, t, e: visited.append(t) or infer(ck, g, t, e))
    load_prelude()
    assert len(visited) <= 1800
