"""The shipped program library: load-time checks and runtime behavior."""

import pytest

from destcalc import harness as H
from destcalc import machine as M
from destcalc import syntax as S
from destcalc.parser import parse_type
from destcalc.prelude import EXPECTED_TYPES, load_prelude, load_source
from destcalc.typecheck import Checker, TypeCheckError

from conftest import app_chain, dlist_prog, run_ok


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
    memo = Checker(env.tyenv)
    for name, (term, expected) in cases.items():
        want = _typing(Checker(env.tyenv, type_log={}), term, expected)
        assert _typing(memo, term, expected) == want, name
        assert "_typed_" in term.__dict__, name
        assert _typing(memo, term, expected) == want, name
        assert _typing(Checker(env.tyenv), term, expected) == want, name


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
    other = load_source("def one : Nat = 1\n", base=env)
    term, expected = env.runnable("mapN"), env.defs["mapN"].ty
    for tyenv in (env.tyenv, other.tyenv, env.tyenv, other.tyenv):
        assert Checker(tyenv).check_term({}, term, expected) == expected
    keys = [k for k in term.__dict__["_typed_"]
            if k[0] in (env.tyenv, other.tyenv) and k[1:] == (expected, True)]
    assert sorted(id(k[0]) for k in keys) == sorted((id(env.tyenv), id(other.tyenv)))
