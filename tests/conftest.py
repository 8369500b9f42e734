import pytest

from destcalc import harness as H
from destcalc import machine as M
from destcalc import syntax as S
from destcalc.modes import UNIT
from destcalc.parser import parse_type
from destcalc.prelude import load_prelude
from destcalc.typecheck import Checker


@pytest.fixture(scope="session")
def env():
    return load_prelude()


def app_chain(term, *values):
    for v in values:
        term = S.App(term, S.Val(v))
    return term


def run_ok(term, fuel=10**6):
    res = M.run_term(term, fuel)
    assert isinstance(res, M.Finished), res
    return res


def golden_term():
    """The worked reduction of `() :: Inl ()`, with from'* as a primitive."""
    body = S.CasePair(
        UNIT, S.FillPair(S.FillInr(S.Var("d"))), "dx", "dxs",
        S.Seq(S.FillLeaf(S.Var("dx"), S.Val(S.UnitV())),
              S.FillLeaf(S.Var("dxs"), S.Val(S.InlV(S.UnitV())))),
    )
    return S.FromAmparPrime(S.UpdWith(S.NewAmpar(None), "d", body))


def frame_of(node, field):
    """The frame of `node` with its field `field` left empty, as a focusing rule makes it."""
    slot = S.field_order(type(node)).index(field)
    fields = list(S.layout(type(node))[0](node))
    fields[slot] = None
    return M.Frame(type(node), tuple(fields), slot)


def dlist_prog(env, k):
    """toListN over k left-nested concatN of dsingleN (i % 10)."""
    concat = env.runnable("concatN")
    dsingle = env.runnable("dsingleN")
    acc = app_chain(dsingle, H.encode_nat(0))
    for i in range(1, k):
        acc = S.App(S.App(concat, acc), app_chain(dsingle, H.encode_nat(i % 10)))
    return S.App(env.runnable("toListN"), acc)


def suite_programs(env):
    """The eight programs of the A2/A3/A10 trace suite: name -> (term, expected type)."""
    tree = ((), ((), None, None), None)
    return {
        "golden": (golden_term(), parse_type("List 1")),
        "map": (app_chain(S.App(env.runnable("mapN"), env.runnable("succ")),
                          H.encode_list([3, 1, 4])), None),
        "sharing": (env.runnable("sharing"), None),
        "minamide": (env.runnable("haDemo"), None),
        "scope_store": (env.runnable("scopeStore"), None),
        "queue": (S.App(env.runnable("dequeueN"),
                        app_chain(S.App(env.runnable("enqueueN"),
                                        app_chain(env.runnable("singletonN"), H.encode_nat(1))),
                                  H.encode_nat(2))), None),
        "dlist": (S.App(env.runnable("toListN"),
                        S.App(S.App(env.runnable("concatN"),
                                    app_chain(env.runnable("dsingleN"), H.encode_nat(1))),
                              app_chain(env.runnable("dsingleN"), H.encode_nat(2)))), None),
        "relabel": (app_chain(env.runnable("relabelDps"), H.encode_unit_tree(tree)), None),
    }


def plain_fv(t, memo):
    """Free variables, recomputed without the binder table or any cache."""
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    if isinstance(t, S.Var):
        out = {t.name}
    else:
        out = set()
        for f in S.field_names(type(t)):
            v = getattr(t, f)
            if isinstance(v, S._TERM_TYPES):
                out |= plain_fv(v, memo) - _bound_over(t, f)
    memo[id(t)] = (t, frozenset(out))
    return memo[id(t)][1]


def _bound_over(t, f):
    if isinstance(t, S.CaseSum):
        return {"left_body": {t.left_var}, "right_body": {t.right_var}}.get(f, set())
    if isinstance(t, S.CasePair):
        return {t.var1, t.var2} if f == "body" else set()
    if isinstance(t, (S.CaseBang, S.UpdWith, S.FillFun, S.Fix)):
        return {t.var} if f == "body" else set()
    return set()


def plain_hmax(x, memo):
    """The largest hole name, recomputed without any cache."""
    hit = memo.get(id(x))
    if hit is not None:
        return hit[1]
    out = x.hole if isinstance(x, (S.HoleV, S.DestV)) else 0
    if isinstance(x, S.AmparV):
        out = max(x.holes, default=0)
    for f in S.field_names(type(x)):
        v = getattr(x, f)
        if isinstance(v, S._TERM_TYPES + S._VALUE_TYPES):
            out = max(out, plain_hmax(v, memo))
    memo[id(x)] = (x, out)
    return out


@pytest.fixture(scope="session")
def suite(env):
    """The trace suite of A2/A3/A10: program name -> (checker, type, trace)."""
    out = {}
    for name, (term, expected) in suite_programs(env).items():
        ck = env.checker()
        ty = ck.check_command(M.Command((), term), expected)
        res = M.run_term(term, 10**6)
        assert isinstance(res, M.Finished), name
        out[name] = (ck, ty, res.trace)
    return out


@pytest.fixture(scope="session")
def preservation(suite):
    """Preservation over every suite trace, computed once with one new checker per
    trace: program name -> (Verdict, CheckStats), shared by A2 and A10."""
    out = {}
    for name, (ck, ty, trace) in suite.items():
        fresh = Checker(ck.tyenv)
        out[name] = (H.check_preservation(trace, fresh, ty), fresh.stats)
    return out
