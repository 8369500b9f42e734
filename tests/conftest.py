from typing import List

import pytest

from destcalc import harness as H
from destcalc import machine as M
from destcalc import prelude as P
from destcalc import syntax as S
from destcalc.modes import UNIT
from destcalc.parser import _SYMBOLS, ParseError, Token, parse, parse_type
from destcalc.prelude import load_prelude
from destcalc import typecheck as T
from destcalc.typecheck import Checker, TypeEnv


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
        for f in S.field_order(type(t)):
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
    for f in S.field_order(type(x)):
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


def whole_check(tyenv, cmd, expected):
    """A command checked whole, as one term, by a new checker: (type, destination coercions)."""
    ck = Checker(tyenv)
    T._check_open_disjointness(cmd.ctx)
    ty = ck.check_term({}, T._wrap_components(cmd.ctx, cmd.focus), expected)
    return ty, ck.stats.dest_coercions


@pytest.fixture(scope="session")
def preservation(suite):
    """Preservation over every suite trace, computed once with one new checker per
    trace: program name -> (Verdict, CheckStats), shared by A2 and A10."""
    out = {}
    for name, (ck, ty, trace) in suite.items():
        fresh = Checker(ck.tyenv)
        out[name] = (H.check_preservation(trace, fresh, ty), fresh.stats)
    return out


# ---------------------------------------------------------------------------
# Cache-free references of the loading path


# the keywords that may be written with a trailing `*` (`new*`, `from'*`)
_STAR_KEYWORDS = {"new", "to", "from", "from'"}


def reference_tokenize(src: str) -> List[Token]:
    """The tokenizer as a loop over characters; `parser.tokenize` must agree with it."""
    toks: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        pos = (line, col)
        if c.isdecimal():
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(Token("num", src[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            if word in _STAR_KEYWORDS and j < n and src[j] == "*":
                word += "*"
                j += 1
            toks.append(Token("ident", word, pos))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                toks.append(Token("sym", sym, pos))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(pos, "a token (found %r)" % c)
    toks.append(Token("eof", "", (line, col)))
    return toks


def reference_load_program(prog, base=None) -> P.ProgramEnv:
    """Load a parsed program with no checked copy and no kept typing: every
    reference is inlined as sugar, desugared afresh and checked by a checker
    that reads no typing kept on a node (`type_log`)."""
    if base is not None:
        tyenv = TypeEnv({**base.tyenv.defs, **prog.type_defs})
        env = P.ProgramEnv(tyenv, dict(base.defs), list(base.order), prog.main or base.main)
    else:
        env = P.ProgramEnv(TypeEnv(prog.type_defs), main=prog.main)
    checker = Checker(env.tyenv, type_log={})

    def use(v):
        d = env.defs.get(v.name)
        if d is None:
            return v
        return S.Annot(d.sugar, d.ann, pos=v.pos)

    for d in prog.term_defs:
        inlined = S.map_free_vars(d.body, use)
        core = S.desugar(inlined)
        ty = checker.check_term({}, core, d.ann)
        env.defs[d.name] = P.LoadedDef(d.name, d.ann, inlined, core, ty)
        env.order.append(d.name)
    return env


def reference_load_prelude() -> P.ProgramEnv:
    """The prelude through `reference_load_program` (no load-time validation)."""
    env, parsed = None, {}
    for fname in P.PRELUDE_FILES:
        parsed[fname] = parse(P._read(fname))
        env = reference_load_program(parsed[fname], env)
    for suffix, ty_args, files in P.INSTANTIATIONS:
        env = reference_load_program(P.instantiate([parsed[f] for f in files], ty_args, suffix), env)
    for fname in P.POST_FILES:
        env = reference_load_program(parse(P._read(fname)), env)
    return env


def layout_diff(a, b, path="core"):
    """Where two terms differ in any constructor field (`pos` and stamps
    included), or None when they agree everywhere."""
    if type(a) is not type(b):
        return "%s: %s vs %s" % (path, type(a).__name__, type(b).__name__)
    if not isinstance(a, S._TERM_TYPES):
        return None if a == b else "%s: %r vs %r" % (path, a, b)
    get, kids = S.layout(type(a))
    names = S.field_order(type(a))
    terms = {i for i, _ in kids}
    for i, (x, y) in enumerate(zip(get(a), get(b))):
        where = "%s.%s" % (path, names[i])
        if i in terms:
            diff = layout_diff(x, y, where)
            if diff:
                return diff
        elif x != y or type(x) is not type(y):
            return "%s: %r vs %r" % (where, x, y)
    return None
