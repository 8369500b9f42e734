"""Brute-force derivability oracle for the declarative typing rules.

Deciding a judgment declaratively is nondeterministic only in modes: the
mode picked at each variable leaf, how contexts split across premises,
and where unrestricted bindings are discarded.  This module enumerates
those choices exhaustively over a small mode universe and decides
derivability exactly.  Types carry no ambiguity, so they are elaborated
once by a mode-blind pass of the regular checker; the oracle then never
consults the checker's usage machinery.  Used only by tests, on terms of
bounded size.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .modes import (
    INF, MANY, Mode, ONE, ONE_UP, MANY_INF, UNIT,
    mode_leq, mode_plus, mode_times,
)
from . import syntax as S
from .typecheck import Checker, TypeCheckError, TypeEnv


class SizeBoundExceeded(Exception):
    pass


def term_nodes(t) -> int:
    return S.term_size(t)


class _Search:
    def __init__(self, tyenv: TypeEnv, types: Dict[int, object], universe):
        self.tyenv = tyenv
        self.types = types
        self.universe = tuple(universe)
        self.memo = {}

    # -- mode arithmetic over the finite universe ---------------------------

    def add_splits(self, m: Mode):
        """All (m1, m2) in the universe with m1 + m2 = m."""
        key = ("+", m)
        out = self.memo.get(key)
        if out is None:
            out = [
                (a, b)
                for a in self.universe
                for b in self.universe
                if mode_plus(a, b) == m
            ]
            self.memo[key] = out
        return out

    def unscale(self, c: Mode, m: Mode):
        """All m1 in the universe with c * m1 = m."""
        key = ("*", c, m)
        out = self.memo.get(key)
        if out is None:
            out = [a for a in self.universe if mode_times(c, a) == m]
            self.memo[key] = out
        return out

    def ty_of(self, node):
        ty = self.types.get(id(node))
        if ty is None:
            raise SizeBoundExceeded("no elaborated type for node %r" % (node,))
        return ty

    # -- context plumbing ----------------------------------------------------

    def split2(self, ctx, scale1: Optional[Mode]):
        """All (ctx1, ctx2) with ctx = scale1*ctx1 + ctx2 (pointwise).

        Each name may sit in either premise alone or in both; `scale1`
        multiplies the first premise's context in the conclusion.
        """
        items = sorted(ctx.items())
        results = [({}, {})]
        for name, m in items:
            step = []
            for c1, c2 in results:
                # only in premise 1
                if scale1 is None:
                    step.append(({**c1, name: m}, c2))
                else:
                    for m1 in self.unscale(scale1, m):
                        step.append(({**c1, name: m1}, c2))
                # only in premise 2
                step.append((c1, {**c2, name: m}))
                # in both
                for a, b in self.add_splits(m):
                    if scale1 is None:
                        step.append(({**c1, name: a}, {**c2, name: b}))
                    else:
                        for m1 in self.unscale(scale1, a):
                            step.append(({**c1, name: m1}, {**c2, name: b}))
            results = step
        return results

    def all_discardable(self, ctx) -> bool:
        # a leaf absorbs any w-multiplicity binding (scaled by [w ^0])
        return all(m.mult == MANY for m in ctx.values())

    # -- the judgment ---------------------------------------------------------

    def derive(self, ctx: dict, t) -> bool:
        key = (id(t), frozenset(ctx.items()))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.memo[key] = False  # cut cycles conservatively
        out = self._derive(ctx, t)
        self.memo[key] = out
        return out

    def _derive(self, ctx, t) -> bool:
        if isinstance(t, S.Var):
            if t.name not in ctx:
                return False
            rest = {k: m for k, m in ctx.items() if k != t.name}
            return mode_leq(UNIT, ctx[t.name]) and self.all_discardable(rest)

        if isinstance(t, S.Annot):
            return self.derive(ctx, t.inner)

        if isinstance(t, S.Val):
            # pool values are hole- and destination-free, hence closed
            return self.all_discardable(ctx)

        if isinstance(t, S.NewAmpar):
            return self.all_discardable(ctx)

        if isinstance(t, S.App):
            fn_ty = self.tyenv.head(self.ty_of(t.fn))
            if not isinstance(fn_ty, S.TArrow):
                return False
            m = fn_ty.mode
            return any(
                self.derive(c1, t.arg) and self.derive(c2, t.fn)
                for c1, c2 in self.split2(ctx, m)
            )

        if isinstance(t, S.Seq):
            return any(
                self.derive(c1, t.first) and self.derive(c2, t.rest)
                for c1, c2 in self.split2(ctx, None)
            )

        if isinstance(t, S.CaseSum):
            for c1, c2 in self.split2(ctx, t.mode):
                if not self.derive(c1, t.scrut):
                    continue
                left = dict(c2)
                left[t.left_var] = t.mode
                right = dict(c2)
                right[t.right_var] = t.mode
                if self.derive(left, t.left_body) and self.derive(right, t.right_body):
                    return True
            return False

        if isinstance(t, S.CasePair):
            for c1, c2 in self.split2(ctx, t.mode):
                if not self.derive(c1, t.scrut):
                    continue
                body = dict(c2)
                body[t.var1] = t.mode
                body[t.var2] = t.mode
                if self.derive(body, t.body):
                    return True
            return False

        if isinstance(t, S.CaseBang):
            binder = mode_times(t.mode, t.inner_mode)
            for c1, c2 in self.split2(ctx, t.mode):
                if not self.derive(c1, t.scrut):
                    continue
                body = dict(c2)
                body[t.var] = binder
                if self.derive(body, t.body):
                    return True
            return False

        if isinstance(t, S.UpdWith):
            for c1, c2 in self.split2(ctx, None):
                if not self.derive(c1, t.scrut):
                    continue
                body = {k: mode_times(ONE_UP, m) for k, m in c2.items()}
                body[t.var] = UNIT
                if self.derive(body, t.body):
                    return True
            return False

        if isinstance(t, (S.ToAmpar, S.FromAmpar, S.FromAmparPrime)):
            return self.derive(ctx, t.inner)

        if isinstance(t, (S.FillUnit, S.FillInl, S.FillInr, S.FillPair, S.FillBang)):
            return self.derive(ctx, t.dest)

        if isinstance(t, S.FillFun):
            d_ty = self.tyenv.head(self.ty_of(t.dest))
            if not isinstance(d_ty, S.TDest):
                return False
            scale = mode_times(ONE_UP, d_ty.mode)
            for c1, c2 in self.split2(ctx, scale):
                body = dict(c1)
                body[t.var] = t.mode
                if self.derive(body, t.body) and self.derive(c2, t.dest):
                    return True
            return False

        if isinstance(t, S.FillComp):
            for c1, c2 in self.split2(ctx, ONE_UP):
                if self.derive(c2, t.dest) and self.derive(c1, t.child):
                    return True
            return False

        if isinstance(t, S.FillLeaf):
            d_ty = self.tyenv.head(self.ty_of(t.dest))
            if not isinstance(d_ty, S.TDest):
                return False
            scale = mode_times(ONE_UP, d_ty.mode)
            for c1, c2 in self.split2(ctx, scale):
                if self.derive(c2, t.dest) and self.derive(c1, t.arg):
                    return True
            return False

        if isinstance(t, S.Fix):
            # recursive references run arbitrarily often and arbitrarily
            # late: everything the body captures must sit at [w inf];
            # any other binding may only be discarded
            import itertools

            inf_names = []
            for name, m in ctx.items():
                if m == MANY_INF:
                    inf_names.append(name)
                elif m.mult != MANY:
                    return False
            for k in range(len(inf_names), -1, -1):
                for chosen in itertools.combinations(inf_names, k):
                    body = {name: MANY_INF for name in chosen}
                    body[t.var] = MANY_INF
                    if self.derive(body, t.body):
                        return True
            return False

        raise SizeBoundExceeded("oracle does not cover node %r" % type(t).__name__)


def _universe_for(t) -> Tuple[Mode, ...]:
    # ages that can appear in any derivation: one step per scaling site,
    # plus whatever the annotations mention
    max_ann = S.max_age_exponent(t)
    scaling = (S.FillLeaf, S.FillComp, S.FillFun, S.UpdWith)
    sites = S.walk(t, lambda node, _: 0 if type(node) is S.Val else S.DESCEND,
                   lambda node, kids: sum(kids) + isinstance(node, scaling))
    bound = sites * (1 + max_ann) + max_ann + 1
    ages = list(range(bound + 1)) + [INF]
    return tuple(Mode(p, a) for p in (ONE, MANY) for a in ages)


def oracle_declarative_check(
    t,
    gamma_modes: Optional[Dict[str, Mode]] = None,
    tyenv: Optional[TypeEnv] = None,
    expected=None,
    gamma_types: Optional[dict] = None,
    size_bound: int = 48,
) -> bool:
    """Decide derivability of `gamma |- t : expected` by exhaustive search.

    Returns True iff some assignment of leaf modes, context splits and
    discards yields a declarative derivation.  Type-incorrect terms are
    rejected outright (types are not searched; the calculus determines
    them).
    """
    if term_nodes(t) > size_bound:
        raise SizeBoundExceeded("term has more than %d nodes" % size_bound)
    tyenv = tyenv or TypeEnv({})
    gamma_modes = dict(gamma_modes or {})
    # mode-blind pass: elaborate every node's type; reject type errors
    types: Dict[int, object] = {}
    lenient = Checker(tyenv, mode_strict=False, type_log=types)
    from .modes import VarB

    gamma = {}
    for name, mode in gamma_modes.items():
        ty = (gamma_types or {}).get(name)
        if ty is None:
            raise ValueError("gamma_types must cover %r" % name)
        gamma[name] = VarB(mode, ty)
    try:
        lenient.check_term(gamma, t, expected)
    except TypeCheckError:
        return False
    search = _Search(tyenv, types, _universe_for(t))
    return search.derive(gamma_modes, t)
