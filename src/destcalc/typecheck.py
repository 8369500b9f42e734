"""Algorithmic typing for terms, runtime values, evaluation contexts, commands.

The declarative rules are nondeterministic in exactly two places: the
mode picked at each variable use and where unused unrestricted bindings
are discarded.  Both are resolved by propagating, per name, the set of
achievable modes (a use contributes every mode above the unit; sharing
sums sets; case branches intersect; scaled premises contribute images or
preimages under the scaling).  A binding checks iff its declared mode is
a member of its achievable set.  Types flow bidirectionally: everything
synthesizes except `new*`, which takes its type from an annotation or
from the expected type reaching it.

Checking stamps scrutinee, parameter and codomain types onto the visited nodes, so
commands the machine later builds out of those nodes can be re-checked
mid-trace (preservation) without re-running global inference.  A command
is its context's components wrapped around its focus, and consecutive
commands of a trace share the components a step did not touch.  A checker
keeps one level per component of the last command it checked, as a zipper
over the context: the typing that reaches the component's slot and the
typing the component produced from its slot's.  The next command reuses
the levels of the longest prefix of components that are the same objects,
types the later components down to their slots and the focus at its slot,
and re-types upwards only until a reused level's slot typing is unchanged.
Besides those levels, the checker keeps only the typing of a closed term,
on the term itself, in whatever context it was typed, so a shared library
term is typed once per type environment, not once per request or once per
definition that inlines it.  A component's other terms and the bodies of
lambda values that read a binding are typed again whenever their
component is.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .modes import (
    INF, Mode, ModeSet, Name, UNIT, ONE, MANY, ONE_UP, MANY_INF, USE_SET,
    VarB, DestB, HoleB, Binding, TypingContext,
    mode_times, ms_close, ms_image, ms_preimage, ms_sum, discardable,
)
from .records import record
from . import machine as M
from . import syntax as S
from .parser import TypeDef
from .printer import print_mode, print_type


class TypeCheckError(Exception):
    """A typing failure; `kind` is a stable machine-readable tag."""

    def __init__(self, kind: str, msg: str, pos=None, **info):
        super().__init__(msg)
        self.kind = kind
        self.pos = pos
        self.info = info


def _err(kind, msg, node=None, **info):
    pos = getattr(node, "pos", None) if node is not None else None
    return TypeCheckError(kind, msg, pos=pos, **info)


@record
class CheckStats:
    # times a destination binding with outer mode other than 1v was consumed;
    # only the context a caller gives `check_term`/`check_value` can hold one
    dest_coercions: int = 0


# Expected-type patterns for bidirectional flow.


@record(frozen=True)
class EAmp:
    left: object  # Expected for the ampar's left side
    right: object  # Expected for the ampar's right side


@record(frozen=True)
class EArr:
    dom: object  # Expected for the domain
    cod: object  # Expected for the codomain


def _exact(exp):
    """The expected type when it is exact, else None."""
    if exp is None or isinstance(exp, (EAmp, EArr)):
        return None
    return exp


class _Unsynthesizable(Exception):
    def __init__(self, node, why):
        super().__init__(why)
        self.node = node
        self.why = why


@record
class OpenFocus:
    """Internal node: an open-ampar component wrapped around the focus."""

    holes: frozenset
    left: object  # Value under construction
    inner: object  # reconstructed inner term
    typed: Optional[tuple] = None  # the structure's typing, once inferred (`_infer_open`)
    pos = None


# ---------------------------------------------------------------------------
# Named-type environment


class TypeEnv:
    def __init__(self, type_defs: Optional[Dict[str, TypeDef]] = None):
        self.defs = dict(type_defs or {})
        self._heads = {}  # TNamed -> its `head`; a synonym cycle is never kept

    def unfold1(self, ty):
        """One unfolding step of a defined named type, else None."""
        if not isinstance(ty, S.TNamed):
            return None
        d = self.defs.get(ty.name)
        if d is None or d.body is None:
            return None
        if len(d.params) != len(ty.args):
            raise TypeCheckError(
                "ArityOrFormError",
                "type %s expects %d argument(s), got %d" % (ty.name, len(d.params), len(ty.args)),
            )
        subst = dict(zip(d.params, ty.args))
        return _subst_type(d.body, subst)

    def head(self, ty):
        """Unfold named definitions until a structural head (or opaque name)."""
        if not isinstance(ty, S.TNamed):
            return ty
        out = self._heads.get(ty)
        if out is None:
            out = self._heads[ty] = self._unfold_head(ty)
        return out

    def _unfold_head(self, ty):
        seen = set()
        while isinstance(ty, S.TNamed):
            if ty in seen:
                raise TypeCheckError(
                    "ArityOrFormError", "type synonym cycle with no structure at %s" % ty.name
                )
            seen.add(ty)
            nxt = self.unfold1(ty)
            if nxt is None:
                return ty
            ty = nxt
        return ty

    def equal(self, a, b, _seen=None) -> bool:
        if _seen is None:
            _seen = set()
        if a == b:
            return True
        key = (a, b)
        if key in _seen:
            return True  # coinductive: assumed pairs count as equal
        _seen.add(key)
        ha, hb = self.head(a), self.head(b)
        if isinstance(ha, S.TNamed) or isinstance(hb, S.TNamed):
            if isinstance(ha, S.TNamed) and isinstance(hb, S.TNamed) and ha.name == hb.name:
                return len(ha.args) == len(hb.args) and all(
                    self.equal(x, y, _seen) for x, y in zip(ha.args, hb.args)
                )
            # two different names, or one side still opaque, the other structural
            return False
        if type(ha) is not type(hb):
            return False
        if isinstance(ha, S.TUnit):
            return True
        if isinstance(ha, (S.TSum, S.TProd, S.TAmpar)):
            return self.equal(ha.left, hb.left, _seen) and self.equal(ha.right, hb.right, _seen)
        if isinstance(ha, S.TBang):
            return ha.mode == hb.mode and self.equal(ha.inner, hb.inner, _seen)
        if isinstance(ha, S.TDest):
            return ha.mode == hb.mode and self.equal(ha.inner, hb.inner, _seen)
        if isinstance(ha, S.TArrow):
            return (
                ha.mode == hb.mode
                and self.equal(ha.dom, hb.dom, _seen)
                and self.equal(ha.cod, hb.cod, _seen)
            )
        return False


def _subst_type(ty, subst):
    if isinstance(ty, S.TNamed):
        if not ty.args and ty.name in subst:
            return subst[ty.name]
        return S.TNamed(ty.name, tuple(_subst_type(a, subst) for a in ty.args))
    if isinstance(ty, S.TUnit):
        return ty
    if isinstance(ty, S.TSum):
        return S.TSum(_subst_type(ty.left, subst), _subst_type(ty.right, subst))
    if isinstance(ty, S.TProd):
        return S.TProd(_subst_type(ty.left, subst), _subst_type(ty.right, subst))
    if isinstance(ty, S.TAmpar):
        return S.TAmpar(_subst_type(ty.left, subst), _subst_type(ty.right, subst))
    if isinstance(ty, S.TBang):
        return S.TBang(ty.mode, _subst_type(ty.inner, subst))
    if isinstance(ty, S.TDest):
        return S.TDest(ty.mode, _subst_type(ty.inner, subst))
    if isinstance(ty, S.TArrow):
        return S.TArrow(_subst_type(ty.dom, subst), ty.mode, _subst_type(ty.cod, subst))
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Usage maps: name -> achievable mode set, for names actually used.

Usage = Dict[Name, ModeSet]


def u_image(c: Mode, u: Usage) -> Usage:
    return {k: ms_image(c, s) for k, s in u.items()}


def u_preimage_up(u: Usage) -> Usage:
    return {k: ms_preimage(ONE_UP, s) for k, s in u.items()}


def u_add(u1: Usage, u2: Usage) -> Usage:
    """Combine usages of two premises joined by context addition.

    A name used on one side only may be absent from the other or
    discarded there at an unrestricted mode, hence the closure.
    """
    out: Usage = {}
    for k in u1.keys() | u2.keys():
        if k in u1 and k in u2:
            out[k] = ms_sum(u1[k], u2[k])
        elif k in u1:
            out[k] = ms_close(u1[k])
        else:
            out[k] = ms_close(u2[k])
    return out


def u_add_value(u1: Usage, u2: Usage, disjoint_error=None) -> Usage:
    """Value-level context addition: no weakening, single-sided stays exact."""
    out: Usage = dict(u1)
    for k, s in u2.items():
        if k in out:
            if disjoint_error is not None:
                raise disjoint_error(k)
            out[k] = ms_sum(out[k], s)
        else:
            out[k] = s
    return out


_DISCARD_ANY = object()  # sentinel: branch does not mention the name


def u_branch_intersect(us: List[Usage]) -> Usage:
    out: Usage = {}
    keys = set()
    for u in us:
        keys |= u.keys()
    for k in keys:
        acc = None
        for u in us:
            s = ms_close(u[k]) if k in u else _DISCARD_ANY
            if acc is None:
                acc = s
            elif acc is _DISCARD_ANY and s is _DISCARD_ANY:
                pass
            elif acc is _DISCARD_ANY:
                acc = frozenset(m for m in s if m.mult == MANY)
            elif s is _DISCARD_ANY:
                acc = frozenset(m for m in acc if m.mult == MANY)
            else:
                acc = acc & s
        if acc is not _DISCARD_ANY:
            out[k] = acc
    return out


# ---------------------------------------------------------------------------


class Checker:
    def __init__(
        self,
        tyenv: TypeEnv,
        mode_strict: bool = True,
        type_log: Optional[dict] = None,
    ):
        self.tyenv = tyenv
        self.stats = CheckStats()
        self.mode_strict = mode_strict  # False: elaborate types, ignore modes
        self.type_log = type_log  # id(node) -> synthesized type, when set
        self._levels: List[_Level] = []  # the last command checked by levels, outermost first
        self._expected = None  # the type that command was checked against

    # -- type head helpers ---------------------------------------------------

    def _as(self, ty, cls, node, what):
        h = self.tyenv.head(ty)
        if not isinstance(h, cls):
            raise _err(
                "TypeMismatch",
                "expected %s, found %s" % (what, print_type(ty)),
                node, expected=what, got=ty,
            )
        return h

    def conform(self, ty, exp, node):
        if exp is None:
            return ty
        if isinstance(exp, EAmp):
            amp = self._as(ty, S.TAmpar, node, "an ampar type")
            self.conform(amp.left, exp.left, node)
            self.conform(amp.right, exp.right, node)
            return ty
        if isinstance(exp, EArr):
            arr = self._as(ty, S.TArrow, node, "a function type")
            self.conform(arr.dom, exp.dom, node)
            self.conform(arr.cod, exp.cod, node)
            return ty
        if not self.tyenv.equal(ty, exp):
            raise _err(
                "TypeMismatch",
                "expected %s, found %s" % (print_type(exp), print_type(ty)),
                node, expected=exp, got=ty,
            )
        return ty

    def _amp_parts(self, exp, node):
        """Split an Expected into expectations for an ampar's two sides."""
        if exp is None:
            return None, None
        if isinstance(exp, EAmp):
            return exp.left, exp.right
        if isinstance(exp, EArr):
            raise _err("TypeMismatch", "expected a function, found an ampar", node)
        amp = self._as(exp, S.TAmpar, node, "an ampar type")
        return amp.left, amp.right

    def _arrow_parts(self, exp, node):
        """Split an Expected into (dom, cod, mode-or-None) for an arrow."""
        if exp is None:
            return None, None, None
        if isinstance(exp, EArr):
            return exp.dom, exp.cod, None
        if isinstance(exp, EAmp):
            raise _err("TypeMismatch", "expected an ampar, found a function", node)
        arr = self._as(exp, S.TArrow, node, "a function type")
        return arr.dom, arr.cod, arr.mode

    # -- membership checks ----------------------------------------------------

    def _check_mode(self, name, binding: Binding, usage: Usage, node):
        if not self.mode_strict:
            return
        declared = binding.hole_mode if isinstance(binding, HoleB) else binding.mode
        if name not in usage:
            if isinstance(binding, VarB):
                if not discardable(declared):
                    raise _err(
                        "ModeNotAchievable",
                        "%r is unused but its multiplicity is 1" % name,
                        node, name=name, declared=declared, achievable=frozenset(),
                    )
                return
            raise _err(
                "ModeNotAchievable",
                "binding for hole %r is never consumed" % name,
                node, name=name, declared=declared, achievable=frozenset(),
            )
        s = usage[name]
        if declared in s:
            if isinstance(binding, DestB) and declared != UNIT:
                self.stats.dest_coercions += 1
            return
        ages = {m.age for m in s}
        if declared.age != INF and declared.age not in ages:
            kind = "AgeEscape"
            msg = "%r escapes its scope: declared age %s, achievable %s" % (
                name, print_mode(declared), _show_set(s),
            )
        else:
            kind = "ModeNotAchievable"
            msg = "%r declared %s but achievable modes are %s" % (
                name, print_mode(declared), _show_set(s),
            )
        raise _err(kind, msg, node, name=name, declared=declared, achievable=s)

    def _pop_binder(self, usage: Usage, name: str, mode: Mode, ty, node) -> Usage:
        self._check_mode(name, VarB(mode, ty), usage, node)
        out = dict(usage)
        out.pop(name, None)
        return out

    # -- public entry points ---------------------------------------------------

    def check_term(self, gamma: TypingContext, t, expected=None):
        for k, b in gamma.items():
            if isinstance(b, HoleB):
                raise _err("HoleInTermContext", "term context contains hole binding %r" % k)
        try:
            ty, usage = self.infer(gamma, t, expected)
        except _Unsynthesizable as e:
            raise _err(
                "ArityOrFormError",
                "cannot synthesize a type here (%s); add an annotation" % e.why,
                e.node,
            )
        for name in usage:
            if name not in gamma:
                raise _err("UnknownVar", "unbound name %r" % name, t, name=name)
        for name, b in gamma.items():
            self._check_mode(name, b, usage, t)
        return ty

    def check_value(self, theta: TypingContext, v, expected=None):
        for k, b in theta.items():
            if isinstance(b, VarB):
                raise _err("ArityOrFormError", "value context contains variable binding %r" % k)
        try:
            ty, usage = self.infer_value(theta, v, expected, _OwnScopes([]))
        except _Unsynthesizable as e:
            raise _err(
                "ArityOrFormError",
                "cannot synthesize the value's type (%s); supply an expected type" % e.why,
                e.node,
            )
        for name in usage:
            if name not in theta:
                raise _err("UnknownVar", "unbound hole name %r in value" % name, None, name=name)
        for name, b in theta.items():
            if name not in usage:
                raise _err(
                    "ModeNotAchievable",
                    "value context binding for hole %r is not consumed" % name,
                    None, name=name,
                )
            self._check_mode(name, b, usage, None)
        return ty

    def check_command(self, cmd, expected=None):
        """Type a command, its context wrapped around its focus, against `expected`.

        It is checked by levels (`_check_by_levels`), except an origin, a
        command checked by a `type_log` checker and one whose check by
        levels fails: these are checked whole, so every diagnostic and the
        cache-free reference are the whole check's.
        """
        if self.type_log is None and cmd.ctx:
            try:
                return self._check_by_levels(cmd, expected)
            except (TypeCheckError, _Unsynthesizable):
                pass
        self._levels = []
        _check_open_disjointness(cmd.ctx)
        return self.check_term({}, _wrap_components(cmd.ctx, cmd.focus), expected)

    def check_evalctx(self, ctx: tuple, final_ty):
        """Type an evaluation context: returns (delta, focus type, final type).

        This is the down pass of a check by levels: the destination bindings
        and the expected type that reach the context's slot.
        """
        try:
            levels = self._descend(ctx, final_ty)
        except _Unsynthesizable as e:
            raise _err("ArityOrFormError", "cannot synthesize a type here (%s)" % e.why, e.node)
        gamma, exp = (levels[-1].slot_gamma, levels[-1].slot_exp) if levels else ({}, final_ty)
        if _exact(exp) is None:
            raise _err("ArityOrFormError", "the context does not determine its focus type")
        return {k: b for k, b in gamma.items() if isinstance(b, DestB)}, exp, final_ty

    def _check_by_levels(self, cmd, expected):
        """Check a command at the cost of what changed since the last one (see
        the module docstring).  The walk up types each component around a
        `_Slot` that stands for its slot's typing, and stops at the first
        reused level whose slot typing is last time's: nothing above it
        changed.
        """
        levels = self._descend(cmd.ctx, expected)
        self._levels, self._expected = [], None  # until this check succeeds
        last = levels[-1]
        typing = self.infer(last.slot_gamma, cmd.focus, last.slot_exp)
        for lv in reversed(levels):
            if lv.slot_typing == typing:
                typing = levels[0].typing
                break
            typing_i = self.infer(lv.gamma, lv.node(_Slot(typing)), lv.exp)
            lv.slot_typing, lv.typing = typing, typing_i
            typing = typing_i
        ty, usage = typing
        if usage:  # a name the command does not bind: the whole check reports it
            raise _err("UnknownVar", "unbound name %r" % next(iter(usage)))
        self._levels, self._expected = levels, expected
        return ty

    def _descend(self, ctx, expected) -> List["_Level"]:
        """The levels of `ctx` typed against `expected`, down to the innermost slot.

        The levels of the longest prefix that the last command checked by
        levels shares are reused as they are; each later component is
        typed around a `_Slot` probe that stops at its slot.
        """
        old = self._levels if expected == self._expected else []
        j, n = 0, min(len(ctx), len(old))
        while j < n and ctx[j] is old[j].comp:
            j += 1
        levels = old[:j]
        for i in range(j, len(ctx)):
            comp = ctx[i]
            up = levels[-1] if levels else None
            names = old[i].names if i < len(old) and old[i].comp is comp else M.hnames(comp)
            lv = _Level(comp, names, up.seen if up else frozenset())
            lv.gamma, lv.exp = (up.slot_gamma, up.slot_exp) if up else ({}, expected)
            try:
                self.infer(lv.gamma, lv.node(_Slot(None)), lv.exp)
            except _Stopped as s:
                lv.slot_gamma, lv.slot_exp = s.gamma, s.exp
            levels.append(lv)
        return levels

    # -- term inference ---------------------------------------------------------

    def infer(self, gamma, t, exp) -> Tuple[object, Usage]:
        """Infer `t` in `gamma` against `exp` -> (type, usage).

        A success with an empty usage read no binding of `gamma`: `t` is
        closed and hole-free, so its typing depends only on the type
        environment, `exp` and the mode strictness, in any context.  It is
        kept on the node (`_typed_`) for as long as the node lives: a shared
        library term, or a closed term under binders, is typed once per type
        environment, whichever checker asks.  Failures are not kept, nor
        are the typings of the wrapper nodes a check builds around a focus.
        """
        if self.type_log is not None:
            ty, usage = self._infer(gamma, t, exp)
            self.type_log[id(t)] = ty
            return ty, usage
        if type(t) in _UNKEPT:
            return self._infer(gamma, t, exp)
        typed = t.__dict__.get("_typed_")
        if typed is _WRAPPER:
            return self._infer(gamma, t, exp)
        key = (self.tyenv, exp, self.mode_strict)
        if typed is not None:
            ty = typed.get(key)
            if ty is not None:
                return ty, {}
        ty, usage = self._infer(gamma, t, exp)
        if not usage:
            if typed is None:
                typed = t.__dict__["_typed_"] = {}
            typed[key] = ty
        return ty, usage

    def _infer(self, gamma, t, exp) -> Tuple[object, Usage]:
        if isinstance(t, S.Var):
            b = gamma.get(t.name)
            if b is None:
                raise _err("UnknownVar", "unbound variable %r" % t.name, t, name=t.name)
            return self.conform(b.ty, exp, t), {t.name: USE_SET}

        if isinstance(t, S.Annot):
            self.conform(t.ty, exp, t)
            ty, u = self.infer(gamma, t.inner, t.ty)
            return ty, u

        if isinstance(t, S.Val):
            free = _free_holes(t.value)
            if free:
                raise _err(
                    "HoleInTermContext",
                    "value used as a term has free hole(s) %s" % sorted(free),
                    t, holes=free,
                )
            theta = {k: b for k, b in gamma.items() if isinstance(b, DestB)}
            ty, u = self.infer_value(theta, t.value, exp, _OwnScopes([]))
            return ty, u

        if isinstance(t, S.App):
            return self._infer_app(gamma, t, exp)

        if isinstance(t, S.Seq):
            _, u1 = self.infer(gamma, t.first, S.TUnit())
            ty, u2 = self.infer(gamma, t.rest, exp)
            return ty, u_add(u1, u2)

        if isinstance(t, S.CaseSum):
            sty, su = self._infer_scrut(gamma, t)
            sum_t = self._as(sty, S.TSum, t, "a sum type")
            g1 = dict(gamma)
            g1[t.left_var] = VarB(t.mode, sum_t.left)
            ty1, u1 = self.infer(g1, t.left_body, exp)
            u1 = self._pop_binder(u1, t.left_var, t.mode, sum_t.left, t)
            g2 = dict(gamma)
            g2[t.right_var] = VarB(t.mode, sum_t.right)
            ty2, u2 = self.infer(g2, t.right_body, exp if exp is not None else ty1)
            u2 = self._pop_binder(u2, t.right_var, t.mode, sum_t.right, t)
            if exp is None and not self.tyenv.equal(ty1, ty2):
                raise _err(
                    "TypeMismatch",
                    "case branches disagree: %s vs %s" % (print_type(ty1), print_type(ty2)),
                    t, expected=ty1, got=ty2,
                )
            return ty1, u_add(u_image(t.mode, su), u_branch_intersect([u1, u2]))

        if isinstance(t, S.CasePair):
            sty, su = self._infer_scrut(gamma, t)
            prod = self._as(sty, S.TProd, t, "a product type")
            g = dict(gamma)
            g[t.var1] = VarB(t.mode, prod.left)
            g[t.var2] = VarB(t.mode, prod.right)
            ty, u = self.infer(g, t.body, exp)
            u = self._pop_binder(u, t.var2, t.mode, prod.right, t)
            u = self._pop_binder(u, t.var1, t.mode, prod.left, t)
            return ty, u_add(u_image(t.mode, su), u)

        if isinstance(t, S.CaseBang):
            sty, su = self._infer_scrut(gamma, t)
            bang = self._as(sty, S.TBang, t, "a !-type")
            if bang.mode != t.inner_mode:
                raise _err(
                    "TypeMismatch",
                    "case expects Mod%s but scrutinee is %s"
                    % (print_mode(t.inner_mode), print_type(sty)),
                    t, expected=t.inner_mode, got=bang.mode,
                )
            binder_mode = mode_times(t.mode, t.inner_mode)
            g = dict(gamma)
            g[t.var] = VarB(binder_mode, bang.inner)
            ty, u = self.infer(g, t.body, exp)
            u = self._pop_binder(u, t.var, binder_mode, bang.inner, t)
            return ty, u_add(u_image(t.mode, su), u)

        if isinstance(t, S.UpdWith):
            left_exp, body_exp = self._amp_parts(exp, t)
            if t.scrut_ty_ is not None:
                scrut_exp = t.scrut_ty_
            elif left_exp is not None:
                scrut_exp = EAmp(left_exp, None)
            else:
                scrut_exp = None
            sty, su = self.infer(gamma, t.scrut, scrut_exp)
            samp = self._as(sty, S.TAmpar, t, "an ampar type")
            t.scrut_ty_ = S.TAmpar(samp.left, samp.right)
            g = dict(gamma)
            g[t.var] = VarB(UNIT, samp.right)
            bty, bu = self.infer(g, t.body, body_exp)
            bu = self._pop_binder(bu, t.var, UNIT, samp.right, t)
            return S.TAmpar(samp.left, bty), u_add(su, u_preimage_up(bu))

        if isinstance(t, S.ToAmpar):
            left_exp, right_exp = self._amp_parts(exp, t)
            if _exact(right_exp) is not None and not self.tyenv.equal(right_exp, S.TUnit()):
                raise _err("TypeMismatch", "to* produces an ampar with unit right side", t)
            ty, u = self.infer(gamma, t.inner, left_exp)
            return self.conform(S.TAmpar(ty, S.TUnit()), exp, t), u

        if isinstance(t, S.FromAmpar):
            inner_exp = t.inner_ty_
            if inner_exp is None and _exact(exp) is not None:
                prod = self._as(exp, S.TProd, t, "a product type")
                inner_exp = S.TAmpar(prod.left, prod.right)
            ty, u = self.infer(gamma, t.inner, inner_exp)
            amp = self._as(ty, S.TAmpar, t, "an ampar type")
            t.inner_ty_ = S.TAmpar(amp.left, amp.right)
            bang = self.tyenv.head(amp.right)
            if not (isinstance(bang, S.TBang) and bang.mode == Mode(ONE, INF)):
                raise _err(
                    "AmparRightNotUnitOrBang",
                    "from* needs right side ![1 inf] T, found %s" % print_type(amp.right),
                    t, got=amp.right,
                )
            return self.conform(S.TProd(amp.left, amp.right), exp, t), u

        if isinstance(t, S.FromAmparPrime):
            if exp is not None:
                inner_exp = EAmp(exp, S.TUnit())
            elif t.left_ty_ is not None:
                inner_exp = EAmp(t.left_ty_, S.TUnit())
            else:
                inner_exp = None
            ty, u = self.infer(gamma, t.inner, inner_exp)
            amp = self._as(ty, S.TAmpar, t, "an ampar type")
            if not self.tyenv.equal(amp.right, S.TUnit()):
                raise _err(
                    "AmparRightNotUnitOrBang",
                    "from'* needs right side 1, found %s" % print_type(amp.right),
                    t, got=amp.right,
                )
            t.left_ty_ = amp.left
            return self.conform(amp.left, exp, t), u

        if isinstance(t, S.NewAmpar):
            return self._infer_new(t, exp)

        if isinstance(t, S.FillUnit):
            dty, du = self.infer(gamma, t.dest, None)
            d = self._as(dty, S.TDest, t, "a destination type")
            self._as(d.inner, S.TUnit, t, "a destination for 1")
            return self.conform(S.TUnit(), exp, t), du

        if isinstance(t, (S.FillInl, S.FillInr)):
            dty, du = self.infer(gamma, t.dest, None)
            d = self._as(dty, S.TDest, t, "a destination type")
            sum_t = self._as(d.inner, S.TSum, t, "a destination for a sum")
            side = sum_t.left if isinstance(t, S.FillInl) else sum_t.right
            return self.conform(S.TDest(d.mode, side), exp, t), du

        if isinstance(t, S.FillPair):
            dty, du = self.infer(gamma, t.dest, None)
            d = self._as(dty, S.TDest, t, "a destination type")
            prod = self._as(d.inner, S.TProd, t, "a destination for a product")
            out = S.TProd(S.TDest(d.mode, prod.left), S.TDest(d.mode, prod.right))
            return self.conform(out, exp, t), du

        if isinstance(t, S.FillBang):
            dty, du = self.infer(gamma, t.dest, None)
            d = self._as(dty, S.TDest, t, "a destination type")
            bang = self._as(d.inner, S.TBang, t, "a destination for a !-type")
            if bang.mode != t.mode:
                raise _err(
                    "TypeMismatch",
                    "fill Mod%s against destination for %s"
                    % (print_mode(t.mode), print_type(d.inner)),
                    t, expected=bang.mode, got=t.mode,
                )
            out = S.TDest(mode_times(d.mode, bang.mode), bang.inner)
            return self.conform(out, exp, t), du

        if isinstance(t, S.FillFun):
            dty, du = self.infer(gamma, t.dest, None)
            d = self._as(dty, S.TDest, t, "a destination type")
            arr = self._as(d.inner, S.TArrow, t, "a destination for a function")
            if arr.mode != t.mode:
                raise _err(
                    "TypeMismatch",
                    "lambda mode %s does not match destination %s"
                    % (print_mode(t.mode), print_type(d.inner)),
                    t, expected=arr.mode, got=t.mode,
                )
            t.param_ty_, t.cod_ty_ = arr.dom, arr.cod
            g = dict(gamma)
            g[t.var] = VarB(t.mode, arr.dom)
            _, bu = self.infer(g, t.body, arr.cod)
            bu = self._pop_binder(bu, t.var, t.mode, arr.dom, t)
            scale = mode_times(ONE_UP, d.mode)
            return self.conform(S.TUnit(), exp, t), u_add(du, u_image(scale, bu))

        if isinstance(t, S.FillComp):
            dty, du = self.infer(gamma, t.dest, None)
            d = self._as(dty, S.TDest, t, "a destination type")
            if d.mode != UNIT:
                raise _err(
                    "DestInnerModeNot1v",
                    "<o needs a destination whose hole mode is [1 ^0], found %s"
                    % print_mode(d.mode),
                    t, got=d.mode,
                )
            cty, cu = self.infer(gamma, t.child, EAmp(d.inner, None))
            camp = self._as(cty, S.TAmpar, t, "an ampar type")
            return self.conform(camp.right, exp, t), u_add(du, u_image(ONE_UP, cu))

        if isinstance(t, S.FillLeaf):
            dty, du = self.infer(gamma, t.dest, None)
            d = self._as(dty, S.TDest, t, "a destination type")
            _, au = self.infer(gamma, t.arg, d.inner)
            scale = mode_times(ONE_UP, d.mode)
            return self.conform(S.TUnit(), exp, t), u_add(du, u_image(scale, au))

        if isinstance(t, S.Fix):
            if exp is not None:
                self.conform(t.ann, exp, t)
            g = dict(gamma)
            g[t.var] = VarB(MANY_INF, t.ann)
            _, bu = self.infer(g, t.body, t.ann)
            bu = self._pop_binder(bu, t.var, MANY_INF, t.ann, t)
            out: Usage = {}
            for k, s in bu.items():
                out[k] = frozenset(m for m in s if m == MANY_INF)
            return t.ann, out

        if isinstance(t, OpenFocus):
            return self._infer_open(gamma, t, exp)

        if isinstance(t, _Slot):
            if t.typing is None:
                raise _Stopped(gamma, exp)
            return t.typing[0], dict(t.typing[1])

        if isinstance(t, S.SUGAR_NODES):
            raise _err("ArityOrFormError", "sugar node reached the checker; desugar first", t)

        raise TypeError("not a checkable term: %r" % (t,))

    def _infer_app(self, gamma, t, exp):
        fn, arg = t.fn, t.arg
        try:
            fty, fu = self.infer(gamma, fn, None)
        except _Unsynthesizable:
            aty, au = self.infer(gamma, arg, None)
            fty, fu = self.infer(gamma, fn, EArr(aty, exp))
            arr = self._as(fty, S.TArrow, t, "a function type")
            return self.conform(arr.cod, exp, t), u_add(u_image(arr.mode, au), fu)
        arr = self._as(fty, S.TArrow, t, "a function type")
        _, au = self.infer(gamma, arg, arr.dom)
        return self.conform(arr.cod, exp, t), u_add(u_image(arr.mode, au), fu)

    def _infer_scrut(self, gamma, t):
        stamp = t.scrut_ty_
        if stamp is not None:
            return self.infer(gamma, t.scrut, stamp)
        try:
            sty, su = self.infer(gamma, t.scrut, None)
        except _Unsynthesizable as e:
            raise _err(
                "ArityOrFormError",
                "cannot synthesize the scrutinee type (%s)" % e.why,
                t,
            )
        t.scrut_ty_ = sty
        return sty, su

    def _infer_new(self, t, exp):
        ann = t.ann
        if ann is not None:
            amp = self._as(ann, S.TAmpar, t, "an ampar annotation")
            dest = self.tyenv.head(amp.right)
            if not (
                isinstance(dest, S.TDest)
                and dest.mode == UNIT
                and self.tyenv.equal(dest.inner, amp.left)
            ):
                raise _err(
                    "ArityOrFormError",
                    "new* annotation must have shape T >< Dest T, found %s" % print_type(ann),
                    t,
                )
            left = amp.left
        else:
            left_exp, _right = self._amp_parts(exp, t)
            left = _exact(left_exp)
            if left is None:
                raise _Unsynthesizable(t, "new* with no annotation")
        if t.ann is None:
            t.ann = S.TAmpar(left, S.TDest(UNIT, left))
        out = S.TAmpar(left, S.TDest(UNIT, left))
        return self.conform(out, exp, t), {}

    def _infer_open(self, gamma, t: OpenFocus, exp):
        """The structure is typed once per node, whatever `inner` then holds."""
        left_exp, right_exp = self._amp_parts(exp, t)
        if t.typed is None:
            own = _OwnScopes([])
            own.push(t.holes)
            theta = {k: b for k, b in gamma.items() if isinstance(b, DestB)}
            lty, lu = self.infer_value(theta, t.left, left_exp, own)
            scope = own.pop()
            delta3 = self._resolve_own_holes(t.holes, scope, lu, t)
            lu = {k: s for k, s in lu.items() if k not in t.holes}
            t.typed = (lty, lu, delta3)
        else:
            lty, lu, delta3 = t.typed
        g = dict(gamma)
        g.update(delta3)
        ity, iu = self.infer(g, t.inner, right_exp)
        for h, b in delta3.items():
            self._check_mode(h, b, iu, t)
        iu = {k: s for k, s in iu.items() if k not in delta3}
        usage = u_add(u_preimage_up(iu), lu)
        return S.TAmpar(lty, ity), usage

    def _resolve_own_holes(self, holes, scope, left_usage, node):
        """Derive the destination bindings matching an ampar's own holes.

        The structure side fixed each hole's type; its accumulated usage
        (a single achievable mode, since the hole occurs exactly once)
        becomes the hole mode of the paired destination.
        """
        delta3 = {}
        for h in holes:
            if h not in scope or h not in left_usage:
                raise _err(
                    "ModeNotAchievable",
                    "ampar binds hole %d but its structure has no []%d" % (h, h),
                    node, name=h,
                )
            hset = left_usage[h]
            if len(hset) != 1:
                if not self.mode_strict and hset:
                    hmode = sorted(hset, key=str)[0]
                    delta3[h] = DestB(UNIT, scope[h], hmode)
                    continue
                raise _err(
                    "ArityOrFormError",
                    "hole []%d must occur exactly once in the structure" % h,
                    node, name=h,
                )
            (hmode,) = tuple(hset)
            delta3[h] = DestB(UNIT, scope[h], hmode)
        return delta3

    # -- value inference ---------------------------------------------------------

    def infer_value(self, theta, v, exp, own: "_OwnScopes"):
        """Type a runtime value in Theta (hole/destination bindings).

        `own` carries the nested ampar scopes whose hole types are being
        resolved from the expected type at each hole occurrence.
        """
        if isinstance(v, S.UnitV):
            return self.conform(S.TUnit(), exp, None), {}

        if isinstance(v, S.HoleV):
            scope = own.lookup(v.hole)
            if scope is not None:
                ety = _exact(exp)
                if ety is None:
                    raise _Unsynthesizable(None, "hole []%d outside a known type" % v.hole)
                prev = scope.get(v.hole)
                if prev is not None and not self.tyenv.equal(prev, ety):
                    raise _err(
                        "TypeMismatch",
                        "hole []%d used at both %s and %s"
                        % (v.hole, print_type(prev), print_type(ety)),
                        None,
                    )
                scope[v.hole] = ety
                return ety, {v.hole: frozenset({UNIT})}
            b = theta.get(v.hole)
            if b is None or not isinstance(b, HoleB):
                raise _err("UnknownVar", "unbound hole []%d" % v.hole, None, name=v.hole)
            return self.conform(b.ty, exp, None), {v.hole: frozenset({UNIT})}

        if isinstance(v, S.DestV):
            if own.lookup(v.hole) is not None:
                raise _err(
                    "ArityOrFormError",
                    "destination ->%d occurs on the structure side of its own ampar" % v.hole,
                    None, name=v.hole,
                )
            b = theta.get(v.hole)
            if b is None or not isinstance(b, DestB):
                raise _err("UnknownVar", "unbound destination ->%d" % v.hole, None, name=v.hole)
            return self.conform(S.TDest(b.hole_mode, b.ty), exp, None), {v.hole: USE_SET}

        if isinstance(v, (S.InlV, S.InrV)):
            if _exact(exp) is None:
                raise _Unsynthesizable(None, "sum injection with no expected type")
            sum_t = self._as(exp, S.TSum, None, "a sum type")
            side = sum_t.left if isinstance(v, S.InlV) else sum_t.right
            _, u = self.infer_value(theta, v.value, side, own)
            return exp, u

        if isinstance(v, S.PairV):
            e1 = e2 = None
            if _exact(exp) is not None:
                prod = self._as(exp, S.TProd, None, "a product type")
                e1, e2 = prod.left, prod.right
            t1, u1 = self.infer_value(theta, v.fst, e1, own)
            t2, u2 = self.infer_value(theta, v.snd, e2, own)
            return self.conform(S.TProd(t1, t2), exp, None), u_add_value(u1, u2)

        if isinstance(v, S.ModV):
            inner_exp = None
            if _exact(exp) is not None:
                bang = self._as(exp, S.TBang, None, "a !-type")
                if bang.mode != v.mode:
                    raise _err(
                        "TypeMismatch",
                        "Mod%s value against expected %s" % (print_mode(v.mode), print_type(exp)),
                        None, expected=bang.mode, got=v.mode,
                    )
                inner_exp = bang.inner
            ity, iu = self.infer_value(theta, v.value, inner_exp, own)
            return self.conform(S.TBang(v.mode, ity), exp, None), u_image(v.mode, iu)

        if isinstance(v, S.LamV):
            dom = cod_exp = None
            if exp is not None:
                dom_exp, cod_exp, emode = self._arrow_parts(exp, None)
                if emode is not None and emode != v.mode:
                    raise _err(
                        "TypeMismatch",
                        "lambda mode %s against expected %s"
                        % (print_mode(v.mode), print_mode(emode)),
                        None, expected=emode, got=v.mode,
                    )
                dom = _exact(dom_exp)
            if dom is None and v.param_ty_ is not None:
                dom = v.param_ty_
            if dom is None:
                raise _Unsynthesizable(None, "lambda value with no expected type")
            v.param_ty_ = dom
            if cod_exp is None:
                cod_exp = v.cod_ty_
            g = {k: b for k, b in theta.items() if isinstance(b, DestB)}
            g[v.var] = VarB(v.mode, dom)
            cod, bu = self.infer(g, v.body, cod_exp)
            bu = self._pop_binder(bu, v.var, v.mode, dom, None)
            for k in bu:
                if isinstance(k, str):
                    raise _err("ArityOrFormError", "lambda value captures variable %r" % k, None)
            return self.conform(S.TArrow(dom, v.mode, cod), exp, None), bu

        if isinstance(v, S.AmparV):
            left_exp, right_exp = self._amp_parts(exp, None)
            theta_in = {k: b for k, b in theta.items() if k not in v.holes}
            own.push(v.holes)
            lty, lu = self.infer_value(theta_in, v.left, left_exp, own)
            scope = own.pop()
            delta3 = self._resolve_own_holes(v.holes, scope, lu, None)
            lu_foreign = {k: s for k, s in lu.items() if k not in v.holes}
            theta_r = dict(theta_in)
            theta_r.update(delta3)
            rty, ru = self.infer_value(theta_r, v.right, right_exp, own)
            for h, b in delta3.items():
                if h not in ru:
                    raise _err(
                        "ModeNotAchievable",
                        "ampar destination ->%d is not consumed by the right side" % h,
                        None, name=h,
                    )
                self._check_mode(h, b, ru, None)
            ru_foreign = {k: s for k, s in ru.items() if k not in v.holes}

            def clash(k):
                return _err(
                    "AddClash",
                    "hole name %r used by both sides of an ampar value" % k,
                    None, name=k,
                )

            usage = u_add_value(lu_foreign, u_preimage_up(ru_foreign), disjoint_error=clash)
            return self.conform(S.TAmpar(lty, rty), exp, None), usage

        raise TypeError("not a value: %r" % (v,))


# ---------------------------------------------------------------------------
# Commands: context components wrapped around a focus, checked whole or by levels


def _check_open_disjointness(ctx):
    seen = frozenset()
    for comp in ctx:
        seen = _seen_through(comp, M.hnames(comp), seen)


def _seen_through(comp, names, seen_outside):
    """The hole names of `comp` and of the components outside it; an open
    ampar's own names must not occur outside it."""
    if type(comp) is M.OpenAmpar:
        overlap = comp.holes & seen_outside
        if overlap:
            raise _err(
                "DisjointnessViolation",
                "open ampar hole names %s collide with the enclosing context" % sorted(overlap),
                None, holes=overlap,
            )
    return seen_outside | names


class _Level:
    """What checking a command by levels learnt about one context component.

    `gamma` and `exp` reach the component, `slot_gamma` and `slot_exp` its
    slot; `slot_typing` is the (type, usage) its slot produced and `typing`
    the one it produced from that.  `seen` are the hole names this
    component and those outside it hold.  An open ampar keeps its
    `OpenFocus` node, which holds the typing of its structure.
    """

    __slots__ = ("comp", "names", "seen", "gamma", "exp", "slot_gamma", "slot_exp",
                 "open", "slot_typing", "typing")

    def __init__(self, comp, names, seen_outside):
        self.comp, self.names = comp, names
        self.seen = _seen_through(comp, names, seen_outside)
        self.open = OpenFocus(comp.holes, comp.left, None) if type(comp) is M.OpenAmpar else None
        self.slot_typing = self.typing = None

    def node(self, term):
        """The component's node around `term`; an open ampar's is made once."""
        if self.open is None:
            return _wrap(self.comp, term)
        self.open.inner = term
        return self.open


class _Stopped(Exception):
    """Raised by a `_Slot` probe: the typing context and expected type at the slot."""

    def __init__(self, gamma, exp):
        super().__init__("slot reached")
        self.gamma, self.exp = gamma, exp


@record
class _Slot:
    """Internal node in a component's slot: a probe that stops there
    (`typing` None), or the slot's known (type, usage)."""

    typing: Optional[tuple]
    pos = None


# never typed from a kept entry: the checker's own nodes, which are made anew
# for every check or level, and variables, which always read their binding
_UNKEPT = (_Slot, OpenFocus, S.Var)


_WRAPPER = "wrapper"  # the `_typed_` mark of a node `_wrap` made


def _wrap(comp, term):
    """The node of context component `comp` around `term`: a frame's node
    or an open ampar's `OpenFocus`.  A frame's node is made anew for every
    pass over the component and never read again, so it is marked to keep
    no typing."""
    if type(comp) is M.OpenAmpar:
        return OpenFocus(comp.holes, comp.left, term)
    node = M.plug(comp, term)
    node.__dict__["_typed_"] = _WRAPPER
    return node


def _wrap_components(ctx, term):
    """`term` plugged into the context ctx."""
    for comp in reversed(ctx):
        term = _wrap(comp, term)
    return term


class _OwnScopes:
    """Stack of open ampar scopes; each maps a hole name to its type."""

    def __init__(self, scopes):
        self.scopes = scopes  # list of (frozenset, dict)

    def push(self, holes):
        self.scopes.append((holes, {}))

    def pop(self):
        return self.scopes.pop()[1]

    def lookup(self, h):
        for holes, scope in reversed(self.scopes):
            if h in holes:
                return scope
        return None


def _free_holes(v) -> set:
    """Hole occurrences not bound by an enclosing ampar value (lambda bodies aside)."""
    free = set()
    if v.__dict__.get("_hmax") == 0:  # names start at 1: it holds none
        return free

    def enter(x, bound):
        t = type(x)
        if t is S.HoleV:
            if x.hole not in bound:
                free.add(x.hole)
        elif t is S.LamV:
            return None
        return S.DESCEND

    S.walk(v, enter)
    return free


def _show_set(s: ModeSet) -> str:
    return "{%s}" % ", ".join(sorted(print_mode(m) for m in s))
