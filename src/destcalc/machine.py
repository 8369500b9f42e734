"""Deterministic small-step abstract machine.

A command is an evaluation-context stack plus a focused term.  Rules come
in three families: focusing (F, pushes a component; never fires when the
would-be focus is already a value), unfocusing (U, pops and reassembles
around a value) and contraction (C, rewrites a redex).  Fresh hole names
come from max-based formulas over the names in the context, so runs are
fully deterministic.

Cost model.  While it runs, the machine keeps the structure under
construction of each open ampar as a heap of hole cells indexed by hole
name, as Minamide's data structures with a hole do: a destination write
touches one cell.  Opening or grafting a closed ampar renames only its
unfilled holes and its right-hand value; ages forbid an ampar's own
destinations inside its own structure, so there are no other occurrences.
The largest hole name of each open structure is tracked exactly, so every
minted numeral is the one the max-based formulas give.  `run` keeps the
origin and the rule names only: the `Command` of each step is built when
someone reads `trace.steps`, by stepping again from the origin.  Classic
`syntax` values and `Command`s are all that leaves the machine; a closed
ampar it built reads its `left` from its cells on first access.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from .modes import Mode, ONE_INF
from . import syntax as S


# ---------------------------------------------------------------------------
# Focusing components


def _meta(**kw):
    return field(default=None, compare=False, repr=False, **kw)


@dataclass(eq=True)
class AppFun:
    fn: object  # pending function term; focus is the argument


@dataclass(eq=True)
class AppArg:
    arg: object  # evaluated argument value; focus is the function


@dataclass(eq=True)
class SeqL:
    rest: object


@dataclass(eq=True)
class CaseSumF:
    mode: Mode
    left_var: str
    left_body: object
    right_var: str
    right_body: object
    scrut_ty_: object = _meta()


@dataclass(eq=True)
class CasePairF:
    mode: Mode
    var1: str
    var2: str
    body: object
    scrut_ty_: object = _meta()


@dataclass(eq=True)
class CaseBangF:
    mode: Mode
    inner_mode: Mode
    var: str
    body: object
    scrut_ty_: object = _meta()


@dataclass(eq=True)
class UpdWithF:
    var: str
    body: object
    scrut_ty_: object = _meta()


@dataclass(eq=True)
class ToF:
    pass


@dataclass(eq=True)
class FromF:
    inner_ty_: object = _meta()


@dataclass(eq=True)
class FromPrimeF:
    left_ty_: object = _meta()


@dataclass(eq=True)
class FillUnitF:
    pass


@dataclass(eq=True)
class FillInlF:
    pass


@dataclass(eq=True)
class FillInrF:
    pass


@dataclass(eq=True)
class FillPairF:
    pass


@dataclass(eq=True)
class FillBangF:
    mode: Mode = None


@dataclass(eq=True)
class FillFunF:
    var: str
    mode: Mode
    body: object
    param_ty_: object = _meta()


@dataclass(eq=True)
class FillCompL:
    child: object  # pending child term; focus is the destination


@dataclass(eq=True)
class FillCompR:
    dest: object  # destination value; focus is the child ampar


@dataclass(eq=True)
class FillLeafL:
    arg: object


@dataclass(eq=True)
class FillLeafR:
    dest: object


@dataclass(eq=True)
class OpenAmpar:
    holes: frozenset
    left: object  # the structure under construction (a Value with holes)


FocusComp = object


@dataclass(eq=True)
class Command:
    ctx: Tuple[FocusComp, ...]
    focus: object


@dataclass
class Stepped:
    rule: str
    command: Command


@dataclass
class Final:
    value: object


@dataclass
class Stuck:
    reason: str


class MachineError(Exception):
    """A machine invariant does not hold.  Raised, not asserted, so `python -O` keeps it."""


class HoleNotFound(MachineError):
    def __init__(self, h: int):
        super().__init__("no open ampar has exactly one cell for hole %d" % h)
        self.hole = h


class NameClash(MachineError):
    def __init__(self, h: int):
        super().__init__("hole name %d is already bound in the open ampar" % h)
        self.hole = h


class OpenLambda(MachineError):
    def __init__(self, names):
        super().__init__("lambda value must be closed; free: %s" % ", ".join(sorted(names)))
        self.names = names


# ---------------------------------------------------------------------------
# Hole-name bookkeeping


def hnames_value(v) -> set:
    out = set()
    _hn_value(v, out)
    return out


def _hn_value(v, out: set):
    if isinstance(v, (S.HoleV, S.DestV)):
        out.add(v.hole)
    elif isinstance(v, S.AmparV):
        out |= v.holes
        _hn_value(v.left, out)
        _hn_value(v.right, out)
    elif isinstance(v, (S.InlV, S.InrV, S.ModV)):
        _hn_value(v.value, out)
    elif isinstance(v, S.PairV):
        _hn_value(v.fst, out)
        _hn_value(v.snd, out)
    elif isinstance(v, S.LamV):
        _hn_term(v.body, out)


def hnames_term(t) -> set:
    out = set()
    _hn_term(t, out)
    return out


def _hn_term(t, out: set):
    if isinstance(t, S.Val):
        _hn_value(t.value, out)
        return
    for f in S.field_names(type(t)):
        v = getattr(t, f)
        if isinstance(v, S._TERM_TYPES):
            _hn_term(v, out)


def hnames_component(e) -> set:
    out = set()
    if isinstance(e, OpenAmpar):
        out |= e.holes
        _hn_value(e.left, out)
        return out
    for f in S.field_names(type(e)):
        v = getattr(e, f)
        if isinstance(v, S._TERM_TYPES):
            _hn_term(v, out)
        elif isinstance(v, S._VALUE_TYPES):
            _hn_value(v, out)
    return out


def hnames_ctx(ctx: Tuple[FocusComp, ...]) -> set:
    out = set()
    for e in ctx:
        out |= hnames_component(e)
    return out


def hmax_value(v) -> int:
    cached = v.__dict__.get("_hmax")
    if cached is not None:
        return cached
    if isinstance(v, (S.HoleV, S.DestV)):
        m = v.hole
    elif isinstance(v, S.AmparV):
        shape = v.__dict__.get("_shape")
        left = shape.static if shape is not None else hmax_value(v.left)
        m = max(max(v.holes, default=0), left, hmax_value(v.right))
    elif isinstance(v, (S.InlV, S.InrV, S.ModV)):
        m = hmax_value(v.value)
    elif isinstance(v, S.PairV):
        m = max(hmax_value(v.fst), hmax_value(v.snd))
    elif isinstance(v, S.LamV):
        m = hmax_term(v.body)
    else:
        m = 0
    v.__dict__["_hmax"] = m
    return m


def hmax_term(t) -> int:
    cached = t.__dict__.get("_hmax")
    if cached is not None:
        return cached
    if isinstance(t, S.Val):
        m = hmax_value(t.value)
    else:
        m = 0
        for f in S.field_names(type(t)):
            v = getattr(t, f)
            if isinstance(v, S._TERM_TYPES):
                m = max(m, hmax_term(v))
    t.__dict__["_hmax"] = m
    return m


def hmax_component(e) -> int:
    m = 0
    for f in S.field_names(type(e)):
        v = getattr(e, f)
        if isinstance(v, S._TERM_TYPES):
            m = max(m, hmax_term(v))
        elif isinstance(v, S._VALUE_TYPES):
            m = max(m, hmax_value(v))
    return m


def hnames(x) -> set:
    """Hole names occurring (free or bound) in a value, term, context or command."""
    if isinstance(x, Command):
        return hnames_ctx(x.ctx) | hnames_term(x.focus)
    if isinstance(x, tuple):
        return hnames_ctx(x)
    if isinstance(x, S._VALUE_TYPES):
        return hnames_value(x)
    if isinstance(x, dict):
        return {k for k in x.keys() if isinstance(k, int)}
    return hnames_term(x)


# ---------------------------------------------------------------------------
# Shifts and substitutions


def cond_shift(x, holes, d: int):
    """Rename hole/destination occurrences named in `holes` by +d in a value or term.

    A closed ampar value binds its own name set; names it binds are not
    occurrences of the outer ones and stay untouched.
    """
    if d == 0 or not holes:
        return x
    if isinstance(x, S._VALUE_TYPES):
        return _shift_value(x, holes, d)
    return _shift_term(x, holes, d)


def _shift_value(v, holes, d):
    if isinstance(v, (S.HoleV, S.DestV)):
        if v.hole in holes:
            return type(v)(v.hole + d)
        return v
    if isinstance(v, S.AmparV):
        inner = holes - v.holes
        if not inner:
            return v
        return S.AmparV(v.holes, _shift_value(v.left, inner, d), _shift_value(v.right, inner, d))
    if isinstance(v, S.UnitV):
        return v
    if isinstance(v, (S.InlV, S.InrV)):
        return type(v)(_shift_value(v.value, holes, d))
    if isinstance(v, S.ModV):
        return S.ModV(v.mode, _shift_value(v.value, holes, d))
    if isinstance(v, S.PairV):
        return S.PairV(_shift_value(v.fst, holes, d), _shift_value(v.snd, holes, d))
    if isinstance(v, S.LamV):
        out = S.LamV(v.var, v.mode, _shift_term(v.body, holes, d))
        out.param_ty_ = v.param_ty_
        return out
    raise TypeError(v)


def _shift_term(t, holes, d):
    if isinstance(t, S.Val):
        nv = _shift_value(t.value, holes, d)
        return t if nv is t.value else S.Val(nv, pos=t.pos)
    return S.map_children(t, lambda c: _shift_term(c, holes, d))


def free_vars_cached(t) -> frozenset:
    """Memoized free term variables (nodes are immutable after build)."""
    cached = t.__dict__.get("_fv")
    if cached is not None:
        return cached
    if isinstance(t, S.Var):
        fv = frozenset((t.name,))
    elif isinstance(t, S.Val):
        fv = frozenset()
    elif isinstance(t, S.CaseSum):
        fv = (
            free_vars_cached(t.scrut)
            | (free_vars_cached(t.left_body) - {t.left_var})
            | (free_vars_cached(t.right_body) - {t.right_var})
        )
    elif isinstance(t, S.CasePair):
        fv = free_vars_cached(t.scrut) | (free_vars_cached(t.body) - {t.var1, t.var2})
    elif isinstance(t, (S.CaseBang, S.UpdWith)):
        fv = free_vars_cached(t.scrut) | (free_vars_cached(t.body) - {t.var})
    elif isinstance(t, S.FillFun):
        fv = free_vars_cached(t.dest) | (free_vars_cached(t.body) - {t.var})
    elif isinstance(t, S.Fix):
        fv = free_vars_cached(t.body) - {t.var}
    else:
        fv = frozenset()
        for f in S.field_names(type(t)):
            v = getattr(t, f)
            if isinstance(v, S._TERM_TYPES):
                fv |= free_vars_cached(v)
    t.__dict__["_fv"] = fv
    return fv


def subst_var(t, x: str, v):
    """Capture-avoiding substitution of the value v for the variable x."""
    if x not in free_vars_cached(t):
        return t
    if isinstance(t, S.Var):
        return S.Val(v, pos=t.pos) if t.name == x else t
    if isinstance(t, S.Val):
        return t  # values are closed
    if isinstance(t, S.CaseSum):
        scrut = subst_var(t.scrut, x, v)
        lb = t.left_body if t.left_var == x else subst_var(t.left_body, x, v)
        rb = t.right_body if t.right_var == x else subst_var(t.right_body, x, v)
        node = S.CaseSum(t.mode, scrut, t.left_var, lb, t.right_var, rb, pos=t.pos)
        node.scrut_ty_ = t.scrut_ty_
        return node
    if isinstance(t, S.CasePair):
        scrut = subst_var(t.scrut, x, v)
        body = t.body if x in (t.var1, t.var2) else subst_var(t.body, x, v)
        node = S.CasePair(t.mode, scrut, t.var1, t.var2, body, pos=t.pos)
        node.scrut_ty_ = t.scrut_ty_
        return node
    if isinstance(t, S.CaseBang):
        scrut = subst_var(t.scrut, x, v)
        body = t.body if t.var == x else subst_var(t.body, x, v)
        node = S.CaseBang(t.mode, scrut, t.inner_mode, t.var, body, pos=t.pos)
        node.scrut_ty_ = t.scrut_ty_
        return node
    if isinstance(t, S.UpdWith):
        scrut = subst_var(t.scrut, x, v)
        body = t.body if t.var == x else subst_var(t.body, x, v)
        node = S.UpdWith(scrut, t.var, body, pos=t.pos)
        node.scrut_ty_ = t.scrut_ty_
        return node
    if isinstance(t, S.FillFun):
        dest = subst_var(t.dest, x, v)
        body = t.body if t.var == x else subst_var(t.body, x, v)
        node = S.FillFun(dest, t.var, t.mode, body, pos=t.pos)
        node.param_ty_ = t.param_ty_
        return node
    if isinstance(t, S.Fix):
        body = t.body if t.var == x else subst_var(t.body, x, v)
        return S.Fix(t.var, t.ann, body, pos=t.pos)
    return S.map_children(t, lambda c: subst_var(c, x, v))


def subst_fix(t, x: str, fix_term):
    """Term-for-variable substitution, used only to unroll `fix` once."""
    if x not in free_vars_cached(t):
        return t
    if isinstance(t, S.Var):
        return fix_term if t.name == x else t
    if isinstance(t, S.Val):
        return t
    if isinstance(t, S.CaseSum):
        node = S.CaseSum(
            t.mode, subst_fix(t.scrut, x, fix_term), t.left_var,
            t.left_body if t.left_var == x else subst_fix(t.left_body, x, fix_term),
            t.right_var,
            t.right_body if t.right_var == x else subst_fix(t.right_body, x, fix_term),
            pos=t.pos,
        )
        node.scrut_ty_ = t.scrut_ty_
        return node
    if isinstance(t, S.CasePair):
        node = S.CasePair(
            t.mode, subst_fix(t.scrut, x, fix_term), t.var1, t.var2,
            t.body if x in (t.var1, t.var2) else subst_fix(t.body, x, fix_term), pos=t.pos,
        )
        node.scrut_ty_ = t.scrut_ty_
        return node
    if isinstance(t, S.CaseBang):
        node = S.CaseBang(
            t.mode, subst_fix(t.scrut, x, fix_term), t.inner_mode, t.var,
            t.body if t.var == x else subst_fix(t.body, x, fix_term), pos=t.pos,
        )
        node.scrut_ty_ = t.scrut_ty_
        return node
    if isinstance(t, S.UpdWith):
        node = S.UpdWith(
            subst_fix(t.scrut, x, fix_term), t.var,
            t.body if t.var == x else subst_fix(t.body, x, fix_term), pos=t.pos,
        )
        node.scrut_ty_ = t.scrut_ty_
        return node
    if isinstance(t, S.FillFun):
        node = S.FillFun(
            subst_fix(t.dest, x, fix_term), t.var, t.mode,
            t.body if t.var == x else subst_fix(t.body, x, fix_term), pos=t.pos,
        )
        node.param_ty_ = t.param_ty_
        return node
    if isinstance(t, S.Fix):
        return S.Fix(
            t.var, t.ann, t.body if t.var == x else subst_fix(t.body, x, fix_term), pos=t.pos
        )
    return S.map_children(t, lambda c: subst_fix(c, x, fix_term))


# ---------------------------------------------------------------------------
# Structures under construction: a heap of hole cells


class Cell:
    """One hole of a structure under construction; `value` stays None until written.

    A written cell holds a leaf value, a hollow constructor whose children
    are cells, or, after a graft, the root cell of the grafted structure.
    """

    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = value


def _hollow_children(v):
    """The child cells of a hollow constructor, or None for a leaf value."""
    t = type(v)
    if t is S.PairV:
        if type(v.fst) is Cell:
            return (v.fst, v.snd)
    elif t is S.InlV or t is S.InrV or t is S.ModV:
        if type(v.value) is Cell:
            return (v.value,)
    return None


def read_structure(root: Cell, holes: dict):
    """The classic value a structure denotes; the cells of `holes` (name -> cell) read as holes."""
    names = {c: n for n, c in holes.items()}
    out, todo = [], [root]
    while todo:
        x = todo.pop()
        if type(x) is not Cell:  # a hollow constructor whose children have been read
            if type(x) is S.PairV:
                snd = out.pop()
                out[-1] = S.PairV(out[-1], snd)
            elif type(x) is S.ModV:
                out[-1] = S.ModV(x.mode, out[-1])
            else:
                out[-1] = type(x)(out[-1])
            continue
        name = names.get(x)
        if name is not None:
            out.append(S.HoleV(name))
            continue
        v = x.value
        if v is None:
            raise MachineError("an unwritten cell is no hole of the structure being read")
        if type(v) is Cell:
            todo.append(v)
            continue
        kids = _hollow_children(v)
        if kids is None:
            out.append(v)
        else:
            todo.append(v)
            todo.extend(reversed(kids))
    return out[0]


class Shape:
    """The structure of a closed ampar the machine built, kept as cells.

    `S.AmparV.left` reads it on first access.  An unrestricted ampar can be
    opened more than once, so only the first open or graft writes these
    cells in place (`taken`); later ones work on a copy.  Reading never
    looks past the ampar's own hole cells, so writes through the first
    open leave what this ampar denotes unchanged.
    """

    __slots__ = ("root", "cells", "static", "taken")

    def __init__(self, root: Cell, cells: dict, static: int):
        self.root, self.cells, self.static, self.taken = root, cells, static, False

    def read(self):
        return read_structure(self.root, self.cells)


def _cells_of(left, holes):
    """Cells for a classic structure: (root, {name: cell} in ascending name order, static).

    `static` is the largest hole name in `left` other than its holes `holes`.
    """
    cells = {}
    static = 0

    def leaf(v):
        nonlocal static
        static = max(static, hmax_value(v))
        return Cell(v)

    def conv(v):  # a cell when v contains a hole of `holes`, else None
        t = type(v)
        if t is S.HoleV and v.hole in holes:
            if v.hole in cells:
                raise HoleNotFound(v.hole)
            cell = cells[v.hole] = Cell()
            return cell
        if t is S.InlV or t is S.InrV or t is S.ModV:
            c = conv(v.value)
            if c is None:
                return None
            return Cell(S.ModV(v.mode, c) if t is S.ModV else t(c))
        if t is S.PairV:
            a, b = conv(v.fst), conv(v.snd)
            if a is None and b is None:
                return None
            return Cell(S.PairV(a or leaf(v.fst), b or leaf(v.snd)))
        return None

    root = conv(left) if holes else None
    if root is None:
        root = leaf(left)
    if len(cells) != len(holes):
        raise HoleNotFound(min(set(holes) - set(cells)))
    return root, {h: cells[h] for h in sorted(cells)}, static


class OpenCells:
    """An open ampar of a running machine: its structure as a heap of hole cells.

    `cells` maps each unwritten hole's name to its cell.  Names are minted
    above every live name, so the last live entry of `order` is the largest
    hole; `static` is the largest other name in the structure.  Together
    they give `hmax_component` of the classic `OpenAmpar` without a walk.
    """

    __slots__ = ("root", "cells", "order", "static", "snap")

    def __init__(self, root: Cell, cells: dict, static: int, snap=None):
        self.root, self.cells, self.static, self.snap = root, cells, static, snap
        self.order = list(cells)

    def hmax(self) -> int:
        order, cells = self.order, self.cells
        while order and order[-1] not in cells:
            order.pop()
        return max(order[-1], self.static) if order else self.static

    def write(self, h: int, value, static: int):
        """Write `value` into hole h; `static` bounds the names it brings."""
        self.cells.pop(h).value = value
        if static > self.static:
            self.static = static
        self.snap = None

    def bind(self, h: int, cell: Cell):
        if h in self.cells:
            raise NameClash(h)
        self.cells[h] = cell
        self.order.append(h)
        self.snap = None

    def snapshot(self) -> "OpenAmpar":
        if self.snap is None:
            self.snap = OpenAmpar(frozenset(self.cells), read_structure(self.root, self.cells))
        return self.snap


# ---------------------------------------------------------------------------
# Stepping


def is_val(t) -> bool:
    return isinstance(t, S.Val)


class _State:
    """A running command: the context as a stack, the focus, and the name bookkeeping.

    `maxes[i + 1]` is the largest hole name in the components ctx[:i + 1]
    other than open ampars; `open_at` are the positions of the open
    ampars, whose largest names change as holes are written.
    """

    __slots__ = ("ctx", "maxes", "open_at", "focus")

    def __init__(self, focus):
        self.ctx, self.maxes, self.open_at, self.focus = [], [0], [], focus

    @classmethod
    def load(cls, cmd: Command) -> "_State":
        st = cls(cmd.focus)
        for e in cmd.ctx:
            if isinstance(e, OpenAmpar):
                st.push_open(OpenCells(*_cells_of(e.left, e.holes), snap=e), cmd.focus)
            else:
                st.push(e, cmd.focus)
        return st

    def push(self, comp, focus):
        self.ctx.append(comp)
        self.maxes.append(max(self.maxes[-1], hmax_component(comp)))
        self.focus = focus

    def push_open(self, o: OpenCells, focus):
        self.open_at.append(len(self.ctx))
        self.ctx.append(o)
        self.maxes.append(self.maxes[-1])
        self.focus = focus

    def pop(self, focus):
        if type(self.ctx.pop()) is OpenCells:
            self.open_at.pop()
        self.maxes.pop()
        self.focus = focus

    def refocus(self, focus):
        self.focus = focus

    def close(self, right):
        o = self.ctx[-1]
        shape = Shape(o.root, o.cells, o.static)
        self.pop(S.Val(S.AmparV.with_shape(frozenset(o.cells), shape, right)))

    def ctx_max(self) -> int:
        m = self.maxes[-1]
        for i in self.open_at:
            h = self.ctx[i].hmax()
            if h > m:
                m = h
        return m

    def fresh_base(self, h: int) -> int:
        return max(self.ctx_max(), h) + 1

    def write(self, h: int, value, focus, static: int = 0, binds=()):
        """Write value into hole h of the innermost open ampar binding it; bind new holes."""
        for i in reversed(self.open_at):
            o = self.ctx[i]
            if h in o.cells:
                break
        else:
            raise HoleNotFound(h)
        o.write(h, value, static)
        for n, cell in binds:
            o.bind(n, cell)
        self.focus = focus

    def snapshot(self) -> Command:
        ctx = self.ctx.copy()
        for i in self.open_at:
            ctx[i] = ctx[i].snapshot()
        return Command(tuple(ctx), self.focus)

    def step(self):
        """Apply the one applicable rule; its name, or Final/Stuck."""
        t = self.focus
        if not self.ctx and isinstance(t, S.Val):
            return Final(t.value)
        rules = _match(self.ctx[-1] if self.ctx else None, t)
        if not rules:
            from .printer import print_term
            return Stuck("no rule applies to focus %s" % print_term(t, 3))
        if len(rules) > 1:
            names = ", ".join(name for name, _ in rules)
            raise AssertionError("determinism violation: %s all apply" % names)
        name, act = rules[0]
        act(self)
        return name


def _renamed(av, d: int):
    """A closed ampar's cells, ready to be written, with its names shifted by d:
    (root, {name: cell}, static, shifted right value)."""
    shape = av.__dict__.get("_shape")
    if shape is not None and not shape.taken:
        shape.taken = True
        root, cells, static = shape.root, shape.cells, shape.static
    else:
        root, cells, static = _cells_of(av.left, av.holes)
    return root, {n + d: c for n, c in cells.items()}, static, cond_shift(av.right, av.holes, d)


def _match(top, t) -> List[Tuple[str, Callable[[_State], None]]]:
    """The rules whose left-hand side matches focus t under the top component (None at the root).

    Each comes with the action that rewrites a running state.
    """
    out: List[Tuple[str, Callable[[_State], None]]] = []

    if is_val(t):
        v = t.value
        e = top
        if e is None:
            return out
        if isinstance(e, AppFun):
            out.append(("⊸EU₁", lambda st: st.pop(S.App(e.fn, t))))
        elif isinstance(e, AppArg):
            out.append(("⊸EU₂", lambda st: st.pop(S.App(t, S.Val(e.arg)))))
        elif isinstance(e, SeqL):
            out.append(("1EU", lambda st: st.pop(S.Seq(t, e.rest))))
        elif isinstance(e, CaseSumF):
            def _pop_case_sum(st):
                node = S.CaseSum(e.mode, t, e.left_var, e.left_body, e.right_var, e.right_body)
                node.scrut_ty_ = e.scrut_ty_
                st.pop(node)
            out.append(("⊕EU", _pop_case_sum))
        elif isinstance(e, CasePairF):
            def _pop_case_pair(st):
                node = S.CasePair(e.mode, t, e.var1, e.var2, e.body)
                node.scrut_ty_ = e.scrut_ty_
                st.pop(node)
            out.append(("⊗EU", _pop_case_pair))
        elif isinstance(e, CaseBangF):
            def _pop_case_bang(st):
                node = S.CaseBang(e.mode, t, e.inner_mode, e.var, e.body)
                node.scrut_ty_ = e.scrut_ty_
                st.pop(node)
            out.append(("!EU", _pop_case_bang))
        elif isinstance(e, UpdWithF):
            def _pop_upd(st):
                node = S.UpdWith(t, e.var, e.body)
                node.scrut_ty_ = e.scrut_ty_
                st.pop(node)
            out.append(("⋉UPDU", _pop_upd))
        elif isinstance(e, ToF):
            out.append(("⋉TOU", lambda st: st.pop(S.ToAmpar(t))))
        elif isinstance(e, FromF):
            def _pop_from(st):
                node = S.FromAmpar(t)
                node.inner_ty_ = e.inner_ty_
                st.pop(node)
            out.append(("⋉FROMU", _pop_from))
        elif isinstance(e, FromPrimeF):
            def _pop_fromp(st):
                node = S.FromAmparPrime(t)
                node.left_ty_ = e.left_ty_
                st.pop(node)
            out.append(("⋉FROM′U", _pop_fromp))
        elif isinstance(e, FillUnitF):
            out.append(("[1]EU", lambda st: st.pop(S.FillUnit(t))))
        elif isinstance(e, FillInlF):
            out.append(("[⊕]E₁U", lambda st: st.pop(S.FillInl(t))))
        elif isinstance(e, FillInrF):
            out.append(("[⊕]E₂U", lambda st: st.pop(S.FillInr(t))))
        elif isinstance(e, FillPairF):
            out.append(("[⊗]EU", lambda st: st.pop(S.FillPair(t))))
        elif isinstance(e, FillBangF):
            out.append(("[!]EU", lambda st: st.pop(S.FillBang(t, e.mode))))
        elif isinstance(e, FillFunF):
            def _pop_fill_fun(st):
                node = S.FillFun(t, e.var, e.mode, e.body)
                node.param_ty_ = e.param_ty_
                st.pop(node)
            out.append(("[⊸]EU", _pop_fill_fun))
        elif isinstance(e, FillCompL):
            out.append(("[]E_cU₁", lambda st: st.pop(S.FillComp(t, e.child))))
        elif isinstance(e, FillCompR):
            out.append(("[]E_cU₂", lambda st: st.pop(S.FillComp(S.Val(e.dest), t))))
        elif isinstance(e, FillLeafL):
            out.append(("[]E_LU₁", lambda st: st.pop(S.FillLeaf(t, e.arg))))
        elif isinstance(e, FillLeafR):
            out.append(("[]E_LU₂", lambda st: st.pop(S.FillLeaf(S.Val(e.dest), t))))
        elif isinstance(e, (OpenCells, OpenAmpar)):
            out.append(("⋉CL", lambda st: st.close(v)))
        return out

    if isinstance(t, S.App):
        if not is_val(t.arg):
            out.append(("⊸EF₁", lambda st: st.push(AppFun(t.fn), t.arg)))
        elif not is_val(t.fn):
            out.append(("⊸EF₂", lambda st: st.push(AppArg(t.arg.value), t.fn)))
        elif isinstance(t.fn.value, S.LamV):
            lam = t.fn.value
            out.append(("⊸EC", lambda st: st.refocus(subst_var(lam.body, lam.var, t.arg.value))))
        return out

    if isinstance(t, S.Seq):
        if not is_val(t.first):
            out.append(("1EF", lambda st: st.push(SeqL(t.rest), t.first)))
        elif isinstance(t.first.value, S.UnitV):
            out.append(("1EC", lambda st: st.refocus(t.rest)))
        return out

    if isinstance(t, S.CaseSum):
        if not is_val(t.scrut):
            def _push_case_sum(st):
                comp = CaseSumF(t.mode, t.left_var, t.left_body, t.right_var, t.right_body)
                comp.scrut_ty_ = t.scrut_ty_
                st.push(comp, t.scrut)
            out.append(("⊕EF", _push_case_sum))
        elif isinstance(t.scrut.value, S.InlV):
            out.append(
                ("⊕EC₁", lambda st: st.refocus(subst_var(t.left_body, t.left_var, t.scrut.value.value)))
            )
        elif isinstance(t.scrut.value, S.InrV):
            out.append(
                ("⊕EC₂", lambda st: st.refocus(subst_var(t.right_body, t.right_var, t.scrut.value.value)))
            )
        return out

    if isinstance(t, S.CasePair):
        if not is_val(t.scrut):
            def _push_case_pair(st):
                comp = CasePairF(t.mode, t.var1, t.var2, t.body)
                comp.scrut_ty_ = t.scrut_ty_
                st.push(comp, t.scrut)
            out.append(("⊗EF", _push_case_pair))
        elif isinstance(t.scrut.value, S.PairV):
            pv = t.scrut.value
            out.append(
                ("⊗EC", lambda st: st.refocus(subst_var(subst_var(t.body, t.var1, pv.fst), t.var2, pv.snd)))
            )
        return out

    if isinstance(t, S.CaseBang):
        if not is_val(t.scrut):
            def _push_case_bang(st):
                comp = CaseBangF(t.mode, t.inner_mode, t.var, t.body)
                comp.scrut_ty_ = t.scrut_ty_
                st.push(comp, t.scrut)
            out.append(("!EF", _push_case_bang))
        elif isinstance(t.scrut.value, S.ModV) and t.scrut.value.mode == t.inner_mode:
            out.append(("!EC", lambda st: st.refocus(subst_var(t.body, t.var, t.scrut.value.value))))
        return out

    if isinstance(t, S.UpdWith):
        if not is_val(t.scrut):
            def _push_upd(st):
                comp = UpdWithF(t.var, t.body)
                comp.scrut_ty_ = t.scrut_ty_
                st.push(comp, t.scrut)
            out.append(("⋉UPDF", _push_upd))
        elif isinstance(t.scrut.value, S.AmparV):
            av = t.scrut.value

            def _open(st):
                d = max(max(av.holes), st.ctx_max()) + 1 - min(av.holes) if av.holes else 0
                root, cells, static, right = _renamed(av, d)
                st.push_open(OpenCells(root, cells, static), subst_var(t.body, t.var, right))

            out.append(("⋉OP", _open))
        return out

    if isinstance(t, S.ToAmpar):
        if not is_val(t.inner):
            out.append(("⋉TOF", lambda st: st.push(ToF(), t.inner)))
        else:
            out.append(
                ("⋉TOC", lambda st: st.refocus(S.Val(S.AmparV(frozenset(), t.inner.value, S.UnitV()))))
            )
        return out

    if isinstance(t, S.FromAmpar):
        if not is_val(t.inner):
            def _push_from(st):
                comp = FromF()
                comp.inner_ty_ = t.inner_ty_
                st.push(comp, t.inner)
            out.append(("⋉FROMF", _push_from))
        else:
            v = t.inner.value
            if (
                isinstance(v, S.AmparV)
                and isinstance(v.right, S.ModV)
                and v.right.mode == ONE_INF
            ):
                out.append(("⋉FROMC", lambda st: st.refocus(S.Val(S.PairV(v.left, v.right)))))
        return out

    if isinstance(t, S.FromAmparPrime):
        if not is_val(t.inner):
            def _push_fromp(st):
                comp = FromPrimeF()
                comp.left_ty_ = t.left_ty_
                st.push(comp, t.inner)
            out.append(("⋉FROM′F", _push_fromp))
        else:
            v = t.inner.value
            if isinstance(v, S.AmparV) and isinstance(v.right, S.UnitV):
                out.append(("⋉FROM′C", lambda st: st.refocus(S.Val(v.left))))
        return out

    if isinstance(t, S.NewAmpar):
        out.append(
            ("⋉NEWC", lambda st: st.refocus(S.Val(S.AmparV(frozenset({1}), S.HoleV(1), S.DestV(1)))))
        )
        return out

    if isinstance(t, S.FillUnit):
        if not is_val(t.dest):
            out.append(("[1]EF", lambda st: st.push(FillUnitF(), t.dest)))
        elif isinstance(t.dest.value, S.DestV):
            h = t.dest.value.hole
            out.append(("[1]EC", lambda st: st.write(h, S.UnitV(), S.Val(S.UnitV()))))
        return out

    if isinstance(t, (S.FillInl, S.FillInr)):
        inl = isinstance(t, S.FillInl)
        if not is_val(t.dest):
            comp = FillInlF() if inl else FillInrF()
            out.append(("[⊕]E₁F" if inl else "[⊕]E₂F", lambda st: st.push(comp, t.dest)))
        elif isinstance(t.dest.value, S.DestV):
            h = t.dest.value.hole

            def _fill_sum(st):
                n = st.fresh_base(h) + 1
                cell = Cell()
                hollow = S.InlV(cell) if inl else S.InrV(cell)
                st.write(h, hollow, S.Val(S.DestV(n)), binds=((n, cell),))

            out.append(("[⊕]E₁C" if inl else "[⊕]E₂C", _fill_sum))
        return out

    if isinstance(t, S.FillPair):
        if not is_val(t.dest):
            out.append(("[⊗]EF", lambda st: st.push(FillPairF(), t.dest)))
        elif isinstance(t.dest.value, S.DestV):
            h = t.dest.value.hole

            def _fill_pair(st):
                base = st.fresh_base(h)
                n1, n2 = base + 1, base + 2
                c1, c2 = Cell(), Cell()
                focus = S.Val(S.PairV(S.DestV(n1), S.DestV(n2)))
                st.write(h, S.PairV(c1, c2), focus, binds=((n1, c1), (n2, c2)))

            out.append(("[⊗]EC", _fill_pair))
        return out

    if isinstance(t, S.FillBang):
        if not is_val(t.dest):
            out.append(("[!]EF", lambda st: st.push(FillBangF(t.mode), t.dest)))
        elif isinstance(t.dest.value, S.DestV):
            h = t.dest.value.hole

            def _fill_bang(st):
                n = st.fresh_base(h) + 1
                cell = Cell()
                st.write(h, S.ModV(t.mode, cell), S.Val(S.DestV(n)), binds=((n, cell),))

            out.append(("[!]EC", _fill_bang))
        return out

    if isinstance(t, S.FillFun):
        if not is_val(t.dest):
            def _push_fill_fun(st):
                comp = FillFunF(t.var, t.mode, t.body)
                comp.param_ty_ = t.param_ty_
                st.push(comp, t.dest)
            out.append(("[⊸]EF", _push_fill_fun))
        elif isinstance(t.dest.value, S.DestV):
            h = t.dest.value.hole

            def _fill_fun(st):
                free = free_vars_cached(t.body) - {t.var}
                if free:
                    raise OpenLambda(free)
                lam = S.LamV(t.var, t.mode, t.body)
                lam.param_ty_ = t.param_ty_
                st.write(h, lam, S.Val(S.UnitV()), hmax_value(lam))

            out.append(("[⊸]EC", _fill_fun))
        return out

    if isinstance(t, S.FillComp):
        if not is_val(t.dest):
            out.append(("[]E_cF₁", lambda st: st.push(FillCompL(t.child), t.dest)))
        elif not is_val(t.child):
            out.append(("[]E_cF₂", lambda st: st.push(FillCompR(t.dest.value), t.child)))
        elif isinstance(t.dest.value, S.DestV) and isinstance(t.child.value, S.AmparV):
            h = t.dest.value.hole
            av = t.child.value

            def _compose(st):
                d = max(max(av.holes), st.ctx_max(), h) + 1 - min(av.holes) if av.holes else 0
                root, cells, static, right = _renamed(av, d)
                st.write(h, root, S.Val(right), static, cells.items())

            out.append(("[]E_cC", _compose))
        return out

    if isinstance(t, S.FillLeaf):
        if not is_val(t.dest):
            out.append(("[]E_LF₁", lambda st: st.push(FillLeafL(t.arg), t.dest)))
        elif not is_val(t.arg):
            out.append(("[]E_LF₂", lambda st: st.push(FillLeafR(t.dest.value), t.arg)))
        elif isinstance(t.dest.value, S.DestV):
            h = t.dest.value.hole
            v = t.arg.value
            out.append(("[]E_LC", lambda st: st.write(h, v, S.Val(S.UnitV()), hmax_value(v))))
        return out

    if isinstance(t, S.Fix):
        out.append(("fixC", lambda st: st.refocus(subst_fix(t.body, t.var, t))))
        return out

    return out


def applicable_rules(cmd: Command) -> List[Tuple[str, Callable[[], Command]]]:
    """All rules whose left-hand side matches the command, each with a thunk for its result.

    The semantics is deterministic: on every reachable command this list
    has at most one entry.  The harness re-scans it at every step.
    """
    top = cmd.ctx[-1] if cmd.ctx else None
    return [(name, functools.partial(_apply, cmd, act)) for name, act in _match(top, cmd.focus)]


def _apply(cmd: Command, act) -> Command:
    st = _State.load(cmd)
    act(st)
    return st.snapshot()


def step(cmd: Command):
    st = _State.load(cmd)
    res = st.step()
    return Stepped(res, st.snapshot()) if isinstance(res, str) else res


class Replay(Sequence):
    """The steps of a run as (rule, Command) pairs.

    Its length is the run's step count.  The commands are built on first
    read, by stepping again from the origin with the same code, and kept.
    """

    def __init__(self, origin: Command, rules: List[str]):
        self.origin, self.rules, self._steps = origin, rules, None

    def __len__(self):
        return len(self.rules)

    def __getitem__(self, i):
        return self._materialized()[i]

    def __iter__(self):
        return iter(self._materialized())

    def _materialized(self) -> List[Tuple[str, Command]]:
        if self._steps is None:
            st = _State.load(self.origin)
            steps = []
            for rule in self.rules:
                if st.step() != rule:
                    raise MachineError("replay diverged from the run at step %d" % (len(steps) + 1))
                steps.append((rule, st.snapshot()))
            self._steps = steps
        return self._steps


@dataclass
class Trace:
    origin: Command
    steps: Sequence  # of (rule, Command); a Replay when `run` made it


@dataclass
class Finished:
    value: object
    trace: Trace


@dataclass
class OutOfFuel:
    trace: Trace


@dataclass
class StuckAt:
    command: Command
    reason: str
    trace: Trace


def run(cmd: Command, fuel: int = 10**6):
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    st = _State.load(cmd)
    rules: List[str] = []
    trace = Trace(cmd, Replay(cmd, rules))
    for _ in range(fuel):
        res = st.step()
        if type(res) is str:
            rules.append(res)
        elif isinstance(res, Final):
            return Finished(res.value, trace)
        else:
            return StuckAt(st.snapshot(), res.reason, trace)
    return OutOfFuel(trace)


def run_term(t, fuel: int = 10**6):
    return run(Command((), t), fuel)


# ---------------------------------------------------------------------------
# Canonical renaming of bound hole names (for name-insensitive equality)


def canonicalize(v):
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0]

    def order_of(vs, targets, acc, shadow):
        # first-occurrence order of target names, left-to-right
        if isinstance(vs, (S.HoleV, S.DestV)):
            if vs.hole in targets and vs.hole not in shadow and vs.hole not in acc:
                acc.append(vs.hole)
        elif isinstance(vs, S.AmparV):
            inner_shadow = shadow | (vs.holes & targets)
            order_of(vs.left, targets, acc, inner_shadow)
            order_of(vs.right, targets, acc, inner_shadow)
        elif isinstance(vs, (S.InlV, S.InrV, S.ModV)):
            order_of(vs.value, targets, acc, shadow)
        elif isinstance(vs, S.PairV):
            order_of(vs.fst, targets, acc, shadow)
            order_of(vs.snd, targets, acc, shadow)

    def walk(v, env):
        if isinstance(v, (S.HoleV, S.DestV)):
            return type(v)(env.get(v.hole, v.hole))
        if isinstance(v, S.UnitV):
            return v
        if isinstance(v, (S.InlV, S.InrV)):
            return type(v)(walk(v.value, env))
        if isinstance(v, S.ModV):
            return S.ModV(v.mode, walk(v.value, env))
        if isinstance(v, S.PairV):
            return S.PairV(walk(v.fst, env), walk(v.snd, env))
        if isinstance(v, S.LamV):
            return v
        if isinstance(v, S.AmparV):
            acc: List[int] = []
            order_of(v.left, v.holes, acc, set())
            order_of(v.right, v.holes, acc, set())
            for h in sorted(v.holes):
                if h not in acc:
                    acc.append(h)
            env2 = dict(env)
            for h in acc:
                env2[h] = fresh()
            return S.AmparV(
                frozenset(env2[h] for h in v.holes), walk(v.left, env2), walk(v.right, env2)
            )
        raise TypeError(v)

    return walk(v, {})
