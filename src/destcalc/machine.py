"""Deterministic small-step abstract machine.

A command is an evaluation context plus a focused term.  The context is a
stack of frames, each a term node with one empty slot, and of open
ampars.  Rules come in three families: focusing (F, pushes the focus's
node as a frame and focuses on the slot's term; never fires when that term
is already a value), unfocusing (U, pops a frame and plugs the value focus
into its slot) and contraction (C, rewrites a redex).  One frame table,
keyed on the node class and the slot, gives each frame its focusing and
unfocusing rules and its printed form; a frame carries its entry.  Fresh
hole names come from max-based formulas over the names in the context, so
runs are fully deterministic.  Each rule is one entry of a table, found by
the type of the focus, or by the top frame when the focus is a value.

Cost model.  While it runs, the machine keeps the structure under
construction of each open ampar as a heap of hole cells indexed by hole
name, as Minamide's data structures with a hole do: a destination write
touches one cell.  `new*` builds its structure as one such cell.  Opening
or grafting a closed ampar renames only its unfilled holes and its
right-hand value; ages forbid an ampar's own destinations inside its own
structure, so there are no other occurrences.  One with no holes renames
nothing and shares its cells, which nothing writes.  The largest hole name
of each open structure is tracked exactly, so every minted numeral is the
one the max-based formulas give.  `run` keeps the origin and the rule
names only: the `Command` of each step is built when someone reads
`trace.steps`, by stepping again from the origin.  Classic `syntax` values
and `Command`s are all that leaves the machine; a closed ampar it built
reads its `left` from its cells on first access.  A substitution rebuilds
the nodes on the paths to its variable only, and stores on each the free
variables and the largest hole name that later steps read.  Each `Fix`
node is unrolled once, and keeps its unrolling.  The hole-name walks
(names, shifts, cells of a structure, canonical renaming) are visitors on
`syntax.walk`, which keeps its own stack, so deep values and terms do not
exhaust Python's recursion limit.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from .modes import ONE_INF
from . import syntax as S


# ---------------------------------------------------------------------------
# Frames: the components of an evaluation context


class Frame:
    """A term node with one empty slot: one component of an evaluation context.

    `fields` are the node's constructor fields in `syntax.layout` order,
    stamps included, with None at index `slot`, the field the focus came
    from, so a frame keeps nothing of its focus alive.  `kind` is its entry
    of the frame table, which holds its rules.  A frame is made once, by
    the focusing rule that pushes it, and shared by every later command.
    """

    __slots__ = ("cls", "fields", "slot", "kind")

    def __init__(self, cls, fields: tuple, slot: int):
        self.cls, self.fields, self.slot = cls, fields, slot
        self.kind = FRAMES[cls, slot]

    def kids(self) -> list:
        """The node's term children other than the slot."""
        return [self.fields[i] for i in self.kind.others]

    def __eq__(self, other):  # as the nodes compare: positions and stamps aside
        if type(other) is not Frame:
            return NotImplemented
        return self.slot == other.slot and plug(self, None) == plug(other, None)

    __hash__ = None

    def __repr__(self):
        return "Frame(%r, slot=%d)" % (plug(self, None), self.slot)


def plug(frame: Frame, t):
    """The node `frame` stands for, with t in its slot."""
    fields = list(frame.fields)
    fields[frame.slot] = t
    return frame.cls(*fields)


@dataclass(eq=True)
class OpenAmpar:
    holes: frozenset
    left: object  # the structure under construction (a Value with holes)


@dataclass(eq=True)
class Command:
    ctx: Tuple[object, ...]  # Frames and OpenAmpars, outermost first
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


def hnames(x) -> set:
    """Hole names occurring (free or bound) in a value, term, frame, context or command."""
    if isinstance(x, Command):
        return hnames(x.ctx) | hnames(x.focus)
    if isinstance(x, tuple):
        return set().union(*map(hnames, x))
    out = set()

    def enter(node, _):
        t = type(node)
        if t is S.HoleV or t is S.DestV:
            out.add(node.hole)
        elif t is S.AmparV:
            out.update(node.holes)
        elif t not in S._VALUE_TYPES and hmax_value(node) == 0:  # names start at 1
            return None
        return S.DESCEND

    if type(x) is Frame:
        for k in x.kids():
            S.walk(k, enter)
    elif type(x) is OpenAmpar:
        out.update(x.holes)
        S.walk(x.left, enter)
    else:
        S.walk(x, enter)
    return out


def hmax_value(x) -> int:
    """The largest hole name in a value or term, 0 if none; kept on each node as `_hmax`
    (a hole, destination or unit at the root reads it off instead).

    The walk keeps its own stack, so deep values and terms cannot exhaust
    Python's recursion limit.  It reads the children `syntax.parts` lists,
    but not the structure of an ampar the machine keeps in cells.
    """
    m = x.__dict__.get("_hmax")
    if m is not None:
        return m
    t = type(x)
    if t is S.DestV or t is S.HoleV:  # most values a rule puts in: no walk
        return x.hole
    if t is S.UnitV:
        return 0
    stack = [x]
    while stack:
        node = stack[-1]
        d = node.__dict__
        if "_hmax" in d:
            stack.pop()
            continue
        t = type(node)
        if t is S.HoleV or t is S.DestV:
            d["_hmax"] = node.hole
            stack.pop()
            continue
        shape = d.get("_shape")
        if shape is not None:  # an ampar whose structure is in cells: do not read `left`
            own, kids = max(max(node.holes, default=0), shape.static), (node.right,)
        else:
            binds, kids = S.parts(node)
            own = max(binds) if binds else 0
        todo = [k for k in kids if "_hmax" not in k.__dict__]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        for k in kids:
            km = k.__dict__["_hmax"]
            if km > own:
                own = km
        d["_hmax"] = own
    return x.__dict__["_hmax"]


# ---------------------------------------------------------------------------
# Shifts and substitutions


def cond_shift(x, holes, d: int):
    """Rename hole/destination occurrences named in `holes` by +d in a value or term.

    A closed ampar value binds its own name set; names it binds are not
    occurrences of the outer ones and stay untouched.
    """
    if d == 0 or not holes:
        return x
    t = type(x)
    if t is S.DestV or t is S.HoleV:  # most right values: no walk
        return t(x.hole + d) if x.hole in holes else x

    def enter(node, bound):
        t = type(node)
        if t is S.HoleV or t is S.DestV:
            h = node.hole
            return t(h + d) if h in holes and h not in bound else node
        if t is S.AmparV and holes <= bound | node.holes:
            return node
        return S.DESCEND

    return S.walk(x, enter, S.remade)


_NO_VARS = frozenset()
_VAR_SETS = {}  # name -> frozenset({name}), one set shared by every Var of that name


def free_vars_cached(t) -> frozenset:
    """Free term variables, kept on each node as `_fv` (nodes are immutable after build).

    A node whose children add nothing to one another keeps a child's set
    itself, so most nodes allocate no set of their own.
    """
    fv = t.__dict__.get("_fv")
    if fv is not None:
        return fv
    cls = type(t)
    if cls is S.Var:
        fv = _VAR_SETS.get(t.name)
        if fv is None:
            fv = _VAR_SETS[t.name] = frozenset((t.name,))
    else:
        fv = _NO_VARS
        get, kids = S.layout(cls)
        fields = get(t)
        for i, scope in kids:
            kid = free_vars_cached(fields[i])
            if scope and kid:
                bound = [fields[j] for j in scope if fields[j] in kid]
                if bound:
                    kid = kid.difference(bound)
            if kid and not kid <= fv:
                fv = fv | kid if fv else kid
    t.__dict__["_fv"] = fv
    return fv


def subst_var(t, x: str, r, y: str = None, s=None):
    """Capture-avoiding substitution of r for the free variable x in t, and of s
    for y in the same pass when y is given.

    `r` is a closed value, put in as `Val(r)` at the variable's position,
    or a term (`fix` unrolls by putting in itself), put in as it is.  With
    y, r and s are closed values, and the result is that of x's substitution
    followed by y's (x's alone when y is x).  Only the nodes on the paths to
    x and y are rebuilt, each from its fields in order with its elaboration
    stamps, and each gets its free variables and its largest hole name
    stored, so no later walk visits it.
    """
    fv = free_vars_cached(t)
    also = (y, s, hmax_value(s)) if y is not None and y != x and y in fv else None
    if x not in fv:
        return t if also is None else _subst(t, fv, y, s, True, also[2], _NO_VARS)
    if type(r) in S._VALUE_TYPES:
        return _subst(t, fv, x, r, True, hmax_value(r), _NO_VARS, also)
    return _subst(t, fv, x, r, False, hmax_value(r), free_vars_cached(r), also)


def _subst(t, fv, x, r, is_value, r_hmax, r_fv, also=None):
    """`subst_var` on a node t whose free variables fv include x.  `also`, when
    given, is a second binding (y, s, s's largest hole name), y free in t."""
    cls = type(t)
    if cls is S.Var:
        if not is_value:
            return r
        node = S.Val(r, t.pos)
        d = node.__dict__
        d["_fv"], d["_hmax"] = _NO_VARS, r_hmax
        return node
    get, kids = S.layout(cls)
    args = list(get(t))
    for i, scope in kids:
        kid = args[i]
        kid_fv = kid.__dict__.get("_fv")
        if kid_fv is None:
            kid_fv = free_vars_cached(kid)
        # a binder names one or two variables: the first and last of its scope
        hit = x in kid_fv and not (scope and (args[scope[0]] == x or args[scope[-1]] == x))
        if also is not None:
            y = also[0]
            if y in kid_fv and not (scope and (args[scope[0]] == y or args[scope[-1]] == y)):
                args[i] = (_subst(kid, kid_fv, x, r, is_value, r_hmax, r_fv, also) if hit
                           else _subst(kid, kid_fv, y, also[1], True, also[2], _NO_VARS))
                continue
        if hit:
            args[i] = _subst(kid, kid_fv, x, r, is_value, r_hmax, r_fv)
    node = cls(*args)
    h = t.__dict__.get("_hmax")
    if h is None:
        h = hmax_value(t)
    fv = fv - {x} if len(fv) > 1 else _NO_VARS  # x is in fv
    if also is not None:
        fv = fv - {also[0]} if len(fv) > 1 else _NO_VARS  # so is y
        h = max(h, also[2])
    d = node.__dict__
    d["_fv"] = fv | r_fv if r_fv else fv
    d["_hmax"] = h if h > r_hmax else r_hmax
    return node


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
    v = root.value
    if not holes and v is not None and type(v) is not Cell and _hollow_children(v) is None:
        return v  # one written cell: its leaf as it is
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
    cells in place (`taken`); later ones work on a copy, unless the ampar
    has no holes and so no cell to write.  Reading never
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

    def enter(v, _):  # a cell when v contains a hole of `holes`, else None
        t = type(v)
        if t is S.HoleV and v.hole in holes:
            if v.hole in cells:
                raise HoleNotFound(v.hole)
            cell = cells[v.hole] = Cell()
            return cell
        if t is S.InlV or t is S.InrV or t is S.ModV or t is S.PairV:
            return S.DESCEND
        return None

    def leave(v, kids):
        if kids[-1] is None and kids[0] is None:
            return None
        t = type(v)
        if t is S.PairV:
            a, b = kids
            return Cell(S.PairV(a or leaf(v.fst), b or leaf(v.snd)))
        return Cell(S.ModV(v.mode, kids[0]) if t is S.ModV else t(kids[0]))

    root = S.walk(left, enter, leave) if holes else None
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
    they give the largest hole name of the classic `OpenAmpar` without a walk.
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

    def push(self, frame: Frame, focus):
        m, fields = self.maxes[-1], frame.fields
        for i in frame.kind.others:
            h = hmax_value(fields[i])
            if h > m:
                m = h
        self.ctx.append(frame)
        self.maxes.append(m)
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
        if not self.ctx and type(t) is S.Val:
            return Final(t.value)
        rule = _rule_for(self.ctx[-1] if self.ctx else None, t)
        if rule is None:
            from .printer import print_term
            return Stuck("no rule applies to focus %s" % print_term(t, 3))
        name, act = rule
        act(self, t)
        return name


def _renamed(av, d: int):
    """A closed ampar's cells, ready to be written, with its names shifted by d:
    (root, {name: cell}, static, shifted right value)."""
    shape = av.__dict__.get("_shape")
    if not av.holes:  # no cell of it is ever written, so its cells can be shared
        if shape is not None:
            return shape.root, {}, shape.static, av.right
        left = av.left
        return Cell(left), {}, hmax_value(left), av.right
    if shape is not None and not shape.taken:
        shape.taken = True
        root, cells, static = shape.root, shape.cells, shape.static
    else:
        root, cells, static = _cells_of(av.left, av.holes)
    return root, {n + d: c for n, c in cells.items()}, static, cond_shift(av.right, av.holes, d)


# ---------------------------------------------------------------------------
# The rule table.  A rule is a constant (name, act) pair; act(st, t) rewrites
# the running state st whose focus is t.  A term focus finds its rule by its
# type and the values in it; a value focus by the top frame.


def _rule_for(top, t):
    """The rule whose left-hand side matches focus t under component top (None at
    the root), or None.  The table gives at most one, so the machine is
    deterministic by construction."""
    if type(t) is S.Val:
        if type(top) is Frame:
            return top.kind.unfocus
        return None if top is None else _CLOSE
    match = _MATCH.get(type(t))
    return None if match is None else match(t)


def _unfocus(st, t):
    st.pop(plug(st.ctx[-1], t))


_CLOSE = ("⋉CL", lambda st, t: st.close(t.value))


class FrameKind(NamedTuple):
    focus: tuple  # the rule that pushes the frame and focuses on its slot
    unfocus: tuple  # the rule that pops the frame and plugs the value focus in
    fmt: str  # how a trace prints the frame
    names: tuple  # the node's field names, which `fmt` refers to
    others: tuple  # the indices of the node's term children other than the slot


# The frame table: (node class, focused field) -> (focusing rule, unfocusing
# rule, print format).  In a format `[]` is the slot, `{f}` is field f as it is
# and `{f:p}` the term in field f printed at precedence p; cases and `Fun` omit
# their mode.
_FRAME_TABLE = {
    (S.App, "arg"): ("⊸EF₁", "⊸EU₁", "{fn:2} []"),
    (S.App, "fn"): ("⊸EF₂", "⊸EU₂", "[] {arg:3}"),
    (S.Seq, "first"): ("1EF", "1EU", "[] ; {rest:1}"),
    (S.CaseSum, "scrut"): ("⊕EF", "⊕EU", "case [] of {{ Inl {left_var} -> {left_body:0}, "
                                         "Inr {right_var} -> {right_body:0} }}"),
    (S.CasePair, "scrut"): ("⊗EF", "⊗EU", "case [] of ({var1}, {var2}) -> {body:0}"),
    (S.CaseBang, "scrut"): ("!EF", "!EU", "case [] of Mod{inner_mode} {var} -> {body:0}"),
    (S.UpdWith, "scrut"): ("⋉UPDF", "⋉UPDU", "upd [] with {var} -> {body:0}"),
    (S.ToAmpar, "inner"): ("⋉TOF", "⋉TOU", "to* []"),
    (S.FromAmpar, "inner"): ("⋉FROMF", "⋉FROMU", "from* []"),
    (S.FromAmparPrime, "inner"): ("⋉FROM′F", "⋉FROM′U", "from'* []"),
    (S.FillUnit, "dest"): ("[1]EF", "[1]EU", "[] <| Unit"),
    (S.FillInl, "dest"): ("[⊕]E₁F", "[⊕]E₁U", "[] <| Inl"),
    (S.FillInr, "dest"): ("[⊕]E₂F", "[⊕]E₂U", "[] <| Inr"),
    (S.FillPair, "dest"): ("[⊗]EF", "[⊗]EU", "[] <| Pair"),
    (S.FillBang, "dest"): ("[!]EF", "[!]EU", "[] <| Mod{mode}"),
    (S.FillFun, "dest"): ("[⊸]EF", "[⊸]EU", "[] <| Fun {var} -> {body:0}"),
    (S.FillComp, "dest"): ("[]E_cF₁", "[]E_cU₁", "[] <o {child:3}"),
    (S.FillComp, "child"): ("[]E_cF₂", "[]E_cU₂", "{dest:3} <o []"),
    (S.FillLeaf, "dest"): ("[]E_LF₁", "[]E_LU₁", "[] <! {arg:3}"),
    (S.FillLeaf, "arg"): ("[]E_LF₂", "[]E_LU₂", "{dest:3} <! []"),
}


def _frame_kind(cls, field, focus, unfocus, fmt):
    names, (get, kids) = S.field_order(cls), S.layout(cls)
    slot = names.index(field)

    def push(st, t):
        fields = list(get(t))
        focus, fields[slot] = fields[slot], None
        st.push(Frame(cls, tuple(fields), slot), focus)

    others = tuple(i for i, _ in kids if i != slot)
    return (cls, slot), FrameKind((focus, push), (unfocus, _unfocus), fmt, names, others)


# (node class, slot index) -> FrameKind
FRAMES = dict(_frame_kind(cls, f, *row) for (cls, f), row in _FRAME_TABLE.items())


def _focus(cls, field):
    """The rule that focuses on `field` of a node of class cls."""
    return FRAMES[cls, S.field_order(cls).index(field)].focus


def _on_value(cls, field, contract):
    """Match a node on one field: focus on the field until it is a value, then the
    rule `contract` gives for that value's type (none: stuck)."""
    get, focus = operator.attrgetter(field), _focus(cls, field)

    def match(t):
        x = get(t)
        if type(x) is not S.Val:
            return focus
        return contract.get(type(x.value))

    return match


def _substituted(st, body, var, v):
    st.refocus(subst_var(body, var, v))


def _open(st, t):
    av = t.scrut.value
    d = max(max(av.holes), st.ctx_max()) + 1 - min(av.holes) if av.holes else 0
    root, cells, static, right = _renamed(av, d)
    st.push_open(OpenCells(root, cells, static), subst_var(t.body, t.var, right))


def _fill_sum(st, t):
    h = t.dest.value.hole
    n = st.fresh_base(h) + 1
    cell = Cell()
    hollow = S.InlV(cell) if type(t) is S.FillInl else S.InrV(cell)
    st.write(h, hollow, S.Val(S.DestV(n)), binds=((n, cell),))


def _fill_pair(st, t):
    h = t.dest.value.hole
    base = st.fresh_base(h)
    n1, n2 = base + 1, base + 2
    c1, c2 = Cell(), Cell()
    focus = S.Val(S.PairV(S.DestV(n1), S.DestV(n2)))
    st.write(h, S.PairV(c1, c2), focus, binds=((n1, c1), (n2, c2)))


def _fill_bang(st, t):
    h = t.dest.value.hole
    n = st.fresh_base(h) + 1
    cell = Cell()
    st.write(h, S.ModV(t.mode, cell), S.Val(S.DestV(n)), binds=((n, cell),))


def _fill_fun(st, t):
    free = free_vars_cached(t.body) - {t.var}
    if free:
        raise OpenLambda(free)
    lam = S.LamV(t.var, t.mode, t.body, t.param_ty_)
    st.write(t.dest.value.hole, lam, S.Val(S.UnitV()), hmax_value(lam))


def _compose(st, t):
    h, av = t.dest.value.hole, t.child.value
    d = max(max(av.holes), st.ctx_max(), h) + 1 - min(av.holes) if av.holes else 0
    root, cells, static, right = _renamed(av, d)
    st.write(h, root, S.Val(right), static, cells.items())


def _fill_leaf(st, t):
    v = t.arg.value
    st.write(t.dest.value.hole, v, S.Val(S.UnitV()), hmax_value(v))


def _match_app(t):
    if type(t.arg) is not S.Val:
        return _APP_F1
    if type(t.fn) is not S.Val:
        return _APP_F2
    return _APP_C if type(t.fn.value) is S.LamV else None


_APP_F1 = _focus(S.App, "arg")
_APP_F2 = _focus(S.App, "fn")
_APP_C = ("⊸EC", lambda st, t: _substituted(st, t.fn.value.body, t.fn.value.var, t.arg.value))


def _match_case_bang(t):
    if type(t.scrut) is not S.Val:
        return _BANG_F
    v = t.scrut.value
    return _BANG_C if type(v) is S.ModV and v.mode == t.inner_mode else None


_BANG_F = _focus(S.CaseBang, "scrut")
_BANG_C = ("!EC", lambda st, t: _substituted(st, t.body, t.var, t.scrut.value.value))


def _match_from(t):
    if type(t.inner) is not S.Val:
        return _FROM_F
    v = t.inner.value
    if type(v) is S.AmparV and type(v.right) is S.ModV and v.right.mode == ONE_INF:
        return _FROM_C
    return None


def _left(av):
    """A closed ampar's structure: `av.left`, read without the `__getattr__` detour."""
    d = av.__dict__
    return d["left"] if "left" in d else d["_shape"].read()


_FROM_F = _focus(S.FromAmpar, "inner")
_FROM_C = ("⋉FROMC", lambda st, t: st.refocus(
    S.Val(S.PairV(_left(t.inner.value), t.inner.value.right))))


def _match_from_prime(t):
    if type(t.inner) is not S.Val:
        return _FROMP_F
    v = t.inner.value
    return _FROMP_C if type(v) is S.AmparV and type(v.right) is S.UnitV else None


_FROMP_F = _focus(S.FromAmparPrime, "inner")
_FROMP_C = ("⋉FROM′C", lambda st, t: st.refocus(S.Val(_left(t.inner.value))))


def _match_fill_comp(t):
    if type(t.dest) is not S.Val:
        return _COMP_F1
    if type(t.child) is not S.Val:
        return _COMP_F2
    if type(t.dest.value) is S.DestV and type(t.child.value) is S.AmparV:
        return _COMP_C
    return None


_COMP_F1 = _focus(S.FillComp, "dest")
_COMP_F2 = _focus(S.FillComp, "child")
_COMP_C = ("[]E_cC", _compose)


def _match_fill_leaf(t):
    if type(t.dest) is not S.Val:
        return _LEAF_F1
    if type(t.arg) is not S.Val:
        return _LEAF_F2
    return _LEAF_C if type(t.dest.value) is S.DestV else None


_LEAF_F1 = _focus(S.FillLeaf, "dest")
_LEAF_F2 = _focus(S.FillLeaf, "arg")
_LEAF_C = ("[]E_LC", _fill_leaf)


_ONE = frozenset({1})


def _new(st, t):
    root = Cell()
    st.refocus(S.Val(S.AmparV.with_shape(_ONE, Shape(root, {1: root}, 0), S.DestV(1))))


def _unroll(st, t):
    # a `Fix` node is immutable, so its unrolling is made once and kept on it
    body = t.__dict__.get("_unrolled")
    if body is None:
        body = t.__dict__["_unrolled"] = subst_var(t.body, t.var, t)
    st.refocus(body)


_NEW = ("⋉NEWC", _new)
_FIX = ("fixC", _unroll)
_TO_F = _focus(S.ToAmpar, "inner")
_TO_C = ("⋉TOC", lambda st, t: st.refocus(
    S.Val(S.AmparV(frozenset(), t.inner.value, S.UnitV()))))

_MATCH = {
    S.App: _match_app,
    S.Seq: _on_value(S.Seq, "first", {S.UnitV: ("1EC", lambda st, t: st.refocus(t.rest))}),
    S.CaseSum: _on_value(S.CaseSum, "scrut", {
        S.InlV: ("⊕EC₁", lambda st, t: _substituted(
            st, t.left_body, t.left_var, t.scrut.value.value)),
        S.InrV: ("⊕EC₂", lambda st, t: _substituted(
            st, t.right_body, t.right_var, t.scrut.value.value)),
    }),
    S.CasePair: _on_value(S.CasePair, "scrut", {
        S.PairV: ("⊗EC", lambda st, t: st.refocus(subst_var(
            t.body, t.var1, t.scrut.value.fst, t.var2, t.scrut.value.snd))),
    }),
    S.CaseBang: _match_case_bang,
    S.UpdWith: _on_value(S.UpdWith, "scrut", {S.AmparV: ("⋉OP", _open)}),
    S.ToAmpar: lambda t: _TO_F if type(t.inner) is not S.Val else _TO_C,
    S.FromAmpar: _match_from,
    S.FromAmparPrime: _match_from_prime,
    S.NewAmpar: lambda t: _NEW,
    S.FillUnit: _on_value(S.FillUnit, "dest", {
        S.DestV: ("[1]EC", lambda st, t: st.write(
            t.dest.value.hole, S.UnitV(), S.Val(S.UnitV()))),
    }),
    S.FillInl: _on_value(S.FillInl, "dest", {S.DestV: ("[⊕]E₁C", _fill_sum)}),
    S.FillInr: _on_value(S.FillInr, "dest", {S.DestV: ("[⊕]E₂C", _fill_sum)}),
    S.FillPair: _on_value(S.FillPair, "dest", {S.DestV: ("[⊗]EC", _fill_pair)}),
    S.FillBang: _on_value(S.FillBang, "dest", {S.DestV: ("[!]EC", _fill_bang)}),
    S.FillFun: _on_value(S.FillFun, "dest", {S.DestV: ("[⊸]EC", _fill_fun)}),
    S.FillComp: _match_fill_comp,
    S.FillLeaf: _match_fill_leaf,
    S.Fix: lambda t: _FIX,
}


def applicable_rules(cmd: Command) -> List[str]:
    """The names of the rules whose left-hand side matches the command.

    The run and this scan read the same rule table, which holds at most
    one rule per command; the final command has none.
    """
    rule = _rule_for(cmd.ctx[-1] if cmd.ctx else None, cmd.focus)
    return [] if rule is None else [rule[0]]


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


def _met(x, names=None) -> dict:
    """The names (of `names`, or all) occurring in x outside the ampars that bind
    them, in the order first met."""
    met = {}

    def enter(y, bound):
        t = type(y)
        if t is S.HoleV or t is S.DestV:
            if y.hole not in bound and (names is None or y.hole in names):
                met[y.hole] = None
        return S.DESCEND

    S.walk(x, enter)
    return met


def canonicalize(v):
    """`v` with the names each ampar binds renamed 1, 2, ..., skipping the names free in `v`.

    An ampar's names are numbered before those of the ampars inside it, by
    their first occurrence in its structure, then in its right value, lambda
    bodies included; names that do not occur come last, in ascending order.
    """
    free = _met(v)
    fresh = (n for n in itertools.count(1) if n not in free)
    envs = [{}]  # name -> new name, one map per ampar on the way down

    def enter(x, _):
        t = type(x)
        if t is S.HoleV or t is S.DestV:
            return t(envs[-1].get(x.hole, x.hole))
        if t is S.AmparV:
            met = _met(x.left, x.holes)
            met.update(_met(x.right, x.holes))
            met.update((h, None) for h in sorted(x.holes))
            envs.append({**envs[-1], **{h: next(fresh) for h in met}})
        return S.DESCEND

    def leave(x, kids):
        if type(x) is S.AmparV:
            env = envs.pop()
            return S.AmparV(frozenset(env[h] for h in x.holes), *kids)
        return S.remade(x, kids)

    return S.walk(v, enter, leave)
