"""Deterministic small-step abstract machine.

A command is an evaluation context plus a focused term.  The context is a
stack of frames, each a term node with one empty slot, and of open
ampars.  Rules come in three families: focusing (F, pushes the focus's
node as a frame and focuses on the slot's term; never fires when that term
is already a value), unfocusing (U, pops a frame and plugs the value focus
into its slot) and contraction (C, rewrites a redex).  One frame table,
keyed on the node class and the slot, gives each frame its focusing and
unfocusing rules and its printed form; a frame carries its entry.  A
class's rows of the frame table, in order, are the fields a focus of that
class is focused on until each holds a value; then its row of the
contraction table gives the rule, or none, and the machine is stuck.  A
value focus finds its rule by the top frame.  Fresh hole names come from
max-based formulas over the names in the context, so runs are fully
deterministic.

Cost model.  A step costs one dispatch plus its rule.  One loop
(`_State.run`) steps `run`, `Replay` and `step`; each step reads the focus
and the top component once, and a value focus takes its frame's unfocusing
rule, or `⋉CL`, while a term focus makes one matcher call, which reads each
field's value in place.  The running machine is an environment machine
(Felleisen and Friedman's CEK machine): its focus is a term plus an
environment that maps the term's free variables to closed values, or to a
`fix` node for a variable `fixC` bound, and each frame keeps the
environment of the node it was cut from.  A field that is a variable the
environment binds to a value counts as that value wherever a rule matches.
The binding rules (`⊸EC`, `⊗EC`, `⊕EC₁/₂`, `!EC`, `⋉OP`, `fixC`) extend an
environment, which holds only free variables of the node it was made for,
and build no term node; `fixC` reads a `fix` that mentions a bound
variable back, once each time it is entered.  A lambda value `[⊸]EC`
builds under a non-empty environment keeps its body term and that
environment (a `Closure`), and `⊸EC` binds its argument over them.
Reading back (`read_back`) rebuilds the nodes on the paths to the
variables it puts in and stores each one's largest hole name.  The
largest hole name of each frame and lambda value is its term's plus that
of the bound values it mentions, found without reading back.
Each node is cut into its frames once per slot (`Cut`, kept on the node):
every frame cut there shares its fields, and the largest hole name of the
other children and the variables they read, filled when a fresh name first
needs them, leave a frame only its environment's values to look at.

The machine keeps the structure under construction of each open ampar as
a heap of hole cells indexed by hole name, as Minamide's data structures
with a hole do: a destination write touches one cell.  `new*` builds its
structure as one such cell.  Opening or grafting a closed ampar renames
only its unfilled holes and its right-hand value; ages forbid an ampar's
own destinations inside its own structure, so there are no other
occurrences.  One with no holes renames nothing and shares its cells,
which nothing writes.  The largest hole name of each open structure is
tracked exactly, so every minted numeral is the one the max-based
formulas give.

`run` keeps the origin and the rule names only: the `Command` of each step
is built when someone reads `trace.steps`, by stepping again from the
origin and reading each command back into classic `syntax` terms.  A
frame is read back once and shared by every later command; one with an
empty environment is its own classic form.  Classic values and
`Command`s are all that leaves the machine; a closed ampar it built reads
its `left` from its cells on first access, and a lambda its `body` from
its `Closure`.  The hole-name walks (names, shifts, cells of a structure,
canonical renaming) are visitors on `syntax.walk`, which keeps its own
stack, so deep values and terms do not exhaust Python's recursion limit.
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


class Cut:
    """A term node cut at one slot: its entry `kind` of the frame table and its
    `fields` in `syntax.layout` order, with None at the slot.  The first push of
    a node at a slot keeps its cut on the node, and every frame cut there
    shares it.

    `hmax`, the largest hole name of the node's other children, and `reads`,
    the variables they read that the node does not bind over them, are what
    fresh names read (`Frame.hmax`); they stay None until that first reads them.
    """

    __slots__ = ("kind", "fields", "hmax", "reads")

    def __init__(self, kind, fields: tuple):
        self.kind, self.fields, self.hmax, self.reads = kind, fields, None, None

    def fill(self) -> int:
        """Fill `hmax` and `reads` from the other children and return `hmax`."""
        fields, h, reads = self.fields, 0, _NO_VARS
        for i, scope in self.kind.scoped:
            kid = fields[i]
            kh = hmax_value(kid)
            if kh > h:
                h = kh
            fv = free_vars_cached(kid)
            if scope and fv:
                fv = fv.difference([fields[j] for j in scope])
            if fv and not fv <= reads:
                reads = reads | fv if reads else fv
        self.hmax, self.reads = h, reads
        return h


class Frame:
    """A term node with one empty slot: one component of an evaluation context.

    `fields` are the node's constructor fields in `syntax.layout` order,
    stamps included, with None at index `slot`, the field the focus came
    from, so a frame keeps nothing of its focus alive; they are its `cut`'s,
    shared by every frame cut from the node at that slot.  `kind` is its
    entry of the frame table, which holds its rules.  `env` binds the free
    variables of the node the frame was cut from (empty in a classic frame).
    A frame is made once, by the focusing rule that pushes it, and shared by
    every later command.
    """

    __slots__ = ("cls", "fields", "slot", "kind", "env", "cut", "_back")

    def __init__(self, cls, fields: tuple, slot: int, env: dict = None, cut: Cut = None):
        if cut is None:
            cut = Cut(FRAMES[cls, slot], fields)
        self.cls, self.fields, self.slot, self.kind = cls, fields, slot, cut.kind
        self.env, self.cut, self._back = env or _EMPTY, cut, None

    def kids(self) -> list:
        """The node's term children other than the slot."""
        return [self.fields[i] for i in self.kind.others]

    def hmax(self) -> int:
        """The largest hole name of the node's other children read back under `env`:
        theirs and that of the values `env` binds to the variables they read."""
        cut = self.cut
        h = cut.hmax
        if h is None:
            h = cut.fill()
        env = self.env
        if env:
            for y in cut.reads:
                v = env.get(y)
                if v is not None:
                    hv = hmax_value(v)
                    if hv > h:
                        h = hv
        return h

    def read_back(self, memo=None) -> "Frame":
        """The classic frame: other children read back under `env`, made once."""
        if not self.env:
            return self
        back = self._back
        if back is None:
            fields = list(self.fields)
            for i, scope in self.kind.scoped:
                fields[i] = read_back(fields[i], _unbound(self.env, fields, scope), memo)
            back = self._back = Frame(self.cls, tuple(fields), self.slot)
        return back

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
# Shifts


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


# ---------------------------------------------------------------------------
# Environments and read-back


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


_EMPTY = {}  # the environment of a term with no bound free variable; never written


class Closure:
    """The body of a lambda value the machine built: a term under an environment.

    `memo` is that of the state that made it (`read_back`).
    """

    __slots__ = ("term", "env", "memo")

    def __init__(self, term, env: dict, memo: dict = None):
        self.term, self.env, self.memo = term, env, memo

    def read(self):
        """The classic term: `term` read back under `env`."""
        return read_back(self.term, self.env, self.memo)


def _hmax_in(t, env) -> int:
    """The largest hole name of t read back under env, without reading it back:
    t's own and that of each bound value or `fix` node t mentions."""
    h = hmax_value(t)
    if env:
        for y in free_vars_cached(t):
            v = env.get(y)
            if v is not None:
                hv = hmax_value(v)
                if hv > h:
                    h = hv
    return h


def _free_under(t, env) -> set:
    """The free variables of t read back under env, found without reading it back."""
    free = set()
    for y in free_vars_cached(t):
        v = env.get(y)
        if v is None:
            free.add(y)
        elif type(v) is S.Fix:
            free |= free_vars_cached(v)
    return free


def _unbound(env, fields, scope) -> dict:
    """env without the variables a binder's fields `fields[j]`, j in scope, name."""
    if scope:
        a, b = fields[scope[0]], fields[scope[-1]]  # one or two: the first and last
        if a in env or b in env:
            return {n: v for n, v in env.items() if n != a and n != b}
    return env


def _value(x, env):
    """The value field x holds: a `Val`'s, or that of a variable env binds to one; else None."""
    if type(x) is S.Val:
        return x.value
    if type(x) is S.Var:
        v = env.get(x.name)
        if type(v) is not S.Fix:
            return v
    return None


def _bound(env, body, x: str = None, v=None, y: str = None, w=None) -> dict:
    """The environment of `body` under env, with x bound to v and y to w when
    given (with y equal to x, x's binding wins): only the variables free in body."""
    fv = free_vars_cached(body)
    new = {}
    if env:
        for n in fv:
            u = env.get(n)
            if u is not None:
                new[n] = u
    if y is not None and y in fv:
        new[y] = w
    if x is not None and x in fv:
        new[x] = v
    return new or _EMPTY


def read_back(t, env: dict, memo: dict = None):
    """The classic term t under env stands for: each free variable env binds put
    in, a value as `Val(v)` and a `fix` node as itself.

    Only the nodes on the paths to those variables are rebuilt, each from
    its fields in order with its elaboration stamps, and each gets its
    largest hole name stored, so no later walk visits it.  `memo`, keyed on
    the identities of a node and of the values its free variables are bound
    to, lets the commands of one trace share what they read back.
    """
    if not env or free_vars_cached(t).isdisjoint(env):
        return t
    return _back(t, env, memo)


def _back(t, env, memo):
    """`read_back` of a node that mentions env."""
    fv = t.__dict__["_fv"]  # stored by `read_back` or by the loop over the node above
    if memo is not None:  # keyed on t and the values it reads, whatever else env binds
        vals = tuple(map(env.get, fv))
        key = (id(t), *map(id, vals))
        hit = memo.get(key)
        if hit is not None:
            return hit[2]
    cls = type(t)
    if cls is S.Var:
        v = env[t.name]
        if type(v) is S.Fix:
            return v
        node, h = S.Val(v, t.pos), hmax_value(v)
    else:
        get, kids = S.layout(cls)
        args = list(get(t))
        h = 0  # a term node's largest hole name is its children's
        for i, scope in kids:
            kid = args[i]
            d = kid.__dict__
            kid_fv = d.get("_fv")
            if kid_fv is None:
                kid_fv = free_vars_cached(kid)
            if not kid_fv.isdisjoint(env):
                inner = _unbound(env, args, scope) if scope else env
                if inner is env or not kid_fv.isdisjoint(inner):
                    kid = args[i] = _back(kid, inner, memo)
                    d = kid.__dict__
            kh = d.get("_hmax")
            if kh is None:
                kh = hmax_value(kid)
            if kh > h:
                h = kh
        node = cls(*args)
    node.__dict__["_hmax"] = h
    if memo is not None:
        memo[key] = (t, vals, node)
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
    """A running command: the context as a stack, the focus and its environment,
    and the name bookkeeping.

    `maxes[i + 1]` is the largest hole name in the components ctx[:i + 1]
    other than open ampars.  It is filled in up to the top when a rule
    mints a name (`ctx_max`), so a frame popped before that costs no walk.
    `open_at` are the positions of the open ampars, whose largest names
    change as holes are written.  `memo` keeps what was read back
    (`read_back`) when the state takes snapshots, so its commands share
    nodes; `run` keeps none.
    """

    __slots__ = ("ctx", "maxes", "open_at", "focus", "env", "memo")

    def __init__(self, focus, memo=None):
        self.ctx, self.maxes, self.open_at = [], [0], []
        self.focus, self.env, self.memo = focus, _EMPTY, memo

    @classmethod
    def load(cls, cmd: Command, memo=None) -> "_State":
        st = cls(cmd.focus, memo)
        for e in cmd.ctx:
            if isinstance(e, OpenAmpar):
                st.push_open(OpenCells(*_cells_of(e.left, e.holes), snap=e), cmd.focus, _EMPTY)
            else:
                st.ctx.append(e)
        return st

    def push_open(self, o: OpenCells, focus, env):
        self.open_at.append(len(self.ctx))
        self.ctx.append(o)
        self.refocus(focus, env)

    def pop(self, focus, env):
        ctx = self.ctx
        if type(ctx.pop()) is OpenCells:
            self.open_at.pop()
        if len(self.maxes) > len(ctx) + 1:
            self.maxes.pop()
        self.focus, self.env = focus, env

    def refocus(self, focus, env):
        """Focus on a term under env; a bound variable focuses on what it stands for."""
        if type(focus) is S.Var:
            v = env.get(focus.name)
            if type(v) is S.Fix:
                focus, env = v, _EMPTY
            elif v is not None:
                focus = S.Val(v, focus.pos) if self.memo is None else read_back(focus, env, self.memo)
                env = _EMPTY
        self.focus, self.env = focus, env

    def close(self, right):
        o = self.ctx[-1]
        shape = Shape(o.root, o.cells, o.static)
        self.pop(S.Val(S.AmparV.lazy(shape, holes=frozenset(o.cells), right=right)), _EMPTY)

    def ctx_max(self) -> int:
        maxes = self.maxes
        m = maxes[-1]
        for e in self.ctx[len(maxes) - 1:]:  # the components pushed since the last call
            if type(e) is Frame:
                h = e.hmax()
                if h > m:
                    m = h
            maxes.append(m)
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
        """The classic command; each component keeps its own classic form."""
        memo = self.memo
        ctx = tuple([e.read_back(memo) if type(e) is Frame else e.snapshot() for e in self.ctx])
        return Command(ctx, read_back(self.focus, self.env, memo))

    def run(self, fuel: int, on_step):
        """Apply the one applicable rule up to `fuel` times, calling on_step(rule name)
        after each: Final or Stuck when the machine stops, None when the fuel runs out.

        A step reads the focus and the top component once: a value focus
        takes its frame's unfocusing rule or `⋉CL`, a term focus the rule its
        class's matcher gives.  `run`, `Replay` and `step` all step here.
        """
        ctx, matchers, Val = self.ctx, _MATCH, S.Val
        for _ in range(fuel):
            t = self.focus
            if type(t) is Val:
                if not ctx:
                    return Final(t.value)
                top = ctx[-1]
                name, act = top.kind.unfocus if type(top) is Frame else _CLOSE
            else:
                match = matchers.get(type(t))
                rule = None if match is None else match(t, self.env)
                if rule is None:
                    from .printer import print_term
                    focus = read_back(t, self.env, self.memo)
                    return Stuck("no rule applies to focus %s" % print_term(focus, 3))
                name, act = rule
            act(self, t)
            on_step(name)
        return None


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
# the running state st whose focus is t.  A value focus finds its rule by the
# top frame; a term focus by its class, from the frame table and the
# contraction table (`_matcher`).


def _rule_for(top, t, env):
    """The rule whose left-hand side matches focus t under env and component top
    (None at the root), or None.  The table gives at most one, so the
    machine is deterministic by construction.  The stepping loop
    (`_State.run`) makes the same choice inline."""
    if type(t) is S.Val:
        if type(top) is Frame:
            return top.kind.unfocus
        return None if top is None else _CLOSE
    match = _MATCH.get(type(t))
    return None if match is None else match(t, env)


def _unfocus(st, t):
    frame = st.ctx[-1]
    st.pop(plug(frame, t), frame.env)


_CLOSE = ("⋉CL", lambda st, t: st.close(t.value))


class FrameKind(NamedTuple):
    focus: tuple  # the rule that pushes the frame and focuses on its slot
    unfocus: tuple  # the rule that pops the frame and plugs the value focus in
    fmt: str  # how a trace prints the frame
    names: tuple  # the node's field names, which `fmt` refers to
    others: tuple  # the indices of the node's term children other than the slot
    scoped: tuple  # (index, the indices of the fields naming the variables bound over it)


# The frame table: (node class, focused field) -> (focusing rule, unfocusing
# rule, print format).  A class's rows, in order, are the fields its focusing
# rules focus on, each until it holds a value.  In a format `[]` is the slot,
# `{f}` is field f as it is and `{f:p}` the term in field f printed at
# precedence p; cases and `Fun` omit their mode.
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
    key, focused = "_cut%d" % slot, operator.attrgetter(field)
    # the checker stamps nodes in place, so a cut whose stamps are not the node's is made again
    stamps = tuple((i, n) for i, n in enumerate(names) if n.endswith("_"))

    def push(st, t):
        d = t.__dict__
        cut = d.get(key)
        if cut is None or stamps and _restamped(cut.fields, d, stamps):
            fields = list(get(t))
            fields[slot] = None
            cut = d[key] = Cut(FRAMES[cls, slot], tuple(fields))
        st.ctx.append(Frame(cls, cut.fields, slot, st.env, cut))
        x = focused(t)
        if type(x) is S.Var:  # free or bound to a `fix` node: a value is not focused on
            st.refocus(x, st.env)
        else:
            st.focus = x

    scoped = tuple((i, scope) for i, scope in kids if i != slot)
    others = tuple(i for i, _ in scoped)
    return (cls, slot), FrameKind((focus, push), (unfocus, _unfocus), fmt, names, others, scoped)


def _restamped(fields, d, stamps) -> bool:
    """Whether a node (its `__dict__` d) holds other stamps than the cut `fields`."""
    for i, n in stamps:
        if fields[i] is not d[n]:
            return True
    return False


# (node class, slot index) -> FrameKind
FRAMES = dict(_frame_kind(cls, f, *row) for (cls, f), row in _FRAME_TABLE.items())


def _open(st, t):
    av = _value(t.scrut, st.env)
    d = max(max(av.holes), st.ctx_max()) + 1 - min(av.holes) if av.holes else 0
    root, cells, static, right = _renamed(av, d)
    st.push_open(OpenCells(root, cells, static), t.body, _bound(st.env, t.body, t.var, right))


def _fill(hollow, arity):
    """The act that writes hollow(t, *cells), a constructor over `arity` new hole
    cells named above every live name, and focuses on their destinations."""

    def act(st, t):
        h = _value(t.dest, st.env).hole
        base = st.fresh_base(h)
        names = range(base + 1, base + 1 + arity)
        cells = [Cell() for _ in names]
        dests = [S.DestV(n) for n in names]
        focus = S.Val(S.PairV(*dests) if arity == 2 else dests[0])
        st.write(h, hollow(t, *cells), focus, binds=zip(names, cells))

    return act


def _fill_fun(st, t):
    # a lambda value keeps its body under the environment of the variables it
    # reads that the lambda does not bind; its classic body is read on first access
    env = _bound(st.env, t.body)
    if t.var in env:  # a new dict: `_bound` copies what it keeps
        del env[t.var]
    free = _free_under(t.body, env) - {t.var}
    if free:
        raise OpenLambda(free)
    if env:
        lam = S.LamV.lazy(Closure(t.body, env, st.memo), var=t.var, mode=t.mode,
                          param_ty_=t.param_ty_, cod_ty_=t.cod_ty_)
    else:
        lam = S.LamV(t.var, t.mode, t.body, t.param_ty_, t.cod_ty_)
    h = lam.__dict__["_hmax"] = _hmax_in(t.body, env)
    st.write(_value(t.dest, st.env).hole, lam, S.Val(S.UnitV()), h)


def _compose(st, t):
    h, av = _value(t.dest, st.env).hole, _value(t.child, st.env)
    d = max(max(av.holes), st.ctx_max(), h) + 1 - min(av.holes) if av.holes else 0
    root, cells, static, right = _renamed(av, d)
    st.write(h, root, S.Val(right), static, cells.items())


def _fill_leaf(st, t):
    v = _value(t.arg, st.env)
    st.write(_value(t.dest, st.env).hole, v, S.Val(S.UnitV()), hmax_value(v))


def _apply(st, t):
    # a lambda the machine built binds its argument over its own environment,
    # read without the `__getattr__` detour, as `_left` reads a shape
    lam = _value(t.fn, st.env)
    c = lam.__dict__.get("_closure")
    body, env = (lam.body, _EMPTY) if c is None else (c.term, c.env)
    st.refocus(body, _bound(env, body, lam.var, _value(t.arg, st.env)))


def _left(av):
    """A closed ampar's structure: `av.left`, read without the `__getattr__` detour."""
    d = av.__dict__
    return d["left"] if "left" in d else d["_shape"].read()


def _from(st, t):
    av = _value(t.inner, st.env)
    st.refocus(S.Val(S.PairV(_left(av), av.right)), _EMPTY)


_ONE = frozenset({1})


def _new(st, t):
    root = Cell()
    st.refocus(S.Val(S.AmparV.lazy(Shape(root, {1: root}, 0), holes=_ONE, right=S.DestV(1))), _EMPTY)


def _unroll(st, t):
    # `fix x. body` goes on as body with x bound to the fix node, read back if it
    # reads a bound variable, so an environment holds no term under another one
    fix = t if free_vars_cached(t).isdisjoint(st.env) else read_back(t, st.env, st.memo)
    st.refocus(t.body, _bound(st.env, t.body, t.var, fix))


def _case_sum(st, t):
    v, env = _value(t.scrut, st.env), st.env
    if type(v) is S.InlV:
        st.refocus(t.left_body, _bound(env, t.left_body, t.left_var, v.value))
    else:
        st.refocus(t.right_body, _bound(env, t.right_body, t.right_var, v.value))


def _case_pair(st, t):
    v, env = _value(t.scrut, st.env), st.env
    st.refocus(t.body, _bound(env, t.body, t.var1, v.fst, t.var2, v.snd))


def _dest(t, d):
    return type(d) is S.DestV


_INJECTIONS = {S.InlV: 1, S.InrV: 2}

# The contraction table: node class -> (rule name, guard, act).  When every
# field the frame table lists for the class holds a value, guard(t, *values),
# the values in the frame table's order, numbers the rule that fires: True
# (1) for the row's, False (0) for none, and the machine is stuck.  `⊕EC` is
# one rule per injection, so its row names two and its guard returns 1 or 2.
# A class no frame focuses has no guard.
_CONTRACTIONS = {
    S.App: ("⊸EC", lambda t, arg, fn: type(fn) is S.LamV, _apply),
    S.Seq: ("1EC", lambda t, v: type(v) is S.UnitV, lambda st, t: st.refocus(t.rest, st.env)),
    S.CaseSum: ("⊕EC₁ ⊕EC₂", lambda t, v: _INJECTIONS.get(type(v), 0), _case_sum),
    S.CasePair: ("⊗EC", lambda t, v: type(v) is S.PairV, _case_pair),
    S.CaseBang: ("!EC", lambda t, v: type(v) is S.ModV and v.mode == t.inner_mode,
                 lambda st, t: st.refocus(
                     t.body, _bound(st.env, t.body, t.var, _value(t.scrut, st.env).value))),
    S.UpdWith: ("⋉OP", lambda t, v: type(v) is S.AmparV, _open),
    S.ToAmpar: ("⋉TOC", lambda t, v: True, lambda st, t: st.refocus(
        S.Val(S.AmparV(frozenset(), _value(t.inner, st.env), S.UnitV())), _EMPTY)),
    S.FromAmpar: ("⋉FROMC", lambda t, v: (type(v) is S.AmparV and type(v.right) is S.ModV
                                          and v.right.mode == ONE_INF), _from),
    S.FromAmparPrime: ("⋉FROM′C", lambda t, v: type(v) is S.AmparV and type(v.right) is S.UnitV,
                       lambda st, t: st.refocus(S.Val(_left(_value(t.inner, st.env))), _EMPTY)),
    S.NewAmpar: ("⋉NEWC", None, _new),
    S.FillUnit: ("[1]EC", _dest, lambda st, t: st.write(
        _value(t.dest, st.env).hole, S.UnitV(), S.Val(S.UnitV()))),
    S.FillInl: ("[⊕]E₁C", _dest, _fill(lambda t, c: S.InlV(c), 1)),
    S.FillInr: ("[⊕]E₂C", _dest, _fill(lambda t, c: S.InrV(c), 1)),
    S.FillPair: ("[⊗]EC", _dest, _fill(lambda t, c1, c2: S.PairV(c1, c2), 2)),
    S.FillBang: ("[!]EC", _dest, _fill(lambda t, c: S.ModV(t.mode, c), 1)),
    S.FillFun: ("[⊸]EC", _dest, _fill_fun),
    S.FillComp: ("[]E_cC", lambda t, d, c: type(d) is S.DestV and type(c) is S.AmparV, _compose),
    S.FillLeaf: ("[]E_LC", lambda t, d, v: type(d) is S.DestV, _fill_leaf),
    S.Fix: ("fixC", None, _unroll),
}


def _matcher(cls, name, guard, act):
    """The rule for a focus of class cls: the focusing rule of the first field the
    frame table lists for cls that holds no value, else the contraction the
    guard gives for the values, or None.  Specialised by the number of such
    fields, and each field's value read in place, as `_value` reads it, so a
    step builds no list of values and makes no call but the guard."""
    rules = (None, *((n, act) for n in name.split()))
    fields = [(operator.attrgetter(kind.names[slot]), kind.focus)
              for (c, slot), kind in FRAMES.items() if c is cls]
    if not fields:
        return lambda t, env: rules[1]
    if len(fields) == 1:
        (get, focus), = fields

        def match(t, env):
            x = get(t)
            if type(x) is S.Val:
                return rules[guard(t, x.value)]
            if type(x) is S.Var:
                v = env.get(x.name)
                if v is not None and type(v) is not S.Fix:
                    return rules[guard(t, v)]
            return focus

        return match
    (get1, focus1), (get2, focus2) = fields

    def match2(t, env):
        x = get1(t)
        if type(x) is S.Val:
            a = x.value
        elif type(x) is S.Var:
            a = env.get(x.name)
            if a is None or type(a) is S.Fix:
                return focus1
        else:
            return focus1
        x = get2(t)
        if type(x) is S.Val:
            b = x.value
        elif type(x) is S.Var:
            b = env.get(x.name)
            if b is None or type(b) is S.Fix:
                return focus2
        else:
            return focus2
        return rules[guard(t, a, b)]

    return match2


_MATCH = {cls: _matcher(cls, *row) for cls, row in _CONTRACTIONS.items()}


def applicable_rules(cmd: Command) -> List[str]:
    """The names of the rules whose left-hand side matches the command.

    The run and this scan read the same rule table, which holds at most
    one rule per command; the final command has none.
    """
    rule = _rule_for(cmd.ctx[-1] if cmd.ctx else None, cmd.focus, _EMPTY)
    return [] if rule is None else [rule[0]]


def step(cmd: Command):
    st, rules = _State.load(cmd, {}), []
    res = st.run(1, rules.append)
    return Stepped(rules[0], st.snapshot()) if res is None else res


class Replay(Sequence):
    """The steps of a run as (rule, Command) pairs.

    Its length is the run's step count.  The commands are built on first
    read, by stepping again from the origin with the same loop, and kept.
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
            st, rules, steps = _State.load(self.origin, {}), self.rules, []

            def on_step(rule):
                if rule != rules[len(steps)]:
                    raise MachineError("replay diverged from the run at step %d" % (len(steps) + 1))
                steps.append((rule, st.snapshot()))

            if st.run(len(rules), on_step) is not None:  # it stopped before the run did
                raise MachineError("replay diverged from the run at step %d" % (len(steps) + 1))
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
    res = st.run(fuel, rules.append)
    if res is None:
        return OutOfFuel(trace)
    if type(res) is Final:
        return Finished(res.value, trace)
    return StuckAt(st.snapshot(), res.reason, trace)


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
