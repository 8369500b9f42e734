"""Abstract syntax: types, core terms, runtime values, surface sugar.

Core terms follow the destination-calculus grammar exactly; everything a
surface program writes beyond it (constructors, lambdas, literals) is
sugar that `desugar` expands.  Term nodes carry a source position and,
after the checker has run, elaboration stamps (scrutinee, parameter
and codomain types) that later phases read; both are ignored by equality.
"""

from __future__ import annotations

import operator
from typing import Optional, Tuple, Union

from .modes import INF, Mode, UNIT, ONE_INF
from .records import field, fields, record

Pos = Optional[Tuple[int, int]]


# ---------------------------------------------------------------------------
# Types (immutable trees; recursion goes through named definitions)


@record(frozen=True, slots=True)
class TUnit:
    pass


@record(frozen=True, slots=True)
class TSum:
    left: "Type"
    right: "Type"


@record(frozen=True, slots=True)
class TProd:
    left: "Type"
    right: "Type"


@record(frozen=True, slots=True)
class TBang:
    mode: Mode
    inner: "Type"


@record(frozen=True, slots=True)
class TArrow:
    dom: "Type"
    mode: Mode
    cod: "Type"


@record(frozen=True, slots=True)
class TDest:
    mode: Mode  # mode of values the hole accepts
    inner: "Type"


@record(frozen=True, slots=True)
class TAmpar:
    left: "Type"  # the structure under construction
    right: "Type"


@record(frozen=True, slots=True)
class TNamed:
    name: str
    args: Tuple["Type", ...] = ()


Type = Union[TUnit, TSum, TProd, TBang, TArrow, TDest, TAmpar, TNamed]


# ---------------------------------------------------------------------------
# Core terms.  `pos` and fields ending in an underscore (elaboration
# stamps) never participate in equality.


def _meta(**kw):
    return field(default=None, compare=False, repr=False, **kw)


@record
class Var:
    name: str
    pos: Pos = _meta()


@record
class App:
    fn: "Term"
    arg: "Term"
    pos: Pos = _meta()


@record
class Seq:
    first: "Term"
    rest: "Term"
    pos: Pos = _meta()


@record
class CaseSum:
    mode: Mode
    scrut: "Term"
    left_var: str
    left_body: "Term"
    right_var: str
    right_body: "Term"
    pos: Pos = _meta()
    scrut_ty_: Optional[Type] = _meta()


@record
class CasePair:
    mode: Mode
    scrut: "Term"
    var1: str
    var2: str
    body: "Term"
    pos: Pos = _meta()
    scrut_ty_: Optional[Type] = _meta()


@record
class CaseBang:
    mode: Mode
    scrut: "Term"
    inner_mode: Mode
    var: str
    body: "Term"
    pos: Pos = _meta()
    scrut_ty_: Optional[Type] = _meta()


@record
class UpdWith:
    scrut: "Term"
    var: str
    body: "Term"
    pos: Pos = _meta()
    scrut_ty_: Optional[Type] = _meta()


@record
class ToAmpar:
    inner: "Term"
    pos: Pos = _meta()


@record
class FromAmpar:
    inner: "Term"
    pos: Pos = _meta()
    inner_ty_: Optional[Type] = _meta()


@record
class FromAmparPrime:
    inner: "Term"
    pos: Pos = _meta()
    left_ty_: Optional[Type] = _meta()


@record
class NewAmpar:
    # full annotated ampar type `(new* : T >< Dest T)`; resolved or filled
    # in from the expected type by the checker when absent
    ann: Optional[Type] = None
    pos: Pos = _meta()


@record
class FillUnit:
    dest: "Term"
    pos: Pos = _meta()


@record
class FillInl:
    dest: "Term"
    pos: Pos = _meta()


@record
class FillInr:
    dest: "Term"
    pos: Pos = _meta()


@record
class FillPair:
    dest: "Term"
    pos: Pos = _meta()


@record
class FillBang:
    dest: "Term"
    mode: Mode = UNIT
    pos: Pos = _meta()


@record
class FillFun:
    dest: "Term"
    var: str
    mode: Mode
    body: "Term"
    pos: Pos = _meta()
    param_ty_: Optional[Type] = _meta()
    cod_ty_: Optional[Type] = _meta()


@record
class FillComp:
    dest: "Term"
    child: "Term"
    pos: Pos = _meta()


@record
class FillLeaf:
    dest: "Term"
    arg: "Term"
    pos: Pos = _meta()


@record
class Val:
    value: "Value"
    pos: Pos = _meta()


@record
class Fix:
    var: str
    ann: Type
    body: "Term"
    pos: Pos = _meta()


@record
class Annot:
    """Checker-level annotation (t : T); erased before evaluation."""

    inner: "Term"
    ty: Type
    pos: Pos = _meta()


# ---------------------------------------------------------------------------
# Runtime values


@record
class HoleV:
    hole: int


@record
class DestV:
    hole: int


class _Lazy:
    """A value node one of whose fields the machine gives on first access.

    `_LAZY` is (the field, the `__dict__` key of its source).  A node made
    by `lazy` holds the source instead of the field, and the field is
    `source.read()`, kept once read; it is the field's classic value, so
    equality, walks and printing see the node as an eager one.
    """

    _LAZY = ("", "")

    @classmethod
    def lazy(cls, source, **fields):
        """A node with `fields` whose `_LAZY` field is `source.read()`, read on first access."""
        v = cls.__new__(cls)
        v.__dict__.update(fields)
        v.__dict__[cls._LAZY[1]] = source
        return v

    def __getattr__(self, name):
        # only reached for attributes missing from __dict__
        field, key = self._LAZY
        d = self.__dict__
        if name == field and key in d:
            value = d[field] = d[key].read()
            return value
        raise AttributeError(name)


@record
class AmparV(_Lazy):
    holes: frozenset  # hole names bound between left and right
    left: "Value"  # structure under construction (may contain holes)
    right: "Value"  # carries the matching destinations

    _LAZY = ("left", "_shape")  # the machine's cells of the structure


@record
class UnitV:
    pass


@record
class InlV:
    value: "Value"


@record
class InrV:
    value: "Value"


@record
class ModV:
    mode: Mode
    value: "Value"


@record
class PairV:
    fst: "Value"
    snd: "Value"


@record
class LamV(_Lazy):
    var: str
    mode: Mode
    body: "Term"
    param_ty_: Optional[Type] = _meta()
    cod_ty_: Optional[Type] = _meta()

    _LAZY = ("body", "_closure")  # the machine's body term under an environment


Value = Union[HoleV, DestV, AmparV, UnitV, InlV, InrV, ModV, PairV, LamV]

_VALUE_TYPES = (HoleV, DestV, AmparV, UnitV, InlV, InrV, ModV, PairV, LamV)


# ---------------------------------------------------------------------------
# Surface sugar


@record
class UnitS:
    pos: Pos = _meta()


@record
class InlS:
    inner: "Term"
    pos: Pos = _meta()


@record
class InrS:
    inner: "Term"
    pos: Pos = _meta()


@record
class PairS:
    fst: "Term"
    snd: "Term"
    pos: Pos = _meta()


@record
class ModS:
    mode: Mode
    inner: "Term"
    pos: Pos = _meta()


@record
class LamS:
    var: str
    mode: Mode
    body: "Term"
    pos: Pos = _meta()


@record
class FromPrimeS:
    inner: "Term"
    pos: Pos = _meta()


@record
class NatLit:
    value: int
    pos: Pos = _meta()


Term = object  # core or sugar node; the union is open for internal markers

SUGAR_NODES = (UnitS, InlS, InrS, PairS, ModS, LamS, FromPrimeS, NatLit)


class FreshNames:
    """Generator of parser-invisible binder names (users cannot write _x)."""

    def __init__(self, prefix: str = "_d"):
        self.prefix = prefix
        self.count = 0

    def fresh(self) -> str:
        self.count += 1
        return "%s%d" % (self.prefix, self.count)


_TERM_TYPES = (
    Var, App, Seq, CaseSum, CasePair, CaseBang, UpdWith, ToAmpar, FromAmpar,
    FromAmparPrime, NewAmpar, FillUnit, FillInl, FillInr, FillPair, FillBang,
    FillFun, FillComp, FillLeaf, Val, Fix, Annot,
) + SUGAR_NODES


# ---------------------------------------------------------------------------
# Node layout and binder scoping: the one table every term walk reads

# binding node -> {term field: the fields naming the variables bound over it}
BINDERS = {
    CaseSum: {"left_body": ("left_var",), "right_body": ("right_var",)},
    CasePair: {"body": ("var1", "var2")},
    CaseBang: {"body": ("var",)},
    UpdWith: {"body": ("var",)},
    FillFun: {"body": ("var",)},
    Fix: {"body": ("var",)},
    LamS: {"body": ("var",)},
}

_LAYOUTS = {}


def field_order(cls) -> tuple:
    """Every constructor field name of a node class, in the order `layout` reads them."""
    return tuple(f.name for f in fields(cls))


def layout(cls):
    """How to take a term node of class `cls` apart and build it again: (get, kids).

    `get(t)` is the tuple of every constructor field of `t` in order, `pos`
    and the elaboration stamps included, so `cls(*get(t))` copies `t`.
    `kids` pairs the index in that tuple of each term field (a field
    declared as a Term) with the indices of the fields naming the
    variables bound over it.
    """
    lay = _LAYOUTS.get(cls)
    if lay is None:
        names = field_order(cls)
        scopes = BINDERS.get(cls, {})
        kids = tuple(
            (i, tuple(names.index(b) for b in scopes.get(f.name, ())))
            for i, f in enumerate(fields(cls))
            if "Term" in f.type
        )
        if len(names) > 1:
            get = operator.attrgetter(*names)
        else:  # attrgetter of a single name returns the value, not a tuple

            def get(t):
                return tuple(getattr(t, n) for n in names)

        lay = _LAYOUTS[cls] = (get, kids)
    return lay


def rebuild(t, go):
    """`t` with `go` applied to each term child; `t` itself when no child changes."""
    get, kids = layout(type(t))
    args = list(get(t))
    changed = False
    for i, _ in kids:
        new = go(args[i])
        if new is not args[i]:
            args[i], changed = new, True
    return type(t)(*args) if changed else t


def map_free_vars(t, fn, bound=frozenset()):
    """`t` with each free variable occurrence `v` replaced by `fn(v)`.

    A binding node is always rebuilt, so no result shares it with `t` (the
    checker stamps elaboration types on nodes); any other node is kept
    when none of its children changes.
    """
    cls = type(t)
    if cls is Var:
        return t if t.name in bound else fn(t)
    get, kids = layout(cls)
    args = list(get(t))
    changed = cls in BINDERS
    for i, scope in kids:
        inner = bound.union([args[j] for j in scope]) if scope else bound
        new = map_free_vars(args[i], fn, inner)
        if new is not args[i]:
            args[i], changed = new, True
    return cls(*args) if changed else t


# ---------------------------------------------------------------------------
# One walk over values and terms

_NO_NAMES = frozenset()
_TERM_KIDS = {}  # term node class -> a function giving a node's term children as a tuple


def _term_kids(cls):
    names = [field_order(cls)[i] for i, _ in layout(cls)[1]]
    if len(names) != 1:
        get = operator.attrgetter(*names) if names else lambda x: ()
    else:  # attrgetter of a single name returns the child, not a tuple
        one = operator.attrgetter(names[0])

        def get(x):
            return (one(x),)

    _TERM_KIDS[cls] = get
    return get


def parts(x):
    """(the hole names `x` binds over its children, its value and term children in order).

    The one statement of what a value node holds and of the names an ampar
    binds; a term node's children are its term fields (`layout`), a `Val`'s
    its value.
    """
    t = type(x)
    if t is PairV:
        return _NO_NAMES, (x.fst, x.snd)
    if t is InlV or t is InrV or t is ModV or t is Val:
        return _NO_NAMES, (x.value,)
    if t is AmparV:
        return x.holes, (x.left, x.right)
    if t is LamV:
        return _NO_NAMES, (x.body,)
    if t is HoleV or t is DestV or t is UnitV:
        return _NO_NAMES, ()
    return _NO_NAMES, (_TERM_KIDS.get(t) or _term_kids(t))(x)


DESCEND = object()  # what a `walk` visitor returns to go into a node's children


def walk(x, enter, leave=None):
    """Visit a value or term depth first, left to right, on a stack of its own.

    `enter(node, bound)` is called on each node reached, where `bound` holds
    the hole names the ampars on the way down bind.  It returns DESCEND to
    visit the node's children next; anything else is the node's result, and
    its children are skipped.  With `leave`, `leave(node, results)` is called
    once the children of a node entered with DESCEND are done, with their
    results in order, and gives the node's result; `walk` returns the
    result of `x`.
    """
    r = enter(x, _NO_NAMES)
    if r is not DESCEND:  # most walks end at their root: build no stack for them
        return r
    stack, out = [], []
    node, bound = x, _NO_NAMES
    while True:  # `node` was entered with DESCEND: its children come next
        binds, kids = parts(node)
        if binds:
            bound = bound | binds
        if leave is not None:
            stack.append((node, len(kids)))
        for k in reversed(kids):
            stack.append((k, bound))
        while True:  # up to the next node entered with DESCEND
            if not stack:
                return out[0] if leave is not None else None
            node, bound = stack.pop()
            if type(bound) is int:  # a node whose `bound` children are done
                n = len(out) - bound
                out[n:] = [leave(node, out[n:])]
                continue
            r = enter(node, bound)
            if r is DESCEND:
                break
            out.append(r)


def remade(x, kids):
    """`x` with its children (as `parts` lists them) replaced by `kids`; `x`
    itself when each is the child it had."""
    old = parts(x)[1]
    if all(map(operator.is_, kids, old)):
        return x
    # `parts` lists the children in field order, and no other field holds a node
    args, j = list(layout(type(x))[0](x)), 0
    for i, f in enumerate(args):
        if j < len(old) and f is old[j]:
            args[i], j = kids[j], j + 1
    return type(x)(*args)


def term_size(t) -> int:
    """Number of term nodes (values count 1; sugar counts pre-expansion)."""
    return walk(t, lambda x, _: 1 if type(x) is Val else DESCEND, lambda _, kids: 1 + sum(kids))


_TYPE_TYPES = (TUnit, TSum, TProd, TBang, TArrow, TDest, TAmpar, TNamed)


def max_age_exponent(t) -> int:
    """Largest finite age exponent in any mode annotation of the term."""
    found = []  # the modes and types of the term's nodes, stamps aside

    def enter(node, _):
        if type(node) is Val:
            return None
        fields = zip(field_order(type(node)), layout(type(node))[0](node))
        found.extend(v for n, v in fields
                     if isinstance(v, (Mode,) + _TYPE_TYPES) and not n.endswith("_"))
        return DESCEND

    walk(t, enter)
    best = 0
    while found:
        x = found.pop()
        if isinstance(x, Mode):
            if x.age != INF:
                best = max(best, int(x.age))
        elif isinstance(x, (TBang, TDest)):
            found += (x.mode, x.inner)
        elif isinstance(x, TArrow):
            found += (x.mode, x.dom, x.cod)
        elif isinstance(x, (TSum, TProd, TAmpar)):
            found += (x.left, x.right)
        elif isinstance(x, TNamed):
            found += x.args
    return best


# ---------------------------------------------------------------------------
# Desugaring

def desugar(t, fresh: Optional[FreshNames] = None, known=None):
    """Expand every sugar constructor into core syntax.

    from'* is kept as the FromAmparPrime node here; `lower_from_prime`
    replaces it by its upd/from/Mod expansion when the primitive is not
    enabled.  Idempotent on core terms.  No node it builds or keeps carries
    an elaboration stamp or a kept typing, which a check of another program
    may have left on a core node of the input, except those of the checked
    copies `known` gives.

    `known(a)` may give, for an `Annot` node `a`, a core term `c` that
    desugaring `a.inner` from a fresh generator builds, and the count `n`
    of names that generator minted.  The inner term then becomes
    `renumbered(c, ...)` and the count moves on by `n`, which equals, field
    by field, what desugaring `a.inner` here would give.
    """
    if fresh is None:
        fresh = FreshNames()

    def dance(fill_of_dest, left_ty=None, pos=None):
        # from'* (upd new* with d -> <fill d>)
        d = fresh.fresh()
        ann = TAmpar(left_ty, TDest(UNIT, left_ty)) if left_ty is not None else None
        return FromAmparPrime(
            UpdWith(NewAmpar(ann, pos=pos), d, fill_of_dest(Var(d, pos=pos)), pos=pos), pos=pos
        )

    def go(t):
        if isinstance(t, UnitS):
            return dance(lambda d: FillUnit(d, pos=t.pos), TUnit(), t.pos)
        if isinstance(t, InlS):
            inner = go(t.inner)
            return dance(lambda d: FillLeaf(FillInl(d, pos=t.pos), inner, pos=t.pos), None, t.pos)
        if isinstance(t, InrS):
            inner = go(t.inner)
            return dance(lambda d: FillLeaf(FillInr(d, pos=t.pos), inner, pos=t.pos), None, t.pos)
        if isinstance(t, ModS):
            inner = go(t.inner)
            return dance(
                lambda d: FillLeaf(FillBang(d, t.mode, pos=t.pos), inner, pos=t.pos), None, t.pos
            )
        if isinstance(t, LamS):
            body = go(t.body)
            return dance(
                lambda d: FillFun(d, t.var, t.mode, body, pos=t.pos), None, t.pos
            )
        if isinstance(t, PairS):
            fst, snd = go(t.fst), go(t.snd)
            d1, d2 = fresh.fresh(), fresh.fresh()
            return dance(
                lambda d: CasePair(
                    UNIT,
                    FillPair(d, pos=t.pos),
                    d1,
                    d2,
                    Seq(FillLeaf(Var(d1), fst, pos=t.pos), FillLeaf(Var(d2), snd, pos=t.pos)),
                    pos=t.pos,
                ),
                None,
                t.pos,
            )
        if isinstance(t, NatLit):
            out = InlS(UnitS(pos=t.pos), pos=t.pos)
            for _ in range(t.value):
                out = InrS(out, pos=t.pos)
            return go(out)
        if isinstance(t, FromPrimeS):
            return FromAmparPrime(go(t.inner), pos=t.pos)
        if known is not None and type(t) is Annot:
            hit = known(t)
            if hit is not None:
                core, names = hit
                inner = renumbered(core, fresh.prefix, fresh.count)
                fresh.count += names
                return Annot(inner, t.ty, pos=t.pos)
        # core nodes: rebuild with desugared children, and without what a check
        # left on them, which belongs to that check's type environment
        return _unchecked(rebuild(t, go))

    return go(t)


_STAMPS = {}  # term node class -> its elaboration stamps: (index in `layout` order, name)


def _unchecked(t):
    """t, or a copy of it without elaboration stamps and kept typing when it has any."""
    cls = type(t)
    stamps = _STAMPS.get(cls)
    if stamps is None:
        stamps = _STAMPS[cls] = tuple(
            (i, n) for i, n in enumerate(field_order(cls)) if n.endswith("_"))
    d = t.__dict__
    if "_typed_" not in d and all(d[n] is None for _, n in stamps):
        return t
    args = list(layout(cls)[0](t))
    for i, _ in stamps:
        args[i] = None
    return cls(*args)


def renumbered(t, prefix: str, shift: int):
    """Core term `t` with every name `<prefix>N` renamed `<prefix>(N+shift)`.

    A node whose subterm holds no such name is kept as it is; every other node
    is new and keeps `pos`, its elaboration stamps and the typing a checker
    kept on it (`_typed_`): it is the same term up to the names of its bound
    variables, so that typing holds for it too.
    """
    if shift == 0:
        return t
    cut = len(prefix)

    def name(x):
        if x.startswith(prefix) and x[cut:].isdigit():
            return prefix + str(int(x[cut:]) + shift)
        return x

    def go(node):
        cls = type(node)
        if cls is Var:
            new = name(node.name)
            return node if new is node.name else Var(new, pos=node.pos)
        get, kids = layout(cls)
        args = list(get(node))
        changed = False
        for i, scope in kids:
            new = go(args[i])
            if new is not args[i]:
                args[i], changed = new, True
            for j in scope:
                new = name(args[j])
                if new is not args[j]:
                    args[j], changed = new, True
        if not changed:
            return node
        out = cls(*args)
        typed = node.__dict__.get("_typed_")
        if typed is not None:
            out.__dict__["_typed_"] = typed
        return out

    return go(t)


def lower_from_prime(t, fresh: Optional[FreshNames] = None):
    """Replace every FromAmparPrime node by its upd/from/Mod expansion.

    Run after type checking (the expansion's case nodes inherit their
    scrutinee types from the recorded ampar left type, so commands built
    from the result stay re-checkable mid-trace).
    """
    if fresh is None:
        fresh = FreshNames("_f")

    def go(node):
        node = rebuild(node, go)
        if not isinstance(node, FromAmparPrime):
            return node
        un, st, ex, un2 = (fresh.fresh() for _ in range(4))
        bang_unit = TBang(ONE_INF, TUnit())
        inner = CaseBang(
            UNIT, Var(ex, pos=node.pos), ONE_INF, un2,
            Seq(Var(un2), Var(st), pos=node.pos), pos=node.pos,
        )
        inner.scrut_ty_ = bang_unit
        outer = CasePair(
            UNIT,
            FromAmpar(
                UpdWith(
                    node.inner, un,
                    Seq(Var(un), Val(ModV(ONE_INF, UnitV())), pos=node.pos),
                    pos=node.pos,
                ),
                pos=node.pos,
            ),
            st, ex, inner, pos=node.pos,
        )
        if node.left_ty_ is not None:
            outer.scrut_ty_ = TProd(node.left_ty_, bang_unit)
        return outer

    return go(t)


def erase_annots(t):
    """Drop checker annotations (t : T) before handing terms to the machine."""

    def go(node):
        node = rebuild(node, go)
        if isinstance(node, Annot):
            return node.inner
        return node

    return go(t)

