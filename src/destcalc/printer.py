"""Deterministic ASCII rendering of modes, types, terms, values, commands.

Program text round-trips: `parse_term(print_term(t))` rebuilds `t` and
`parse_type(print_type(ty))` rebuilds `ty` (positions aside).  Values and
commands use the same operator spellings plus `[]n` for holes, `->n` for
destinations and `{#n ...}/l, r/` for ampars.

Terms and values print by one walk on `syntax.walk`'s own stack, so deep
input does not exhaust Python's recursion limit.  A table of forms kept
for the commands of one trace (`form`) lets each command format only the
nodes new in it.
"""

from __future__ import annotations

from .modes import Mode, UNIT
from . import syntax as S


def print_mode(m: Mode) -> str:
    return str(m)


def _mode_suffix(m: Mode) -> str:
    return "" if m == UNIT else str(m)


def print_type(ty, prec: int = 0) -> str:
    # precedence: 0 arrow, 1 ampar, 2 sum, 3 prod, 4 prefix, 5 atom
    if isinstance(ty, S.TUnit):
        return "1"
    if isinstance(ty, S.TNamed):
        if not ty.args:
            return ty.name
        s = ty.name + " " + " ".join(print_type(a, 5) for a in ty.args)
        return _paren(s, prec > 4)
    if isinstance(ty, S.TArrow):
        mode = "" if ty.mode == UNIT else str(ty.mode)
        s = "%s -o%s %s" % (print_type(ty.dom, 1), mode, print_type(ty.cod, 0))
        return _paren(s, prec > 0)
    if isinstance(ty, S.TAmpar):
        s = "%s >< %s" % (print_type(ty.left, 2), print_type(ty.right, 2))
        return _paren(s, prec > 1)
    if isinstance(ty, S.TSum):
        s = "%s + %s" % (print_type(ty.left, 3), print_type(ty.right, 2))
        return _paren(s, prec > 2)
    if isinstance(ty, S.TProd):
        s = "%s * %s" % (print_type(ty.left, 4), print_type(ty.right, 3))
        return _paren(s, prec > 3)
    if isinstance(ty, S.TBang):
        s = "!%s %s" % (str(ty.mode), print_type(ty.inner, 5))
        return _paren(s, prec > 4)
    if isinstance(ty, S.TDest):
        mode = "" if ty.mode == UNIT else str(ty.mode)
        s = "Dest%s %s" % (mode, print_type(ty.inner, 5))
        return _paren(s, prec > 4)
    raise TypeError("not a type: %r" % (ty,))


def _paren(s: str, need: bool) -> str:
    return "(" + s + ")" if need else s


# A node's form is the entry (node, text, level): the text needs parentheses
# where a precedence above its level is asked for.  Term and value
# precedence: 0 = seq/binders, 1 = application, 2 = fill chain, 3 = atom.
#
# A text is a string, or a rope: a tuple of texts that `_flat` joins.  A node
# whose text is short joins it at once; a longer one keeps its children's
# texts, so a table of forms holds each printed character about twice at
# most, not once per node above it, and printing stays linear in the
# text's length.

_SHORT = 1024  # the longest text kept as one string


def _flat(text) -> str:
    """The string a text stands for."""
    if type(text) is str:
        return text
    out, todo = [], [text]
    while todo:
        x = todo.pop()
        if type(x) is str:
            out.append(x)
        else:
            todo.extend(reversed(x))
    return "".join(out)


def _text(pieces: tuple):
    """A node's text from its pieces, neighbouring strings joined: one string
    when that is all and short, else a rope."""
    out, run = [], []
    for p in pieces:
        if type(p) is str:
            run.append(p)
            continue
        closing = type(p) is list  # a rope in parentheses
        if closing:
            run.append("(")
            p = p[1]
        if run:
            out.append("".join(run))
            run = []
        out.append(p)
        if closing:
            run.append(")")
    if run:
        out.append("".join(run))
    if len(out) == 1 and type(out[0]) is str and len(out[0]) <= _SHORT:
        return out[0]
    return tuple(out)


def _at(f, prec: int):
    """The text of form f printed at precedence `prec`; a rope in parentheses is
    a list, which `_text` takes apart."""
    text = f[1]
    if prec <= f[2]:
        return text
    return "(" + text + ")" if type(text) is str else ["(", text, ")"]


def _fill(suffix):
    return 2, lambda t, k: (_at(k[0], 2), " <| " + suffix)


def _prefixed(word):
    return 1, lambda t, k: (word, _at(k[0], 3))


# leaf class -> (level, its string)
_LEAVES = {
    S.Var: (3, lambda t: t.name),
    S.UnitS: (3, lambda t: "()"),
    S.NatLit: (3, lambda t: str(t.value)),
    S.NewAmpar: (3, lambda t: "new*" if t.ann is None else "(new* : %s)" % print_type(t.ann)),
    S.UnitV: (3, lambda v: "()"),
    S.HoleV: (3, lambda v: "[]%d" % v.hole),
    S.DestV: (3, lambda v: "->%d" % v.hole),
}

# node class -> (level, its pieces from the forms of its children, in `syntax.parts` order)
_JOINS = {
    S.Val: (3, lambda t, k: (_at(k[0], 3),)),
    S.Seq: (0, lambda t, k: (_at(k[0], 1), " ; ", _at(k[1], 0))),
    S.App: (1, lambda t, k: (_at(k[0], 1), " ", _at(k[1], 2))),
    # no dedicated surface form for a term injection; an application-style macro
    S.InlS: _prefixed("Inl@ "),
    S.InrS: _prefixed("Inr@ "),
    S.PairS: (3, lambda t, k: ("(", _at(k[0], 0), ", ", _at(k[1], 0), ")")),
    S.ModS: (1, lambda t, k: ("Mod%s " % t.mode, _at(k[0], 3))),
    S.LamS: (0, lambda t, k: ("\\%s%s -> " % (t.var, _mode_suffix(t.mode)), _at(k[0], 0))),
    S.FromPrimeS: _prefixed("from'* "),
    S.FromAmparPrime: _prefixed("from'* "),
    S.ToAmpar: _prefixed("to* "),
    S.FromAmpar: _prefixed("from* "),
    S.UpdWith: (0, lambda t, k: ("upd ", _at(k[0], 3), " with %s -> " % t.var, _at(k[1], 0))),
    S.FillUnit: _fill("Unit"),
    S.FillInl: _fill("Inl"),
    S.FillInr: _fill("Inr"),
    S.FillPair: _fill("Pair"),
    S.FillBang: (2, lambda t, k: (_at(k[0], 2), " <| Mod%s" % t.mode)),
    S.FillFun: (0, lambda t, k: (
        _at(k[0], 2), " <| Fun %s%s -> " % (t.var, _mode_suffix(t.mode)), _at(k[1], 0))),
    S.FillComp: (2, lambda t, k: (_at(k[0], 2), " <o ", _at(k[1], 3))),
    S.FillLeaf: (2, lambda t, k: (_at(k[0], 2), " <! ", _at(k[1], 3))),
    S.CaseSum: (0, lambda t, k: (
        "case%s " % _mode_suffix(t.mode), _at(k[0], 3), " of { Inl %s -> " % t.left_var,
        _at(k[1], 0), ", Inr %s -> " % t.right_var, _at(k[2], 0), " }")),
    S.CasePair: (0, lambda t, k: (
        "case%s " % _mode_suffix(t.mode), _at(k[0], 3),
        " of (%s, %s) -> " % (t.var1, t.var2), _at(k[1], 0))),
    S.CaseBang: (0, lambda t, k: (
        "case%s " % _mode_suffix(t.mode), _at(k[0], 3),
        " of Mod%s %s -> " % (t.inner_mode, t.var), _at(k[1], 0))),
    S.Fix: (0, lambda t, k: ("fix %s : %s -> " % (t.var, print_type(t.ann)), _at(k[0], 0))),
    S.Annot: (3, lambda t, k: ("(", _at(k[0], 0), " : %s)" % print_type(t.ty))),
    S.PairV: (3, lambda v, k: ("(", _at(k[0], 0), ", ", _at(k[1], 0), ")")),
    S.InlV: _prefixed("Inl "),
    S.InrV: _prefixed("Inr "),
    S.ModV: (1, lambda v, k: ("Mod%s " % v.mode, _at(k[0], 3))),
    S.AmparV: (3, lambda v, k: (
        "{%s}/ " % " ".join("#%d" % h for h in sorted(v.holes)), _at(k[0], 0), ", ",
        _at(k[1], 0), " /")),
    S.LamV: (0, lambda v, k: ("\\%s%s -> " % (v.var, _mode_suffix(v.mode)), _at(k[0], 0))),
}


def form(x, forms=None):
    """The form of a term or value, by a walk on `syntax.walk`'s own stack.

    `forms` is a table of known forms keyed on node identity (each entry
    holds its node, so no identity is reused while the table lives); the
    walk stops at the nodes it holds and adds the nodes it formats.  A
    node's printed form depends on nothing but the node itself, as long as
    no checker annotates a `new*` in it; keep one table for the commands of
    one trace and no longer.
    """
    if forms is None:
        forms = {}
    get = forms.get

    def enter(y, _):
        known = get(id(y))
        if known is not None:
            return known
        leaf = _LEAVES.get(type(y))
        if leaf is None:
            if type(y) not in _JOINS:
                raise TypeError("not a term or value: %r" % (y,))
            return S.DESCEND
        out = forms[id(y)] = (y, leaf[1](y), leaf[0])
        return out

    def leave(y, kids):
        level, join = _JOINS[type(y)]
        out = forms[id(y)] = (y, _text(join(y, kids)), level)
        return out

    return S.walk(x, enter, leave)


def print_term(t, prec: int = 0, forms=None) -> str:
    return _flat(_at(form(t, forms), prec))


def print_value(v, prec: int = 0, forms=None) -> str:
    return _flat(_at(form(v, forms), prec))

