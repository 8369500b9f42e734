"""Deterministic ASCII rendering of modes, types, terms, values, commands.

Program text round-trips: `parse(print_term(t))` rebuilds `t` (positions
aside).  Values and commands use the same operator spellings plus `[]n`
for holes, `->n` for destinations and `{#n ...}/l, r/` for ampars.
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


# Term precedence: 0 = seq/binders, 1 = application, 2 = fill chain, 3 = atom.


def print_term(t, prec: int = 0) -> str:
    if isinstance(t, S.Var):
        return t.name
    if isinstance(t, (S.UnitS,)):
        return "()"
    if isinstance(t, S.NatLit):
        return str(t.value)
    if isinstance(t, S.NewAmpar):
        if t.ann is not None:
            return "(new* : %s)" % print_type(t.ann)
        return "new*"
    if isinstance(t, S.Val):
        return print_value(t.value, 3)
    if isinstance(t, S.Seq):
        s = "%s ; %s" % (print_term(t.first, 1), print_term(t.rest, 0))
        return _paren(s, prec > 0)
    if isinstance(t, S.App):
        s = "%s %s" % (print_term(t.fn, 1), print_term(t.arg, 2))
        return _paren(s, prec > 1)
    if isinstance(t, (S.InlS, S.InrS)):
        tag = "Inl" if isinstance(t, S.InlS) else "Inr"
        # no dedicated surface form; render via an application-style macro
        s = "%s@ %s" % (tag, print_term(t.inner, 3))
        return _paren(s, prec > 1)
    if isinstance(t, S.PairS):
        return "(%s, %s)" % (print_term(t.fst, 0), print_term(t.snd, 0))
    if isinstance(t, S.ModS):
        s = "Mod%s %s" % (str(t.mode), print_term(t.inner, 3))
        return _paren(s, prec > 1)
    if isinstance(t, S.LamS):
        s = "\\%s%s -> %s" % (t.var, _mode_suffix(t.mode), print_term(t.body, 0))
        return _paren(s, prec > 0)
    if isinstance(t, S.FromPrimeS) or isinstance(t, S.FromAmparPrime):
        s = "from'* %s" % print_term(t.inner, 3)
        return _paren(s, prec > 1)
    if isinstance(t, S.ToAmpar):
        return _paren("to* %s" % print_term(t.inner, 3), prec > 1)
    if isinstance(t, S.FromAmpar):
        return _paren("from* %s" % print_term(t.inner, 3), prec > 1)
    if isinstance(t, S.UpdWith):
        s = "upd %s with %s -> %s" % (print_term(t.scrut, 3), t.var, print_term(t.body, 0))
        return _paren(s, prec > 0)
    if isinstance(t, S.FillUnit):
        return _paren("%s <| Unit" % print_term(t.dest, 2), prec > 2)
    if isinstance(t, S.FillInl):
        return _paren("%s <| Inl" % print_term(t.dest, 2), prec > 2)
    if isinstance(t, S.FillInr):
        return _paren("%s <| Inr" % print_term(t.dest, 2), prec > 2)
    if isinstance(t, S.FillPair):
        return _paren("%s <| Pair" % print_term(t.dest, 2), prec > 2)
    if isinstance(t, S.FillBang):
        return _paren("%s <| Mod%s" % (print_term(t.dest, 2), str(t.mode)), prec > 2)
    if isinstance(t, S.FillFun):
        s = "%s <| Fun %s%s -> %s" % (
            print_term(t.dest, 2), t.var, _mode_suffix(t.mode), print_term(t.body, 0),
        )
        return _paren(s, prec > 0)
    if isinstance(t, S.FillComp):
        return _paren("%s <o %s" % (print_term(t.dest, 2), print_term(t.child, 3)), prec > 2)
    if isinstance(t, S.FillLeaf):
        return _paren("%s <! %s" % (print_term(t.dest, 2), print_term(t.arg, 3)), prec > 2)
    if isinstance(t, S.CaseSum):
        s = "case%s %s of { Inl %s -> %s, Inr %s -> %s }" % (
            _mode_suffix(t.mode), print_term(t.scrut, 3), t.left_var,
            print_term(t.left_body, 0), t.right_var, print_term(t.right_body, 0),
        )
        return _paren(s, prec > 0)
    if isinstance(t, S.CasePair):
        s = "case%s %s of (%s, %s) -> %s" % (
            _mode_suffix(t.mode), print_term(t.scrut, 3), t.var1, t.var2, print_term(t.body, 0),
        )
        return _paren(s, prec > 0)
    if isinstance(t, S.CaseBang):
        s = "case%s %s of Mod%s %s -> %s" % (
            _mode_suffix(t.mode), print_term(t.scrut, 3), str(t.inner_mode), t.var,
            print_term(t.body, 0),
        )
        return _paren(s, prec > 0)
    if isinstance(t, S.Fix):
        s = "fix %s : %s -> %s" % (t.var, print_type(t.ann), print_term(t.body, 0))
        return _paren(s, prec > 0)
    if isinstance(t, S.Annot):
        return "(%s : %s)" % (print_term(t.inner, 0), print_type(t.ty))
    raise TypeError("not a term: %r" % (t,))


def print_value(v, prec: int = 0) -> str:
    if isinstance(v, S.UnitV):
        return "()"
    if isinstance(v, S.HoleV):
        return "[]%d" % v.hole
    if isinstance(v, S.DestV):
        return "->%d" % v.hole
    if isinstance(v, S.PairV):
        return "(%s, %s)" % (print_value(v.fst, 0), print_value(v.snd, 0))
    if isinstance(v, S.InlV):
        return _paren("Inl %s" % print_value(v.value, 3), prec > 1)
    if isinstance(v, S.InrV):
        return _paren("Inr %s" % print_value(v.value, 3), prec > 1)
    if isinstance(v, S.ModV):
        return _paren("Mod%s %s" % (str(v.mode), print_value(v.value, 3)), prec > 1)
    if isinstance(v, S.AmparV):
        hs = " ".join("#%d" % h for h in sorted(v.holes))
        return "{%s}/ %s, %s /" % (hs, print_value(v.left, 0), print_value(v.right, 0))
    if isinstance(v, S.LamV):
        return _paren(
            "\\%s%s -> %s" % (v.var, _mode_suffix(v.mode), print_term(v.body, 0)), prec > 0
        )
    raise TypeError("not a value: %r" % (v,))


def print_typedef(td) -> str:
    params = "".join(" " + p for p in td.params)
    if td.body is None:
        return "type %s%s" % (td.name, params)
    return "type %s%s = %s" % (td.name, params, print_type(td.body))


def print_program(prog) -> str:
    """Full-program rendering; parses back to the same Program."""
    lines = []
    for td in prog.type_defs.values():
        lines.append(print_typedef(td))
    for d in prog.term_defs:
        lines.append("def %s : %s =" % (d.name, print_type(d.ann)))
        lines.append("  " + print_term(d.body))
    if prog.main is not None:
        lines.append("main = %s" % prog.main)
    return "\n".join(lines) + "\n"
