"""Typing judgments: terms, values, commands, and their diagnostics."""

import pytest

from destcalc import machine as M
from destcalc import syntax as S
from destcalc.modes import (
    INF, Mode, UNIT, ONE_UP, ONE_INF, MANY_NOW, MANY_INF,
    DestB, HoleB, VarB,
)
from destcalc.parser import TypeDef, parse_term, parse_type
from destcalc.typecheck import Checker, TypeCheckError, TypeEnv

from conftest import frame_of

DEFS = {
    "T": TypeDef("T", (), None),
    "U": TypeDef("U", (), None),
    "Bool": TypeDef("Bool", (), parse_type("1 + 1")),
    "Nat": TypeDef("Nat", (), parse_type("1 + Nat")),
    "List": TypeDef("List", ("a",), parse_type("1 + (a * List a)")),
}
T = S.TNamed("T", ())


@pytest.fixture()
def ck():
    return Checker(TypeEnv(DEFS))


def check(ck, src, expected=None, gamma=None):
    t = S.desugar(parse_term(src))
    want = parse_type(expected) if expected else None
    return ck.check_term(gamma or {}, t, want)


def reject(ck, src, kind, expected=None, gamma=None):
    with pytest.raises(TypeCheckError) as e:
        check(ck, src, expected, gamma)
    assert e.value.kind == kind, e.value
    return e.value


def test_fill_then_use_needs_inf_age(ck):
    gamma = {"d": VarB(UNIT, S.TDest(UNIT, T)), "x": VarB(MANY_INF, T)}
    ty = ck.check_term(gamma, S.desugar(parse_term("d <! x ; x")))
    assert ck.tyenv.equal(ty, T)
    gamma["x"] = VarB(UNIT, T)
    with pytest.raises(TypeCheckError) as e:
        ck.check_term(gamma, S.desugar(parse_term("d <! x ; x")))
    assert e.value.kind == "AgeEscape"


def test_cons_types_like_the_worked_derivation(ck):
    ty = check(
        ck,
        r"""\x -> \xs -> from'* (upd new* with d ->
              case (d <| Inr <| Pair) of (dx, dxs) -> dx <! x ; dxs <! xs)""",
        "T -o List T -o List T",
    )
    assert ck.tyenv.equal(ty, parse_type("T -o List T -o List T"))


def test_new_ampar_requires_annotation(ck):
    reject(ck, "upd new* with d -> d <| Unit", "ArityOrFormError")
    ty = check(ck, "upd (new* : 1 >< Dest 1) with d -> d <| Unit")
    assert ck.tyenv.equal(ty, parse_type("1 >< 1"))
    reject(ck, "upd (new* : 1 >< Dest T) with d -> d <| Unit", "ArityOrFormError")


def test_unused_bindings(ck):
    gamma = {"x": VarB(MANY_NOW, S.TUnit()), "y": VarB(UNIT, S.TUnit())}
    # unused w-binding is fine once the 1-binding is consumed
    ty = ck.check_term({"x": VarB(MANY_NOW, S.TUnit())}, S.desugar(parse_term("()")))
    assert isinstance(ck.tyenv.head(ty), S.TUnit)
    with pytest.raises(TypeCheckError) as e:
        ck.check_term(gamma, S.desugar(parse_term("x")))
    assert e.value.kind == "ModeNotAchievable"  # y unused but linear


def test_weakening_discipline(ck):
    # adding an unused w-binding never changes the verdict
    src = r"\x -> x"
    t1 = S.desugar(parse_term(src))
    ty = ck.check_term({}, t1, parse_type("T -o T"))
    t2 = S.desugar(parse_term(src))
    ty2 = ck.check_term({"junk": VarB(Mode("w", 3), T)}, t2, parse_type("T -o T"))
    assert ck.tyenv.equal(ty, ty2)


def test_case_modes(ck):
    # branch sharing: a name used in one branch only must be droppable in the other
    gamma = {"b": VarB(UNIT, S.TNamed("Bool", ())), "x": VarB(UNIT, S.TUnit())}
    ty = ck.check_term(
        gamma, S.desugar(parse_term("case b of { Inl u -> u ; x, Inr u -> u ; x }"))
    )
    assert isinstance(ck.tyenv.head(ty), S.TUnit)
    gamma = {"b": VarB(UNIT, S.TNamed("Bool", ())), "x": VarB(UNIT, S.TUnit())}
    with pytest.raises(TypeCheckError):
        ck.check_term(
            gamma, S.desugar(parse_term("case b of { Inl u -> u ; x, Inr u -> u }"))
        )


def test_case_bang_binder_mode(ck):
    ty = check(ck, r"\mx -> case mx of Mod [w inf] x -> (x, x)",
               "(![w inf] T) -o (T * T)")
    assert isinstance(ck.tyenv.head(ty), S.TArrow)
    reject(ck, r"\mx -> case mx of Mod [1 ^0] x -> (x, x)",
           "ModeNotAchievable", "(![1 ^0] T) -o (T * T)")


def test_fill_comp_requires_unit_hole_mode(ck):
    gamma = {
        "d": VarB(UNIT, S.TDest(MANY_NOW, T)),
        "a": VarB(UNIT, S.TAmpar(T, S.TDest(UNIT, T))),
    }
    with pytest.raises(TypeCheckError) as e:
        ck.check_term(gamma, S.desugar(parse_term("d <o a")))
    assert e.value.kind == "DestInnerModeNot1v"


def test_from_ampar_requires_banged_right(ck):
    gamma = {"a": VarB(UNIT, parse_type("T >< Dest T"))}
    with pytest.raises(TypeCheckError) as e:
        ck.check_term(gamma, S.desugar(parse_term("from* a")))
    assert e.value.kind == "AmparRightNotUnitOrBang"
    gamma = {"a": VarB(UNIT, parse_type("T >< (![1 inf] 1)"))}
    ty = ck.check_term(gamma, S.desugar(parse_term("from* a")))
    assert ck.tyenv.equal(ty, parse_type("T * (![1 inf] 1)"))


def test_unknown_var(ck):
    reject(ck, "nope", "UnknownVar")


def test_hole_in_term_context(ck):
    with pytest.raises(TypeCheckError) as e:
        ck.check_term({7: HoleB(T, UNIT)}, S.Var("x"))
    assert e.value.kind == "HoleInTermContext"
    with pytest.raises(TypeCheckError) as e:
        ck.check_command(M.Command((), S.Val(S.HoleV(3))), T)
    assert e.value.kind == "HoleInTermContext"


# -- value typing -----------------------------------------------------------------


def test_value_examples(ck):
    assert isinstance(ck.tyenv.head(ck.check_value({}, S.UnitV())), S.TUnit)
    ty = ck.check_value({7: HoleB(T, UNIT)}, S.HoleV(7))
    assert ck.tyenv.equal(ty, T)
    # identity ampar under annotation
    ty = ck.check_value(
        {}, S.AmparV(frozenset({1}), S.HoleV(1), S.DestV(1)),
        S.TAmpar(T, S.TDest(UNIT, T)),
    )
    assert isinstance(ck.tyenv.head(ty), S.TAmpar)


def test_hole_binding_is_exact(ck):
    # a hole may not be coerced: mode must be exactly 1v at its use
    with pytest.raises(TypeCheckError):
        ck.check_value({7: HoleB(T, MANY_NOW)}, S.HoleV(7))
    # behind a matching Mod it types
    ty = ck.check_value({7: HoleB(T, MANY_NOW)}, S.ModV(MANY_NOW, S.HoleV(7)))
    assert isinstance(ck.tyenv.head(ty), S.TBang)


def test_value_context_must_be_consumed(ck):
    with pytest.raises(TypeCheckError):
        ck.check_value({7: HoleB(T, UNIT)}, S.UnitV())


def test_dest_coercion_counter(ck):
    # IDD allows 1v <= m coercion; the stats record when it is exercised
    ty = ck.check_value({7: DestB(MANY_INF, T, UNIT)}, S.DestV(7))
    assert isinstance(ck.tyenv.head(ty), S.TDest)
    assert ck.stats.dest_coercions == 1
    # a lambda that fills the destination, checked twice on one checker: the
    # second check types its body afresh, and no cache may swallow the
    # coercion or count it again
    ck = Checker(ck.tyenv)
    lam = S.LamV("x", UNIT, S.Seq(S.Var("x"), S.FillUnit(S.Val(S.DestV(7)))))
    theta = {7: DestB(MANY_INF, S.TUnit(), UNIT)}
    counts = []
    for _ in range(2):
        ck.check_value(theta, lam, parse_type("1 -o 1"))
        counts.append(ck.stats.dest_coercions)
    assert counts == [1, 2]


def test_lambda_value_must_not_capture(ck):
    lam = S.LamV("x", UNIT, S.Seq(S.Var("x"), S.Var("y")))
    with pytest.raises(TypeCheckError):
        ck.check_value({}, lam, parse_type("1 -o 1"))


# -- evaluation contexts and commands ------------------------------------------------


def test_check_evalctx_empty(ck):
    delta, focus_ty, final_ty = ck.check_evalctx((), T)
    assert delta == {} and ck.tyenv.equal(focus_ty, T) and ck.tyenv.equal(final_ty, T)


def test_check_evalctx_open_ampar(ck):
    ctx = (M.OpenAmpar(frozenset({2}), S.HoleV(2)),)
    delta, focus_ty, final_ty = ck.check_evalctx(ctx, S.TAmpar(T, S.TDest(UNIT, T)))
    assert delta == {2: DestB(UNIT, T, UNIT)}
    assert ck.tyenv.equal(focus_ty, S.TDest(UNIT, T))


def test_check_evalctx_disjointness(ck):
    ctx = (
        M.OpenAmpar(frozenset({2}), S.HoleV(2)),
        M.OpenAmpar(frozenset({2}), S.HoleV(2)),
    )
    with pytest.raises(TypeCheckError) as e:
        ck.check_command(M.Command(ctx, S.Val(S.UnitV())), None)
    assert e.value.kind == "DisjointnessViolation"


def test_component_term_is_retyped_when_its_bindings_change(ck):
    # one `[] ; rest` frame under two open ampars whose hole ->1 has different types
    rest = frame_of(S.Seq(None, S.FillUnit(S.Val(S.DestV(1)))), "first")
    cmd = M.Command((M.OpenAmpar(frozenset({1}), S.HoleV(1)), rest), S.Val(S.UnitV()))
    unit_amp = S.TAmpar(S.TUnit(), S.TUnit())
    assert ck.tyenv.equal(ck.check_command(cmd, unit_amp), unit_amp)
    assert ck.tyenv.equal(ck.check_command(cmd, unit_amp), unit_amp)
    with pytest.raises(TypeCheckError) as e:
        ck.check_command(cmd, S.TAmpar(parse_type("1 + 1"), S.TUnit()))
    assert e.value.kind == "TypeMismatch"
    # and a failure is not remembered as a result
    with pytest.raises(TypeCheckError):
        ck.check_command(cmd, S.TAmpar(parse_type("1 + 1"), S.TUnit()))


def test_check_command_golden_origin(ck):
    body = S.CasePair(
        UNIT, S.FillPair(S.FillInr(S.Var("d"))), "dx", "dxs",
        S.Seq(S.FillLeaf(S.Var("dx"), S.Val(S.UnitV())),
              S.FillLeaf(S.Var("dxs"), S.Val(S.InlV(S.UnitV())))),
    )
    prog = S.FromAmparPrime(S.UpdWith(S.NewAmpar(None), "d", body))
    ty = ck.check_command(M.Command((), prog), parse_type("List 1"))
    assert ck.tyenv.equal(ty, parse_type("List 1"))
    # plain closed value commands synthesize
    ty = ck.check_command(M.Command((), S.Val(S.UnitV())), None)
    assert isinstance(ck.tyenv.head(ty), S.TUnit)


def test_equirecursive_type_equality(ck):
    nat = S.TNamed("Nat", ())
    assert ck.tyenv.equal(nat, parse_type("1 + Nat"))
    assert ck.tyenv.equal(parse_type("List Nat"), parse_type("1 + (Nat * List Nat)"))
    assert not ck.tyenv.equal(nat, parse_type("1 + 1"))
    # modes in types compare exactly
    assert not ck.tyenv.equal(parse_type("T -o[1 inf] T"), parse_type("T -o T"))


def test_fix_requires_unrestricted_captures(ck):
    gamma = {"d": VarB(UNIT, S.TDest(UNIT, T))}
    with pytest.raises(TypeCheckError):
        ck.check_term(
            gamma,
            S.desugar(parse_term(r"fix f : (1 -o 1) -> \u -> u ; d <! (f ())")),
        )


def test_value_and_term_checking_agree_on_plain_values(ck):
    # hole- and destination-free values type the same through both judgments
    for v, ty in [
        (S.UnitV(), parse_type("1")),
        (S.InrV(S.PairV(S.UnitV(), S.InlV(S.UnitV()))), parse_type("List 1")),
        (S.ModV(MANY_INF, S.UnitV()), parse_type("![w inf] 1")),
    ]:
        tv = ck.check_value({}, v, ty)
        tt = ck.check_term({}, S.Val(v), ty)
        assert ck.tyenv.equal(tv, tt)


def test_synonym_cycle_raises_on_every_head():
    tyenv = TypeEnv({"A": TypeDef("A", (), S.TNamed("B", ())),
                     "B": TypeDef("B", (), S.TNamed("A", ()))})
    for _ in range(2):
        with pytest.raises(TypeCheckError) as e:
            tyenv.head(S.TNamed("A", ()))
        assert e.value.kind == "ArityOrFormError"
        assert "cycle" in str(e.value)


def test_head_is_kept_per_type_env(ck):
    nat = S.TNamed("Nat", ())
    first = ck.tyenv.head(nat)
    assert first == parse_type("1 + Nat")
    assert ck.tyenv.head(nat) is first
    assert Checker(TypeEnv(DEFS)).tyenv.head(nat) is not first
