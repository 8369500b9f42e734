"""Desugaring and syntax utilities."""

from destcalc import machine as M
from destcalc import syntax as S
from destcalc.modes import Mode, UNIT, ONE_INF
from destcalc.parser import parse_term


def test_desugar_unit():
    t = S.desugar(S.UnitS())
    # from'* (upd new* with d -> d <| Unit)
    assert isinstance(t, S.FromAmparPrime)
    upd = t.inner
    assert isinstance(upd, S.UpdWith) and isinstance(upd.scrut, S.NewAmpar)
    assert upd.scrut.ann == S.TAmpar(S.TUnit(), S.TDest(UNIT, S.TUnit()))
    assert isinstance(upd.body, S.FillUnit)


def test_desugar_pair_shape():
    t = S.desugar(S.PairS(S.Var("a"), S.Var("b")))
    upd = t.inner
    case = upd.body
    assert isinstance(case, S.CasePair) and isinstance(case.scrut, S.FillPair)
    seq = case.body
    assert isinstance(seq, S.Seq)
    assert isinstance(seq.first, S.FillLeaf) and seq.first.arg == S.Var("a")


def test_desugar_nat_literal():
    t = S.desugar(S.NatLit(2))
    # two Inr fills around an Inl of unit; count the fill constructors
    names = []

    S.walk(t, lambda x, _: names.append(type(x).__name__) or S.DESCEND)
    assert names.count("FillInr") == 2 and names.count("FillInl") == 1


def test_desugar_idempotent_on_core():
    t = S.desugar(parse_term(r"\x -> from'* (upd (new* : 1 >< Dest 1) with d -> d <! x)"))
    assert S.desugar(t) == t


def test_desugar_introduces_no_values():
    t = S.desugar(parse_term(r"(\x -> x) ((), 2)"))

    vals = []
    S.walk(t, lambda x, _: vals.append(x) if isinstance(x, S.Val) else S.DESCEND)
    assert not vals


def test_constructor_recovery():
    # evaluating the desugared pair of two values rebuilds the pair value
    v1, v2 = S.InlV(S.UnitV()), S.UnitV()
    t = S.desugar(S.PairS(S.Val(v1), S.Val(v2)))
    res = M.run_term(S.lower_from_prime(t), 10**4)
    assert isinstance(res, M.Finished)
    assert M.canonicalize(res.value) == S.PairV(v1, v2)


def test_lower_from_prime_shape():
    t = S.desugar(S.UnitS())
    low = S.lower_from_prime(t)
    assert isinstance(low, S.CasePair)
    assert isinstance(low.scrut, S.FromAmpar)
    inner = low.body
    assert isinstance(inner, S.CaseBang) and inner.inner_mode == ONE_INF
    # and it still evaluates to the same value
    res = M.run_term(low, 10**4)
    assert res.value == S.UnitV()


def test_free_vars():
    fv = M.free_vars_cached
    assert fv(S.Var("x")) == {"x"}
    assert fv(S.Val(S.LamV("x", UNIT, S.Var("x")))) == set()
    assert fv(S.FillLeaf(S.Var("d"), S.Var("x"))) == {"d", "x"}
    t = S.desugar(parse_term(r"\x -> y ; x"))
    assert fv(t) == {"y"}
    t = S.desugar(parse_term("case p of (a, b) -> (b, a) ; c"))
    assert fv(t) == {"p", "c"}


def test_term_size_and_ages():
    t = parse_term(r"\x [1 ^3] -> x")
    assert S.max_age_exponent(t) == 3
    assert S.term_size(S.Var("x")) == 1


def test_erase_annots():
    t = S.Annot(S.Var("x"), S.TUnit())
    assert S.erase_annots(t) == S.Var("x")
    t2 = S.Seq(S.Annot(S.UnitS(), S.TUnit()), S.Var("y"))
    assert S.erase_annots(t2) == S.Seq(S.UnitS(), S.Var("y"))
