"""What the record classes of `syntax` and `modes` promise: equality, hashing, freezing, repr."""

import pytest

from destcalc import syntax as S
from destcalc.modes import DestB, HoleB, Mode, ONE_INF, UNIT, VarB

x, d, u = S.Var("x"), S.Var("d"), S.UnitV()
unit = S.TUnit()

# one node of every term and value class
NODES = [
    S.Var("x"), S.App(S.Var("f"), x), S.Seq(S.Var("u"), x),
    S.CaseSum(UNIT, S.Var("s"), "a", S.Var("a"), "b", S.Var("b")),
    S.CasePair(UNIT, S.Var("p"), "a", "b", S.Var("a")),
    S.CaseBang(UNIT, S.Var("m"), ONE_INF, "a", S.Var("a")),
    S.UpdWith(S.Var("t"), "d", d), S.ToAmpar(x), S.FromAmpar(x), S.FromAmparPrime(x),
    S.NewAmpar(S.TAmpar(unit, S.TDest(UNIT, unit))), S.FillUnit(d), S.FillInl(d),
    S.FillInr(d), S.FillPair(d), S.FillBang(d, ONE_INF), S.FillFun(d, "x", UNIT, x),
    S.FillComp(d, S.Var("t")), S.FillLeaf(d, S.Var("t")), S.Val(u),
    S.Fix("f", S.TArrow(unit, UNIT, unit), S.Var("f")), S.Annot(x, unit),
    S.UnitS(), S.InlS(x), S.InrS(x), S.PairS(S.Var("a"), S.Var("b")), S.ModS(UNIT, x),
    S.LamS("x", UNIT, x), S.FromPrimeS(x), S.NatLit(3),
    S.HoleV(1), S.DestV(1), S.AmparV(frozenset({1}), S.HoleV(1), S.DestV(1)), u,
    S.InlV(u), S.InrV(u), S.ModV(UNIT, u), S.PairV(u, S.InlV(u)), S.LamV("x", UNIT, x),
]

# one instance of every type class, and the modes and bindings
FROZEN = [
    unit, S.TSum(unit, unit), S.TProd(unit, S.TNamed("Nat")), S.TBang(ONE_INF, unit),
    S.TArrow(unit, UNIT, unit), S.TDest(UNIT, unit), S.TAmpar(unit, S.TDest(UNIT, unit)),
    S.TNamed("List", (S.TNamed("Nat"),)),
    UNIT, ONE_INF, VarB(UNIT, unit), DestB(UNIT, unit, ONE_INF), HoleB(unit, UNIT),
]

# the repr of each node above with a position and every stamp set, and of each
# instance in FROZEN, as printed when these classes were `dataclasses`
REPRS = [
    "Var(name='x')",
    "App(fn=Var(name='f'), arg=Var(name='x'))",
    "Seq(first=Var(name='u'), rest=Var(name='x'))",
    "CaseSum(mode=Mode(mult='1', age=0), scrut=Var(name='s'), left_var='a', left_body=Var(name='a'), right_var='b', right_body=Var(name='b'))",
    "CasePair(mode=Mode(mult='1', age=0), scrut=Var(name='p'), var1='a', var2='b', body=Var(name='a'))",
    "CaseBang(mode=Mode(mult='1', age=0), scrut=Var(name='m'), inner_mode=Mode(mult='1', age=inf), var='a', body=Var(name='a'))",
    "UpdWith(scrut=Var(name='t'), var='d', body=Var(name='d'))",
    "ToAmpar(inner=Var(name='x'))",
    "FromAmpar(inner=Var(name='x'))",
    "FromAmparPrime(inner=Var(name='x'))",
    "NewAmpar(ann=TAmpar(left=TUnit(), right=TDest(mode=Mode(mult='1', age=0), inner=TUnit())))",
    "FillUnit(dest=Var(name='d'))",
    "FillInl(dest=Var(name='d'))",
    "FillInr(dest=Var(name='d'))",
    "FillPair(dest=Var(name='d'))",
    "FillBang(dest=Var(name='d'), mode=Mode(mult='1', age=inf))",
    "FillFun(dest=Var(name='d'), var='x', mode=Mode(mult='1', age=0), body=Var(name='x'))",
    "FillComp(dest=Var(name='d'), child=Var(name='t'))",
    "FillLeaf(dest=Var(name='d'), arg=Var(name='t'))",
    'Val(value=UnitV())',
    "Fix(var='f', ann=TArrow(dom=TUnit(), mode=Mode(mult='1', age=0), cod=TUnit()), body=Var(name='f'))",
    "Annot(inner=Var(name='x'), ty=TUnit())",
    'UnitS()',
    "InlS(inner=Var(name='x'))",
    "InrS(inner=Var(name='x'))",
    "PairS(fst=Var(name='a'), snd=Var(name='b'))",
    "ModS(mode=Mode(mult='1', age=0), inner=Var(name='x'))",
    "LamS(var='x', mode=Mode(mult='1', age=0), body=Var(name='x'))",
    "FromPrimeS(inner=Var(name='x'))",
    'NatLit(value=3)',
    'HoleV(hole=1)',
    'DestV(hole=1)',
    'AmparV(holes=frozenset({1}), left=HoleV(hole=1), right=DestV(hole=1))',
    'UnitV()',
    'InlV(value=UnitV())',
    'InrV(value=UnitV())',
    "ModV(mode=Mode(mult='1', age=0), value=UnitV())",
    'PairV(fst=UnitV(), snd=InlV(value=UnitV()))',
    "LamV(var='x', mode=Mode(mult='1', age=0), body=Var(name='x'))",
    'TUnit()',
    'TSum(left=TUnit(), right=TUnit())',
    "TProd(left=TUnit(), right=TNamed(name='Nat', args=()))",
    "TBang(mode=Mode(mult='1', age=inf), inner=TUnit())",
    "TArrow(dom=TUnit(), mode=Mode(mult='1', age=0), cod=TUnit())",
    "TDest(mode=Mode(mult='1', age=0), inner=TUnit())",
    "TAmpar(left=TUnit(), right=TDest(mode=Mode(mult='1', age=0), inner=TUnit()))",
    "TNamed(name='List', args=(TNamed(name='Nat', args=()),))",
    "Mode(mult='1', age=0)",
    "Mode(mult='1', age=inf)",
    "VarB(mode=Mode(mult='1', age=0), ty=TUnit())",
    "DestB(mode=Mode(mult='1', age=0), ty=TUnit(), hole_mode=Mode(mult='1', age=inf))",
    "HoleB(ty=TUnit(), hole_mode=Mode(mult='1', age=0))",
]


def test_samples_cover_every_class():
    assert {type(n) for n in NODES} == set(S._TERM_TYPES) | set(S._VALUE_TYPES)
    assert {type(t) for t in FROZEN} == set(S._TYPE_TYPES) | {Mode, VarB, DestB, HoleB}


def _marked(node):
    """`node` copied with `pos` and every elaboration stamp set."""
    names = S.field_order(type(node))
    args = [(1, 2) if n == "pos" else unit if n.endswith("_") else v
            for n, v in zip(names, S.layout(type(node))[0](node))]
    return type(node)(*args)


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_node_equality_ignores_positions_and_stamps(node):
    copy = _marked(node)
    assert copy == node and not copy != node
    assert copy is not node
    with pytest.raises(TypeError):
        hash(node)


def test_node_equality_reads_the_other_fields():
    assert S.App(S.Var("f"), x) != S.App(S.Var("g"), x)
    assert S.FillBang(d) != S.FillBang(d, ONE_INF)
    assert S.FillInl(d) != S.FillInr(d)  # same fields, another class
    assert S.LamV("x", UNIT, x) != S.LamV("y", UNIT, x)


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_types_modes_and_bindings_hash_and_are_frozen(value):
    cls = type(value)
    copy = cls(*(getattr(value, n) for n in S.field_order(cls)))
    assert copy == value and hash(copy) == hash(value) and hash(value) == hash(value)
    assert hash(value) == hash(tuple(getattr(value, n) for n in S.field_order(cls)))
    assert {value: 1}[copy] == 1
    for name in S.field_order(cls) + ("anything",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    # the hash each kept is no field: neither equality nor repr reads it
    assert cls(*(getattr(value, n) for n in S.field_order(cls))) == value
    assert "_hash" not in repr(value)


def test_reprs_are_unchanged():
    got = [repr(_marked(n)) for n in NODES] + [repr(v) for v in FROZEN]
    assert got == REPRS
