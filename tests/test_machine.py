"""Small-step machine: rules, environments and read-back, shifts, the worked trace."""

import pytest

from destcalc import harness as H
from destcalc import machine as M
from destcalc import syntax as S
from destcalc.modes import Mode, UNIT, ONE_INF
from destcalc.parser import parse_term
from destcalc.printer import print_value

from conftest import app_chain, frame_of, plain_fv, plain_hmax, run_ok


def golden_term():
    body = S.CasePair(
        UNIT, S.FillPair(S.FillInr(S.Var("d"))), "dx", "dxs",
        S.Seq(S.FillLeaf(S.Var("dx"), S.Val(S.UnitV())),
              S.FillLeaf(S.Var("dxs"), S.Val(S.InlV(S.UnitV())))),
    )
    return S.FromAmparPrime(S.UpdWith(S.NewAmpar(None), "d", body))


def test_worked_trace_rules_and_value():
    res = M.run_term(golden_term(), 1000)
    assert isinstance(res, M.Finished)
    rules = [r for r, _ in res.trace.steps]
    assert rules[:5] == ["⋉FROM′F", "⋉UPDF", "⋉NEWC", "⋉UPDU", "⋉OP"]
    assert rules[-3:] == ["⋉CL", "⋉FROM′U", "⋉FROM′C"]
    assert res.value == S.InrV(S.PairV(S.UnitV(), S.InlV(S.UnitV())))


def test_worked_trace_hole_numerals():
    res = M.run_term(golden_term(), 1000)
    minted, seen = [], set()
    for _, cmd in res.trace.steps:
        names = M.hnames(cmd)
        minted += sorted(names - seen)
        seen |= names
    assert minted == [1, 2, 4, 6, 7]


def test_new_ampar_rule():
    res = M.step(M.Command((), S.NewAmpar(None)))
    assert isinstance(res, M.Stepped) and res.rule == "⋉NEWC"
    amp = res.command.focus.value
    assert "_shape" in amp.__dict__ and "left" not in amp.__dict__  # built as one cell
    assert res.command.focus == S.Val(S.AmparV(frozenset({1}), S.HoleV(1), S.DestV(1)))


def test_final_and_stuck():
    assert isinstance(M.step(M.Command((), S.Val(S.UnitV()))), M.Final)
    bad = M.Command((), S.CaseSum(UNIT, S.Val(S.UnitV()), "x", S.Var("x"), "y", S.Var("y")))
    assert isinstance(M.step(bad), M.Stuck)


_UNIT = S.Val(S.UnitV())


def _ampar(right):
    return S.Val(S.AmparV(frozenset(), S.UnitV(), right))


# one command per guarded contraction, its slots holding values the guard rejects
_FAILED_GUARDS = {
    "app of a non-lambda": S.App(_UNIT, _UNIT),
    "Mod case of another mode": S.CaseBang(UNIT, S.Val(S.ModV(ONE_INF, S.UnitV())), UNIT, "x",
                                           S.Var("x")),
    "from* of a unit right side": S.FromAmpar(_ampar(S.UnitV())),
    "from* of a Mod right side of another mode": S.FromAmpar(_ampar(S.ModV(UNIT, S.UnitV()))),
    "from'* of a non-unit right side": S.FromAmparPrime(_ampar(S.ModV(ONE_INF, S.UnitV()))),
    "<o of a non-ampar": S.FillComp(S.Val(S.DestV(1)), _UNIT),
    "<o into a non-destination": S.FillComp(_UNIT, _ampar(S.UnitV())),
    "<! into a non-destination": S.FillLeaf(_UNIT, _UNIT),
    "<| into a non-destination": S.FillInl(_UNIT),
    "upd of a non-ampar": S.UpdWith(_UNIT, "d", S.Var("d")),
    "pair case of a non-pair": S.CasePair(UNIT, _UNIT, "a", "b", S.Var("a")),
    "sequence after a non-unit": S.Seq(S.Val(S.DestV(1)), _UNIT),
}


@pytest.mark.parametrize("name", sorted(_FAILED_GUARDS))
def test_failed_guard_is_stuck(name):
    cmd = M.Command((), _FAILED_GUARDS[name])
    assert isinstance(M.step(cmd), M.Stuck)
    assert M.applicable_rules(cmd) == []


def test_star_side_condition():
    # a focusing rule never fires once the would-be focus is a value
    t = S.FillInl(S.Val(S.DestV(3)))
    ctx = (M.OpenAmpar(frozenset({3}), S.HoleV(3)),)
    res = M.step(M.Command(ctx, t))
    assert res.rule == "[⊕]E₁C"  # direct contraction, no [⊕]E₁F push


def test_subst_var():
    # reading a term back under an environment puts in each bound variable's value
    assert M.read_back(S.Var("x"), {"x": S.UnitV()}) == S.Val(S.UnitV())
    lam = S.Val(S.LamV("x", UNIT, S.Var("x")))
    assert M.read_back(lam, {"x": S.UnitV()}) is lam  # values stay closed
    shadowed = parse_term(r"case p of (x, y) -> x")
    out = M.read_back(shadowed, {"x": S.UnitV()})
    assert out.body == S.Var("x")  # binder shadows
    t = S.FillLeaf(S.Var("d"), S.Var("x"))
    out = M.read_back(t, {"x": S.InlV(S.UnitV())})
    assert out == S.FillLeaf(S.Var("d"), S.Val(S.InlV(S.UnitV())))


@pytest.mark.parametrize("src", [
    r"f x y",
    r"case s of { Inl x -> x y, Inr y -> x y }",  # each arm shadows one of the two
    r"case s of (x, z) -> x y",
    r"f x",
    r"f y",
    r"f z",
])
def test_subst_var_two_bindings_in_one_pass(src):
    # an environment of two bindings reads back as one substitution after the other
    t, a, b = parse_term(src), S.InlV(S.HoleV(3)), S.DestV(5)
    out = M.read_back(t, {"x": a, "y": b})
    assert out == M.read_back(M.read_back(t, {"x": a}), {"y": b})
    nodes = []
    S.walk(out, lambda node, _: nodes.append(node) or S.DESCEND)
    for node in nodes:
        if isinstance(node, S._TERM_TYPES):  # every term node, the rebuilt ones among them
            _caches_hold(node)
    # `⊗EC` on a pattern that names one variable twice binds the first half
    both = M.step(M.Command((), S.CasePair(UNIT, S.Val(S.PairV(a, b)), "x", "x", t)))
    assert both.command.focus == M.read_back(t, {"x": a})


X, U = S.Var("x"), S.UnitV()
T = S.TNamed("T", ())


def _caches_hold(node):
    assert M.free_vars_cached(node) == plain_fv(node, {})
    assert M.hmax_value(node) == plain_hmax(node, {})


@pytest.mark.parametrize("term, kept", [
    (S.CaseSum(UNIT, X, "x", X, "y", X), ("left_body",)),
    (S.CaseSum(UNIT, X, "y", X, "x", X), ("right_body",)),
    (S.CaseSum(UNIT, X, "y", X, "z", X), ()),
    (S.CasePair(UNIT, X, "x", "y", X), ("body",)),
    (S.CasePair(UNIT, X, "y", "x", X), ("body",)),
    (S.CasePair(UNIT, X, "y", "z", X), ()),
    (S.CaseBang(UNIT, X, ONE_INF, "x", X), ("body",)),
    (S.UpdWith(X, "x", X), ("body",)),
    (S.FillFun(X, "x", UNIT, X), ("body",)),
    (S.FillFun(X, "y", UNIT, X), ()),
])
def test_subst_stops_at_each_binder(term, kept):
    stamp = S.TSum(S.TUnit(), S.TUnit())
    for f in ("scrut_ty_", "param_ty_"):
        if hasattr(term, f):
            setattr(term, f, stamp)
    term.pos = (3, 4)
    out = M.read_back(term, {"x": S.InlV(S.DestV(7))})
    for f in S.field_order(type(term)):
        old, new = getattr(term, f), getattr(out, f)
        if not isinstance(old, S._TERM_TYPES):
            assert new == old
        elif f in kept:
            assert new is old
        else:
            assert new == S.Val(S.InlV(S.DestV(7)))
    assert out.pos == (3, 4)
    assert all(getattr(out, f) is stamp for f in ("scrut_ty_", "param_ty_") if hasattr(out, f))
    _caches_hold(out)


def test_subst_unrolls_fix():
    fx = S.Fix("f", T, S.Seq(S.Val(S.DestV(5)), S.App(S.Var("f"), S.Var("f"))))
    unrolled = {"f": fx}
    out = M.read_back(fx.body, unrolled)
    assert out == S.Seq(S.Val(S.DestV(5)), S.App(fx, fx))
    assert out.rest.fn is fx and out.rest.arg is fx
    _caches_hold(out)
    _caches_hold(out.rest)
    inner = S.Fix("f", T, S.Var("f"))  # an inner fix of the same name shadows it
    assert M.read_back(inner, unrolled) is inner
    res = M.step(M.Command((), fx))
    assert res.rule == "fixC" and res.command.focus == out
    # `fixC` builds no node: the focus is the fix's own body, with f bound to the fix
    st, rules = M._State.load(M.Command((), fx)), []
    assert st.run(1, rules.append) is None and rules == ["fixC"]
    assert st.focus is fx.body and st.env["f"] is fx
    _caches_hold(res.command.focus)


def _fun_prog(body):
    """`d <| Fun z -> body` under a `case` that binds a and b, in a new ampar."""
    return S.FromAmparPrime(S.UpdWith(S.NewAmpar(None), "d", S.CasePair(
        UNIT, S.Val(S.PairV(S.UnitV(), S.InlV(S.UnitV()))), "a", "b",
        S.Seq(S.Var("a"), S.FillFun(S.Var("d"), "z", UNIT, body)))))


def test_stuck_reason_reads_the_focus_back():
    lam = S.LamV("x", UNIT, S.CaseSum(UNIT, S.Val(S.UnitV()), "a", S.Seq(S.Var("a"), S.Var("x")),
                                     "b", S.Seq(S.Var("b"), S.Var("x"))))
    res = M.run_term(S.App(S.Val(lam), S.Val(S.InlV(S.DestV(4)))))
    assert isinstance(res, M.StuckAt) and len(res.trace.steps) == 1
    assert res.reason == ("no rule applies to focus "
                          "(case () of { Inl a -> a ; (Inl ->4), Inr b -> b ; (Inl ->4) })")
    assert res.command.focus.left_body.rest == S.Val(S.InlV(S.DestV(4)))


def test_fun_closes_over_what_a_case_binds():
    res = run_ok(_fun_prog(S.Seq(S.Var("z"), S.Var("b"))))
    assert len(res.trace.steps) == 11
    assert print_value(res.value) == r"\z -> z ; (Inl ())"


def test_open_lambda_names_only_unbound_variables():
    with pytest.raises(M.OpenLambda) as info:
        M.run_term(_fun_prog(S.Seq(S.Var("z"), S.Seq(S.Var("q"), S.Var("b")))))
    assert str(info.value) == "lambda value must be closed; free: q"
    assert info.value.names == {"q"}


def test_open_lambda_names_the_unbound_variables_of_a_fix_it_reads():
    # the body reads f, which `fixC` binds to its fix node, in which q is free
    fix = S.Fix("f", T, S.Seq(S.FillFun(S.Var("d"), "z", UNIT, S.Var("f")), S.Var("q")))
    with pytest.raises(M.OpenLambda) as info:
        M.run_term(S.UpdWith(S.NewAmpar(None), "d", fix))
    assert str(info.value) == "lambda value must be closed; free: q"
    assert info.value.names == {"q"}


def _lazy_lambda():
    """`\\z -> z ; a` as the machine builds it with a bound to destination 4, unread."""
    lam = run_ok(S.FromAmparPrime(S.UpdWith(S.NewAmpar(None), "d", S.CasePair(
        UNIT, S.Val(S.PairV(S.DestV(4), S.UnitV())), "a", "b",
        S.Seq(S.Var("b"), S.FillFun(S.Var("d"), "z", UNIT, S.Seq(S.Var("z"), S.Var("a")))))))).value
    assert "_closure" in lam.__dict__ and "body" not in lam.__dict__
    return lam


def test_walks_rebuild_a_lazy_lambda_as_its_classic_copy():
    c = _lazy_lambda().__dict__["_closure"]
    classic = S.LamV("z", UNIT, M.read_back(c.term, c.env))
    shifted = M.cond_shift(_lazy_lambda(), frozenset({4}), 3)
    assert shifted == M.cond_shift(classic, frozenset({4}), 3)
    assert print_value(shifted) == print_value(M.cond_shift(classic, frozenset({4}), 3))
    assert shifted.body.rest == S.Val(S.DestV(7))
    for holes in ({4}, {5}):  # the ampar binds the lambda's destination, or another name
        amp = lambda lam: S.AmparV(frozenset(holes), S.PairV(lam, S.HoleV(5)), S.DestV(5))
        canon = M.canonicalize(amp(_lazy_lambda()))
        assert canon == M.canonicalize(amp(classic))
        assert print_value(canon) == print_value(M.canonicalize(amp(classic)))


def test_free_vars_share_sets():
    fv = M.free_vars_cached
    a, b = S.Var("x"), S.Var("x")
    assert fv(a) is fv(b)
    t = S.App(a, S.Val(S.UnitV()))
    assert fv(t) is fv(a)  # a union that adds nothing keeps the child's set
    body = S.Seq(S.Var("y"), S.Var("y"))
    assert fv(S.UpdWith(S.Var("y"), "z", body)) is fv(S.Var("y"))  # nor does a binder
    assert fv(S.Val(S.UnitV())) is fv(S.NewAmpar(None)) is fv(S.Fix("y", T, body))


def test_map_over_500_elements(env):
    # the machine's value walks keep their own stack: no RecursionError on long lists
    xs = [i % 10 for i in range(500)]
    res = run_ok(app_chain(S.App(env.runnable("mapN"), env.runnable("succ")), H.encode_list(xs)))
    assert H.decode_list(res.value) == [x + 1 for x in xs]
    assert M.hmax_value(res.value) == 0


def test_shift_ops():
    assert M.cond_shift(S.InlV(S.HoleV(3)), frozenset({3}), 5) == S.InlV(S.HoleV(8))
    assert M.cond_shift(S.DestV(7), frozenset({3}), 5) == S.DestV(7)
    # an inner closed ampar binds its own names: they do not shift
    v = S.AmparV(frozenset({3}), S.HoleV(3), S.DestV(3))
    assert M.cond_shift(v, frozenset({3}), 5) == v
    wrapped = S.PairV(S.HoleV(3), v)
    out = M.cond_shift(wrapped, frozenset({3}), 5)
    assert out == S.PairV(S.HoleV(8), v)


def test_hnames():
    assert M.hnames(S.AmparV(frozenset({1}), S.HoleV(1), S.DestV(1))) == {1}
    assert M.hnames(()) == set()
    ctx = (frame_of(S.FromAmparPrime(None), "inner"),
           M.OpenAmpar(frozenset({6, 7}), S.InrV(S.PairV(S.HoleV(6), S.HoleV(7)))))
    assert M.hnames(ctx) == {6, 7}


def test_hole_subst():
    # a write goes into the hole's cell of the open ampar binding it, and rebinds new holes
    ctx = (M.OpenAmpar(frozenset({2}), S.HoleV(2)),)
    res = M.step(M.Command(ctx, S.FillInr(S.Val(S.DestV(2)))))
    assert res.command.ctx == (M.OpenAmpar(frozenset({4}), S.InrV(S.HoleV(4))),)
    res = M.step(M.Command(res.command.ctx, S.FillUnit(S.Val(S.DestV(4)))))
    assert res.command.ctx == (M.OpenAmpar(frozenset(), S.InrV(S.UnitV())),)
    with pytest.raises(M.HoleNotFound):
        M.step(M.Command(ctx, S.FillUnit(S.Val(S.DestV(9)))))


def test_hole_needs_exactly_one_cell():
    twice = M.OpenAmpar(frozenset({2}), S.PairV(S.HoleV(2), S.HoleV(2)))
    never = M.OpenAmpar(frozenset({2, 3}), S.HoleV(2))
    for comp in (twice, never):
        with pytest.raises(M.HoleNotFound):
            M.step(M.Command((comp,), S.FillUnit(S.Val(S.DestV(2)))))


def test_open_lambda_raises():
    ctx = (M.OpenAmpar(frozenset({1}), S.HoleV(1)),)
    t = S.FillFun(S.Val(S.DestV(1)), "x", UNIT, S.Var("y"))
    with pytest.raises(M.OpenLambda):
        M.step(M.Command(ctx, t))


def test_name_clash_raises():
    o = M.OpenCells(M.Cell(), {}, 0)
    o.bind(3, M.Cell())
    with pytest.raises(M.NameClash):
        o.bind(3, M.Cell())


def test_shared_ampar_opens_independently():
    # the first open writes the closed ampar's cells in place, the second copies them
    res = M.run_term(S.UpdWith(S.NewAmpar(None), "d", S.Var("d")), 100)
    amp = S.Val(res.value)
    first = M.run_term(S.UpdWith(amp, "d", S.FillInl(S.Var("d"))), 100)
    second = M.run_term(
        S.FromAmparPrime(S.UpdWith(amp, "d", S.FillLeaf(S.Var("d"), S.Val(S.UnitV())))), 100)
    assert first.value == S.AmparV(frozenset({5}), S.InlV(S.HoleV(5)), S.DestV(5))
    assert second.value == S.UnitV()
    assert res.value == S.AmparV(frozenset({2}), S.HoleV(2), S.DestV(2))
    # the same for the one cell `new*` builds
    new = M.run_term(S.NewAmpar(None), 10).value
    shape = new.__dict__["_shape"]
    fill = S.UpdWith(S.Val(new), "d", S.FillInl(S.Var("d")))
    first = M.run_term(fill, 100)
    assert shape.taken and type(shape.root.value) is S.InlV  # written in place
    second = M.run_term(fill, 100)
    assert first.value == second.value == S.AmparV(frozenset({4}), S.InlV(S.HoleV(4)), S.DestV(4))
    assert first.value.__dict__["_shape"].root is shape.root
    assert second.value.__dict__["_shape"].root is not shape.root  # a copy
    assert new == S.AmparV(frozenset({1}), S.HoleV(1), S.DestV(1))


def test_holeless_open_renames_and_copies_nothing():
    # opening an ampar with no holes renames nothing; value and rules are as before
    v = S.PairV(S.UnitV(), S.InrV(S.UnitV()))
    built = M.run_term(S.UpdWith(S.ToAmpar(S.Val(v)), "u", S.Var("u")), 100)
    assert [r for r, _ in built.trace.steps] == ["⋉UPDF", "⋉TOC", "⋉UPDU", "⋉OP", "⋉CL"]
    assert built.value == S.AmparV(frozenset(), v, S.UnitV())
    opened = ["⋉OP", "⋉CL", "⋉FROM′U", "⋉FROM′C"]
    for amp, rules in ((S.ToAmpar(S.Val(v)), ["⋉FROM′F", "⋉UPDF", "⋉TOC", "⋉UPDU"] + opened),
                       (S.Val(built.value), ["⋉FROM′F"] + opened),
                       (S.Val(built.value), ["⋉FROM′F"] + opened)):
        res = M.run_term(S.FromAmparPrime(S.UpdWith(amp, "u", S.Var("u"))), 100)
        assert [r for r, _ in res.trace.steps] == rules
        assert res.value is v
    root = built.value.__dict__["_shape"].root
    for _ in range(2):  # no cell of it is ever written, so no open copies it
        again = M.run_term(S.UpdWith(S.Val(built.value), "u", S.Var("u")), 100)
        assert again.value.__dict__["_shape"].root is root
    # under an open ampar with a live hole, nothing is renamed either
    ctx = (M.OpenAmpar(frozenset({4}), S.HoleV(4)),)
    res = M.step(M.Command(ctx, S.UpdWith(S.Val(built.value), "u", S.Var("u"))))
    assert res.rule == "⋉OP" and res.command.ctx[-1] == M.OpenAmpar(frozenset(), v)
    assert res.command.focus == S.Val(S.UnitV())


def test_read_structure_returns_a_written_leaf():
    leaf = S.InlV(S.PairV(S.UnitV(), S.DestV(3)))
    assert M.read_structure(M.Cell(leaf), {}) is leaf
    hole = M.Cell(leaf)  # a written cell still named as a hole reads as that hole
    assert M.read_structure(hole, {2: hole}) == S.HoleV(2)


def test_run_keeps_no_commands():
    res = M.run_term(S.Fix("x", S.TNamed("T", ()), S.Var("x")), 100)
    steps = res.trace.steps
    assert len(steps) == 100 and steps._steps is None
    assert steps[0][0] == "fixC" and len(steps._steps) == 100


def test_run_out_of_fuel_on_divergence():
    t = S.Fix("x", S.TNamed("T", ()), S.Var("x"))
    res = M.run_term(t, 100)
    assert isinstance(res, M.OutOfFuel)
    assert len(res.trace.steps) == 100


def test_canonicalize():
    v = S.AmparV(frozenset({9}), S.HoleV(9), S.DestV(9))
    assert M.canonicalize(v) == S.AmparV(frozenset({1}), S.HoleV(1), S.DestV(1))
    plain = S.InrV(S.PairV(S.UnitV(), S.InlV(S.UnitV())))
    assert M.canonicalize(plain) == plain
    res = M.run_term(golden_term(), 1000)
    assert M.canonicalize(M.canonicalize(res.value)) == M.canonicalize(res.value)
    # alpha-equivalent values canonicalize identically
    a = S.AmparV(frozenset({5, 9}), S.PairV(S.HoleV(5), S.HoleV(9)),
                 S.PairV(S.DestV(5), S.DestV(9)))
    b = S.AmparV(frozenset({2, 3}), S.PairV(S.HoleV(2), S.HoleV(3)),
                 S.PairV(S.DestV(2), S.DestV(3)))
    assert M.canonicalize(a) == M.canonicalize(b)


def test_determinism_scan_on_trace():
    res = M.run_term(golden_term(), 1000)
    for _, cmd in res.trace.steps:
        final = M.is_val(cmd.focus) and not cmd.ctx
        rules = M.applicable_rules(cmd)
        assert len(rules) == (0 if final else 1)


def test_open_renames_fresh():
    # opening the same closed ampar twice mints disjoint hole names
    amp = S.Val(S.AmparV(frozenset({1}), S.HoleV(1), S.DestV(1)))
    t = S.UpdWith(amp, "d", S.FillLeaf(S.Var("d"), S.Val(S.UnitV())))
    res = M.step(M.Command((M.OpenAmpar(frozenset({2}), S.HoleV(2)),), t))
    assert res.rule == "⋉OP"
    opened = res.command.ctx[-1]
    assert opened.holes == frozenset({3})  # fresh past the live {2}
