"""The one walk over values and terms: deep inputs at the default recursion
limit, and the laws its visitors keep."""

import dataclasses
import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from destcalc import harness as H
from destcalc import machine as M
from destcalc import syntax as S
from destcalc.modes import UNIT
from destcalc.typecheck import Checker, TypeCheckError, _free_holes

N = 5000  # list cells
DEPTH = 3000  # term nesting
NAME = 7
LIST_NAT = S.TNamed("List", (S.TNamed("Nat", ()),))


def deep_list(last):
    """A list of N cells whose elements are Nats but for the last (deepest) one, `last`."""
    return H.encode_list(range(N), lambda i: last if i == N - 1 else H.encode_nat(i % 3))


def elements(v):
    return H.decode_list(v, lambda x: ("hole", x.hole) if type(x) is S.HoleV else H.decode_nat(x))


def expected_elements(last):
    return [i % 3 for i in range(N - 1)] + [last]


def deep_term(bottom):
    """`f (f (... (f bottom)))`, DEPTH applications deep."""
    t = bottom
    for _ in range(DEPTH):
        t = S.App(S.Var("f"), t)
    return t


def bottom_of(t):
    while type(t) is S.App:
        t = t.arg
    return t


@pytest.fixture
def ampar():
    return S.AmparV(frozenset({NAME}), deep_list(S.HoleV(NAME)), S.DestV(NAME))


def test_the_limit_is_the_default():
    assert sys.getrecursionlimit() <= 1000 < 2 * N


def test_hnames_of_deep_inputs(ampar):
    assert M.hnames(ampar) == {NAME}
    assert M.hnames(deep_term(S.Val(S.InlV(S.DestV(NAME))))) == {NAME}


def test_cond_shift_of_deep_inputs(ampar):
    shifted = M.cond_shift(deep_list(S.HoleV(NAME)), frozenset({NAME}), 5)
    assert elements(shifted) == expected_elements(("hole", NAME + 5))
    assert M.cond_shift(ampar, frozenset({NAME}), 5) is ampar  # the ampar binds the name
    t = M.cond_shift(deep_term(S.Val(S.InlV(S.DestV(NAME)))), frozenset({NAME}), 5)
    assert bottom_of(t) == S.Val(S.InlV(S.DestV(NAME + 5)))


def test_canonicalize_deep_ampar(ampar):
    out = M.canonicalize(ampar)
    assert out.holes == frozenset({1}) and out.right == S.DestV(1)
    assert elements(out.left) == expected_elements(("hole", 1))


def test_balance_of_deep_inputs(ampar):
    assert H.scan_balance(M.Command((), S.Val(ampar))).ok
    doubled = S.AmparV(ampar.holes, ampar.left, S.PairV(S.DestV(NAME), S.DestV(NAME)))
    assert H.scan_balance(M.Command((), S.Val(doubled))).failures == [
        (0, "focus: ampar name %d has 1 hole(s) and 2 destination(s)" % NAME)]
    assert H.scan_balance(M.Command((), deep_term(S.Val(ampar)))).ok


def test_occurrences_of_deep_inputs(ampar):
    assert H._occurrences(ampar.left) == ({(NAME, S.HoleV): 1}, {})
    assert H._occurrences(ampar) == ({}, {})  # under its binder
    # a case nested DEPTH deep whose arms each mention the name once: no uneven case
    t = S.Val(S.DestV(NAME))
    for _ in range(DEPTH):
        t = S.CaseSum(UNIT, S.Var("s"), "a", t, "b", S.Val(S.DestV(NAME)))
    assert H._occurrences(t) == ({(NAME, S.DestV): 1}, {})
    uneven = S.CaseSum(UNIT, S.Var("s"), "a", t, "b", S.Val(S.UnitV()))
    assert H._occurrences(uneven) == ({(NAME, S.DestV): 1}, {
        (NAME, S.DestV): ["case branches mention name %d unevenly (1 vs 0)" % NAME]})


def test_step_opens_a_deep_structure():
    open_ampar = M.OpenAmpar(frozenset({NAME}), deep_list(S.HoleV(NAME)))
    cmd = M.Command((open_ampar,), S.FillLeaf(S.Val(S.DestV(NAME)), S.Val(H.encode_nat(2))))
    res = M.step(cmd)
    assert res.rule == "[]E_LC"
    (written,) = res.command.ctx
    assert written.holes == frozenset()
    assert elements(written.left) == expected_elements(2)


def test_term_size_of_deep_term():
    assert S.term_size(deep_term(S.Var("x"))) == 2 * DEPTH + 1


def test_check_of_deep_value_with_free_hole(env):
    with pytest.raises(TypeCheckError) as e:
        Checker(env.tyenv).check_term({}, S.Val(deep_list(S.HoleV(NAME))), LIST_NAT)
    assert e.value.kind == "HoleInTermContext"
    assert e.value.info["holes"] == {NAME}


# -- laws ----------------------------------------------------------------------------

names = st.integers(1, 4)  # few names, so nested ampars often bind one again


def _extend(kids):
    return st.one_of(
        st.builds(S.InlV, kids),
        st.builds(S.InrV, kids),
        st.builds(lambda v: S.ModV(UNIT, v), kids),
        st.builds(S.PairV, kids, kids),
        st.builds(lambda hs, l, r: S.AmparV(frozenset(hs), l, r),
                  st.sets(names, min_size=1, max_size=2), kids, kids),
        st.builds(lambda v: S.LamV("x", UNIT, S.App(S.Var("x"), S.Val(v))), kids),
    )


values = st.recursive(
    st.one_of(st.builds(S.HoleV, names), st.builds(S.DestV, names), st.just(S.UnitV())),
    _extend, max_leaves=10)

# the reference's own statement of the children, by field name
_KIDS = {S.InlV: ("value",), S.InrV: ("value",), S.ModV: ("value",), S.PairV: ("fst", "snd"),
         S.AmparV: ("left", "right"), S.LamV: ("body",), S.App: ("fn", "arg"), S.Val: ("value",)}


def ref_names(x, bound=frozenset()):
    """(names occurring free, every other name) of a small value, by plain recursion."""
    free, other = set(), set()
    if type(x) in (S.HoleV, S.DestV):
        (other if x.hole in bound else free).add(x.hole)
    if type(x) is S.AmparV:
        other |= x.holes
        bound = bound | x.holes
    for f in _KIDS.get(type(x), ()):
        kf, ko = ref_names(getattr(x, f), bound)
        free |= kf
        other |= ko
    return free, other


def alpha(x, offsets):
    """`x` with the names of each ampar in it moved by an offset of its own."""
    kids = {f: alpha(getattr(x, f), offsets) for f in _KIDS.get(type(x), ())}
    x = dataclasses.replace(x, **kids) if kids else x
    if type(x) is S.AmparV:
        d = next(offsets)
        x = S.AmparV(frozenset(h + d for h in x.holes),
                     M.cond_shift(x.left, x.holes, d), M.cond_shift(x.right, x.holes, d))
    return x


LAWS = settings(derandomize=True, max_examples=150, deadline=None)


@LAWS
@given(values, st.sets(names, min_size=1), st.integers(1, 3))
def test_shift_laws(v, holes, k):
    d = M.hmax_value(v) + k  # above every name of v, so the shift meets no other name
    shifted = M.cond_shift(v, frozenset(holes), d)
    assert M.cond_shift(shifted, frozenset(h + d for h in holes), -d) == v
    free, other = ref_names(v)
    assert M.hnames(shifted) == {n + d if n in holes else n for n in free} | other


@LAWS
@given(values)
def test_canonicalize_laws(v):
    canon = M.canonicalize(v)
    assert M.canonicalize(canon) == canon
    assert M.canonicalize(alpha(v, itertools.count(10, 10))) == canon
    assert _free_holes(canon) == _free_holes(v)
    assert ref_names(canon)[0] == ref_names(v)[0]
    balanced = H.scan_balance(M.Command((), S.Val(v))).ok
    assert H.scan_balance(M.Command((), S.Val(canon))).ok == balanced


def _numbered(x, count):
    """A structure with each None replaced by a hole named 100, 101, ..."""
    if x is None:
        return S.HoleV(100 + next(count))
    if type(x) in (S.InlV, S.InrV, S.PairV):
        kids = {f: _numbered(getattr(x, f), count) for f in _KIDS[type(x)]}
        return dataclasses.replace(x, **kids)
    return x


structures = st.recursive(st.one_of(st.none(), values), lambda kids: st.one_of(
    st.builds(S.InlV, kids), st.builds(S.InrV, kids), st.builds(S.PairV, kids, kids)),
    max_leaves=8)


@LAWS
@given(structures)
def test_cells_read_back(x):
    count = itertools.count()
    left = _numbered(x, count)
    holes = frozenset(range(100, 100 + next(count)))
    root, cells, static = M._cells_of(left, holes)
    assert list(cells) == sorted(holes)
    assert M.read_structure(root, cells) == left
    assert static == max(M.hnames(left) - holes, default=0)
