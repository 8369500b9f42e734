"""Mode semiring laws and mode-set operations."""

from hypothesis import given, strategies as st

from destcalc.modes import (
    INF, Mode, UNIT, ONE_UP, ONE_INF, MANY_INF,
    mode_plus, mode_times, mode_leq,
    ms_close, ms_image, ms_preimage, USE_SET,
)

AGES = list(range(9)) + [INF]
modes = st.builds(Mode, st.sampled_from(["1", "w"]), st.sampled_from(AGES))


def test_paper_examples():
    # table entries and the worked derivation values
    assert mode_plus(UNIT, ONE_UP) == MANY_INF
    assert mode_plus(Mode("1", 2), Mode("1", 2)) == Mode("w", 2)
    assert mode_plus(MANY_INF, MANY_INF) == MANY_INF
    assert mode_times(Mode("1", 1), Mode("1", 2)) == Mode("1", 3)
    assert mode_times(UNIT, Mode("w", 5)) == Mode("w", 5)
    assert mode_times(MANY_INF, Mode("1", 5)) == MANY_INF
    assert mode_leq(UNIT, MANY_INF)
    assert not mode_leq(ONE_UP, UNIT)
    assert not mode_leq(Mode("1", 1), Mode("1", 2))  # finite ages incomparable


@given(modes, modes)
def test_plus_commutative(m, n):
    assert mode_plus(m, n) == mode_plus(n, m)


@given(modes, modes, modes)
def test_plus_associative(m, n, k):
    assert mode_plus(mode_plus(m, n), k) == mode_plus(m, mode_plus(n, k))


@given(modes, modes, modes)
def test_times_associative(m, n, k):
    assert mode_times(mode_times(m, n), k) == mode_times(m, mode_times(n, k))


@given(modes)
def test_times_unit(m):
    assert mode_times(UNIT, m) == m
    assert mode_times(m, UNIT) == m


@given(modes, modes, modes)
def test_distributivity(n, m1, m2):
    assert mode_times(n, mode_plus(m1, m2)) == mode_plus(mode_times(n, m1), mode_times(n, m2))


@given(modes, modes, modes)
def test_order_preservation(m, mp, k):
    if mode_leq(m, mp):
        assert mode_leq(mode_times(k, m), mode_times(k, mp))
        assert mode_leq(mode_plus(m, k), mode_plus(mp, k))


@given(modes)
def test_leq_reflexive(m):
    assert mode_leq(m, m)


def test_mode_set_ops():
    s = frozenset({UNIT, ONE_INF})
    assert ms_image(ONE_UP, s) == frozenset({ONE_UP, ONE_INF})
    assert ms_preimage(ONE_UP, frozenset({ONE_UP})) == frozenset({UNIT})
    assert ms_preimage(ONE_UP, frozenset({UNIT})) == frozenset()
    assert ms_preimage(ONE_UP, USE_SET) == frozenset({ONE_INF, MANY_INF})
    assert MANY_INF in ms_close(frozenset({UNIT}))
    assert Mode("w", 0) in ms_close(frozenset({UNIT}))

