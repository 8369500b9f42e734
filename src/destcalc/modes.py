"""Mode semiring (multiplicity x age), mode sets and bindings.

A mode is a pair of a multiplicity (1 or w) and an age (a finite scope
distance ^k, or inf for scope-insensitive data).  Modes annotate every
binding; typing contexts are finite maps from names to bindings.  Names
are plain Python values: `str` for term variables, `int` for hole names,
so the two namespaces cannot collide.  The checker never adds or scales
contexts: it works on the sets of modes each name can achieve
(`ms_sum`, `ms_image`, `ms_preimage`, `ms_close`).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Union

from .records import record

ONE = "1"
MANY = "w"

INF = float("inf")

Age = Union[int, float]  # a natural exponent, or INF
Name = Union[str, int]  # str: variable name, int: hole name


@record(frozen=True, slots=True)
class Mode:
    mult: str  # ONE | MANY
    age: Age

    def __str__(self) -> str:
        age = "inf" if self.age == INF else "^%d" % self.age
        return "[%s %s]" % (self.mult, age)


UNIT = Mode(ONE, 0)  # 1v, the semiring unit ("now", linear)
ONE_UP = Mode(ONE, 1)
ONE_INF = Mode(ONE, INF)
MANY_NOW = Mode(MANY, 0)
MANY_INF = Mode(MANY, INF)


def mult_plus(p: str, q: str) -> str:
    # 1+1 = w; w absorbs
    return MANY


def mult_times(p: str, q: str) -> str:
    return ONE if p == ONE and q == ONE else MANY


def age_plus(a: Age, b: Age) -> Age:
    if a == b and a != INF:
        return a
    return INF


def age_times(a: Age, b: Age) -> Age:
    if a == INF or b == INF:
        return INF
    return a + b


def age_leq(a: Age, b: Age) -> bool:
    # finite ages form a flat order below inf
    return a == b or b == INF


def mode_plus(m: Mode, n: Mode) -> Mode:
    return Mode(mult_plus(m.mult, n.mult), age_plus(m.age, n.age))


def mode_times(m: Mode, n: Mode) -> Mode:
    return Mode(mult_times(m.mult, n.mult), age_times(m.age, n.age))


def mode_leq(m: Mode, n: Mode) -> bool:
    mult_ok = m.mult == n.mult or (m.mult == ONE and n.mult == MANY)
    return mult_ok and age_leq(m.age, n.age)


# ---------------------------------------------------------------------------
# Mode sets (achievable-usage sets for the algorithmic checker)

ModeSet = FrozenSet[Mode]

# Modes m with 1v <= m: what a single plain use of a binding can demand.
USE_SET: ModeSet = frozenset({UNIT, MANY_NOW, ONE_INF, MANY_INF})


_MS_SUM_CACHE = {}
_MS_IMAGE_CACHE = {}
_MS_CLOSE_CACHE = {}


def ms_sum(a: ModeSet, b: ModeSet) -> ModeSet:
    key = (a, b)
    out = _MS_SUM_CACHE.get(key)
    if out is None:
        out = frozenset(mode_plus(m, n) for m in a for n in b)
        _MS_SUM_CACHE[key] = out
    return out


def ms_image(c: Mode, s: ModeSet) -> ModeSet:
    key = (c, s)
    out = _MS_IMAGE_CACHE.get(key)
    if out is None:
        out = frozenset(mode_times(c, m) for m in s)
        _MS_IMAGE_CACHE[key] = out
    return out


def ms_preimage(c: Mode, s: ModeSet) -> ModeSet:
    """All m with c*m in s.  Only meaningful for finite-age scalars c."""
    if c.age == INF:
        raise ValueError("preimage under an inf-age scalar is unbounded")
    out = set()
    for t in s:
        for mult in (ONE, MANY):
            if mult_times(c.mult, mult) != t.mult:
                continue
            if t.age == INF:
                out.add(Mode(mult, INF))
            elif t.age >= c.age:
                out.add(Mode(mult, int(t.age - c.age)))
    return frozenset(out)


def ms_close(s: ModeSet) -> ModeSet:
    """Close a usage set under extra discards of the same name.

    A weakening leaf can always absorb the name once more at mode (w, a)
    for an arbitrary age a; summing that into an achieved mode m yields
    (w, age(m)) when ages agree and (w, inf) otherwise.
    """
    if not s:
        return s
    out = _MS_CLOSE_CACHE.get(s)
    if out is None:
        extra = {Mode(MANY, m.age) for m in s}
        extra.add(MANY_INF)
        out = s | frozenset(extra)
        _MS_CLOSE_CACHE[s] = out
    return out


def discardable(m: Mode) -> bool:
    """Whether a binding of mode m may go entirely unused."""
    return m.mult == MANY


# ---------------------------------------------------------------------------
# Bindings and typing contexts.  Types are opaque payloads here.


@record(frozen=True, slots=True)
class VarB:
    mode: Mode
    ty: Any


@record(frozen=True, slots=True)
class DestB:
    """->h :_mode |_hole_mode ty|  (a destination binding)."""

    mode: Mode
    ty: Any
    hole_mode: Mode


@record(frozen=True, slots=True)
class HoleB:
    """[]h :_hole_mode ty  (a hole binding, value contexts only)."""

    ty: Any
    hole_mode: Mode


Binding = Union[VarB, DestB, HoleB]
TypingContext = Dict[Name, Binding]
