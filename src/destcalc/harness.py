"""Dynamic metatheory checks over traces, plus value encodings and test inputs.

The harness re-derives, per trace command, what the safety theorems
promise: the command types at the unchanged program type (preservation),
exactly one rule applies to every non-final command (progress and
determinism), and every hole-name binder pairs one hole with one
destination (balance).  The rest runs library definitions on Python data:
value encoders and decoders, the native breadth-first relabeling that
`relabel` results are compared with, and seeded random inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from . import machine as M
from . import syntax as S
from .typecheck import Checker, TypeCheckError


@dataclass
class Verdict:
    ok: bool
    failures: List[Tuple[int, str]] = field(default_factory=list)

    @classmethod
    def from_failures(cls, failures):
        return cls(not failures, list(failures))


def _trace_commands(tr: M.Trace):
    yield 0, tr.origin
    for i, (_, cmd) in enumerate(tr.steps, start=1):
        yield i, cmd


def check_preservation(tr: M.Trace, checker: Checker, expected_ty=None) -> Verdict:
    """Every command of the trace types at the origin's type."""
    failures = []
    try:
        ty = checker.check_command(tr.origin, expected_ty)
    except TypeCheckError as e:
        return Verdict(False, [(0, "origin does not typecheck: %s" % e)])
    for i, cmd in _trace_commands(tr):
        if i == 0:
            continue
        try:
            ty_i = checker.check_command(cmd, ty)
        except TypeCheckError as e:
            failures.append((i, "command no longer typechecks: %s" % e))
            break
        if not checker.tyenv.equal(ty_i, ty):
            failures.append((i, "type changed"))
            break
    return Verdict.from_failures(failures)


def check_progress_determinism(tr: M.Trace) -> Verdict:
    """No stuck commands, and never a second applicable rule."""
    failures = []
    commands = list(_trace_commands(tr))
    for idx, (i, cmd) in enumerate(commands):
        final = M.is_val(cmd.focus) and not cmd.ctx
        rules = M.applicable_rules(cmd)
        if final:
            if rules:
                failures.append((i, "final command still has applicable rules"))
            continue
        if not rules:
            failures.append((i, "stuck: no rule applies"))
            continue
        if len(rules) > 1:
            failures.append((i, "determinism violation: %s" % rules))
            continue
        if idx + 1 < len(commands):
            recorded = tr.steps[idx][0]
            if recorded != rules[0]:
                failures.append((i, "recorded rule %s but scan finds %s" % (recorded, rules[0])))
    return Verdict.from_failures(failures)


# -- balance ------------------------------------------------------------------


def _occurrences(x):
    """Every hole and destination name in a value or term, counted in one walk.

    Gives (counts, problems): `counts` maps (name, kind), kind S.HoleV or
    S.DestV, to the occurrences that no ampar on the way binds.  The two arms
    of a sum case are alternatives: exactly one will run, so they must
    mention a name equally often, and count once jointly; `problems` maps
    (name, kind) to the messages of the cases whose arms do not.
    """
    problems: dict = {}

    def enter(y, bound):
        t = type(y)
        if t is S.HoleV or t is S.DestV:
            return None if y.hole in bound else {(y.hole, t): 1}
        if t is S.UnitV or M.hmax_value(y) == 0:  # names start at 1: no name below
            return None
        return S.DESCEND

    def leave(y, kids):  # a node's counts: its first child's that has any, the others added in
        if type(y) is S.CaseSum:
            out, left, right = (k or {} for k in kids)
            for key in left.keys() | right.keys():
                a, b = left.get(key, 0), right.get(key, 0)
                if a != b:
                    problems.setdefault(key, []).append(
                        "case branches mention name %d unevenly (%d vs %d)" % (key[0], a, b))
                out[key] = out.get(key, 0) + max(a, b)
            return out or None
        out = None
        for k in kids:
            if not k:
                continue
            if out is None:
                out = k
            else:
                for key, n in k.items():
                    out[key] = out.get(key, 0) + n
        return out

    return S.walk(x, enter, leave) or {}, problems


def _take(occ, h: int, kind, problems: List[str]) -> int:
    """The count of name h as `kind` in `_occurrences` result occ; its problems go to `problems`."""
    counts, probs = occ
    problems.extend(probs.get((h, kind), ()))
    return counts.get((h, kind), 0)


def _scan_balance(x, failures, where):
    """The failures of every ampar binder in a value or term."""

    def enter(v, _):
        if M.hmax_value(v) == 0:  # names start at 1, so there is no binder below
            return None
        if type(v) is S.AmparV:
            probs: List[str] = []
            sides = (_occurrences(v.left), _occurrences(v.right))
            for h in v.holes:
                holes, dests = (sum(_take(occ, h, kind, probs) for occ in sides)
                                for kind in (S.HoleV, S.DestV))
                if holes != 1 or dests != 1:
                    failures.append(
                        (0, "%s: ampar name %d has %d hole(s) and %d destination(s)"
                         % (where, h, holes, dests))
                    )
            failures.extend((0, "%s: %s" % (where, p)) for p in probs)
        return S.DESCEND

    S.walk(x, enter)


_NO_NAMES = S.Val(S.UnitV())  # what a frame's slot holds while it is scanned


class _Facts:
    """What the balance scan of a command learns from one of its components alone.

    A frame is scanned as its node with a name-free term in the slot.
    """

    __slots__ = ("comp", "node", "own", "holes", "occ")

    def __init__(self, e):
        self.comp = e
        self.own: List[Tuple[int, str]] = []  # failures of binders inside the component
        self.holes = []  # an open ampar's (name, hole count, problems found counting)
        self.occ = None  # the `_occurrences` of the component, made when first asked
        if isinstance(e, M.OpenAmpar):
            self.node = None
            self.occ = _occurrences(e.left)
            for h in e.holes:
                probs: List[str] = []
                self.holes.append((h, _take(self.occ, h, S.HoleV, probs), probs))
            _scan_balance(e.left, self.own, "open ampar structure")
        else:
            self.node = M.plug(e, _NO_NAMES)
            _scan_balance(self.node, self.own, "component")

    def count(self, h: int, kind, problems: List[str]) -> int:
        if self.node is None and h in self.comp.holes:
            return 0  # an open ampar's own binder scope is handled separately
        if self.occ is None:
            self.occ = _occurrences(self.node)
        return _take(self.occ, h, kind, problems)


def _scan(cmd: M.Command, memo: dict) -> List[Tuple[int, str]]:
    """The balance failures of one command.  `memo` maps id(component) to its
    _Facts, which keep the component; the commands of one trace share it."""
    facts = []
    for e in cmd.ctx:
        f = memo.get(id(e))
        if f is None:
            f = memo[id(e)] = _Facts(e)
        facts.append(f)
    failures: List[Tuple[int, str]] = []
    problems: List[str] = []
    focus = None  # the `_occurrences` of the focus, made when first asked
    for i, f in enumerate(facts):
        for h, holes, probs in f.holes:
            problems.extend(probs)
            if focus is None:
                focus = _occurrences(cmd.focus)
            counts = []
            for kind in (S.DestV, S.HoleV):
                n = _take(focus, h, kind, problems)
                for f2 in facts[i + 1 :]:
                    n += f2.count(h, kind, problems)
                counts.append(n)
            dests, stray = counts
            if holes != 1 or dests != 1 or stray != 0:
                failures.append(
                    (0, "open ampar name %d: %d hole(s), %d destination(s), %d stray hole(s)"
                     % (h, holes, dests, stray))
                )
        failures.extend(f.own)
    _scan_balance(cmd.focus, failures, "focus")
    failures.extend((0, p) for p in problems)
    return failures


def scan_balance(cmd: M.Command) -> Verdict:
    """One hole and one destination per bound name, for every binder in view."""
    return Verdict.from_failures(_scan(cmd, {}))


def scan_trace_balance(tr: M.Trace) -> Verdict:
    """`scan_balance` of every command, each failure at its step.  Consecutive
    commands share components, so each component is scanned once."""
    failures = []
    memo: dict = {}
    for i, cmd in _trace_commands(tr):
        failures.extend((i, msg) for _, msg in _scan(cmd, memo))
    return Verdict.from_failures(failures)


# -- encodings -------------------------------------------------------------------


class DecodeError(Exception):
    pass


def encode_nat(n: int):
    v = S.InlV(S.UnitV())
    for _ in range(n):
        v = S.InrV(v)
    return v


def decode_nat(v) -> int:
    n = 0
    while isinstance(v, S.InrV):
        n += 1
        v = v.value
    if isinstance(v, S.InlV) and isinstance(v.value, S.UnitV):
        return n
    raise DecodeError("not a canonical Nat: %r" % (v,))


def decode_bool(v) -> bool:
    if isinstance(v, S.InlV) and isinstance(v.value, S.UnitV):
        return True
    if isinstance(v, S.InrV) and isinstance(v.value, S.UnitV):
        return False
    raise DecodeError("not a canonical Bool: %r" % (v,))


def encode_list(xs, encode_elem: Callable = encode_nat):
    v = S.InlV(S.UnitV())
    for x in reversed(xs):
        v = S.InrV(S.PairV(encode_elem(x), v))
    return v


def decode_list(v, decode_elem: Callable = decode_nat) -> list:
    out = []
    while True:
        if isinstance(v, S.InlV) and isinstance(v.value, S.UnitV):
            return out
        if isinstance(v, S.InrV) and isinstance(v.value, S.PairV):
            out.append(decode_elem(v.value.fst))
            v = v.value.snd
            continue
        raise DecodeError("not a canonical list: %r" % (v,))


# Trees are None (Nil) or (label, left, right) tuples.


def encode_tree(t, encode_label: Callable = encode_nat):
    if t is None:
        return S.InlV(S.UnitV())
    x, l, r = t
    return S.InrV(
        S.PairV(
            encode_label(x),
            S.PairV(encode_tree(l, encode_label), encode_tree(r, encode_label)),
        )
    )


def encode_unit_tree(t):
    return encode_tree(t, lambda _: S.UnitV())


def decode_tree(v, decode_label: Callable = decode_nat):
    if isinstance(v, S.InlV) and isinstance(v.value, S.UnitV):
        return None
    if isinstance(v, S.InrV) and isinstance(v.value, S.PairV):
        label = decode_label(v.value.fst)
        rest = v.value.snd
        if not isinstance(rest, S.PairV):
            raise DecodeError("malformed tree node: %r" % (v,))
        return (label, decode_tree(rest.fst, decode_label), decode_tree(rest.snd, decode_label))
    raise DecodeError("not a canonical tree: %r" % (v,))


# -- native oracle ------------------------------------------------------------------


def bfs_relabel(tree):
    """Level-order relabeling: nodes get 1..n left-to-right, top-to-bottom."""
    import collections

    if tree is None:
        return None
    order = []
    queue = collections.deque([((), tree)])
    while queue:
        path, node = queue.popleft()
        order.append(path)
        _, l, r = node
        if l is not None:
            queue.append((path + (0,), l))
        if r is not None:
            queue.append((path + (1,), r))
    label_of = {path: i + 1 for i, path in enumerate(order)}

    def rebuild(node, path):
        if node is None:
            return None
        _, l, r = node
        return (label_of[path], rebuild(l, path + (0,)), rebuild(r, path + (1,)))

    return rebuild(tree, ())


# -- random inputs (fixed seeds recorded by the test suite) --------------------------


def random_list(rng: random.Random, max_len: int = 32, max_elem: int = 15) -> list:
    return [rng.randint(0, max_elem) for _ in range(rng.randint(0, max_len))]


def random_tree(rng: random.Random, max_nodes: int = 31):
    n = rng.randint(0, max_nodes)

    def build(k):
        if k == 0:
            return None
        left = rng.randint(0, k - 1)
        return ((), build(left), build(k - 1 - left))

    return build(n)


def random_queue_ops(rng: random.Random, max_ops: int = 64, max_elem: int = 15) -> list:
    n = rng.randint(1, max_ops)
    ops = [("enq", rng.randint(0, max_elem))]
    for _ in range(n - 1):
        if rng.random() < 0.6:
            ops.append(("enq", rng.randint(0, max_elem)))
        else:
            ops.append(("deq",))
    return ops
