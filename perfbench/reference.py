"""Reference answers and value codecs, independent of `destcalc.harness`.

Inputs reach the program as destcalc runtime values, so the encoders build
the value nodes of `destcalc.syntax`.  Everything else here is plain Python:
outputs are read back by walking those nodes, or by parsing the text the CLI
prints, and every expected answer is computed without calling destcalc.  A
change to the program's own codecs or oracles therefore cannot make a wrong
output look right.

Data shapes: a Nat is an int, a list is a Python list, a tree is None (leaf)
or a (label, left, right) tuple, with label None for unit-labelled trees.
"""

from collections import deque

from destcalc import syntax as S


class DecodeError(ValueError):
    pass


# -- encoders (Nat = 1 + Nat, List a = 1 + (a * List a), Tree a = 1 + (a * (Tree a * Tree a)))


def nat(n):
    v = S.InlV(S.UnitV())
    for _ in range(n):
        v = S.InrV(v)
    return v


def nat_list(xs):
    v = S.InlV(S.UnitV())
    for x in reversed(xs):
        v = S.InrV(S.PairV(nat(x), v))
    return v


def unit_tree(tree):
    if tree is None:
        return S.InlV(S.UnitV())
    _, left, right = tree
    return S.InrV(S.PairV(S.UnitV(), S.PairV(unit_tree(left), unit_tree(right))))


# -- decoders of runtime values


def decode_nat(v):
    n = 0
    while isinstance(v, S.InrV):
        n += 1
        v = v.value
    if isinstance(v, S.InlV) and isinstance(v.value, S.UnitV):
        return n
    raise DecodeError("not a Nat: %r" % (v,))


def decode_nat_list(v):
    out = []
    while isinstance(v, S.InrV) and isinstance(v.value, S.PairV):
        out.append(decode_nat(v.value.fst))
        v = v.value.snd
    if isinstance(v, S.InlV) and isinstance(v.value, S.UnitV):
        return out
    raise DecodeError("not a list: %r" % (v,))


def decode_nat_tree(v):
    if isinstance(v, S.InlV) and isinstance(v.value, S.UnitV):
        return None
    if (isinstance(v, S.InrV) and isinstance(v.value, S.PairV)
            and isinstance(v.value.snd, S.PairV)):
        label, (left, right) = v.value.fst, (v.value.snd.fst, v.value.snd.snd)
        return (decode_nat(label), decode_nat_tree(left), decode_nat_tree(right))
    raise DecodeError("not a tree: %r" % (v,))


def decode_dequeued(v):
    """`1 + (Nat * Queue Nat)` -> (element, rest of the queue); None when empty."""
    if isinstance(v, S.InlV) and isinstance(v.value, S.UnitV):
        return None
    if isinstance(v, S.InrV) and isinstance(v.value, S.PairV):
        return decode_nat(v.value.fst), v.value.snd
    raise DecodeError("not a dequeue result: %r" % (v,))


# -- decoders of printed values (`destcalc run` / the `final` field of `trace --json`)


def _tokens(text):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "(),":
            yield c
            i += 1
        elif text.startswith("Inl", i) or text.startswith("Inr", i):
            yield text[i:i + 3]
            i += 3
        else:
            raise DecodeError("unexpected %r in printed value" % text[i:i + 10])


def parse_printed(text):
    """Printed closed data value -> nested tuples ("unit",), ("inl", v), ("inr", v),
    ("pair", a, b).  Holes, destinations, functions and modalities are rejected."""
    toks = list(_tokens(text))
    pos = 0

    def value():
        nonlocal pos
        if pos >= len(toks):
            raise DecodeError("printed value ends early")
        t = toks[pos]
        pos += 1
        if t in ("Inl", "Inr"):
            return (t.lower(), value())
        if t != "(":
            raise DecodeError("unexpected %r in printed value" % t)
        if toks[pos] == ")":
            pos += 1
            return ("unit",)
        first = value()
        if toks[pos] == ")":
            pos += 1
            return first
        if toks[pos] != ",":
            raise DecodeError("expected ',' in printed value")
        pos += 1
        second = value()
        if toks[pos] != ")":
            raise DecodeError("expected ')' in printed value")
        pos += 1
        return ("pair", first, second)

    v = value()
    if pos != len(toks):
        raise DecodeError("trailing text in printed value")
    return v


def _printed_nat(v):
    n = 0
    while v[0] == "inr":
        n, v = n + 1, v[1]
    if v == ("inl", ("unit",)):
        return n
    raise DecodeError("not a printed Nat")


def printed_list(text, elem):
    """Printed list value -> Python list; `elem` is "nat" or "unit"."""
    v, out = parse_printed(text), []
    while v[0] == "inr" and v[1][0] == "pair":
        head = v[1][1]
        if elem == "unit":
            if head != ("unit",):
                raise DecodeError("not a printed unit")
            out.append(None)
        else:
            out.append(_printed_nat(head))
        v = v[1][2]
    if v != ("inl", ("unit",)):
        raise DecodeError("not a printed list")
    return out


# -- reference answers


def succ_all(xs):
    """`mapN succ xs`."""
    return [x + 1 for x in xs]


def concat_expected(k):
    """`toListN` of k left-nested concatenations (or naive appends) of singletons i % 10."""
    return [i % 10 for i in range(k)]


def bfs_relabel(tree):
    """Labels 1..n in level order, left to right."""
    if tree is None:
        return None
    order, queue = [], deque([tree])
    while queue:
        node = queue.popleft()
        order.append(node)
        for child in node[1:]:
            if child is not None:
                queue.append(child)
    label = {id(node): i + 1 for i, node in enumerate(order)}

    def rebuild(node):
        if node is None:
            return None
        return (label[id(node)], rebuild(node[1]), rebuild(node[2]))

    return rebuild(tree)


def replay_queue(ops):
    """Expected answer of each queue op: None for an enqueue, the element for a dequeue,
    None for a dequeue of the empty queue."""
    q, out = deque(), []
    for op, x in ops:
        if op == "enq":
            q.append(x)
            out.append(None)
        else:
            out.append(q.popleft() if q else None)
    return out
