"""The printer: a visitor on `syntax.walk`, with one table of forms per printed trace."""

import collections
import sys

from destcalc import harness as H
from destcalc import machine as M
from destcalc import printer
from destcalc import syntax as S
from destcalc.cli import Shown, print_command
from destcalc.parser import parse_type
from destcalc.printer import print_term, print_value

from conftest import golden_term, suite_programs


def test_a_checked_new_prints_its_annotation(env):
    # the checker writes the annotation of a bare `new*` in place, after it may
    # have been printed: no print keeps the old form past its own table
    t = golden_term()
    before = print_term(t)
    assert "upd new* with" in before
    env.checker().check_command(M.Command((), t), parse_type("List 1"))
    assert print_term(t) == before.replace("new*", "(new* : List 1 >< Dest (List 1))")


def _printed_nat(n):
    s = "Inl ()"
    for _ in range(n):
        s = "Inr (" + s + ")"
    return s


def test_print_deep_inputs_at_the_default_limit():
    assert sys.getrecursionlimit() <= 1000
    # the value `mapN succ` gives over 5 000 elements: a list 10 000 constructors deep
    ys = [i % 10 + 1 for i in range(5000)]
    want = "Inl ()"
    for y in reversed(ys):
        want = "Inr (%s, %s)" % (_printed_nat(y), want)
    assert print_value(H.encode_list(ys)) == want
    t = S.Var("x")
    for _ in range(3000):
        t = S.App(S.Var("f"), t)
    assert print_term(t) == "f (" * 2999 + "f x" + ")" * 2999


def test_a_trace_formats_each_node_once(env, monkeypatch):
    formatted = collections.Counter()

    def counted(table):
        def wrap(fmt):
            return lambda x, *kids: formatted.update((id(x),)) or fmt(x, *kids)

        return {cls: (level, wrap(fmt)) for cls, (level, fmt) in table.items()}

    monkeypatch.setattr(printer, "_LEAVES", counted(printer._LEAVES))
    monkeypatch.setattr(printer, "_JOINS", counted(printer._JOINS))
    steps = M.run_term(suite_programs(env)["relabel"][0], 10**6).trace.steps
    shown = Shown()
    for _, cmd in steps:  # the commands, and so every node printed, stay alive
        print_command(cmd, shown)
    assert len(steps) == 2643
    assert formatted and max(formatted.values()) == 1
