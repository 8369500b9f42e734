"""The scripts under `scripts/` run: each patches or imports destcalc names
that nothing else exercises."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_complexity_bench_prints_a_ladder(monkeypatch, capsys):
    bench = _script("complexity_bench")
    monkeypatch.setattr(sys, "argv", ["complexity_bench.py", "--sizes", "2", "4"])
    bench.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["k", "steps"]
    assert [line.split()[0] for line in lines[1:]] == ["2", "4"]
    assert "x)" in lines[2]  # the growth since the size before


def test_golden_trace_prints_the_worked_reduction(capsys):
    _script("golden_trace").main()
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("origin: ")
    assert out[-1].startswith("final value: ")
    assert len(out) > 2
