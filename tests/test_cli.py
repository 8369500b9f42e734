"""Command-line behavior: outputs, exit codes, JSON stability."""

import json
import os
import subprocess
import sys

import pytest

import destcalc
from destcalc.prelude import prelude_path

CONS = prelude_path("demos/cons_example.ld")


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "destcalc.cli", *args], capture_output=True, text=True
    )


def test_start_up_imports_no_dataclasses_inspect_or_resources():
    # every call is a fresh process that pays for each module it imports;
    # without `site`, which may import some of them on its own
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import destcalc.cli; "
            "from destcalc.prelude import load_prelude; load_prelude(); "
            "print([m for m in ('dataclasses', 'inspect', 'importlib.resources') "
            "if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(destcalc.__file__))
    r = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_check_prints_main_type():
    r = cli("check", CONS)
    assert r.returncode == 0 and r.stdout == "List 1\n"


def test_trace_final_line():
    r = cli("trace", "--from-prime-primitive", CONS)
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[-1] == "Inr ((), Inl ())"
    assert lines[0].startswith("step 1  ")


def test_run_with_verify():
    r = cli("run", CONS, "--verify")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "Inr ((), Inl ())"


@pytest.mark.parametrize("name", ["scope_escape2.ld", "scope_escape3.ld"])
def test_type_error_exit_code(name):
    # the library's scope-escape counterexamples reach users through the CLI
    r = cli("run", prelude_path(name))
    assert r.returncode == 1
    assert "type error [AgeEscape]" in r.stderr


def test_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.ld"
    f.write_text("def x : 1 = ((")
    r = cli("check", str(f))
    assert r.returncode == 2
    # one line, the error's own text with its prefix once
    assert r.stderr.count("\n") == 1 and r.stderr.startswith("parse error at 1:")


def test_verify_checks_a_lambda_body_whose_tail_is_a_bound_numeral(tmp_path):
    # mid-trace, the lambda `go` unrolls to has `n` read back into its body, so
    # `u ; 2` is checked against the codomain the lambda value keeps
    f = tmp_path / "fix_outer.ld"
    f.write_text(
        "def fixOuterBody : Nat -o[w inf] Nat = \\n [w inf] ->\n"
        "  (fix go : (Nat -o Nat) -> \\k -> case k of { Inl u -> u ; n, Inr k2 -> go k2 }) 3\n"
        "def fixOuter : Nat = fixOuterBody 2\n"
        "main = fixOuter\n")
    r = cli("run", "--verify", "--json", str(f))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["final"] == "Inr (Inr (Inl ()))"
    assert all(out["verdicts"].values())


def test_fuel_exhaustion_exit_code(tmp_path):
    f = tmp_path / "loop.ld"
    f.write_text("def loop : Nat = fix x : Nat -> x\nmain = loop")
    r = cli("run", str(f), "--fuel", "50")
    assert r.returncode == 4


def test_json_schema_and_determinism(tmp_path):
    r1 = cli("trace", CONS, "--json", "--verify")
    r2 = cli("trace", CONS, "--json", "--verify")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout  # byte-identical reruns
    assert r1.stdout.endswith("\n")
    doc = json.loads(r1.stdout)
    assert set(doc) == {"program", "type", "steps", "final", "verdicts"}
    assert doc["type"] == "List 1"
    assert doc["final"] == "Inr ((), Inl ())"
    assert doc["steps"][0]["i"] == 1 and "rule" in doc["steps"][0]
    assert all(doc["verdicts"].values())


def test_run_decodes_known_types(tmp_path):
    f = tmp_path / "n.ld"
    f.write_text("def six : Nat = succ 5\nmain = six")
    r = cli("run", str(f))
    assert r.stdout.strip() == "6"
    f2 = tmp_path / "l.ld"
    f2.write_text("def xs : List Nat = consN 1 (consN 2 nilN)\nmain = xs")
    r = cli("run", str(f2))
    assert r.stdout.strip() == "[1, 2]"
    f3 = tmp_path / "b.ld"
    f3.write_text("def t : Bool = true\nmain = t")
    r = cli("run", str(f3))
    assert r.stdout.strip() == "true"


def test_desugar_prints_core(tmp_path):
    f = tmp_path / "d.ld"
    f.write_text("def u : 1 = ()\nmain = u")
    r = cli("desugar", str(f))
    assert r.returncode == 0
    assert "new*" in r.stdout and "upd" in r.stdout


def test_verify_does_not_change_result():
    plain = cli("run", CONS)
    verified = cli("run", CONS, "--verify")
    assert plain.stdout == verified.stdout
    assert plain.returncode == verified.returncode == 0


def test_internal_error_exit_code(monkeypatch, capsys):
    from destcalc import cli as C

    def broken(*args):
        raise ValueError("no\n  such   rule")

    monkeypatch.setattr(C.M, "run", broken)
    assert C.main(["run", CONS]) == 70
    assert capsys.readouterr().err == "internal error: ValueError: no such rule\n"


@pytest.mark.parametrize("src", [
    "def x : Nat = %s1%s\nmain = x\n" % ("(" * 3000, ")" * 3000),  # the parser's depth
    "def x : Nat = 500\nmain = x\n",  # the checker's depth
])
def test_deep_input_exit_code(tmp_path, src):
    f = tmp_path / "deep.ld"
    f.write_text(src)
    r = cli("check", str(f))
    assert r.returncode == 6
    assert r.stderr == "error: %s: input too deep\n" % f


def test_main_naming_no_definition_is_an_error(tmp_path, capsys):
    from destcalc import cli as C

    f = tmp_path / "undef.ld"
    f.write_text("def r : Nat = 2\nmain = y\n")
    for command in ("check", "run", "trace", "desugar"):
        assert C.main([command, str(f)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: %s: main names y, which is not defined\n" % f


def test_unreadable_file_is_an_error(tmp_path, capsys):
    from destcalc import cli as C

    bad = tmp_path / "latin1.ld"
    bad.write_bytes("def r : Nat = 2 -- caf\xe9\nmain = r\n".encode("latin-1"))
    for path, reason in ((tmp_path / "missing.ld", "No such file or directory"),
                         (tmp_path, "Is a directory"),
                         (bad, "'utf-8' codec can't decode byte 0xe9 in position 22")):
        assert C.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read %s: %s" % (path, reason))
        assert err.count("\n") == 1


def test_run_builds_no_step_commands(monkeypatch, capsys, env):
    # only the origin is a Command: `run` keeps rule names, and counts steps without them
    from destcalc import cli as C
    from destcalc import machine as M
    from conftest import run_ok

    built = []
    init = M.Command.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(M.Command, "__init__", counting)
    assert C.main(["run", CONS]) == 0
    assert capsys.readouterr().out == "Inr ((), Inl ())\n"
    assert len(built) == 1
    assert len(run_ok(env.runnable("sharing")).trace.steps) == 480
    assert len(built) == 2
