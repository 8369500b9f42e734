"""Command-line interface: check, run, trace, desugar over `.ld` files.

Exit codes: 0 success, 1 type error (also a program with no main, or a
main that names no definition), 2 parse error (also a file that cannot be
read: missing, a directory or not UTF-8, printed as one
`error: cannot read FILE: REASON` line), 3 stuck, 4 fuel exhausted,
5 harness verdict failure, 6 input nested too deeply for the parser or
the checker (printed as one `error: FILE: input too deep` line), 70
internal error (an exception escaped; printed as one `internal error: ...`
line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness as H
from . import machine as M
from . import prelude as P
from . import syntax as S
from .parser import ParseError
from .printer import print_term, print_type, print_value
from .typecheck import TypeCheckError

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PARSE = 2
EXIT_STUCK = 3
EXIT_FUEL = 4
EXIT_VERDICT = 5
EXIT_DEEP = 6
EXIT_INTERNAL = 70


class _Field:
    """A frame's field in its print format: `{f:p}` prints the term at precedence p,
    `{f}` the field as it is (a variable name or a mode)."""

    __slots__ = ("x", "forms")

    def __init__(self, x, forms):
        self.x, self.forms = x, forms

    def __format__(self, prec):
        return print_term(self.x, int(prec), self.forms) if prec else str(self.x)


def print_component(e, forms=None) -> str:
    """A frame or an open ampar; `forms` is the table of known forms (`printer.form`)."""
    if isinstance(e, M.OpenAmpar):
        hs = " ".join("#%d" % h for h in sorted(e.holes))
        return "{%s}op/ %s, [] /" % (hs, print_value(e.left, 0, forms))
    kind = e.kind
    return kind.fmt.format_map({n: _Field(x, forms) for n, x in zip(kind.names, e.fields)})


class Shown:
    """What printing the commands of one trace keeps from command to command: the
    forms of the nodes printed (`printer.form`), and the component at each
    context position with its string."""

    __slots__ = ("forms", "ctx")

    def __init__(self):
        self.forms, self.ctx = {}, []


def print_command(cmd: M.Command, shown: Shown = None) -> str:
    """One command on one line.

    `shown` is kept across the commands of one trace.  Consecutive commands
    share frames and most of their nodes, so a frame that stays in place is
    printed once, and a command costs only the nodes new in it.
    """
    if shown is None:
        shown = Shown()
    forms, ctx = shown.forms, shown.ctx
    del ctx[len(cmd.ctx):]
    for i, e in enumerate(cmd.ctx):
        if i == len(ctx):
            ctx.append((e, print_component(e, forms)))
        elif ctx[i][0] is not e:
            ctx[i] = (e, print_component(e, forms))
    parts = ["[]"] + [s for _, s in ctx]
    return "(%s)[%s]" % (" o ".join(parts), print_term(cmd.focus, 0, forms))


def _decoded(value, ty) -> str:
    """Decode Nat/Bool/List-of-Nat results; print raw values otherwise."""
    try:
        if isinstance(ty, S.TNamed) and ty.name == "Nat" and not ty.args:
            return str(H.decode_nat(value))
        if isinstance(ty, S.TNamed) and ty.name == "Bool" and not ty.args:
            return "true" if H.decode_bool(value) else "false"
        if (
            isinstance(ty, S.TNamed)
            and ty.name == "List"
            and ty.args == (S.TNamed("Nat", ()),)
        ):
            return str(H.decode_list(value))
    except H.DecodeError:
        pass
    return print_value(M.canonicalize(value))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="destcalc", description=__doc__)
    ap.add_argument("command", choices=["check", "run", "trace", "desugar"])
    ap.add_argument("file", help=".ld source file")
    ap.add_argument("--fuel", type=int, default=10**6)
    ap.add_argument("--from-prime-primitive", action="store_true",
                    help="treat from'* as a machine primitive instead of sugar")
    ap.add_argument("--json", action="store_true", dest="json_out")
    ap.add_argument("--verify", action="store_true",
                    help="run preservation/progress/balance checks on the trace")
    args = ap.parse_args(argv)
    if args.fuel <= 0:
        ap.error("--fuel must be positive")
    try:
        return _main(args)
    except RecursionError:
        print("error: %s: input too deep" % args.file, file=sys.stderr)
        return EXIT_DEEP
    except Exception as e:  # the boundary: no traceback, a status of its own
        msg = " ".join(str(e).split())
        print("internal error: %s%s" % (type(e).__name__, ": " + msg if msg else ""), file=sys.stderr)
        return EXIT_INTERNAL


def _main(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            src = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        reason = e.strerror if isinstance(e, OSError) and e.strerror else e
        print("error: cannot read %s: %s" % (args.file, reason), file=sys.stderr)
        return EXIT_PARSE
    try:
        env = P.load_source(src, base=P.load_prelude())
    except ParseError as e:
        print(e, file=sys.stderr)
        return EXIT_PARSE
    except TypeCheckError as e:
        print("type error [%s]: %s" % (e.kind, e), file=sys.stderr)
        return EXIT_TYPE

    if env.main is not None and env.main not in env.defs:
        print("error: %s: main names %s, which is not defined" % (args.file, env.main),
              file=sys.stderr)
        return EXIT_TYPE

    if args.command == "check":
        if env.main is not None:
            ty = env.main_def().ty
            print(print_type(ty))
        else:
            for name in env.order:
                print("%s : %s" % (name, print_type(env.defs[name].ty)))
        return EXIT_OK

    if env.main is None:
        print("error: %s has no main" % args.file, file=sys.stderr)
        return EXIT_TYPE

    main_def = env.main_def()
    term = env.runnable(env.main, from_prime=args.from_prime_primitive)

    if args.command == "desugar":
        print(print_term(term))
        return EXIT_OK

    origin = M.Command((), term)
    checker = env.checker()
    try:
        main_ty = checker.check_command(origin, main_def.ty)
    except TypeCheckError as e:
        print("type error [%s]: %s" % (e.kind, e), file=sys.stderr)
        return EXIT_TYPE

    res = M.run(origin, args.fuel)
    doc = {"program": args.file, "type": print_type(main_ty)}
    steps_doc = []
    if args.command == "trace" and not args.json_out:
        shown = Shown()
        for i, (rule, cmd) in enumerate(res.trace.steps, start=1):
            print("step %d  %s  %s" % (i, rule, print_command(cmd, shown)))

    verdicts = None
    exit_code = EXIT_OK
    if isinstance(res, M.StuckAt):
        print("stuck: %s" % res.reason, file=sys.stderr)
        exit_code = EXIT_STUCK
    elif isinstance(res, M.OutOfFuel):
        print("out of fuel after %d steps" % len(res.trace.steps), file=sys.stderr)
        exit_code = EXIT_FUEL

    if args.verify and exit_code == EXIT_OK:
        pres = H.check_preservation(res.trace, checker, main_ty)
        prog = H.check_progress_determinism(res.trace)
        bal = H.scan_trace_balance(res.trace)
        coerce_free = checker.stats.dest_coercions == 0
        verdicts = {
            "preservation": pres.ok,
            "progress_determinism": prog.ok,
            "balance": bal.ok,
            "no_dest_coercion": coerce_free,
        }
        if not all(verdicts.values()):
            for v in (pres, prog, bal):
                for i, msg in v.failures:
                    print("verdict failure at step %d: %s" % (i, msg), file=sys.stderr)
            exit_code = EXIT_VERDICT

    if args.json_out:
        shown = Shown()
        for i, (rule, cmd) in enumerate(res.trace.steps, start=1):
            entry = {"i": i, "rule": rule, "command": print_command(cmd, shown)}
            if verdicts is not None and verdicts["preservation"]:
                entry["type"] = print_type(main_ty)
            steps_doc.append(entry)
        doc["steps"] = steps_doc
        if isinstance(res, M.Finished):
            doc["final"] = print_value(res.value)
        else:
            doc["final"] = None
        if verdicts is not None:
            doc["verdicts"] = verdicts
        sys.stdout.write(json.dumps(doc, ensure_ascii=False) + "\n")
        return exit_code

    if isinstance(res, M.Finished):
        if args.command == "run":
            print(_decoded(res.value, main_ty))
        else:
            print(print_value(res.value))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
