"""Spans around the public functions of each destcalc module, recorded from outside.

`Tracer.install()` replaces each public function (and the checker's and the
program environment's entry methods) by a wrapper that records one span:
which function, start, end, the enclosing span and the current request.  A
call that enters a layer from inside the same layer is not a new span, so a
recursive printer or a prelude load that calls `load_program` stays one span
and costs one comparison per inner call.  `uninstall()` puts the originals
back, so untraced passes run the unmodified program.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  The benchmark opens a root "bench" span around each traced
pass, so the self times of all layers plus the benchmark's own remainder add
up to the traced wall time.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

from destcalc import cli, harness, machine, parser, prelude, printer, syntax, typecheck

LAYERS = ("bench", "cli", "printer", "harness", "machine", "typecheck", "syntax",
          "prelude", "parser")

# harness passes whose inclusive time is reported per pass
VERIFY_PASSES = {
    "check_preservation": "harness.preservation_s",
    "check_progress_determinism": "harness.progress_s",
    "scan_trace_balance": "harness.balance_s",
}


def _runs(tracer, args, kwargs, result, before):
    steps, counts = result.trace.steps, tracer.counts
    counts["machine.runs"] += 1
    counts["machine.steps"] += len(steps)
    counts["machine.max_ctx_depth"] = max(
        counts["machine.max_ctx_depth"], max((len(c.ctx) for _, c in steps), default=0))
    counts["syntax.core_nodes"] += syntax.term_size(result.trace.origin.focus)
    tracer.request_steps[tracer.request] += len(steps)


def _verdict(tracer, args, kwargs, result, before):
    tracer.counts["harness.verdict_failures"] += not result.ok


def _preservation(tracer, args, kwargs, result, before):
    tracer.counts["harness.commands_verified"] += len(args[0].steps) + 1
    _verdict(tracer, args, kwargs, result, before)


def _parsed(tracer, args, kwargs, result, before):
    tracer.counts["parser.source_bytes"] += len(args[0].encode())


def _loaded(tracer, args, kwargs, result, before):
    base = kwargs.get("base", args[1] if len(args) > 1 else None)
    tracer.counts["prelude.defs"] += len(result.order) - (len(base.order) if base else 0)


def _printed_command(tracer, args, kwargs, result, before):
    tracer.counts["printer.commands"] += 1


def _coercions_before(args):
    return args[0].stats.dest_coercions


def _coercions(tracer, args, kwargs, result, before):
    tracer.counts["typecheck.dest_coercions"] += args[0].stats.dest_coercions - before


# (layer, owner, names, exit hook, enter hook).  Printer functions recurse
# through their own module's globals, so only the bindings other modules
# imported are replaced for them (see `_module_bindings`).
TARGETS = [
    ("parser", parser, ("parse", "parse_term", "parse_type"), _parsed, None),
    ("prelude", prelude, ("load_prelude", "load_source", "load_program"), _loaded, None),
    ("prelude", prelude, ("instantiate", "prelude_path"), None, None),
    ("prelude", prelude.ProgramEnv, ("runnable", "checker"), None, None),
    ("syntax", syntax, ("desugar", "lower_from_prime", "erase_annots"), None, None),
    ("typecheck", typecheck.Checker,
     ("check_command", "check_term", "check_value", "check_evalctx"), _coercions, _coercions_before),
    ("machine", machine, ("run", "run_term"), _runs, None),
    ("machine", machine, ("canonicalize",), None, None),
    ("harness", harness, ("check_preservation",), _preservation, None),
    ("harness", harness, ("check_progress_determinism", "scan_trace_balance"), _verdict, None),
    ("harness", harness, ("scan_balance", "decode_nat", "decode_bool", "decode_list",
                          "decode_tree"), None, None),
    ("printer", printer, ("print_term", "print_type", "print_value", "print_mode"), None, None),
    ("printer", cli, ("print_command",), _printed_command, None),
    ("printer", cli, ("print_component",), None, None),
    ("cli", cli, ("main",), None, None),
]


PASS, HOOK = 0, 1  # function ids of the benchmark's own spans


def _module_bindings(fn, skip):
    for name, mod in list(sys.modules.items()):
        if (name == "destcalc" or name.startswith("destcalc.")) and mod is not skip:
            for attr, value in vars(mod).items():
                if value is fn:
                    yield mod, attr


class Tracer:
    def __init__(self):
        self.names = [("bench", "pass"), ("bench", "tracer hook")]  # id -> (layer, name)
        self.spans = []  # [function id, start, end, parent span index, request]
        self.stack = []  # open spans: (layer, span index)
        self.counts = Counter()
        self.request_steps = defaultdict(int)
        self.request = -1
        self._patches = []  # (owner, attribute, original, wrapper)

    def _wrap(self, layer, fn, exit_hook, enter_hook):
        fid = len(self.names)
        self.names.append((layer, fn.__qualname__))
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            before = enter_hook(args) if enter_hook else None
            span = [fid, 0.0, 0.0, stack[-1][1] if stack else -1, tracer.request]
            stack.append((layer, len(spans)))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if exit_hook is not None:
                # the hook's counting is benchmark work, so it gets a span of its own
                hook = [HOOK, clock(), 0.0, span[3], tracer.request]
                spans.append(hook)
                exit_hook(tracer, args, kwargs, result, before)
                hook[2] = clock()
            return result

        return traced

    def install(self):
        if not self._patches:
            for layer, owner, names, exit_hook, enter_hook in TARGETS:
                for name in names:
                    fn = getattr(owner, name)
                    wrapper = self._wrap(layer, fn, exit_hook, enter_hook)
                    if isinstance(owner, type):
                        sites = [(owner, name)]
                    else:
                        sites = _module_bindings(fn, printer if owner is printer else None)
                    self._patches += [(site, attr, fn, wrapper) for site, attr in sites]
        for site, attr, _, wrapper in self._patches:
            setattr(site, attr, wrapper)

    def uninstall(self):
        for site, attr, original, _ in self._patches:
            setattr(site, attr, original)

    def bench_span(self):
        """Root span around one traced pass; use as a context manager."""
        return _BenchSpan(self)

    # -- summaries ---------------------------------------------------------------

    def self_times(self):
        """Layer -> seconds of self time, over every recorded span."""
        out = dict.fromkeys(LAYERS, 0.0)
        names, spans = self.names, self.spans
        for fid, t0, t1, parent, _ in spans:
            d = t1 - t0
            out[names[fid][0]] += d
            if parent >= 0:
                out[names[spans[parent][0]][0]] -= d
        return out

    def inclusive_times(self):
        """Function name -> seconds, over spans of that function."""
        out = Counter()
        for fid, t0, t1, _, _ in self.spans:
            out[self.names[fid][1]] += t1 - t0
        return out

    def span_counts(self):
        """Layer -> number of spans, i.e. calls into the layer from another layer."""
        out = Counter()
        for fid, *_ in self.spans:
            out[self.names[fid][0]] += 1
        return out

    def wall(self):
        """Seconds covered by the root spans."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tfunction\tstart_s\tend_s\tparent\trequest\n")
            for fid, t0, t1, parent, request in self.spans:
                layer, name = self.names[fid]
                fh.write("%s\t%s\t%.9f\t%.9f\t%d\t%d\n" % (layer, name, t0, t1, parent, request))


class _BenchSpan:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        self.span = [PASS, 0.0, 0.0, -1, -1]
        t.stack.append(("bench", len(t.spans)))
        t.spans.append(self.span)
        self.span[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.span[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False
