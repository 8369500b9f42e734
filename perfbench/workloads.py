"""The three workloads: inputs made from a seed, one closed-loop pass, output checks.

Each workload's `prepare(env, rng)` draws the inputs and their expected
answers (from `reference`, never from destcalc); `run_pass(tracer, clock, next_rid)`
sends the requests one after another from this process and returns one `Record` per
request.  A traced pass gets a tracer and no clock, an untraced one a clock and no
tracer.  A request fails on an exception, a stuck run, running out of fuel,
a nonzero exit code, a wrong decoded value, a false verdict (exit code 5) or
a trace digest that differs from the pinned one.

Sizes stay below the default-recursion-limit ceiling of this commit:
library `mapN` over 500 elements and library dlist k=512 raise RecursionError,
and through `.ld` files a 128-deep concat fails in `prelude._inline`.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import statistics
import time
from collections import namedtuple
from pathlib import Path

import reference as R
from destcalc import cli
from destcalc import machine as M
from destcalc import syntax as S

# One request: id, kind, size, measured seconds, the clock stretch it ran in (-1 on a
# traced pass, which has no clock), error (None when the output was right).
Record = namedtuple("Record", "rid kind size seconds stretch error")

NAT = S.TNamed("Nat", ())
LIST_NAT = S.TNamed("List", (NAT,))
TREE_NAT = S.TNamed("Tree", (NAT,))
QUEUE_NAT = S.TNamed("Queue", (NAT,))
DEQUEUED = S.TSum(S.TUnit(), S.TProd(NAT, QUEUE_NAT))

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "trace_digests.json"
WORKDIR = ".perfbench"  # generated programs and span dumps, relative to the checkout root
CONS_DEMO = "src/destcalc/prelude/demos/cons_example.ld"


def log_uniform_sizes(rng, count, lo, hi):
    """`count` sizes in [lo, hi], log-uniform, one draw per stratum, shuffled.

    Stratifying keeps the spread of sizes, and so the pass's cost, nearly the
    same for every seed while the individual inputs still differ."""
    out = []
    for i in range(count):
        u = (i + rng.random()) / count
        out.append(min(hi, int(lo * ((hi + 1) / lo) ** u)))
    rng.shuffle(out)
    return out


def random_shape(rng, n):
    """Unit-labelled binary tree with n nodes, split points uniform."""
    if n == 0:
        return None
    left = rng.randrange(n)
    return (None, random_shape(rng, left), random_shape(rng, n - 1 - left))


def _app(fn, *args):
    for a in args:
        fn = S.App(fn, a)
    return fn


def dlist_term(env, xs):
    """toListN (concatN (... (concatN (dsingleN x0) (dsingleN x1)) ...) (dsingleN xk))."""
    concat, dsingle = env.runnable("concatN"), env.runnable("dsingleN")
    acc = _app(dsingle, S.Val(R.nat(xs[0])))
    for x in xs[1:]:
        acc = _app(concat, acc, _app(dsingle, S.Val(R.nat(x))))
    return S.App(env.runnable("toListN"), acc)


def naive_term(env, xs):
    """appendListN (... (appendListN [x0] [x1]) ...) [xk] with [x] = consN x nilN."""
    app, cons, nil = (env.runnable(n) for n in ("appendListN", "consN", "nilN"))
    acc = _app(cons, S.Val(R.nat(xs[0])), nil)
    for x in xs[1:]:
        acc = _app(app, acc, _app(cons, S.Val(R.nat(x)), nil))
    return acc


def _finished(res):
    if isinstance(res, M.StuckAt):
        raise RuntimeError("stuck: %s" % res.reason)
    if isinstance(res, M.OutOfFuel):
        raise RuntimeError("out of fuel after %d steps" % len(res.trace.steps))
    return res.value


def _timed(tracer, clock, rid, kind, size, request, check):
    """Time `request()`; `check(output)` then runs untimed -> (Record, output).  An
    untraced pass has a `clock`, which may calibrate before the request starts."""
    if tracer is not None:
        tracer.request = rid
    stretch = clock.between() if clock is not None else -1
    t0 = time.perf_counter()
    try:
        output = request()
    except Exception as e:  # any exception is a failed request, not a crash
        error = "%s: %s" % (type(e).__name__, e)
        return Record(rid, kind, size, time.perf_counter() - t0, stretch, error), None
    seconds = time.perf_counter() - t0
    try:
        error = check(output)
    except R.DecodeError as e:
        error = "undecodable output: %s" % e
    return Record(rid, kind, size, seconds, stretch, error), output


def _expect(want):
    return lambda got: None if got == want else "got %r, want %r" % (got, want)


class Concat:
    """The paper's complexity claim through the library: `toListN` over k left-nested
    `concatN`/`dsingleN` (linear steps) and naive `appendListN`/`consN` (quadratic)."""

    name = "concat"
    FUEL = 10**7

    def __init__(self, dlist_ks=(32, 64, 128, 256), naive_ks=(8, 16, 32)):
        self.dlist_ks, self.naive_ks = dlist_ks, naive_ks

    def prepare(self, env, rng):
        # A fixed ladder with elements i % 10, as in the step-count criterion, so
        # step counts compare with ROADMAP's table; the seed does not change it.
        # Each program runs once per pass: the slowest, dlist k=256, sets the
        # request p99 of a pass, and short passes give it more samples per run.
        self.env = env
        self.programs = [(kind, k) for kind, ks in (("dlist", self.dlist_ks), ("naive", self.naive_ks))
                         for k in ks]
        self.expected = {(kind, k): R.concat_expected(k) for kind, k in self.programs}

    def run_pass(self, tracer, clock, next_rid):
        records = []
        for rid, (kind, k) in enumerate(self.programs, start=next_rid):
            build = dlist_term if kind == "dlist" else naive_term
            request = lambda: R.decode_nat_list(_finished(M.run(
                M.Command((), build(self.env, [i % 10 for i in range(k)])), self.FUEL)))
            records.append(_timed(tracer, clock, rid, kind, k, request, _expect(self.expected[kind, k]))[0])
        return records


class Requests:
    """Many short library requests, each as `destcalc run` serves one: `runnable`,
    `check_command` on the origin, `machine.run`, decoding."""

    name = "requests"
    FUEL = 10**6

    def __init__(self, maps=(130, 32), relabels=(36, 8), dlists=(130, 32), queues=(56, 64)):
        # (how many, largest size) per kind; sizes are log-uniform from 1
        self.maps, self.relabels, self.dlists, self.queues = maps, relabels, dlists, queues

    def prepare(self, env, rng):
        self.env = env
        units = []
        for n in log_uniform_sizes(rng, self.maps[0], 1, self.maps[1]):
            xs = [rng.randrange(10) for _ in range(n)]
            units.append(("map", n, xs, R.succ_all(xs)))
        for n in log_uniform_sizes(rng, self.relabels[0], 1, self.relabels[1]):
            tree = random_shape(rng, n)
            units.append(("relabel", n, tree, R.bfs_relabel(tree)))
        for k in log_uniform_sizes(rng, self.dlists[0], 1, self.dlists[1]):
            xs = [rng.randrange(10) for _ in range(k)]
            units.append(("dlist", k, xs, xs))
        for n in log_uniform_sizes(rng, self.queues[0], 1, self.queues[1]):
            ops, size = [], 0
            for _ in range(n):
                if size and rng.random() < 0.4:
                    ops.append(("deq", None))
                    size -= 1
                else:
                    ops.append(("enq", rng.randrange(10)))
                    size += 1
            # drain the queue, so every enqueued element comes back through a checked
            # dequeue, and end with a dequeue that must find it empty
            ops += [("deq", None)] * (size + 1)
            units.append(("queue", n, ops, R.replay_queue(ops)))
        rng.shuffle(units)
        self.units = units

    def _serve(self, term, expected_ty):
        """check_command on the origin, then machine.run, as `destcalc run` does."""
        origin = M.Command((), term)
        self.env.checker().check_command(origin, expected_ty)
        return _finished(M.run(origin, self.FUEL))

    def _call(self, names, args, expected_ty):
        """The named definitions, made runnable and applied to each other and to args."""
        env = self.env
        fn = _app(env.runnable(names[0]), *(env.runnable(n) for n in names[1:]))
        return self._serve(_app(fn, *(S.Val(a) for a in args)), expected_ty)

    def run_pass(self, tracer, clock, next_rid):
        records, rid = [], next_rid
        for kind, size, data, want in self.units:
            if kind == "map":
                req = lambda: R.decode_nat_list(
                    self._call(("mapN", "succ"), (R.nat_list(data),), LIST_NAT))
            elif kind == "relabel":
                req = lambda: R.decode_nat_tree(
                    self._call(("relabelDps",), (R.unit_tree(data),), TREE_NAT))
            elif kind == "dlist":
                req = lambda: R.decode_nat_list(self._serve(dlist_term(self.env, data), LIST_NAT))
            if kind != "queue":
                records.append(_timed(tracer, clock, rid, kind, size, req, _expect(want))[0])
                rid += 1
                continue
            # each queue request takes the queue value the previous one returned
            queue = None
            for (op, x), answer in zip(data, want):
                if op == "deq":
                    rec, out = _timed(
                        tracer, clock, rid, kind, size,
                        lambda: R.decode_dequeued(self._call(("dequeueN",), (queue,), DEQUEUED)),
                        lambda out: _expect(answer)(out and out[0]))
                    records.append(rec)
                    queue = out[1] if out else None
                else:
                    if queue is None:
                        req = lambda: self._call(("singletonN",), (R.nat(x),), QUEUE_NAT)
                    else:
                        req = lambda: self._call(("enqueueN",), (queue, R.nat(x)), QUEUE_NAT)
                    rec, queue = _timed(tracer, clock, rid, kind, size, req, lambda out: None)
                    records.append(rec)
                rid += 1
        return records


class Cli:
    """In-process `destcalc trace --json FILE` and `destcalc run --verify FILE`, the two
    heaviest user flows; stdout goes to a hashing sink."""

    name = "cli"

    def __init__(self, dlist_ks=(1, 2, 4), map_ns=(1,)):
        self.dlist_ks, self.map_ns = dlist_ks, map_ns

    @staticmethod
    def elements(n):
        """The multiset a size-n program's elements are a permutation of.  Verification
        cost grows with the numerals, so a fixed multiset keeps a pass's cost the same
        for every seed, and the pool of programs small enough to pin every trace."""
        return [i % 3 for i in range(n)]

    def pool(self):
        """Every program a pass can draw: (path, kind, size, source or None, expected list,
        element kind).  `pin_traces.py` pins the trace of each one."""
        out = [(CONS_DEMO, "cons", 1, None, [None], "unit")]
        for kind, sizes, source, answer in (("dlist", self.dlist_ks, dlist_source, list),
                                            ("map", self.map_ns, map_source, R.succ_all)):
            for n in sizes:
                for xs in sorted(set(itertools.permutations(self.elements(n)))):
                    path = "%s/cli/%s-%s.ld" % (WORKDIR, kind, "".join(map(str, xs)))
                    out.append((path, kind, n, source(xs), answer(xs), "nat"))
        return out

    def prepare(self, env, rng):
        # one program per kind and size, drawn from the pool
        groups = {}
        for prog in self.pool():
            groups.setdefault(prog[1:3], []).append(prog)
        self.progs = [rng.choice(group) for group in groups.values()]
        write_sources(self.progs)
        with open(DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh)

    def run_pass(self, tracer, clock, next_rid):
        records, rid = [], next_rid
        for path, kind, size, _, expected, elem in self.progs:
            for argv, check in ((["trace", "--json", path], self._trace_check),
                                (["run", "--verify", path], self._run_check)):
                records.append(_timed(tracer, clock, rid, kind, size, lambda: invoke(argv, tracer),
                                      lambda out: check(out, path, expected, elem))[0])
                rid += 1
        return records

    def _trace_check(self, out, path, expected, elem):
        code, text, digest, err = out
        if code != 0:
            return "exit %d: %s" % (code, err.strip()[:200])
        if self.digests.get(path) != digest:
            return "trace digest %s differs from the pinned %s" % (digest[:12], self.digests.get(path))
        at = text.rfind('"final": ')
        final, _ = json.JSONDecoder().raw_decode(text, at + len('"final": '))
        return _expect(expected)(R.printed_list(final, elem))

    @staticmethod
    def _run_check(out, path, expected, elem):
        code, text, _, err = out
        if code != 0:
            return "exit %d: %s" % (code, err.strip()[:200])
        shown = text.strip()
        if elem == "unit":  # printed as a raw value
            return _expect(expected)(R.printed_list(shown, elem))
        return _expect(str(expected))(shown)  # List Nat is printed decoded


class HashSink(io.TextIOBase):
    """stdout replacement: hashes and counts what is written, keeps the text."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.chunks = []

    def write(self, s):
        b = s.encode("utf-8")
        self.sha.update(b)
        self.nbytes += len(b)
        self.chunks.append(s)
        return len(s)


def invoke(argv, tracer=None):
    """`destcalc ARGV` in this process -> (exit code, stdout text, sha256, stderr)."""
    sink, err = HashSink(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if tracer is not None:
        tracer.counts["printer.bytes_out"] += sink.nbytes
    return code, "".join(sink.chunks), sink.sha.hexdigest(), err.getvalue()


def write_sources(progs):
    """Write each generated program of `Cli.pool()` to its path."""
    for path, _, _, source, _, _ in progs:
        if source is not None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)


def dlist_source(xs):
    acc = "dsingleN %d" % xs[0]
    for x in xs[1:]:
        acc = "concatN (%s) (dsingleN %d)" % (acc, x)
    return "def prog : List Nat = toListN (%s)\nmain = prog\n" % acc


def map_source(xs):
    acc = "nilN"
    for x in reversed(xs):
        acc = "consN %d (%s)" % (x, acc)
    return "def prog : List Nat = mapN succ (%s)\nmain = prog\n" % acc


WORKLOADS = {"concat": Concat, "requests": Requests, "cli": Cli}


def growth_per_doubling(points):
    """2 ** (least-squares slope of log2 y on log2 size), with y the median per size: the
    ratio of y per doubling of size.  On an exact doubling ladder of three sizes this is
    the geometric mean of the two step ratios."""
    by_size = {}
    for size, y in points:
        by_size.setdefault(size, []).append(y)
    xs = [math.log2(s) for s in by_size]
    ys = [math.log2(statistics.median(v)) for v in by_size.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return 2 ** (sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx)
