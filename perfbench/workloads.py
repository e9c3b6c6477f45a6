"""The benchmark's workloads: inputs made from a seed, set-up (compiling
every program a workload uses) and one batch (deciding and verifying the
workload's fixed decision set once).

Every workload runs in one thread, one decision at a time.  A decision is
one call to `decide`, `DemandEngine.solve` or `least_model_seminaive`.
With a tracer, compilation is split into codegen, `parse_program` and
`analyze`, and `decide` into `encode_input`, `merge` and the engine call,
each in its own span.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from pathlib import Path
from time import perf_counter

from hodatalog.codegen import (compile_tm_first_order, compile_tm_higher_order,
                               first_order_text, higher_order_text)
from hodatalog.core import App, Const, Pred
from hodatalog.encode import encode_input, merge
from hodatalog.engines import (DemandEngine, EngineConfig, decide,
                               least_model_seminaive)
from hodatalog.semantics import Bool, Ind
from hodatalog.syntax import parse_program
from hodatalog.tm import parse_tm, sample_machine, tm_run
from hodatalog.typecheck import analyze

from benchlib import bfs_reachable, sim_bound

HERE = Path(__file__).resolve().parent


def load_machine(name):
    if name == "last_a":
        return parse_tm((HERE / "last_a.tm").read_text(), name="last_a")
    return sample_machine(name)


_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    def span(self, name, decision=None):
        return _NO_SPAN


class Batch:
    """What one pass over the decision set measured."""

    def __init__(self):
        self.times = []      # seconds per decision
        self.failures = []   # one dict per wrong, raising or exhausted decision
        self.counters = {}
        self.wall = None
        self.spans = None

    def add(self, name, value):
        """Sum a counter; a counter the program did not expose stays None."""
        if value is None or (name in self.counters
                             and self.counters[name] is None):
            self.counters[name] = None
        else:
            self.counters[name] = self.counters.get(name, 0) + value

    def add_max(self, name, value):
        old = self.counters.get(name, 0)
        if value is None or (name in self.counters and old is None):
            self.counters[name] = None
        else:
            self.counters[name] = max(old, value)


def _read(obj, attr, fn=None):
    """An engine counter, or None when the engine no longer has it."""
    value = getattr(obj, attr, None)
    if value is None or fn is None:
        return value
    try:
        return fn(value)
    except (TypeError, AttributeError, ValueError):
        return None


def _model_tuples(interp):
    total = 0
    for v in interp.values():
        if isinstance(v, Bool):
            total += int(v.value)
        else:
            tuples = getattr(v, "tuples", None)
            if tuples is None:
                return None
            total += len(tuples)
    return total


def count_seminaive(batch, result):
    batch.add("engines.seminaive.rounds", _read(result, "iterations"))
    batch.add("engines.seminaive.tuples",
              _read(result, "interpretation", _model_tuples))


def count_demand(batch, eng):
    """Totals of one engine, read after its last call."""
    batch.add("engines.demand.steps", _read(eng, "steps"))
    batch.add("engines.demand.goals", _read(eng, "table", len))
    batch.add("engines.demand.true_goals",
              _read(eng, "table", lambda t: sum(1 for v in t.values() if v)))
    batch.add("engines.demand.dep_edges",
              _read(eng, "deps", lambda d: sum(len(s) for s in d.values())))
    key_lens = _read(eng, "table", lambda t: [len(k) for k in t])
    batch.add("engines.demand.key_bytes",
              None if key_lens is None else sum(key_lens))
    batch.add_max("engines.demand.key_bytes_max",
                  None if key_lens is None else max(key_lens, default=0))


def _front_end(tracer, batch, text):
    with tracer.span("syntax.parse_program"):
        src = parse_program(text)
    with tracer.span("typecheck.analyze"):
        prog, report = analyze(src)
    if not report.ok:
        raise RuntimeError("program failed validation: %s" % report.violations)
    batch.add("syntax.clauses", _read(src, "clauses", len))
    return prog


# ---------------------------------------------------------------------------
# Machine capture: fo-capture and ho-capture

# (machine, k, d, n, inputs per verdict).  Decision cost depends mostly on
# (k, d, n) and the verdict: accepting inputs simulate every step because
# `yes` is absorbing, while rejecting inputs stop early.  So every class
# holds a fixed number of accepted and of rejected inputs, and the seed only
# picks which strings; the verdict mix is the same for every seed.
FO_CLASSES = [(m, 1, d, n, 1) for m in ("parity", "last_a")
              for d, ns in ((2, (6, 7, 8)), (3, (3, 4))) for n in ns]
HO_CLASSES = [(m, k, 1, n, c) for m in ("parity", "last_a")
              for k, n, c in ((2, 3, 1), (3, 2, 2))]


def _oracle(machine, w, k, d):
    return tm_run(machine, w, sim_bound(k, d, len(w)))


class Capture:
    """Compiled machines deciding seeded inputs, checked against tm_run."""

    def __init__(self, classes, engine, seed):
        rng = random.Random(seed)
        self.engine = engine
        self.cfg = EngineConfig(engine=engine)
        self.machines = {}
        self.inputs = []
        for mname, k, d, n, count in classes:
            m = self.machines.setdefault(mname, load_machine(mname))
            pools = {"accepted": [], "rejected": []}
            for t in itertools.product("ab", repeat=n):
                w = "".join(t)
                # inputs the machine runs out of steps on, or moves left of
                # cell 0 on, would form cost classes of their own
                pools.get(_oracle(m, w, k, d).verdict, []).append(w)
            for verdict, pool in sorted(pools.items()):
                if len(pool) < count:
                    raise ValueError("%s k=%d d=%d n=%d: %d %s inputs, need %d"
                                     % (mname, k, d, n, len(pool), verdict, count))
                self.inputs += [(mname, k, d, w) for w in rng.sample(pool, count)]
        rng.shuffle(self.inputs)
        self.progs = {}

    def mix(self):
        """Decision count and accept share per (machine, k, d, n)."""
        rows = {}
        for mname, k, d, w in self.inputs:
            acc = _oracle(self.machines[mname], w, k, d).accepted
            row = rows.setdefault("%s k=%d d=%d n=%d" % (mname, k, d, len(w)),
                                  [0, 0])
            row[0] += 1
            row[1] += acc
        return {key: {"decisions": c, "accept_share": a / c}
                for key, (c, a) in sorted(rows.items())}

    def setup(self, tracer=None):
        batch = Batch()
        self.progs = {}
        for mname, k, d, _ in self.inputs:
            if (mname, k, d) in self.progs:
                continue
            m = self.machines[mname]
            if tracer is None:
                prog = (compile_tm_first_order(m, d) if k == 1
                        else compile_tm_higher_order(m, k, d))
            else:
                gen, args = ((first_order_text, (m, d)) if k == 1
                             else (higher_order_text, (m, k, d)))
                with tracer.span("codegen." + gen.__name__):
                    lines = gen(*args)
                batch.add("codegen.lines", len(lines))
                prog = _front_end(tracer, batch, "\n".join(lines))
            self.progs[(mname, k, d)] = prog
        return batch

    def _decide_traced(self, tracer, batch, prog, w):
        with tracer.span("encode.encode_input"):
            facts = encode_input(w)
        with tracer.span("encode.merge"):
            merged = merge(prog, facts)
        batch.add("encode.facts", len(facts))
        if self.engine == "seminaive":
            with tracer.span("engines.seminaive.least_model_seminaive"):
                res = least_model_seminaive(merged)
            count_seminaive(batch, res)
            accept = res.interpretation.get("accept", Bool(False)) == Bool(True)
        else:
            with tracer.span("engines.demand.DemandEngine"):
                eng = DemandEngine(merged, self.cfg)
            with tracer.span("engines.demand.solve"):
                accept = eng.solve(Pred("accept"))
            count_demand(batch, eng)
        return "accept" if accept else "reject"

    def batch(self, tracer=None):
        batch = Batch()
        traced = tracer is not None
        tracer = tracer or NullTracer()
        start = perf_counter()
        for i, (mname, k, d, w) in enumerate(self.inputs):
            prog = self.progs[(mname, k, d)]
            t0 = perf_counter()
            try:
                if traced:
                    with tracer.span("decide", decision=i):
                        got = self._decide_traced(tracer, batch, prog, w)
                else:
                    got = decide(prog, w, self.cfg)
            except Exception as e:  # a failed decision is counted, not fatal
                got = "%s: %s" % (type(e).__name__, e)
            batch.times.append(perf_counter() - t0)
            machine = self.machines[mname]
            with tracer.span("tm.tm_run", decision=i):
                res = _oracle(machine, w, k, d)
            batch.add("tm.steps", res.steps_used)
            want = "accept" if res.accepted else "reject"
            if got != want:
                batch.failures.append({"machine": mname, "k": k, "d": d,
                                       "input": w, "got": got, "want": want})
        batch.wall = perf_counter() - start
        return batch


# ---------------------------------------------------------------------------
# Chain reachability

CHAIN_N = 100
CHAIN_GRAPHS = 2
PATH_RULES = ["path X Y :- (edge X Y).", "path X Y :- (edge X Z), (path Z Y)."]
# (source, target) positions along each chain, asked in this order of one
# DemandEngine whose table persists across them; reachable iff source <
# target, ten of each.  The first query walks the whole chain on a cold
# table.  Four more walk about ninety path goals each towards new targets
# over warm edge goals; they are a tenth of the decisions and cost more
# than twice the slowest seminaive decision, so the tail percentile lands
# inside them.  Six walk forty or fewer, and nine need at most one new path
# goal.  The
# positions are fixed so that every seed asks queries of the same cost; the
# seed picks the constants' names and the order of the edge facts, which is
# the order the demand engine enumerates the universe in.
CHAIN_QUERIES = [(0, 99), (20, 99), (50, 99), (80, 99), (0, 90),
                 (90, 30), (1, 91), (30, 40), (2, 92), (70, 0),
                 (3, 93), (60, 10), (90, 40), (85, 20), (25, 90),
                 (95, 30), (99, 50), (80, 0), (75, 10), (99, 0)]


class Chain:
    """Reachability on seeded chains, decided by both engines and checked
    against a BFS over the generated edges and against each other."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.graphs = []
        for _ in range(CHAIN_GRAPHS):
            # three-digit labels keep key lengths the same for every seed
            names = ["n%d" % i for i in rng.sample(range(100, 1000), CHAIN_N)]
            edges = list(zip(names, names[1:]))
            facts = ["edge %s %s." % e for e in edges]
            rng.shuffle(facts)
            queries = [(names[i], names[j]) for i, j in CHAIN_QUERIES]
            self.graphs.append(("\n".join(facts + PATH_RULES), edges, queries))
        self.progs = []

    def mix(self):
        rows = {}
        for _, edges, queries in self.graphs:
            for x, y in queries:
                row = rows.setdefault("chain N=%d" % (len(edges) + 1), [0, 0])
                row[0] += 2  # one decision per engine
                row[1] += 2 * (y in bfs_reachable(edges, x))
        return {key: {"decisions": c, "accept_share": a / c}
                for key, (c, a) in rows.items()}

    def setup(self, tracer=None):
        batch = Batch()
        self.progs = [_front_end(tracer or NullTracer(), batch, text)
                      for text, _, _ in self.graphs]
        return batch

    def batch(self, tracer=None):
        batch = Batch()
        start = perf_counter()
        did = 0
        for prog, (_, edges, queries) in zip(self.progs, self.graphs):
            did = self._graph(batch, tracer, did, prog, edges, queries)
        batch.wall = perf_counter() - start
        return batch

    def _graph(self, batch, tracer, did, prog, edges, queries):
        traced = tracer is not None
        tracer = tracer or NullTracer()
        wants = []
        for x, y in queries:
            with tracer.span("bfs"):
                wants.append(y in bfs_reachable(edges, x))
        # All seminaive decisions come first, so that no demand table is
        # alive for the garbage collector to walk while they run.
        for (x, y), want in zip(queries, wants):
            t0 = perf_counter()
            try:
                with tracer.span("engines.seminaive.least_model_seminaive",
                                 decision=did):
                    res = least_model_seminaive(prog)
                got = (Ind(x), Ind(y)) in res.interpretation["path"].tuples
            except Exception as e:  # a failed decision is counted
                res, got = None, "%s: %s" % (type(e).__name__, e)
            batch.times.append(perf_counter() - t0)
            if traced and res is not None:
                count_seminaive(batch, res)
            _check_path(batch, "seminaive", x, y, got, want)
            did += 1
        with tracer.span("engines.demand.DemandEngine"):
            eng = DemandEngine(prog)
        for (x, y), want in zip(queries, wants):
            t0 = perf_counter()
            try:
                with tracer.span("engines.demand.solve", decision=did):
                    got = eng.solve(App(App(Pred("path"), Const(x)), Const(y)))
            except Exception as e:  # a failed decision is counted
                got = "%s: %s" % (type(e).__name__, e)
            batch.times.append(perf_counter() - t0)
            _check_path(batch, "demand", x, y, got, want)
            did += 1
        if traced:
            count_demand(batch, eng)
        return did


def _check_path(batch, engine, x, y, got, want):
    # both engines are held to the oracle, so they also agree with each other
    if got != want:
        batch.failures.append({"engine": engine, "query": "path %s %s" % (x, y),
                               "got": got, "want": want})


def make(name, seed):
    if name == "fo-capture":
        return Capture(FO_CLASSES, "seminaive", seed)
    if name == "ho-capture":
        return Capture(HO_CLASSES, "demand", seed)
    if name == "chain":
        return Chain(seed)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("fo-capture", "ho-capture", "chain")
