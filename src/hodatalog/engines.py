"""Production evaluation engines.

A program never changes, so it is prepared once, on its first decision
(`_prepare`), and kept while it lives.  Both fast engines hold an
individual as its interned `Ind`.  A program's facts are rows of
constant names from the front end on; they are made once into rows of
`Ind`s, and a decision adds only its input rows and the constants they
bring (`_Prepared.with_input`).  A predicate of order at most 1 with no
rule, `input` included, is a "rows" predicate.  One `_shape` lowers each
rule for both engines: its variables, ground subterms and called
predicate names are numbered out, and each body atom becomes an
equality, a "rows" atom (read from the rows of a predicate held as a
relation) or a subgoal call.  One planner, `_plan`, orders both engines'
bodies, so that rows and bound calls bind variables before a call
enumerates them.  Rules of one shape share a plan, emitted by one
`_source` as Python source of nested loops and compiled once per
process; a run binds the code to the resources `_resources` collects and
to its constants.

* least_model_seminaive: delta-driven bottom-up evaluation for first-order
  programs; every predicate is read as rows, its fact rows loaded in
  round 0, and relations hold tuples of the model's own `Ind`s.  The
  least model with no input rows is computed once per program and kept
  as frozensets, which the returned model shares.  A decision with input
  starts from it, the input rows its first delta, unless a plan
  enumerates the universe and the input brings new constants; the
  relations and indexes of predicates that do not read `input` are
  shared with it.  Each rule shape is planned once per delta focus.
  Probes go through one hash index per (predicate, bound positions); a
  probe that binds every position tests the relation itself.  Only live
  indexes, those a recurring plan probes, are kept and extended with each
  round's new tuples.  A plan recurs if its focus predicate heads a rule;
  a plan focused on a rows predicate runs in round 1 only.
* DemandEngine: demand-driven tabled evaluation for higher-order
  programs.  A ground goal is memoized under (pred name, arg, ...), a
  closure argument hash-consed into an int id; a rows atom is looked up
  in indexed rows, never tabled, and a ruled predicate's rows are one
  more body.  The rows and indexes of every predicate but `input` are the
  prepared program's.  A new subgoal runs when first called, nested in
  its caller up to a fixed depth; only readers of a false entry that may
  still flip are recorded, and re-enqueued when it flips.  Trace lines,
  rendered without recursion, go to stderr.
* decide: the accept/reject entry point.  It and the CLI's crosscheck go
  through `_run_engine`, the one place that picks an engine by name.
"""

from __future__ import annotations

import functools
import itertools
import sys
import weakref
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .core import (App, BudgetExhaustedError, Const, Eq, HodlError, OMICRON,
                   Pred, Var, app_spine, expr_vars, render_type, type_order)
from .encode import INPUT_TYPE, encode_input, merge, new_constants
from .semantics import TRUE, Bool, FixpointResult, Ind, Rel, least_model_naive


class EngineError(HodlError):
    pass


@dataclass
class EngineConfig:
    engine: str = "demand"  # naive | seminaive | demand
    # BudgetExhaustedError once an engine takes more steps than this.  A
    # step is a productive T_P application for naive, a fact row or derived
    # head tuple (duplicates included) for seminaive and a goal run for
    # demand.  The step counts `_run_engine` reports use the same units,
    # except that seminaive reports rounds.  A seminaive decision counts
    # the steps and rounds of the program's no-input model, made once and
    # kept, as its own, so a warm decision has the same budget as a cold
    # one and reports no fewer rounds than a run from the empty model.
    step_budget: int = 10 ** 7
    domain_cap: int = 1 << 16  # naive only
    trace: bool = False  # demand only


# ---------------------------------------------------------------------------
# Lowering, planning and emitted code, for both engines

def _shape(cl, rows):
    """A rule clause with its names taken out, for both engines: (key, atom
    predicate names, constants).  Clauses that differ only in names share
    a key and a plan.

    The key is (formals, atoms, number of constants).  Variables are
    numbered by first occurrence, formals first, as ("v", i); ground
    subterms and called predicates' names (str) share ("c", j); an
    application with variables is ("a", fn, arg).  An atom is ("eq", left,
    right), ("rows", terms) for a predicate in `rows`, or ("call", head,
    terms, variables in sorted-name order, closure-headed), its head the
    name's constant or, closure-headed, a term.  An individual constant
    is its `Ind`; a ground closure stays an expression.
    """
    var, const, preds, atoms = {}, {}, [], []

    def ground(e):
        return ("c", const.setdefault(e, len(const)))

    def term(e, top=True):
        """The numbered term of e.  Below the top a ground subterm is None,
        numbered whole by its parent, so each subterm is visited once."""
        if isinstance(e, Var):
            return ("v", var.setdefault(e.name, len(var)))
        if isinstance(e, App):
            fn, arg = term(e.fn, False), term(e.arg, False)
            if fn or arg:
                return ("a", fn or ground(e.fn), arg or ground(e.arg))
        return ground(e) if top else None

    formals = tuple(("v", var.setdefault(f.name, len(var)))
                    for f in cl.formals)
    for b in cl.body:
        if isinstance(b, Eq):
            preds.append(None)
            atoms.append(("eq", term(b.left), term(b.right)))
            continue
        h, args = app_spine(b)
        pred = h.name if isinstance(h, Pred) else None
        preds.append(pred)
        if pred in rows:
            atoms.append(("rows", tuple(map(term, args))))
            continue
        head = ground(pred) if pred is not None else term(h)
        names = sorted({v.name for v in expr_vars(b)})
        atoms.append(("call", head, tuple(map(term, args)),
                      tuple(("v", var[n]) for n in names), pred is None))
    return (formals, tuple(atoms), len(const)), preds, tuple(
        Ind(c.name) if isinstance(c, Const) else c for c in const)


class _Slots:
    """Slot numbers of one rule's constants and variables.

    Constants take the first slots, filled in before any step runs; a
    variable takes the next free slot when a step binds it, so the slots
    one step writes are consecutive.
    """

    def __init__(self, consts):
        self.of = {("c", j): j for j in range(consts)}
        self.n = consts

    def fresh(self, term=None):
        self.n += 1
        if term is not None:
            self.of[term] = self.n - 1
        return self.n - 1


def _match_step(kind, i, atom, slots):
    """A step reading the rows of body atom i:
    (kind, i, key positions, key slots, output positions, first output
    slot, checks).

    Outside the delta focus, the positions holding a constant or an
    already bound variable form the probe key.  Every other position is
    written to the next slot.  The first occurrence of a variable makes
    that slot the variable's; a repeated variable, or a constant in the
    focus, adds a check that the slot equals the one it must match.
    """
    args = atom[1]
    key_pos, key_slots = [], []
    if kind != "delta":
        for pos, t in enumerate(args):
            if t in slots.of:
                key_pos.append(pos)
                key_slots.append(slots.of[t])
    lo = slots.n
    out_pos, checks = [], []
    for pos, t in enumerate(args):
        if pos in key_pos:
            continue
        out_pos.append(pos)
        if t in slots.of:
            checks.append((slots.of[t], slots.fresh()))
        else:
            slots.fresh(t)
    if kind != "delta":
        if not out_pos:
            kind = "member"
        elif not key_pos:
            kind = "scan"
    return (kind, i, tuple(key_pos), key_slots, out_pos, lo, checks)


def _eq_step(atom, slots):
    """The step of an equality with a known side: a check when both sides
    are known, else an assignment to the unknown one."""
    _, l, r = atom
    if l in slots.of and r in slots.of:
        return ("check", slots.of[l], slots.of[r])
    if l in slots.of:
        return ("assign", slots.fresh(r), slots.of[l])
    return ("assign", slots.fresh(l), slots.of[r])


# Blocks one emitted function nests before the rest of the plan moves to
# another: CPython allows 20 nested loops and 100 indentation levels.
_MAX_DEPTH = 16


def _source(steps, consts, bound, params, ctx):
    """Python source of `make(R, C, <params>)`, which binds a plan's
    resources R (`_resources`) and constants C, and returns `run(<ctx>,
    ...)`, whose further parameters are the slots from `consts` to `bound`.

    Slot i is the local `si`.  Each step is a `for` over rows or an `if`,
    nested in the one before, or a line of straight code: an "app" step
    interns an application with `mk`, and a "call" step tests a subgoal
    with `call(goal key, key)`.  The innermost step "emit" ticks the
    budget and adds the head tuple, or "return" ends the run true.  The
    source never names a predicate, constant or term of the program.
    """
    lines = ["def make(R, C, %s):" % params]
    res = [n for n, s in enumerate(steps) if s[0] in ("probe", "scan", "member")]
    lines.append(" %s = R" % _tuple("r%d" % n for n in res))
    lines.append(" %s = C" % _tuple("s%d" % i for i in range(consts)))

    def sig():
        return ", ".join(ctx + ["s%d" % i for i in range(consts, bound)])

    lines.append(" def run(%s):" % sig())
    depth, calls = 2, 0
    for n, step in enumerate(steps):
        if depth > _MAX_DEPTH:
            calls += 1
            lines += [" " * depth + "if f%d(%s):" % (calls, sig()),
                      " " * depth + " return True",
                      " def f%d(%s):" % (calls, sig())]
            depth = 2
        pad, kind = " " * depth, step[0]
        if kind in ("assign", "app"):
            lines.append(pad + ("s%d = s%d" if kind == "assign"
                                else "s%d = mk((s%d, s%d))") % step[1:])
            bound = step[1] + 1
            continue
        if kind == "emit":
            lines += [pad + "if next(tick) > budget:",
                      pad + ' raise BudgetExhaustedError("unknown: budget")',
                      pad + "add(%s)" % _tuple("s%d" % i for i in step[1])]
            continue
        if kind == "return":
            lines.append(pad + "return True")
            continue
        depth += 1
        if kind == "check":
            lines.append(pad + "if s%d == s%d:" % step[1:])
            continue
        if kind == "enum":
            lines.append(pad + "for s%d in universe:" % step[1])
            bound = step[1] + 1
            continue
        if kind == "call":
            # a goal key: (name, arg, ...), or a closure's spine and args
            _, head, args, closure = step
            sub = _tuple("s%d" % i for i in (args if closure
                                             else (head, *args)))
            if closure:
                sub = "spine(s%d) + %s" % (head, sub)
            lines.append(pad + "if call(%s, key):" % sub)
            continue
        _, _, key_pos, key_slots, out_pos, lo, checks = step
        key = ["s%d" % i for i in key_slots]
        if kind == "member":
            lines.append(pad + "if %s in r%d:" % (_tuple(key), n))
            continue
        bound = lo + len(out_pos)
        target = ["_"] * (len(key_pos) + len(out_pos))
        for j, pos in enumerate(out_pos):
            target[pos] = "s%d" % (lo + j)
        # "(s1)" is one value, "(s1, s2)" a tuple, as `_extend` keys rows
        rows = {"delta": "rows", "scan": "r%d" % n,
                "probe": "r%d((%s), ())" % (n, ", ".join(key))}[kind]
        lines.append(pad + "for %s in %s:" % (_tuple(target), rows))
        if checks:
            lines.append(" " * depth + "if %s:" % " and ".join(
                "s%d == s%d" % c for c in checks))
            depth += 1
    lines.append(" return run")
    return "\n".join(lines) + "\n"


def _tuple(names):
    """A tuple display or target list of names: "(a, b,)", or "()"."""
    return "(%s)" % "".join(n + ", " for n in names).rstrip()


def _compile(source):
    """The factory `make` that `source` defines."""
    ns = {"BudgetExhaustedError": BudgetExhaustedError}
    exec(compile(source, "<plan>", "exec"), ns)
    return ns["make"]


def _extend(idx, positions, rows):
    key = itemgetter(*positions)
    for row in rows:
        idx.setdefault(key(row), []).append(row)


def _resources(steps, preds, rel, index):
    """What a plan's code reads, its R in `_source`: per probe step the
    `get` of index(pred, key positions), per scan or member step rel(pred),
    pred being the predicate of the step's atom."""
    return [index(preds[s[1]], s[2]).get if s[0] == "probe"
            else rel(preds[s[1]])
            for s in steps if s[0] in ("probe", "scan", "member")]


def _plan(atoms, slots, focus=None):
    """The steps of one body, for both engines, led by the delta focus atom
    `focus` if one is given.  Then comes, each time, the first equality
    with a known side; else the first "rows" atom with the most bound
    positions, which binds its free variables from the matching rows; else
    the first call whose variables are all bound, and failing that the
    first call left, its free variables enumerated over the universe in
    sorted-name order and its applications interned.  When only equalities
    with both sides unbound remain, the left side of the first is
    enumerated.  The order is fixed before any row is read.
    """
    work = list(range(len(atoms)))
    steps = []
    if focus is not None:
        work.remove(focus)
        steps.append(_match_step("delta", focus, atoms[focus], slots))

    def ground(t):
        """The slot of a term whose variables are bound; an application
        is interned into a slot of its own."""
        if t[0] == "a" and t not in slots.of:
            fn, arg = ground(t[1]), ground(t[2])
            steps.append(("app", slots.fresh(t), fn, arg))
        return slots.of[t]

    def rank(i):
        atom = atoms[i]
        if atom[0] == "eq":
            return 3 if atom[1] in slots.of or atom[2] in slots.of else 0, 0
        if atom[0] == "rows":
            return 2, sum(1 for t in atom[1] if t in slots.of)
        return 1, all(v in slots.of for v in atom[3])

    while work:
        pick = max(work, key=rank)
        atom = atoms[pick]
        if rank(pick)[0] == 0:  # the first of the unbound equalities left
            steps.append(("enum", slots.fresh(atom[1])))
            continue
        work.remove(pick)
        if atom[0] == "eq":
            steps.append(_eq_step(atom, slots))
        elif atom[0] == "rows":  # of order at most 1: no application
            steps.append(_match_step("probe", pick, atom, slots))
        else:
            _, head, terms, variables, closure = atom
            steps += [("enum", slots.fresh(v)) for v in variables
                      if v not in slots.of]
            steps.append(("call", ground(head), [ground(t) for t in terms],
                          closure))
    return steps


# ---------------------------------------------------------------------------
# Programs prepared once

class _Prepared:
    """A program lowered once, for every decision made on it: `rules` by
    head; the rows predicates, those of order at most 1 (`input` included),
    their fact rows in `rels` ({pred: {row of `Ind`s: None}}, a repeated
    fact one row but `fact_rows` steps) and those of them with no rule
    (`extensional`); the `universe` of `Ind`s and the constants' `names`;
    the demand `indexes` of those rows; and on first use the seminaive
    half, the no-input model and each demand predicate's lowered rules.
    A program never changes, so none of this goes stale; the program is
    not held itself."""

    def __init__(self, prog):
        self.signatures = prog.signatures
        self.rules = {}  # pred -> [Clause, ...]
        for cl in prog.clauses:
            self.rules.setdefault(cl.head, []).append(cl)
        self.rels = {p: {} for p in ("input", *self.signatures)
                     if type_order(self.signatures.get(p, INPUT_TYPE)) <= 1}
        for p, rows in prog.facts.items():
            self.rels[p] = dict.fromkeys(tuple(map(Ind, row)) for row in rows)
        self.fact_rows = sum(map(len, prog.facts.values()))
        self.extensional = self.rels.keys() - self.rules.keys()
        self.universe = list(map(Ind, prog.constants))
        self.names = frozenset(prog.constants)
        self.indexes = {}  # (pred, key positions) -> {key: [row, ...]}
        self.demand = {}  # pred -> [body, ...]
        self.plans = self.model = None

    def with_input(self, rows):
        """The universe and rows of a decision with the input/3 `rows`
        (names; None: none): the program's own, with the input's new
        constants appended in first-occurrence order to a copy of the
        universe (the program's own list if there are none), and its rows
        added to a copy of `input`'s alone."""
        if rows is None:
            return self.universe, self.rels
        new = new_constants(self.signatures, rows, self.names)
        return (self.universe + list(map(Ind, new)) if new else self.universe,
                {**self.rels, "input": {**self.rels["input"], **dict.fromkeys(
                    tuple(map(Ind, row)) for row in rows)}})

    def bodies(self, pred):
        """(preds, consts, steps, make) of pred's rules, lowered for demand."""
        rules = self.demand.get(pred)
        if rules is None:
            rules = self.demand[pred] = []
            for cl in self.rules.get(pred, ()):
                shape, preds, consts = _shape(cl, self.extensional)
                rules.append((preds, consts, *_demand_body(shape)))
        return rules

    def seminaive(self):
        """Self, with the seminaive half made: plans (head, preds, consts,
        steps, make) with no focus, such as `p X :- (X = a).` (`seeds`),
        and by focus predicate (`plans`), with the heads each focus's
        plans emit (`heads`); the (pred, key positions) that a plan whose
        focus heads a rule probes (`live`); whether any plan enumerates
        the universe (`enumerates`); and, for each predicate that does not
        read `input`, even through others, the indexes that decisions
        share (`shared`).  Any other plan runs in round 1 only, the one
        round its focus has a delta."""
        if self.plans is not None:
            return self
        for p, ty in self.signatures.items():
            if type_order(ty) > 1:
                raise EngineError("seminaive engine requires a first-order "
                                  "program (predicate %s has order %d)"
                                  % (p, type_order(ty)))
        seeds, plans, heads, reads = [], {}, {}, {}
        for head, rules in self.rules.items():
            for cl in rules:
                key, preds, consts = _shape(cl, self.signatures)
                reads.setdefault(head, set()).update(preds)
                for focus, steps, make in _rule_plans(key):
                    plan = (head, preds, consts, steps, make)
                    if focus is None:
                        seeds.append(plan)
                        continue
                    plans.setdefault(preds[focus], []).append(plan)
                    heads.setdefault(preds[focus], {})[head] = None
        self.live = {(preds[s[1]], s[2]) for p, ps in plans.items()
                     if p in self.rules for _, preds, _, steps, _ in ps
                     for s in steps if s[0] == "probe"}
        self.enumerates = any(s[0] == "enum" for ps in (seeds, *plans.values())
                              for *_, steps, _ in ps for s in steps)
        dependent, grown = {"input"}, True
        while grown:
            grown = {h for h, ps in reads.items()
                     if h not in dependent and not ps.isdisjoint(dependent)}
            dependent |= grown
        self.shared = {p: {} for p in self.rels.keys() | self.rules.keys()
                       if p not in dependent}  # pred -> {positions: index}
        self.seeds, self.heads, self.plans = seeds, heads, plans
        return self

    def no_input(self, budget):
        """(relations, steps, rounds) of the program's least model with no
        input rows, its relations frozensets: made on first use and kept.
        Its steps count against every later `budget` too."""
        if self.model is None:
            joins = _Joins(self.universe, budget, self.live, {}, {})
            joins.load(self.rels, self.fact_rows)
            rounds = _rounds(self, joins, self.seeds)
            total = joins.total  # each set dropped once it is copied
            self.model = ({p: frozenset(total.pop(p)) for p in list(total)},
                          next(joins.tick) - 1, rounds)
        if self.model[1] > budget:
            raise BudgetExhaustedError("unknown: budget")
        return self.model


_PREPARED = {}  # id(prog) -> (weak reference to prog, its _Prepared)


def _prepare(prog):
    """prog's `_Prepared`, made on its first decision and kept while prog
    lives."""
    ref, prep = _PREPARED.get(id(prog), (None, None))
    if ref is not None and ref() is prog:
        return prep
    key, prep = id(prog), _Prepared(prog)
    ref = weakref.ref(prog, lambda _: _PREPARED.pop(key, None))
    _PREPARED[key] = ref, prep
    return prep


# ---------------------------------------------------------------------------
# Semi-naive engine (first-order)

@functools.lru_cache(maxsize=512)
def _rule_plans(key):
    """(focus, steps, factory) for each delta focus of a rule shape (a
    `_shape` key): every atom that is not an equality, or None when there
    is none.  The body `_plan` orders is followed by enumerations of the
    formals it leaves unbound and a step that emits the head.  Each of the
    512 latest shapes is planned and compiled once per process."""
    formals, atoms, consts = key
    foci = [i for i, a in enumerate(atoms) if a[0] == "rows"]
    out = []
    for focus in foci or [None]:
        slots = _Slots(consts)
        steps = _plan(atoms, slots, focus)
        for f in dict.fromkeys(formals):
            if f not in slots.of:
                steps.append(("enum", slots.fresh(f)))
        steps.append(("emit", [slots.of[f] for f in formals]))
        ctx = ["rows"] if focus is not None else []
        out.append((focus, steps, _compile(_source(
            steps, consts, consts, "add, tick, budget, universe", ctx))))
    return tuple(out)


class _Joins:
    """Relations, indexes and round output of one seminaive run.

    `total[p]` holds the tuples derived for p so far and changes only in
    place, between rounds, so a bound plan can hold it.  `out[p]`
    collects the head tuples emitted during a round.  An index maps the
    value at one key position, or the tuple at several, to the rows having
    it.  Only `live` indexes are kept and extended; any other is built for
    the round-1 plan that probes it.  A predicate in `shared` never
    changes in this run: its relation is the one it starts from, and its
    indexes, kept in shared[p] ({key positions: index}), serve every run
    that shares them.
    """

    def __init__(self, universe, budget, live, model, shared):
        """Each predicate starts from its relation in `model` ({pred:
        frozenset}), copied unless shared, or else empty."""
        self.universe, self.budget, self.live = universe, budget, live
        self.shared = shared
        self.total = {p: rel if p in shared else set(rel)
                      for p, rel in model.items()}
        self.out = {p: set() for p in self.total}
        self.indexes = {}  # pred -> {key positions: {key: [row, ...]}}

    def load(self, rows, steps):
        """Make round 0's output the rows of `rows`, {pred: rows}; `steps`
        already taken, one per fact row among them, count against the
        budget."""
        for p, new in rows.items():
            self.rel(p)
            self.out[p].update(new)
        if steps > self.budget:
            raise BudgetExhaustedError("unknown: budget")
        self.tick = itertools.count(steps + 1)  # the next step's number

    def rel(self, p):
        if p not in self.total:
            self.total[p] = set()
            self.out[p] = set()
        return self.total[p]

    def index(self, p, positions):
        by_positions = (self.shared[p] if p in self.shared
                        else self.indexes.setdefault(p, {})
                        if (p, positions) in self.live else {})
        idx = by_positions.get(positions)
        if idx is None:
            idx = by_positions[positions] = {}
            _extend(idx, positions, self.rel(p))
        return idx

    def end_round(self, preds):
        """Add the new tuples of each of `preds`, those that may have
        emitted this round, to its relation and indexes, and return them
        as the next delta (predicates without any left out)."""
        delta = {}
        for p in preds:
            out = self.out[p]
            if not out:
                continue
            new = out - self.total[p]
            out.clear()
            if new:
                self.total[p] |= new
                for positions, idx in self.indexes.get(p, {}).items():
                    _extend(idx, positions, new)
                delta[p] = new
        return delta

    def bind(self, head, preds, consts, steps, make):
        """A rule's `run` for one plan, over this run's relations and
        indexes; an index the plan probes is built here if it is new."""
        res = _resources(steps, preds, self.rel, self.index)
        self.rel(head)
        return make(res, consts, self.out[head].add, self.tick, self.budget,
                    self.universe)


def _rounds(prep, joins, seeds):
    """Run the plans `seeds` once, then every delta of `joins` to the
    fixpoint; the number of productive rounds."""
    for plan in seeds:
        joins.bind(*plan)()
    delta, iterations = joins.end_round(joins.out), 0
    runs = {}  # focus predicate -> its plans' runs, bound on first use
    while delta:
        iterations += 1
        heads = {}
        for p, rows in delta.items():
            bound = runs.get(p)
            if bound is None:
                bound = runs[p] = [joins.bind(*plan)
                                   for plan in prep.plans.get(p, ())]
            for run in bound:
                run(rows)
            heads.update(prep.heads.get(p, ()))
        delta = joins.end_round(heads)
    return iterations


def _seminaive_fixpoint(prog, cfg, rows=None):
    """The least model's relations, as {pred: set of tuples of `Ind`s}, and
    the number of productive rounds, for prog with the input/3 `rows`
    (names; None: none).

    A decision starts from the program's no-input model, with the input
    rows as round 0's output.  That is sound, since the model only grows
    with the rows (Gupta, Mumick & Subrahmanian, SIGMOD 1993), unless a
    plan enumerates the universe and the input brings new constants: such
    a plan derives over them with no delta, so that decision starts from
    the empty model.  A predicate that does not read `input`, even through
    others, keeps the no-input model's set; any other starts from a copy.
    The no-input model's steps and rounds count in the decision's.
    """
    prep = _prepare(prog).seminaive()
    budget = cfg.step_budget
    if rows is None:
        model, _, rounds = prep.no_input(budget)
        return model, rounds
    universe, rels = prep.with_input(rows)
    if universe is not prep.universe and prep.enumerates:
        joins = _Joins(universe, budget, prep.live, {}, {})
        joins.load(rels, prep.fact_rows + len(rows))
        return joins.total, _rounds(prep, joins, prep.seeds)
    model, steps, rounds = prep.no_input(budget)
    joins = _Joins(universe, budget, prep.live, model, prep.shared)
    joins.load({"input": rels["input"]}, steps + len(rows))
    return joins.total, rounds + _rounds(prep, joins, ())


def least_model_seminaive(prog, cfg=None):
    """Delta-driven bottom-up fixpoint for first-order programs.

    The step budget of `cfg` counts one step per fact row and per tuple a
    rule body yields, duplicates included; BudgetExhaustedError is raised
    once the count passes the budget.  The model's relations are the
    program's no-input model, made once and shared by every call.
    """
    total, iterations = _seminaive_fixpoint(prog, cfg or EngineConfig())
    return FixpointResult({p: Bool(() in total[p]) if ty == OMICRON
                           else Rel(ty, total[p])
                           for p, ty in prog.signatures.items()}, iterations)


# ---------------------------------------------------------------------------
# Demand-driven tabled engine

@functools.lru_cache(maxsize=512)
def _demand_body(key):
    """(steps, factory) of a demand clause shape (a `_shape` key), planned
    and compiled once per process, like `_rule_plans`.  Formals are bound
    on entry, and `_plan` orders the body after them.  The factory's
    `run(key, formal id, ...)` is true once one instance of the body
    holds, `key` being the goal it runs for."""
    formals, atoms, consts = key
    slots = _Slots(consts)
    for f in formals:
        slots.fresh(f)
    steps = _plan(atoms, slots) + [("return",)]
    return steps, _compile(_source(steps, consts, consts + len(formals),
                                   "mk, call, spine, universe", ["key"]))


# First runs nest at most this deep.  A level takes `_call`, `_step`,
# `_eval_goal`, a body's `run` and, if its plan is split, `f1`: nesting
# adds at most 5 * _EAGER_DEPTH = 200 Python frames.
_EAGER_DEPTH = 40


class DemandEngine:
    """Tabled evaluation of ground goals against a fixed program, with the
    input/3 `rows` (names; None: none) added to it.

    An individual is its `Ind`.  A closure is interned as an int id, a
    predicate leaf as its name and an application as (fn id, arg), so equal
    closures have equal ids however deep they are.  A goal's table key is
    (pred name, arg, ...); a closure-headed goal flattens through the id
    table.  A goal of a rows predicate reads its rows; a ruled predicate's
    bodies (`_demand_body`), led by its rows if it has any, are bound to
    this engine on its first call in a `solve`.  Entries start false and may flip to true exactly once.  A new
    subgoal runs at once, nested in its caller, or is queued past
    `_EAGER_DEPTH` nested runs.  Readers of an open entry, a false one that
    may still flip, are recorded and re-enqueued when it flips; a goal
    whose false run read no open entry is final, and every entry is once
    the queue is empty.  So the stable table is the least fixpoint.
    """

    def __init__(self, prog, cfg=None, rows=None):
        self.cfg = cfg or EngineConfig()
        self.prep = _prepare(prog)
        self.universe, self.rels = self.prep.with_input(rows)  # rels ordered
        self.indexes = {}  # of the rows this engine adds, keyed as prep's
        self.nodes = []  # closure id -> node
        self.ids = {}  # node -> closure id
        self.texts = {}  # arg -> text, for traces
        self.table = {}
        self.open = set()  # false entries that may still flip
        self.deps = {}  # open key -> {dependent key: None}, in insertion order
        self.pending = deque()  # goals to run once the stack is empty
        self.stack = []  # per running goal: it has read no open entry yet
        self.bodies = {}  # pred -> its rules' bodies, bound in this solve
        self.steps = 0

    def solve(self, goal):
        """A ground atom's truth in the least model; tabled goals are final."""
        head, args = app_spine(goal)
        if not isinstance(head, Pred):
            raise EngineError("goal head is not a predicate: %r" % (head,))
        key = (head.name, *map(self._term_id, args))
        if key not in self.table:
            self._intern(key)
            self.pending.append(key)
        try:
            self._run()
        finally:  # bound bodies refer to the engine: kept, they form a cycle
            self.bodies, self.stack = {}, []
        return self.table[key]

    def _id(self, node):
        i = self.ids.get(node)
        if i is None:
            i = self.ids[node] = len(self.nodes)
            self.nodes.append(node)
        return i

    def _term_id(self, e):
        """The `Ind` of an individual, or the id of a ground closure."""
        if isinstance(e, App):
            return self._id((self._term_id(e.fn), self._term_id(e.arg)))
        if isinstance(e, Var):
            raise EngineError("not a ground term: variable %s" % e.name)
        return self._id(e.name) if isinstance(e, Pred) else Ind(e.name)

    def _spine(self, i):
        """The key prefix (pred name, arg, ...) of the closure id i."""
        node, spine = self.nodes[i], []
        while type(node) is tuple:
            spine.append(node[1])
            node = self.nodes[node[0]]
        return (node, *reversed(spine))

    def _render(self, key):
        """A goal's text, for traces."""
        return " ".join([key[0], *map(self._text, key[1:])])

    def _text(self, arg):
        """The text of an argument, an application in parentheses.  Texts
        are kept, and built bottom-up from an explicit stack, since a
        closure can nest deeper than Python recurses."""
        texts, todo = self.texts, [arg]
        while todo:
            top, args = todo[-1], []
            node = top.name if type(top) is Ind else self.nodes[top]
            while type(node) is tuple:
                args.append(node[1])
                node = self.nodes[node[0]]
            new = [a for a in args if a not in texts]
            if new:
                todo += new
                continue
            texts[todo.pop()] = ("(%s %s)" % (node, " ".join(
                texts[a] for a in reversed(args))) if args else node)
        return texts[arg]

    def _intern(self, key):
        self.table[key] = False
        self.open.add(key)
        if self.cfg.trace:
            print("%s -> false @%d" % (self._render(key), self.steps),
                  file=sys.stderr)

    def _call(self, key, dependent):
        """The entry of a subgoal that the body of the goal `dependent`
        needs; a new subgoal runs at once, or is queued past `_EAGER_DEPTH`
        nested runs.  Reading an open entry records the dependency."""
        entry = self.table.get(key)
        if entry is None:
            self._intern(key)
            if len(self.stack) <= _EAGER_DEPTH:
                entry = self._step(key)
            else:
                self.pending.append(key)
        if entry or key not in self.open:
            return entry
        self.stack[-1] = False
        self.deps.setdefault(key, {})[dependent] = None
        return False

    def _run(self):
        while self.pending:
            key = self.pending.popleft()
            if key in self.open:
                self._step(key)
        self.open.clear()  # every entry is final now
        self.deps.clear()

    def _step(self, key):
        """Run the goal key once and return its entry.  A flip re-enqueues
        its open dependents; a false run reading no open entry is final."""
        self.steps += 1
        if self.steps > self.cfg.step_budget:
            raise BudgetExhaustedError("unknown: budget")
        self.stack.append(True)
        if self._eval_goal(key):
            self.stack.pop()
            self.table[key] = True
            if self.cfg.trace:
                print("%s -> true @%d" % (self._render(key), self.steps),
                      file=sys.stderr)
            self.open.discard(key)
            for d in self.deps.pop(key, ()):
                if d in self.open:
                    self.pending.append(d)
            return True
        if self.stack.pop():
            self.open.discard(key)
        return False

    def _bind(self, preds, consts, steps, make):
        """A rule's body bound to this engine; an index of rows it probes is
        built here if it is new."""
        consts = [self._term_id(c) if isinstance(c, (App, Pred)) else c
                  for c in consts]
        res = _resources(steps, preds, self.rels.__getitem__, self._index)
        return make(res, consts, self._id, self._call, self._spine,
                    self.universe)

    def _index(self, pred, positions):
        """An index of pred's rows, shared with every engine on the
        prepared program unless this engine added rows to pred's."""
        rel = self.rels[pred]
        indexes = (self.prep.indexes if rel is self.prep.rels[pred]
                   else self.indexes)
        idx = indexes.get((pred, positions))
        if idx is None:
            idx = indexes[pred, positions] = {}
            _extend(idx, positions, rel)
        return idx

    def _read_rows(self, key, *args):
        return args in self.rels[key[0]]

    def _eval_goal(self, key):
        # no closure here: a cell variable slows every call on CPython
        pred = key[0]
        if pred not in self.prep.rules:
            return key[1:] in self.rels.get(pred, ())
        rules = self.bodies.get(pred)
        if rules is None:
            rules = self.bodies[pred] = list(itertools.starmap(
                self._bind, self.prep.bodies(pred)))
            if self.rels.get(pred):  # a ruled predicate's rows: one more body
                rules.insert(0, self._read_rows)
        for body in rules:
            if body(key, *key[1:]):
                return True
        return False


# ---------------------------------------------------------------------------
# Engine dispatch

def _run_engine(prog, w, cfg):
    """Run the engine `cfg` names on prog with the input facts of w (None:
    none); the fast engines take them as rows added to the prepared prog.
    Returns (accept holds, steps taken, the unit of those steps)."""
    ty = prog.signatures.get("accept", OMICRON)
    if ty != OMICRON:
        raise EngineError("accept has type %s, not o" % render_type(ty))
    rows = None if w is None else encode_input(w)
    if cfg.engine == "seminaive":
        total, rounds = _seminaive_fixpoint(prog, cfg, rows)
        return () in total.get("accept", ()), rounds, "rounds"
    if cfg.engine == "naive":
        merged = prog if rows is None else merge(prog, rows)
        res = least_model_naive(merged, cfg.domain_cap, cfg.step_budget)
        return (res.interpretation.get("accept") == TRUE, res.iterations,
                "T_P applications")
    if cfg.engine == "demand":
        eng = DemandEngine(prog, cfg, rows)
        return eng.solve(Pred("accept")), eng.steps, "goal runs"
    raise EngineError("unknown engine %r" % cfg.engine)


def decide(prog, w, cfg=None):
    """The verdict, "accept" or "reject", of the engine `cfg` names run on
    prog with the encoded input (w=None: on prog as it is, with no input
    facts)."""
    accept, _, _ = _run_engine(prog, w, cfg or EngineConfig())
    return "accept" if accept else "reject"
