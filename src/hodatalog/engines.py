"""Production evaluation engines.

* least_model_seminaive: delta-driven bottom-up evaluation for first-order
  programs (all relations over individuals).  Relations hold tuples of the
  model's own interned `Ind`s, so the model is a copy of the fixpoint's
  sets.  Facts (`p a b.`) are rows of the first round.  Each rule shape (a
  rule with its names numbered out) is planned once per process and delta
  focus into a static join order over variable slots, emitted as Python
  source of nested loops and compiled; a run binds the code to its
  relations, indexes and constants.  Probes go through one hash index per
  (predicate, bound positions), built the first time a plan needs it and
  extended with every round's new tuples; a probe that binds every
  position tests the relation itself.
* DemandEngine: demand-driven tabled evaluation for higher-order
  programs.  Ground terms are hash-consed into int ids, and a ground goal
  is memoized under (pred name, arg id, ...); facts are indexed rows of
  ids, and an atom of a predicate given only by facts is looked up, never
  tabled.  Each clause shape (a rule body with its variables, ids and
  names numbered out) is planned once per process into a fixed binding
  order, emitted by the same `_source` as seminaive plans and compiled; a
  run binds the code to its ids, fact indexes and table.  The table is
  driven to a least fixpoint by propagating false-to-true flips to
  recorded dependents, in the order they were recorded.  Trace lines,
  rendered from the ids without recursion, go to stderr.
* decide: the accept/reject entry point.  It and the CLI's crosscheck go
  through `_run_engine`, the one place that picks an engine by name.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .core import (App, BudgetExhaustedError, Const, Eq, HodlError, OMICRON,
                   Pred, Var, app_spine, expr_vars, type_order)
from .encode import encode_input, merge
from .semantics import (TRUE, Bool, FixpointResult, Ind, Rel,
                        herbrand_universe, least_model_naive)


class EngineError(HodlError):
    pass


@dataclass
class EngineConfig:
    engine: str = "demand"  # naive | seminaive | demand
    # BudgetExhaustedError once an engine takes more steps than this.  A
    # step is a productive T_P application for naive, a fact row or derived
    # head tuple (duplicates included) for seminaive and a goal run for
    # demand.  The step counts `_run_engine` reports use the same units,
    # except that seminaive reports rounds.
    step_budget: int = 10 ** 7
    domain_cap: int = 1 << 16  # naive only
    trace: bool = False  # demand only


# ---------------------------------------------------------------------------
# Semi-naive engine (first-order)

def _fact_row(cl):
    """The constant names of a fact, a clause whose body only equates each
    formal once with a constant (as `p a b.` is lowered), in formal order;
    else None.  The seminaive and demand engines take facts as rows."""
    row = {}
    for b in cl.body:
        if not (isinstance(b, Eq) and isinstance(b.left, Var)
                and isinstance(b.right, Const)) or b.left.name in row:
            return None
        row[b.left.name] = b.right.name
    formals = [f.name for f in cl.formals]
    if len(row) == len(formals) and row.keys() == set(formals):
        return tuple(row[f] for f in formals)
    return None


def _shape(cl):
    """A first-order rule with its names taken out: (key, body predicate
    names, constants).

    The key is (formals, atoms, number of constants).  Variables and
    constants are numbered by first occurrence, ("v", i) and ("c", j); an
    atom is ("eq", left, right) or ("pred", terms), its predicate the name
    at its index.  Rules that differ only in names share a key and a plan.
    """
    var, const, preds, atoms = {}, {}, [], []

    def term(e):
        if isinstance(e, Var):
            return ("v", var.setdefault(e.name, len(var)))
        if isinstance(e, (Const, Pred)):
            return ("c", const.setdefault(e.name, len(const)))
        raise EngineError("nested application in first-order atom argument")

    for b in cl.body:
        if isinstance(b, Eq):
            preds.append(None)
            atoms.append(("eq", term(b.left), term(b.right)))
            continue
        h, args = app_spine(b)
        if not isinstance(h, Pred):
            raise EngineError("non-predicate atom head in first-order clause")
        preds.append(h.name)
        atoms.append(("pred", tuple(map(term, args))))
    formals = tuple(("v", var.setdefault(f.name, len(var)))
                    for f in cl.formals)
    return (formals, tuple(atoms), len(const)), preds, tuple(const)


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


def _plan(atoms, focus, formals, slots):
    """Static join order for one rule body, led by the delta focus atom
    `focus` (None for bodies without positive atoms).

    After the focus come equalities with a known side, then the atom with
    the most bound positions; when only equalities with both sides unbound
    remain, the left variable of the first one is enumerated over the
    universe.  Which positions are bound depends only on the earlier
    steps, never on tuple values, so the order is fixed before any tuple
    is read.  Then the formals the body leaves unbound are enumerated, and
    the last step emits the head.
    """
    work = list(range(len(atoms)))
    steps = []
    if focus is not None:
        work.remove(focus)
        steps.append(_match_step("delta", focus, atoms[focus], slots))
    while work:
        pick, best = None, -1
        for i in work:
            atom = atoms[i]
            if atom[0] == "eq":
                if atom[1] in slots.of or atom[2] in slots.of:
                    pick = i
                    break
            else:
                bound = sum(1 for t in atom[1] if t in slots.of)
                if bound > best:
                    pick, best = i, bound
        if pick is None:
            steps.append(("enum", slots.fresh(atoms[work[0]][1])))
            continue
        work.remove(pick)
        atom = atoms[pick]
        steps.append(_match_step("probe", pick, atom, slots)
                     if atom[0] == "pred" else _eq_step(atom, slots))
    for f in dict.fromkeys(formals):
        if f not in slots.of:
            steps.append(("enum", slots.fresh(f)))
    steps.append(("emit", [slots.of[f] for f in formals]))
    return steps


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
    resources R (per probe step an index's `get`, per scan or member step
    a relation) and constants C, and returns `run(<ctx>, ...)`, whose
    further parameters are the slots from `consts` to `bound`.

    Slot i is the local `si`.  Each step is a `for` over rows or an `if`,
    nested in the one before, or a line of straight code: an "app" step
    interns an application with `mk`, and a "call" step tests a subgoal
    with `call(goal key, key)`.  The last step is the innermost block:
    "emit" ticks the budget and adds the head tuple, "return" ends the run
    true.  The source names only slots, positions, steps and its own
    variables, never a predicate, constant or term of the program.
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
            lines += [pad + "if tick() > budget:",
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


@functools.lru_cache(maxsize=512)
def _rule_plans(key):
    """(focus, steps, factory) for each delta focus of a rule shape (a
    `_shape` key): every atom that is not an equality, or None when there
    is none.  Each shape is planned and compiled once per process, for
    every program it occurs in; the cache holds the 512 latest shapes."""
    formals, atoms, consts = key
    foci = [i for i, a in enumerate(atoms) if a[0] == "pred"]
    out = []
    for focus in foci or [None]:
        steps = _plan(atoms, focus, formals, _Slots(consts))
        ctx = ["rows"] if focus is not None else []
        out.append((focus, steps, _compile(_source(
            steps, consts, consts, "add, tick, budget, universe", ctx))))
    return tuple(out)


def _compile(source):
    """The factory `make` that `source` defines."""
    ns = {"BudgetExhaustedError": BudgetExhaustedError}
    exec(compile(source, "<plan>", "exec"), ns)
    return ns["make"]


def _extend(idx, positions, rows):
    key = itemgetter(*positions)
    for row in rows:
        idx.setdefault(key(row), []).append(row)


class _Joins:
    """Relations, indexes and round output of one seminaive run.

    `total[p]` holds the tuples derived for p so far and changes only in
    place, between rounds, so a bound plan can hold it.  `out[p]`
    collects the head tuples emitted during a round.  An index maps the
    value at one key position, or the tuple of values at several, to the
    rows having it.
    """

    def __init__(self, universe, budget):
        self.universe = universe
        self.budget = budget
        self.total = {}
        self.out = {}
        self.indexes = {}  # pred -> {key positions: {key: [row, ...]}}
        self.tick = itertools.count(1).__next__

    def rel(self, p):
        if p not in self.total:
            self.total[p] = set()
            self.out[p] = set()
        return self.total[p]

    def index(self, p, positions):
        by_positions = self.indexes.setdefault(p, {})
        idx = by_positions.get(positions)
        if idx is None:
            idx = by_positions[positions] = {}
            _extend(idx, positions, self.rel(p))
        return idx

    def end_round(self):
        """Add each predicate's new tuples to its relation and indexes, and
        return them as the next delta (predicates without any left out)."""
        delta = {}
        for p, out in self.out.items():
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
        res = []
        for step in steps:
            if step[0] == "probe":
                res.append(self.index(preds[step[1]], step[2]).get)
            elif step[0] in ("scan", "member"):
                res.append(self.rel(preds[step[1]]))
        self.rel(head)
        return make(res, consts, self.out[head].add, self.tick, self.budget,
                    self.universe)


def _seminaive_fixpoint(prog, cfg):
    """The least model's relations, as {pred: set of tuples of `Ind`s}, and
    the number of productive rounds.  Each fact is a row of the first
    round, and ticks the budget as a derived tuple does."""
    for p, ty in prog.signatures.items():
        if type_order(ty) > 1:
            raise EngineError("seminaive engine requires a first-order program"
                              " (predicate %s has order %d)" % (p, type_order(ty)))
    joins = _Joins(list(map(Ind, herbrand_universe(prog))), cfg.step_budget)
    for p in prog.signatures:
        joins.rel(p)
    seeds = []
    plans = {}  # focus predicate -> [[head, preds, consts, steps, make, run]]
    for cl in prog.clauses:
        row = _fact_row(cl)
        if row is not None:
            if joins.tick() > joins.budget:
                raise BudgetExhaustedError("unknown: budget")
            joins.rel(cl.head)
            joins.out[cl.head].add(tuple(map(Ind, row)))
            continue
        key, preds, consts = _shape(cl)
        consts = tuple(map(Ind, consts))
        for focus, steps, make in _rule_plans(key):
            plan = [cl.head, preds, consts, steps, make, None]
            if focus is None:
                seeds.append(plan)
            else:
                plans.setdefault(preds[focus], []).append(plan)

    for plan in seeds:
        joins.bind(*plan[:5])()
    delta, iterations = joins.end_round(), 0
    while delta:
        iterations += 1
        for p, rows in delta.items():
            for plan in plans.get(p, ()):
                if plan[5] is None:  # first use: build the plan's indexes
                    plan[5] = joins.bind(*plan[:5])
                plan[5](rows)
        delta = joins.end_round()
    return joins.total, iterations


def least_model_seminaive(prog, cfg=None):
    """Delta-driven bottom-up fixpoint for first-order programs.

    The step budget of `cfg` counts fact rows and derived head tuples: one
    step per fact row and per tuple a rule body yields, duplicates
    included.  BudgetExhaustedError is raised once the count passes the
    budget.  The fixpoint's tuples already hold the model's `Ind`s, so
    each relation of the model is a copy of its set, with nothing
    rehashed.
    """
    total, iterations = _seminaive_fixpoint(prog, cfg or EngineConfig())
    interp = {}
    for p, ty in prog.signatures.items():
        interp[p] = (Bool(() in total[p]) if ty == OMICRON
                     else Rel(ty, frozenset(total[p])))
    return FixpointResult(interp, iterations)


# ---------------------------------------------------------------------------
# Demand-driven tabled engine

def _demand_shape(formals, atoms, extensional):
    """A rule clause of the demand engine with its names taken out: (key,
    atom predicate names, constants).

    The key is (formals, atoms, number of constants).  Variables are
    numbered by first occurrence, formals first, as ("v", i); ground ids
    and the predicate names of tabled atoms share one numbering, ("c", j);
    an application with variables is ("a", fn, arg).  An atom is ("eq",
    left, right), ("ext", terms) for a predicate given only by facts, or
    ("call", head, terms, variables, closure-headed) for any other, its
    head the name's constant or, closure-headed, a term.  The variables of
    a call follow the sorted order of their names.
    """
    var, const, preds, out = {}, {}, [], []

    def terms(ts):
        return tuple(_numbered(t, var, const) for t in ts)

    formal_terms = terms(formals)
    for name, head, args, names in atoms:
        preds.append(name)
        if name == "=":
            out.append(("eq", *terms(args)))
        elif name in extensional:
            out.append(("ext", terms(args)))
        else:
            head = (_numbered(head, var, const) if name is None
                    else ("c", const.setdefault(name, len(const))))
            out.append(("call", head, terms(args), terms(names),
                        name is None))
    return (formal_terms, tuple(out), len(const)), preds, tuple(const)


def _numbered(t, var, const):
    """A template with its variables and ids numbered in var and const."""
    if type(t) is str:
        return ("v", var.setdefault(t, len(var)))
    if type(t) is int:
        return ("c", const.setdefault(t, len(const)))
    return ("a", _numbered(t[0], var, const), _numbered(t[1], var, const))


@functools.lru_cache(maxsize=512)
def _demand_body(key):
    """(steps, factory) of a demand clause shape (a `_demand_shape` key).

    The order is fixed before any id is read.  Formals are bound on entry.
    Then comes, each time, the first atom left that is not an equality or
    has a known side; when only equalities with both sides unbound remain,
    the left side of the first is enumerated over the universe.  An "ext"
    atom binds its free variables from the fact rows that match its bound
    positions.  A call enumerates its free variables over the universe, in
    sorted-name order, and goes on where its goal is true.  The factory's
    `run(key, formal id, ...)` is true once one instance of the body
    holds, `key` being the goal it runs for.  Each shape is planned and
    compiled once per process, like `_rule_plans`.
    """
    formals, atoms, consts = key
    slots = _Slots(consts)
    for f in formals:
        slots.fresh(f)
    steps = []

    def ground(t):
        """The slot of a term whose variables are bound; an application
        is interned into a slot of its own."""
        if t[0] == "a" and t not in slots.of:
            fn, arg = ground(t[1]), ground(t[2])
            steps.append(("app", slots.fresh(t), fn, arg))
        return slots.of[t]

    work = list(enumerate(atoms))
    while work:
        pick = next((j for j, (_, a) in enumerate(work) if a[0] != "eq"
                     or a[1] in slots.of or a[2] in slots.of), None)
        if pick is None:
            steps.append(("enum", slots.fresh(work[0][1][1])))
            continue
        i, atom = work.pop(pick)
        if atom[0] == "eq":
            steps.append(_eq_step(atom, slots))
        elif atom[0] == "ext":
            for t in atom[1]:
                if t[0] == "a":
                    ground(t)
            steps.append(_match_step("probe", i, atom, slots))
        else:
            _, head, terms, variables, closure = atom
            steps += [("enum", slots.fresh(v)) for v in variables
                      if v not in slots.of]
            steps.append(("call", ground(head), [ground(t) for t in terms],
                          closure))
    steps.append(("return",))
    return steps, _compile(_source(steps, consts, consts + len(formals),
                                   "mk, call, spine, universe", ["key"]))


class DemandEngine:
    """Tabled evaluation of ground goals against a fixed program.

    Ground terms are hash-consed: each is interned once as an int id, a
    leaf as ("c", name) or ("p", name) and an application as (fn id, arg
    id), so equal terms have equal ids however deep they are.  A goal's
    table key is (pred name, arg id, ...), or ("=", left id, right id) for
    an equation; a closure-headed goal flattens through the id table.
    Facts (`p a b.`) become rows of ids, checked before a goal's rules.
    Each rule body is planned once per clause shape (`_demand_body`) and
    runs as compiled Python code bound to this engine's ids, facts and
    table: an atom of a predicate with facts and no rules binds its free
    variables from an index of the rows and is never tabled; any other
    atom tries each constant for its free ones and is looked up as a
    subgoal, recording the dependency.  Entries start false and may flip
    to true exactly once; a flip re-enqueues the goals recorded as
    depending on it, in the order they were recorded, so the stable table
    is the least fixpoint over the discovered goals.
    """

    def __init__(self, prog, cfg=None):
        self.cfg = cfg or EngineConfig()
        self.nodes = []  # id -> node
        self.ids = {}  # node -> id
        self.texts = {}  # id -> text, for traces
        self.universe = [self._id(("c", c)) for c in herbrand_universe(prog)]
        self.clauses = {}  # pred -> [(formal names, body atoms), ...]
        self.facts = {}  # pred -> {row of arg ids: None}, in insertion order
        for cl in prog.clauses:
            row = _fact_row(cl)
            if row is None:
                self.clauses.setdefault(cl.head, []).append(
                    ([f.name for f in cl.formals],
                     [self._atom(b) for b in cl.body]))
            else:
                row = tuple(self._id(("c", c)) for c in row)
                self.facts.setdefault(cl.head, {})[row] = None
        self.extensional = self.facts.keys() - self.clauses.keys()
        self.indexes = {}  # (pred, key positions) -> {key: [row, ...]}
        self.table = {}
        self.deps = {}  # key -> {dependent key: None}, in insertion order
        self.pending = deque()
        self.steps = 0

    def solve(self, goal):
        """A ground atom's truth in the least model; tabled goals are final."""
        name, head, args, _ = self._atom(goal)
        key = ((name, *args) if name is not None
               else self._spine(head) + tuple(args))
        self._intern(key)
        self._run()
        return self.table[key]

    def _id(self, node):
        i = self.ids.get(node)
        if i is None:
            i = self.ids[node] = len(self.nodes)
            self.nodes.append(node)
        return i

    def _template(self, e):
        """The id of a ground term; else a variable's name, or a pair of
        the templates of an application's function and argument."""
        if isinstance(e, Var):
            return e.name
        if isinstance(e, App):
            fn, arg = self._template(e.fn), self._template(e.arg)
            if type(fn) is int and type(arg) is int:
                return self._id((fn, arg))
            return (fn, arg)
        return self._id(("p" if isinstance(e, Pred) else "c", e.name))

    def _atom(self, e):
        """A body atom as (pred name, head template, arg templates, sorted
        variable names).  The name is "=" for an equation and None when the
        head is not a predicate constant."""
        names = sorted({v.name for v in expr_vars(e)})
        if isinstance(e, Eq):
            return ("=", None, (self._template(e.left),
                                self._template(e.right)), names)
        head, args = app_spine(e)
        return (head.name if isinstance(head, Pred) else None,
                self._template(head), [self._template(a) for a in args], names)

    def _spine(self, i):
        """The key prefix (pred name, arg id, ...) of the closure id i."""
        node, spine = self.nodes[i], []
        while type(node[0]) is int:
            spine.append(node[1])
            node = self.nodes[node[0]]
        if node[0] != "p":
            raise EngineError("goal head is not a predicate constant: %s"
                              % node[1])
        return (node[1], *reversed(spine))

    def _render(self, key):
        """A goal's text, for traces."""
        if key[0] == "=":
            return "(%s = %s)" % (self._text(key[1]), self._text(key[2]))
        return " ".join([key[0], *map(self._text, key[1:])])

    def _text(self, i):
        """The text of the term with id i as an argument, an application in
        parentheses.  Texts are kept, and built bottom-up from an explicit
        stack, since a closure can nest deeper than Python recurses."""
        texts, todo = self.texts, [i]
        while todo:
            node, args = self.nodes[todo[-1]], []
            while type(node[0]) is int:
                args.append(node[1])
                node = self.nodes[node[0]]
            new = [a for a in args if a not in texts]
            if new:
                todo += new
                continue
            texts[todo.pop()] = ("(%s %s)" % (node[1], " ".join(
                texts[a] for a in reversed(args))) if args else node[1])
        return texts[i]

    def _intern(self, key):
        if key not in self.table:
            self.table[key] = False
            self.pending.append(key)
            if self.cfg.trace:
                print("%s -> false @%d" % (self._render(key), self.steps),
                      file=sys.stderr)

    def _call(self, key, dependent):
        """The entry of a subgoal that the body of the goal `dependent`
        needs, with the dependency recorded; a new subgoal is interned."""
        deps = self.deps.get(key)
        if deps is None:
            deps = self.deps[key] = {}
        deps[dependent] = None
        entry = self.table.get(key)
        if entry is None:
            self._intern(key)
            return False
        return entry

    def _run(self):
        # pred -> its rules' bodies, bound on first use; they refer to the
        # engine, so kept on it they would make a cycle for the gc to free
        bodies = {}
        while self.pending:
            key = self.pending.popleft()
            if self.table[key]:
                continue
            self.steps += 1
            if self.steps > self.cfg.step_budget:
                raise BudgetExhaustedError("unknown: budget")
            if self._eval_goal(key, bodies):
                self.table[key] = True
                if self.cfg.trace:
                    print("%s -> true @%d" % (self._render(key), self.steps),
                          file=sys.stderr)
                for d in self.deps.get(key, ()):
                    if not self.table[d]:
                        self.pending.append(d)

    def _bind(self, formals, atoms):
        """A rule's body, compiled for its shape and bound to this engine;
        an index of fact rows it probes is built here if it is new."""
        key, preds, consts = _demand_shape(formals, atoms, self.extensional)
        steps, make = _demand_body(key)
        res = []
        for step in steps:
            if step[0] in ("scan", "member"):
                res.append(self.facts[preds[step[1]]])
            elif step[0] == "probe":
                pred, positions = preds[step[1]], step[2]
                idx = self.indexes.get((pred, positions))
                if idx is None:
                    idx = self.indexes[pred, positions] = {}
                    _extend(idx, positions, self.facts[pred])
                res.append(idx.get)
        return make(res, consts, self._id, self._call, self._spine,
                    self.universe)

    def _eval_goal(self, key, bodies):
        if key[0] == "=":
            return key[1] == key[2]
        if key[1:] in self.facts.get(key[0], ()):
            return True
        rules = bodies.get(key[0])
        if rules is None:
            rules = bodies[key[0]] = [
                self._bind(*c) for c in self.clauses.get(key[0], ())]
        for body in rules:
            if body(key, *key[1:]):
                return True
        return False


# ---------------------------------------------------------------------------
# Engine dispatch

def _run_engine(merged, cfg):
    """Run the engine `cfg` names on a program that already holds its input
    facts.  Returns (accept holds, steps taken, the unit of those steps)."""
    if cfg.engine == "seminaive":
        total, rounds = _seminaive_fixpoint(merged, cfg)
        return () in total.get("accept", ()), rounds, "rounds"
    if cfg.engine == "naive":
        res = least_model_naive(merged, cfg.domain_cap, cfg.step_budget)
        return (res.interpretation.get("accept") == TRUE, res.iterations,
                "T_P applications")
    if cfg.engine == "demand":
        eng = DemandEngine(merged, cfg)
        return eng.solve(Pred("accept")), eng.steps, "goal runs"
    raise EngineError("unknown engine %r" % cfg.engine)


def decide(prog, w, cfg=None):
    """The verdict, "accept" or "reject", of the engine `cfg` names run on
    prog merged with the encoded input (w=None: on prog as it is, with no
    input facts)."""
    merged = prog if w is None else merge(prog, encode_input(w))
    accept, _, _ = _run_engine(merged, cfg or EngineConfig())
    return "accept" if accept else "reject"
