"""Production evaluation engines.

* least_model_seminaive: delta-driven bottom-up evaluation for first-order
  programs (all relations over individuals).  Each rule body is compiled,
  once per call and once per delta focus, into a static join plan whose
  steps read and write a list of variable slots.  Probes go through one
  hash index per (predicate, bound positions), built the first time a plan
  needs it and extended with every round's new tuples; a probe that binds
  every position tests the relation itself.
* DemandEngine: demand-driven tabled evaluation for higher-order
  programs.  Ground terms are hash-consed into int ids, clause bodies are
  compiled once into templates over them, and a ground goal is memoized
  under (pred name, arg id, ...); facts are indexed rows of ids, and an
  atom of a predicate given only by facts is looked up, never tabled.
  The table is driven to a least fixpoint by propagating false-to-true
  flips to recorded dependents, in the order they were recorded.  Trace
  lines, rendered from the ids, go to stderr.
* decide: the accept/reject entry point.  It and the CLI's crosscheck go
  through `_run_engine`, the one place that picks an engine by name.
"""

from __future__ import annotations

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
from .syntax import render_expr


class EngineError(HodlError):
    pass


@dataclass
class EngineConfig:
    engine: str = "demand"  # naive | seminaive | demand
    # BudgetExhaustedError once an engine takes more steps than this.  A
    # step is a productive T_P application for naive, a derived head tuple
    # (duplicates included) for seminaive and a goal run for demand.  The
    # step counts `_run_engine` reports use the same units, except that
    # seminaive reports rounds.
    step_budget: int = 10 ** 7
    domain_cap: int = 1 << 16  # naive only
    trace: bool = False  # demand only


# ---------------------------------------------------------------------------
# Semi-naive engine (first-order)

def _compile_atom(e):
    if isinstance(e, Eq):
        return ("eq", _term(e.left), _term(e.right))
    h, args = app_spine(e)
    if not isinstance(h, Pred):
        raise EngineError("non-predicate atom head in first-order clause")
    return ("pred", h.name, [_term(a) for a in args])


def _term(e):
    if isinstance(e, Var):
        return ("v", e.name)
    if isinstance(e, (Const, Pred)):
        return ("c", e.name)
    raise EngineError("nested application in first-order atom argument")


def _tuple_of(slots):
    """Function reading the given positions of a sequence as a tuple."""
    if not slots:
        return lambda seq: ()
    if len(slots) == 1:
        s = slots[0]
        return lambda seq: (seq[s],)
    return itemgetter(*slots)


class _Slots:
    """Slot numbers of one rule's constants and variables.

    Constants take the first slots, filled in before any step runs; a
    variable takes the next free slot when a step binds it, so the slots
    one step writes are consecutive.
    """

    def __init__(self, atoms):
        self.template = []
        self.of = {}
        for atom in atoms:
            for t in (atom[1:] if atom[0] == "eq" else atom[2]):
                if t[0] == "c" and t not in self.of:
                    self.of[t] = len(self.template)
                    self.template.append(t[1])

    def known(self, term):
        return term in self.of

    def fresh(self, term=None):
        slot = len(self.template)
        self.template.append(None)
        if term is not None:
            self.of[term] = slot
        return slot


def _match_step(kind, atom, slots):
    """A step reading the rows of one relation:
    (kind, pred, key positions, key slots, output positions, first output
    slot, checks).

    Outside the delta focus, the positions holding a constant or an
    already bound variable form the probe key.  Every other position is
    written to the next slot.  The first occurrence of a variable makes
    that slot the variable's; a repeated variable, or a constant in the
    focus, adds a check that the slot equals the one it must match.
    """
    name, args = atom[1], atom[2]
    key_pos, key_slots = [], []
    if kind != "delta":
        for pos, t in enumerate(args):
            if slots.known(t):
                key_pos.append(pos)
                key_slots.append(slots.of[t])
    lo = len(slots.template)
    out_pos, checks = [], []
    for pos, t in enumerate(args):
        if pos in key_pos:
            continue
        out_pos.append(pos)
        if slots.known(t):
            checks.append((slots.of[t], slots.fresh()))
        else:
            slots.fresh(t)
    if kind != "delta":
        if not out_pos:
            kind = "member"
        elif not key_pos:
            kind = "scan"
    return (kind, name, tuple(key_pos), key_slots, out_pos, lo, checks)


def _plan(atoms, focus, formals, slots):
    """Static join order for one rule body, led by the delta focus atom
    `focus` (None for bodies without positive atoms).

    After the focus come equalities with a known side, then the atom with
    the most bound positions; when only equalities with both sides unbound
    remain, the left variable of the first one is enumerated over the
    universe.  Which positions are bound depends only on the earlier
    steps, never on tuple values, so the order is fixed before any tuple
    is read.  The last step emits the head, enumerating the formals the
    body leaves unbound.
    """
    work = list(atoms)
    steps = []
    if focus is not None:
        steps.append(_match_step("delta", work.pop(focus), slots))
    while work:
        pick, best = None, -1
        for i, atom in enumerate(work):
            if atom[0] == "eq":
                if slots.known(atom[1]) or slots.known(atom[2]):
                    pick = i
                    break
            else:
                bound = sum(1 for t in atom[2] if slots.known(t))
                if bound > best:
                    pick, best = i, bound
        if pick is None:
            steps.append(("enum", slots.fresh(work[0][1])))
            continue
        atom = work.pop(pick)
        if atom[0] == "pred":
            steps.append(_match_step("probe", atom, slots))
            continue
        l, r = atom[1], atom[2]
        if slots.known(l) and slots.known(r):
            steps.append(("check", slots.of[l], slots.of[r]))
        elif slots.known(l):
            steps.append(("assign", slots.fresh(r), slots.of[l]))
        else:
            steps.append(("assign", slots.fresh(l), slots.of[r]))
    free = [slots.fresh(("v", f)) for f in dict.fromkeys(formals)
            if not slots.known(("v", f))]
    steps.append(("emit", [slots.of[("v", f)] for f in formals], free))
    return steps


def _extend(idx, positions, rows):
    key = itemgetter(*positions)
    for row in rows:
        idx.setdefault(key(row), []).append(row)


class _Joins:
    """Relations, indexes and round output of one seminaive run.

    `total[p]` holds the tuples derived for p so far and changes only in
    place, between rounds, so compiled steps can hold it.  `out[p]`
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

    def compile(self, head, steps, template):
        """Chain a plan's steps into closures over one slot list.

        A plan led by a delta step compiles to a function of the focus
        rows, any other plan to a function of no arguments.
        """
        env = list(template)
        *body, emit = steps
        nxt = self._emit(head, emit)
        focus = body.pop(0) if body and body[0][0] == "delta" else None
        for step in reversed(body):
            nxt = self._step(step, nxt)
        if focus is None:
            return lambda: nxt(env)
        _, _, _, _, out_pos, lo, checks = focus
        hi = lo + len(out_pos)
        nxt = self._checks(checks, nxt)

        def run(rows):
            for row in rows:
                env[lo:hi] = row
                nxt(env)
        return run

    def _checks(self, checks, nxt):
        for a, b in reversed(checks):
            nxt = self._step(("check", a, b), nxt)
        return nxt

    def _step(self, step, nxt):
        kind = step[0]
        if kind == "check":
            _, a, b = step

            def check(env):
                if env[a] == env[b]:
                    nxt(env)
            return check
        if kind == "assign":
            _, dst, src = step

            def assign(env):
                env[dst] = env[src]
                nxt(env)
            return assign
        if kind == "enum":
            universe, slot = self.universe, step[1]

            def enum(env):
                for c in universe:
                    env[slot] = c
                    nxt(env)
            return enum
        _, p, key_pos, key_slots, out_pos, lo, checks = step
        rel = self.rel(p)
        if kind == "member":
            key = _tuple_of(key_slots)

            def member(env):
                if key(env) in rel:
                    nxt(env)
            return member
        hi = lo + len(out_pos)
        get = _tuple_of(out_pos)
        nxt = self._checks(checks, nxt)
        if kind == "scan":
            def scan(env):
                for row in rel:
                    env[lo:hi] = get(row)
                    nxt(env)
            return scan
        idx = self.index(p, key_pos)
        key = itemgetter(*key_slots)

        def probe(env):
            for row in idx.get(key(env), ()):
                env[lo:hi] = get(row)
                nxt(env)
        return probe

    def _emit(self, head, step):
        _, formal_slots, free = step
        self.rel(head)
        add = self.out[head].add
        get = _tuple_of(formal_slots)
        tick, budget = self.tick, self.budget
        if not free:
            def emit(env):
                if tick() > budget:
                    raise BudgetExhaustedError("unknown: budget")
                add(get(env))
            return emit
        lo, hi, universe = free[0], free[-1] + 1, self.universe

        def emit_all(env):
            for values in itertools.product(universe, repeat=hi - lo):
                env[lo:hi] = values
                if tick() > budget:
                    raise BudgetExhaustedError("unknown: budget")
                add(get(env))
        return emit_all


def _seminaive_fixpoint(prog, cfg):
    """The least model's relations, as {pred: set of tuples of constant
    names}, and the number of productive rounds."""
    for p, ty in prog.signatures.items():
        if type_order(ty) > 1:
            raise EngineError("seminaive engine requires a first-order program"
                              " (predicate %s has order %d)" % (p, type_order(ty)))
    joins = _Joins(herbrand_universe(prog), cfg.step_budget)
    for p in prog.signatures:
        joins.rel(p)
    seeds = []
    plans = {}  # focus predicate -> [[head, steps, template, compiled], ...]
    for cl in prog.clauses:
        atoms = [_compile_atom(b) for b in cl.body]
        formals = [f.name for f in cl.formals]
        foci = [i for i, a in enumerate(atoms) if a[0] == "pred"]
        for focus in foci or [None]:
            slots = _Slots(atoms)
            plan = [cl.head, _plan(atoms, focus, formals, slots),
                    slots.template, None]
            if focus is None:
                seeds.append(plan)
            else:
                plans.setdefault(atoms[focus][1], []).append(plan)

    for head, steps, template, _ in seeds:
        joins.compile(head, steps, template)()
    delta = joins.end_round()
    iterations = 1 if delta else 0
    while delta:
        for p, rows in delta.items():
            for plan in plans.get(p, ()):
                if plan[3] is None:  # first use: build the plan's indexes
                    plan[3] = joins.compile(*plan[:3])
                plan[3](rows)
        delta = joins.end_round()
        if delta:
            iterations += 1
    return joins.total, iterations


def least_model_seminaive(prog, cfg=None):
    """Delta-driven bottom-up fixpoint for first-order programs.

    The step budget of `cfg` counts derived head tuples: one step per
    tuple a rule body yields, duplicates included.  BudgetExhaustedError
    is raised once the count passes the budget.
    """
    total, iterations = _seminaive_fixpoint(prog, cfg or EngineConfig())
    ind = {c: Ind(c) for c in herbrand_universe(prog)}.__getitem__
    interp = {}
    for p, ty in prog.signatures.items():
        if ty == OMICRON:
            interp[p] = Bool(() in total[p])
        else:
            interp[p] = Rel(ty, frozenset(
                tuple(map(ind, tup)) for tup in total[p]))
    return FixpointResult(interp, iterations)


# ---------------------------------------------------------------------------
# Demand-driven tabled engine

class DemandEngine:
    """Tabled evaluation of ground goals against a fixed program.

    Ground terms are hash-consed: each is interned once as an int id, a
    leaf as ("c", name) or ("p", name) and an application as (fn id, arg
    id), so equal terms have equal ids however deep they are.  Clause
    bodies are compiled once into templates whose ground subterms are
    already ids, and a substitution maps variable names to ids, so
    grounding a body atom walks only the clause-sized template.  A goal's
    table key is (pred name, arg id, ...), or ("=", left id, right id) for
    an equation; closure-headed atoms flatten through the id table.
    Facts (`p a b.`) become rows of ids.  An atom of a predicate with facts
    and no rules binds its free variables from an index of the rows and is
    never tabled; any other atom tries each constant for its free ones.
    Entries start false and may flip to true exactly once; a flip
    re-enqueues the goals recorded as depending on it, in the order they
    were recorded, so the stable table is the least fixpoint over the
    discovered goals.
    """

    def __init__(self, prog, cfg=None):
        self.cfg = cfg or EngineConfig()
        self.nodes = []  # id -> node
        self.ids = {}  # node -> id
        self.universe = [self._id(("c", c)) for c in herbrand_universe(prog)]
        self.clauses = {}  # pred -> [(formal names, body atoms), ...]
        self.facts = {}  # pred -> {row of arg ids: None}, in insertion order
        for cl in prog.clauses:
            formals = [f.name for f in cl.formals]
            body = [self._atom(b) for b in cl.body]
            row = _fact_row(formals, body)
            if row is None:
                self.clauses.setdefault(cl.head, []).append((formals, body))
            else:
                self.facts.setdefault(cl.head, {})[row] = None
        self.extensional = self.facts.keys() - self.clauses.keys()
        self.indexes = {}  # (pred, key positions) -> {key: [row, ...]}
        self.table = {}
        self.deps = {}  # key -> {dependent key: None}, in insertion order
        self.pending = deque()
        self.steps = 0

    def solve(self, goal):
        """A ground atom's truth in the least model; tabled goals are final."""
        key = self._key(self._atom(goal), {})
        self._intern(key, dependent=None)
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

    def _ground(self, t, subst):
        if type(t) is int:
            return t
        if type(t) is str:
            return subst[t]
        return self._id((self._ground(t[0], subst), self._ground(t[1], subst)))

    def _key(self, atom, subst):
        """The table key of a body atom whose variables `subst` binds."""
        name, head, args, _ = atom
        ids = [self._ground(a, subst) for a in args]
        if name is not None:
            return (name, *ids)
        node, spine = self.nodes[self._ground(head, subst)], []
        while type(node[0]) is int:
            spine.append(node[1])
            node = self.nodes[node[0]]
        if node[0] != "p":
            raise EngineError("goal head is not a predicate constant: %s"
                              % node[1])
        return (node[1], *reversed(spine), *ids)

    def _render(self, key):
        """A goal's text, for traces."""
        expr = self._expr
        if key[0] == "=":
            return render_expr(Eq(expr(key[1]), expr(key[2])))
        atom = Pred(key[0])
        for i in key[1:]:
            atom = App(atom, expr(i))
        return render_expr(atom)

    def _expr(self, i):
        fn, arg = self.nodes[i]
        if type(fn) is int:
            return App(self._expr(fn), self._expr(arg))
        return (Pred if fn == "p" else Const)(arg)

    def _intern(self, key, dependent):
        if dependent is not None:
            self.deps.setdefault(key, {})[dependent] = None
        if key not in self.table:
            self.table[key] = False
            self.pending.append(key)
            if self.cfg.trace:
                print("%s -> false @%d" % (self._render(key), self.steps),
                      file=sys.stderr)

    def _run(self):
        while self.pending:
            key = self.pending.popleft()
            if self.table[key]:
                continue
            self.steps += 1
            if self.steps > self.cfg.step_budget:
                raise BudgetExhaustedError("unknown: budget")
            if self._eval_goal(key):
                self.table[key] = True
                if self.cfg.trace:
                    print("%s -> true @%d" % (self._render(key), self.steps),
                          file=sys.stderr)
                for d in self.deps.get(key, ()):
                    if not self.table[d]:
                        self.pending.append(d)

    def _rows(self, pred, args, subst):
        """The fact rows of pred that match the args `subst` grounds, from an
        index on those positions built the first time it is needed, and the
        (position, name) of each variable `subst` leaves free."""
        vals = [None if type(t) is str and t not in subst
                else self._ground(t, subst) for t in args]
        bound = tuple(pos for pos, v in enumerate(vals) if v is not None)
        rows = self.facts[pred]
        if bound:
            idx = self.indexes.get((pred, bound))
            if idx is None:
                idx = self.indexes[pred, bound] = {}
                _extend(idx, bound, rows)
            rows = idx.get(itemgetter(*bound)(vals), ())
        return rows, [(pos, t) for pos, t in enumerate(args)
                      if vals[pos] is None]

    def _eval_goal(self, key):
        if key[0] == "=":
            return key[1] == key[2]
        if key[1:] in self.facts.get(key[0], ()):
            return True
        for formals, body in self.clauses.get(key[0], ()):
            if self._solve_atoms(key, body, dict(zip(formals, key[1:]))):
                return True
        return False

    def _solve_atoms(self, key, atoms, subst):
        if not atoms:
            return True
        # prefer an equality that can bind or be decided immediately
        pick = 0
        for i, a in enumerate(atoms):
            if a[0] != "=" or any(type(t) is int or t in subst for t in a[2]):
                pick = i
                break
        atom = atoms[pick]
        rest = atoms[:pick] + atoms[pick + 1:]
        if atom[0] == "=":
            l, r = atom[2]
            lv = l if type(l) is int else subst.get(l)
            rv = r if type(r) is int else subst.get(r)
            if lv is not None and rv is not None:
                return lv == rv and self._solve_atoms(key, rest, subst)
            if rv is not None:
                return self._solve_atoms(key, rest, {**subst, l: rv})
            if lv is not None:
                return self._solve_atoms(key, rest, {**subst, r: lv})
            # both sides unbound individual variables: enumerate one
            for c in self.universe:
                if self._solve_atoms(key, atoms, {**subst, l: c}):
                    return True
            return False
        if atom[0] in self.extensional:
            # facts never change, so the atom needs no table entry and no
            # dependency edge: bind its free variables from the matching rows
            rows, free = self._rows(atom[0], atom[2], subst)
            for row in rows:
                bound = dict(subst) if free else subst
                # a repeated variable must meet one value at every position
                if all(bound.setdefault(v, row[p]) == row[p] for p, v in free):
                    if self._solve_atoms(key, rest, bound):
                        return True
            return False
        free = [v for v in atom[3] if v not in subst]
        for assignment in itertools.product(self.universe, repeat=len(free)):
            bound = subst
            if free:
                bound = dict(subst)
                bound.update(zip(free, assignment))
            sub = self._key(atom, bound)
            self._intern(sub, dependent=key)
            if self.table[sub] and self._solve_atoms(key, rest, bound):
                return True
        return False


def _fact_row(formals, body):
    """The arg ids of a fact, a clause whose body only equates each formal
    once with a ground id (as `p a b.` is lowered); else None."""
    row = dict(a[2] for a in body if a[0] == "=" and type(a[2][1]) is int)
    if len(row) == len(body) == len(formals) and row.keys() == set(formals):
        return tuple(row[f] for f in formals)
    return None


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
