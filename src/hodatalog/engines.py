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
enumerates them.  Rules of one shape share a plan.  Plans are merged on
their common step prefixes into a `_Trie`, which one `_source` emits as
Python source of nested loops, compiled once per process; a run binds
the code to the resources `_resources` collects and to its constants.

* least_model_seminaive: delta-driven bottom-up evaluation for first-order
  programs; every predicate is read as rows, its fact rows loaded in
  round 0, and relations hold tuples of the model's own `Ind`s.  The
  least model with no input rows is computed once per program and kept
  as frozensets, which the returned model shares.  A decision with input
  starts from it, the input rows its first delta, unless a plan
  enumerates the universe and the input brings new constants; the
  relations and indexes of predicates that do not read `input` are
  shared with it.  Each rule shape is planned once per delta focus, and
  the plans of one focus run as one trie (a few, for bodies too long to
  compile as one), so rules that read the same delta loop over it once
  and probe their common join prefix once.
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
    """The steps reading the rows of body atom i: (kind, i, key positions,
    key slots, output positions, first output slot), and ("check", [(slot,
    slot), ...]) if it has checks.

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
    step = (kind, i, tuple(key_pos), key_slots, out_pos, lo)
    return [step, ("check", checks)] if checks else [step]


def _eq_step(atom, slots):
    """The step of an equality with a known side: a check when both sides
    are known, else an assignment to the unknown one."""
    _, l, r = atom
    if l in slots.of and r in slots.of:
        return ("check", [(slots.of[l], slots.of[r])])
    if l in slots.of:
        return ("assign", slots.fresh(r), slots.of[l])
    return ("assign", slots.fresh(l), slots.of[r])


# Blocks one emitted function nests before the rest of a trie moves to
# another: CPython allows 20 nested loops and 100 indentation levels.
_MAX_DEPTH = 16
# Nodes a trie takes before the next plan of its focus starts another:
# compiling a source costs memory in proportion to its length.
_MAX_NODES = 1000


class _Trie:
    """Plans merged on their common step prefixes, for `_source` to emit as
    one function.  In a step, "si" is a plan's ith variable (a number if
    the step binds it), "cj" the trie's jth distinct constant (`consts`), a
    rows atom its number in `res` ((pred, key positions) of a probe, else
    (pred, None)) and a head its number in `heads`.  Plans share a node
    while their steps are equal, so its loop or test runs once for all;
    emit leaves are never shared, so every plan's tuples count."""

    def __init__(self):
        self.root, self.size = [], 0  # [(step, children), ...], nodes
        self.consts, self.res, self.heads = {}, {}, {}  # key -> its number

    def add(self, steps, preds, consts, head=None):
        """Merge in a plan: `_plan`'s steps over atoms of the predicates
        `preds` and the constants `consts`, emitting `head`."""
        n = len(consts)
        for c in consts:
            self.consts.setdefault(c, len(self.consts))

        def op(slot):
            return ("s%d" % (slot - n) if slot >= n
                    else "c%d" % self.consts[consts[slot]])

        node = self.root
        for step in steps:
            kind = step[0]
            if kind in ("delta", "probe", "scan", "member"):
                _, i, key_pos, key, out_pos, lo = step
                res = None if kind == "delta" else self.res.setdefault(
                    (preds[i], key_pos if kind == "probe" else None),
                    len(self.res))
                step = (kind, res, tuple(map(op, key)), tuple(out_pos), lo - n)
            elif kind == "check":
                step = (kind, tuple((op(a), op(b)) for a, b in step[1]))
            elif kind == "emit":
                step = (kind, self.heads.setdefault(head, len(self.heads)),
                        tuple(map(op, step[1])))
            elif kind == "call":
                step = (kind, op(step[1]), tuple(map(op, step[2])), step[3])
            elif kind != "return":  # "assign", "app", "enum": slot 1 bound
                step = (kind, step[1] - n, *map(op, step[2:]))
            child = None if kind == "emit" else next(
                (c for s, c in node if s == step), None)
            if child is None:
                child = []
                node.append((step, child))
                self.size += 1
            node = child


def _source(trie, bound, params, ctx):
    """Python source of `make(R, C, <params>)` for a `_Trie`, which binds
    its resources R (`_resources`), its constants C and, if it emits, its
    heads' `add`s A, and returns `run(<ctx>, ...)`, whose further
    parameters are the first `bound` variables.

    A node's step is a `for` over rows or an `if`, its children nested in
    it, or a line of straight code followed by them; siblings run one after
    another.  An "app" step interns an application with `mk`, and a "call"
    step tests a subgoal with `call(goal key, key)`.  A leaf "emit" ticks
    the budget and adds the head tuple, or "return" ends the run true.
    Children nested deeper than `_MAX_DEPTH` move to a function of the
    bound variables.  The source never names a predicate, constant or term
    of the program.
    """
    lines = ["def make(R, C, %s):" % params,
             " %s = R" % _tuple("r%d" % n for n in range(len(trie.res))),
             " %s = C" % _tuple("c%d" % j for j in range(len(trie.consts)))]
    if trie.heads:
        lines.append(" %s = A" % _tuple("a%d" % h for h in range(
            len(trie.heads))))
    helpers = []  # (nodes, bound) of each function split off: f1, f2, ...

    def sig(bound):
        return ", ".join(ctx + ["s%d" % i for i in range(bound)])

    def block(nodes, depth, bound, out):
        if nodes and depth > _MAX_DEPTH:
            helpers.append((nodes, bound))
            out += [" " * depth + "if f%d(%s):" % (len(helpers), sig(bound)),
                    " " * depth + " return True"]
            return
        for step, children in nodes:
            pad, kind, inner, now = " " * depth, step[0], depth + 1, bound
            if kind in ("assign", "app"):
                out.append(pad + ("s%d = %s" if kind == "assign"
                                  else "s%d = mk((%s, %s))") % step[1:])
                inner, now = depth, step[1] + 1
            elif kind == "emit":
                out += [pad + "if next(tick) > budget:",
                        pad + ' raise BudgetExhaustedError("unknown: budget")',
                        pad + "a%d(%s)" % (step[1], _tuple(step[2]))]
            elif kind == "return":
                out.append(pad + "return True")
            elif kind == "check":
                out.append(pad + "if %s:" % " and ".join(
                    "%s == %s" % c for c in step[1]))
            elif kind == "enum":
                out.append(pad + "for s%d in universe:" % step[1])
                now = step[1] + 1
            elif kind == "call":
                # a goal key: (name, arg, ...), or a closure's spine and args
                _, head, args, closure = step
                sub = _tuple(args if closure else (head, *args))
                if closure:
                    sub = "spine(%s) + %s" % (head, sub)
                out.append(pad + "if call(%s, key):" % sub)
            elif kind == "member":
                out.append(pad + "if %s in r%d:" % (_tuple(step[2]), step[1]))
            else:
                _, r, key, out_pos, lo = step
                now = lo + len(out_pos)
                target = ["_"] * (len(key) + len(out_pos))
                for j, pos in enumerate(out_pos):
                    target[pos] = "s%d" % (lo + j)
                # "(s1)" is one value, "(s1, s2)" a tuple, as `_extend` keys
                rows = ("rows" if kind == "delta" else "r%d" % r
                        if kind == "scan" else "r%d((%s), ())"
                        % (r, ", ".join(key)))
                out.append(pad + "for %s in %s:" % (_tuple(target), rows))
            block(children, inner, now, out)

    lines.append(" def run(%s):" % sig(bound))
    block(trie.root, 2, bound, lines)
    for n, (nodes, bound) in enumerate(helpers, 1):  # helpers may grow
        lines.append(" def f%d(%s):" % (n, sig(bound)))
        block(nodes, 2, bound, lines)
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


def _resources(res, rel, index):
    """What a trie's code reads, its R in `_source`: for each (pred, key
    positions) of `res` the `get` of index(pred, key positions), and for
    each (pred, None) rel(pred)."""
    return [rel(p) if pos is None else index(p, pos).get for p, pos in res]


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
        steps += _match_step("delta", focus, atoms[focus], slots)

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
            steps += _match_step("probe", pick, atom, slots)
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
        """The new constants, as `Ind`s in first-occurrence order, and the
        rows of a decision with the input/3 `rows` (names; None: none): the
        program's own, with its rows added to a copy of `input`'s alone."""
        if rows is None:
            return [], self.rels
        new = new_constants(self.signatures, rows, self.names)
        return list(map(Ind, new)), {**self.rels, "input": {
            **self.rels["input"], **dict.fromkeys(
                tuple(map(Ind, row)) for row in rows)}}

    def bodies(self, pred):
        """(preds, consts, resources, enumerates, make) of pred's rules,
        lowered for demand."""
        rules = self.demand.get(pred)
        if rules is None:
            rules = self.demand[pred] = []
            for cl in self.rules.get(pred, ()):
                shape, preds, consts = _shape(cl, self.extensional)
                rules.append((preds, consts, *_demand_body(shape)))
        return rules

    def seminaive(self):
        """Self, with the seminaive half made: the rule plans with no focus,
        such as `p X :- (X = a).`, merged into a trie (`seeds`), and those
        of each focus predicate into one (`plans`), with the heads each
        focus's plans emit (`heads`); a trie is (heads, resources, consts,
        make) for `_Joins.bind`, and plans past `_MAX_NODES` nodes start
        another.  Also the (pred, key positions) that a plan whose focus
        heads a rule probes (`live`); whether any plan enumerates the
        universe (`enumerates`); and, for each predicate that does not read
        `input`, even through others, the indexes that decisions share
        (`shared`).  Any other focus's tries run in round 1 only, the one
        round its focus has a delta."""
        if self.plans is not None:
            return self
        for p, ty in self.signatures.items():
            if type_order(ty) > 1:
                raise EngineError("seminaive engine requires a first-order "
                                  "program (predicate %s has order %d)"
                                  % (p, type_order(ty)))
        tries, reads, self.enumerates = {}, {}, False
        for head, rules in self.rules.items():
            for cl in rules:
                key, preds, consts = _shape(cl, self.signatures)
                reads.setdefault(head, set()).update(preds)
                for focus, steps in _rule_plans(key):
                    group = tries.setdefault(
                        None if focus is None else preds[focus], [_Trie()])
                    if group[-1].size > _MAX_NODES:
                        group.append(_Trie())
                    group[-1].add(steps, preds, consts, head)
                    self.enumerates |= any(s[0] == "enum" for s in steps)
        plans = {p: [(trie.heads, list(trie.res), tuple(trie.consts),
                      _trie_code(_source(trie, 0, "A, tick, budget, universe",
                                         [] if p is None else ["rows"])))
                     for trie in group] for p, group in tries.items()}
        seeds = plans.pop(None, [])
        heads = {p: {h: None for plan in group for h in plan[0]}
                 for p, group in plans.items()}
        self.live = {r for p, group in plans.items() if p in self.rules
                     for plan in group for r in plan[1] if r[1] is not None}
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
    """(focus, steps) for each delta focus of a rule shape (a `_shape`
    key): every atom that is not an equality, or None when there is none.
    The body `_plan` orders is followed by enumerations of the formals it
    leaves unbound and a step that emits the head.  Each of the 512 latest
    shapes is planned once per process; `_Prepared.seminaive` merges the
    plans of one focus into one `_Trie`."""
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
        out.append((focus, steps))
    return tuple(out)


# The factory of a seminaive trie's source: the 512 latest are compiled
# once per process, so programs that differ only in names share code.
_trie_code = functools.lru_cache(maxsize=512)(_compile)


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

    def bind(self, heads, res, consts, make):
        """A trie's `run` (`_Prepared.seminaive`), over this run's relations
        and indexes; an index it probes is built here if it is new."""
        for head in heads:
            self.rel(head)
        return make(_resources(res, self.rel, self.index), consts,
                    tuple(self.out[head].add for head in heads), self.tick,
                    self.budget, self.universe)


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
    new, rels = prep.with_input(rows)
    if new and prep.enumerates:
        joins = _Joins(prep.universe + new, budget, prep.live, {}, {})
        joins.load(rels, prep.fact_rows + len(rows))
        return joins.total, _rounds(prep, joins, prep.seeds)
    model, steps, rounds = prep.no_input(budget)
    joins = _Joins(prep.universe, budget, prep.live, model, prep.shared)
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
    """(resources, enumerates, factory) of a demand clause shape (a `_shape`
    key), planned and compiled once per process: its resources are
    (atom number, key positions or None), and it enumerates if a step
    reads the universe.  Formals are bound on entry, and `_plan` orders
    the body after them, emitted as a one-path `_Trie`.  The factory's
    `run(key, formal id, ...)` is true once one instance of the body
    holds, `key` being the goal it runs for."""
    formals, atoms, consts = key
    slots = _Slots(consts)
    for f in formals:
        slots.fresh(f)
    steps = _plan(atoms, slots) + [("return",)]
    trie = _Trie()
    trie.add(steps, range(len(atoms)), range(consts))
    return (list(trie.res), any(s[0] == "enum" for s in steps),
            _compile(_source(trie, len(formals),
                             "mk, call, spine, universe", ["key"])))


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
        self.new, self.rels = self.prep.with_input(rows)  # rels ordered
        self.universe = self.prep.universe
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

    def _bind(self, preds, consts, res, enumerates, make):
        """A rule's body bound to this engine; an index of rows it probes is
        built here if it is new, and the universe with the input's new
        constants for the first body that enumerates it."""
        consts = [self._term_id(c) if isinstance(c, (App, Pred)) else c
                  for c in consts]
        if enumerates and self.new:
            self.universe, self.new = self.prep.universe + self.new, []
        res = _resources([(preds[i], pos) for i, pos in res],
                         self.rels.__getitem__, self._index)
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
