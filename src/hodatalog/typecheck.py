"""Monomorphic type inference, definitional (Wadge) validation, desugaring.

Diagnostic codes:
    E001 syntax, E101 type clash, E201 duplicate formal,
    E202 non-variable predicate head argument, E203 free body variable,
    E301 domain too large.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from . import core
from .core import (App, Arrow, Clause, Const, Eq, Formal, HodlError, IOTA,
                   OMICRON, Pred, Program, Var, is_predicate_type,
                   render_type, type_order)
from .syntax import parse_program


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    line: int = 0
    col: int = 0

    def render(self, filename="<input>"):
        return "%s:%d:%d: %s %s" % (filename, self.line, self.col, self.code, self.message)


@dataclass
class TypeReport:
    signatures: dict        # predicate constant -> Type
    clause_var_types: list  # one {var name -> Type} dict per clause
    program_order: int
    violations: list

    @property
    def ok(self):
        return not self.violations


class TypeCheckError(HodlError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


# ---------------------------------------------------------------------------
# Unification over mutable type variables

class _TV:
    __slots__ = ("ref",)

    def __init__(self):
        self.ref = None


def _prune(t):
    """t's representative, links on the way pointed at it (Tarjan 1975)."""
    root = t
    while type(root) is _TV and root.ref is not None:
        root = root.ref
    while t is not root:
        t.ref, t = root, t.ref
    return root


class _Clash(Exception):
    def __init__(self, a, b):
        self.a, self.b = a, b


def _occurs(v, t):
    """Whether the type variable v occurs in the type t."""
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is _TV:
            t = _prune(t)
            if t is v:
                return True
        if type(t) is Arrow:
            todo += t.arg, t.res
    return False


def _unify(a, b):
    a, b = _prune(a), _prune(b)
    if a is b:
        return
    # binding a variable to an arrow that contains it would make a cycle
    if type(a) is _TV:
        if type(b) is Arrow and _occurs(a, b):
            raise _Clash(a, b)
        a.ref = b
        return
    if type(b) is _TV:
        if type(a) is Arrow and _occurs(b, a):
            raise _Clash(a, b)
        b.ref = a
        return
    if type(a) is Arrow and type(b) is Arrow:
        _unify(a.arg, b.arg)
        _unify(a.res, b.res)
        return
    if a != b:
        raise _Clash(a, b)


def _resolve(t, kind):
    """Collapse solved variables; unconstrained ones default to iota in
    argument position and to o in result position."""
    t = _prune(t)
    if isinstance(t, _TV):
        return IOTA if kind == "arg" else OMICRON
    if isinstance(t, Arrow):
        arg, res = _resolve(t.arg, "arg"), _resolve(t.res, "res")
        return t if arg is t.arg and res is t.res else Arrow(arg, res)
    return t


def _describe(t):
    t = _prune(t)
    if isinstance(t, _TV):
        return "?"
    if isinstance(t, Arrow):
        left = _describe(t.arg)
        if isinstance(_prune(t.arg), Arrow):
            left = "(" + left + ")"
        return left + " -> " + _describe(t.res)
    return render_type(t)


def _bad_arg(ty):
    """The first argument type, at any depth of the predicate type ty, that
    is neither i nor a predicate type (o, or an arrow ending in i); else
    None."""
    while type(ty) is Arrow:
        arg, ty = ty.arg, ty.res
        if type(arg) is Arrow:
            bad = _bad_arg(arg) if is_predicate_type(arg) else arg
            if bad is not None:
                return bad
        elif arg == OMICRON:
            return arg
    return None


# ---------------------------------------------------------------------------
# Analysis

class _Analysis:
    """One inference pass over a surface program.

    Every lowercase identifier gets a single global type; after solving,
    those with predicate type are the predicate constants, the rest are
    individuals.  A constant used but never defined by a clause is legal
    (empty relation in the least model).
    """

    def __init__(self, src):
        self.src = src
        self.violations = []
        self.name_ty = defaultdict(_TV, src.declared())
        self.clause_vars = []

    def run(self):
        for cl in self.src.clauses:
            self.clause_vars.append(self._infer_clause(cl))
        self._finish()
        self._validate()

    def _infer_clause(self, cl):
        vars_, name_ty = defaultdict(_TV), self.name_ty

        def unify(a, b):
            """Unify, or report the clash; true if it unified."""
            try:
                _unify(a, b)
                return True
            except _Clash as c:
                self._clash(cl, c)

        def infer(e):
            if isinstance(e, App):
                tf, ta = infer(e.fn), infer(e.arg)
                tf = _prune(tf)
                if type(tf) is Arrow:  # no fresh variable and arrow
                    return tf.res if unify(tf.arg, ta) else _TV()
                tr = _TV()
                unify(tf, Arrow(ta, tr))
                return tr
            if isinstance(e, Var):
                return vars_[e.name]
            if isinstance(e, (Const, Pred)):
                return name_ty[e.name]
            if isinstance(e, Eq):
                unify(infer(e.left), IOTA)
                unify(infer(e.right), IOTA)
                return OMICRON
            raise TypeError(e)

        head_ty = core.arrow([infer(a) for a in cl.head_args])  # args first
        unify(name_ty[cl.head], head_ty)
        for b in cl.body:
            unify(infer(b), OMICRON)
        return vars_

    def _clash(self, cl, c):
        self.violations.append(Diagnostic(
            "E101", "type clash: %s vs %s" % (_describe(c.a), _describe(c.b)),
            cl.line, cl.col))

    def _finish(self):
        defined = {cl.head for cl in self.src.clauses}
        declared = set(self.src.declared())
        self.signatures = {}
        self.individuals = set()
        for name, t in self.name_ty.items():
            pruned = _prune(t)
            if isinstance(pruned, _TV) and name not in defined and name not in declared:
                self.individuals.add(name)  # plain unconstrained constant
                continue
            self._register(name, _resolve(t, "res"), defined, declared)
        # heads must have predicate types
        for name in defined | declared:
            if name not in self.signatures:
                self.signatures[name] = OMICRON
        self.var_types = [
            {n: _resolve(t, "arg") for n, t in vars_.items()}
            for vars_ in self.clause_vars]

    def _register(self, name, ty, defined, declared):
        if is_predicate_type(ty) and (isinstance(ty, Arrow) or ty == OMICRON):
            if ty == OMICRON and name not in defined and name not in declared:
                # an o-typed bare constant can only arise as a body atom,
                # i.e. it is used as a propositional predicate
                self.signatures[name] = ty
                return
            if isinstance(ty, Arrow) or name in defined or name in declared:
                bad = _bad_arg(ty)
                if bad is not None:
                    self.violations.append(Diagnostic(
                        "E101", "predicate %s has an argument of type %s"
                        % (name, render_type(bad))))
                # an argument typed by an arrow ending in i has no order:
                # o stands in, as for an ill-formed constant below
                self.signatures[name] = (ty if bad is None or bad == OMICRON
                                         else OMICRON)
                return
        if ty == IOTA:
            self.individuals.add(name)
            return
        self.violations.append(Diagnostic(
            "E101", "constant %s resolved to ill-formed type %s"
            % (name, render_type(ty) if isinstance(ty, Arrow) else repr(ty))))
        self.signatures[name] = ty if is_predicate_type(ty) else OMICRON

    def _validate(self):
        for cl, var_tys in zip(self.src.clauses, self.var_types):
            seen = set()  # the head's variables
            for a in cl.head_args:
                if isinstance(a, Var):
                    ty = var_tys.get(a.name, IOTA)
                    if a.name in seen and isinstance(ty, Arrow):
                        self.violations.append(Diagnostic(
                            "E201", "duplicate formal %s in head of %s"
                            % (a.name, cl.head), cl.line, cl.col))
                    seen.add(a.name)
                elif isinstance(a, (Const, Pred)):
                    if a.name in self.signatures:
                        self.violations.append(Diagnostic(
                            "E202", "predicate constant %s as head argument of %s"
                            % (a.name, cl.head), cl.line, cl.col))
                else:
                    self.violations.append(Diagnostic(
                        "E202", "non-variable predicate argument in head of %s"
                        % cl.head, cl.line, cl.col))
            free = {v for v, ty in var_tys.items()
                    if isinstance(ty, Arrow) and v not in seen}
            for b in cl.body if free else ():  # most clauses have none
                for v in {x.name for x in core.expr_vars(b)}:
                    if v in free:
                        self.violations.append(Diagnostic(
                            "E203", "free predicate variable %s in body of %s"
                            % (v, cl.head), cl.line, cl.col))


# ---------------------------------------------------------------------------
# Public operations

def infer_types(src):
    """Type a SourceProgram; returns a TypeReport."""
    a = _Analysis(src)
    a.run()
    order = classify_order_from_signatures(a.signatures)
    return TypeReport(a.signatures, a.var_types, order, a.violations)


def classify_order_from_signatures(signatures):
    orders = [type_order(ty) for ty in signatures.values()]
    return max(max(orders, default=1), 1)


# ---------------------------------------------------------------------------
# Desugaring to the definitional core

def desugar(src, report):
    """Lower a SourceProgram, typed by `report`, to a core Program.

    A ground fact, a clause with no body whose head arguments are all
    individual constants, becomes a row of their names in `facts`
    (`p a b.` is the row ("a", "b") of p).  In any other clause, head
    individual constants and repeated head variables become fresh formals
    equated in the body (paper-style: `p a X.` turns into
    `p Y X :- (Y = a).`); identifiers with predicate type become Pred
    nodes.  Raises TypeCheckError on E101 clashes; Wadge violations are
    reported through infer_types and left to the caller.
    """
    hard = [d for d in report.violations if d.code == "E101"]
    if hard:
        raise TypeCheckError(hard)

    pred_names = set(report.signatures)
    clauses, facts = [], {}
    consts = {}  # individuals in first-occurrence order
    for cl, var_tys in zip(src.clauses, report.clause_var_types):
        if not cl.body and all(
                isinstance(a, (Const, Pred)) and a.name not in pred_names
                for a in cl.head_args):
            row = tuple(a.name for a in cl.head_args)
            facts.setdefault(cl.head, []).append(row)
            consts.update(dict.fromkeys(row))
            continue
        fresh = ("_H%d" % i for i in itertools.count(1))
        sig_args = core.arg_types(report.signatures[cl.head])
        formals, equations, seen = [], [], set()
        for a, ty in zip(cl.head_args, sig_args):
            if isinstance(a, Var) and a.name not in seen:
                seen.add(a.name)
                formals.append(Formal(a.name, ty))
            elif isinstance(a, Var):
                v = next(fresh)
                formals.append(Formal(v, ty))
                equations.append(Eq(Var(a.name, ty), Var(v, ty)))
            elif isinstance(a, (Const, Pred)) and a.name not in pred_names:
                v = next(fresh)
                formals.append(Formal(v, ty))
                equations.append(Eq(Var(v, ty), Const(a.name, IOTA)))
                consts[a.name] = None
            else:
                # invalid head argument (E202 case); keep the shape with a
                # fresh formal so later passes can still run
                formals.append(Formal(next(fresh), ty))
        body = (*equations,
                *[_lower(b, pred_names, var_tys, consts) for b in cl.body])
        clauses.append(Clause(cl.head, tuple(formals), body))
    return Program(dict(report.signatures), clauses,
                   list(consts) or [core.DESIGNATED_CONSTANT], facts)


def _lower(e, pred_names, var_tys, consts):
    """e typed, with Pred nodes for predicates; adds individuals to consts."""
    if isinstance(e, App):
        return App(_lower(e.fn, pred_names, var_tys, consts),
                   _lower(e.arg, pred_names, var_tys, consts))
    if isinstance(e, Var):
        return Var(e.name, var_tys.get(e.name))
    if isinstance(e, (Const, Pred)):
        if e.name in pred_names:
            return Pred(e.name)
        consts[e.name] = None
        return Const(e.name, IOTA)
    if isinstance(e, Eq):
        return Eq(_lower(e.left, pred_names, var_tys, consts),
                  _lower(e.right, pred_names, var_tys, consts))
    raise TypeError(e)


def analyze(src):
    """Full front end: type, validate, desugar. Returns (Program, TypeReport)."""
    if isinstance(src, str):
        src = parse_program(src)
    report = infer_types(src)
    prog = desugar(src, report)
    return prog, report
