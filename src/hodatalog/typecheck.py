"""Monomorphic type inference, definitional (Wadge) validation, desugaring.

Diagnostic codes:
    E001 syntax, E101 type clash, E201 duplicate formal,
    E202 non-variable predicate head argument, E203 free body variable,
    E301 domain too large.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import (App, Arrow, Clause, Const, Eq, Formal, HodlError, IOTA,
                   OMICRON, Pred, Program, Var, is_predicate_type,
                   render_type, type_order)
from .syntax import SourceProgram, SurfaceClause, parse_program


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
    while isinstance(t, _TV) and t.ref is not None:
        t = t.ref
    return t


class _Clash(Exception):
    def __init__(self, a, b):
        self.a, self.b = a, b


def _unify(a, b):
    a, b = _prune(a), _prune(b)
    if a is b:
        return
    if isinstance(a, _TV):
        a.ref = b
        return
    if isinstance(b, _TV):
        b.ref = a
        return
    if isinstance(a, Arrow) and isinstance(b, Arrow):
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
        return Arrow(_resolve(t.arg, "arg"), _resolve(t.res, "res"))
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


def _has_omicron_arg(ty):
    if isinstance(ty, Arrow):
        return ty.arg == OMICRON or _has_omicron_arg(ty.arg) or _has_omicron_arg(ty.res)
    return False


# ---------------------------------------------------------------------------
# Analysis

def _surface_of(prog):
    """View a core Program as a SourceProgram for re-analysis."""
    directives = [(n, t, 0, 0) for n, t in prog.signatures.items()]
    clauses = [SurfaceClause(cl.head, [Var(f.name) for f in cl.formals],
                             list(cl.body)) for cl in prog.clauses]
    return SourceProgram(directives, clauses)


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
        self.name_ty = {}
        for name, ty in src.declared().items():
            self.name_ty[name] = ty
        self.clause_vars = []

    def name_type(self, name):
        if name not in self.name_ty:
            self.name_ty[name] = _TV()
        return self.name_ty[name]

    def run(self):
        for cl in self.src.clauses:
            self.clause_vars.append(self._infer_clause(cl))
        self._finish()
        self._validate()

    def _infer_clause(self, cl):
        vars_ = {}

        def var_ty(name):
            if name not in vars_:
                vars_[name] = _TV()
            return vars_[name]

        def infer(e):
            if isinstance(e, Var):
                return var_ty(e.name)
            if isinstance(e, (Const, Pred)):
                return self.name_type(e.name)
            if isinstance(e, App):
                tf = infer(e.fn)
                ta = infer(e.arg)
                tr = _TV()
                try:
                    _unify(tf, Arrow(ta, tr))
                except _Clash as c:
                    self._clash(cl, c)
                return tr
            if isinstance(e, Eq):
                for side in (e.left, e.right):
                    try:
                        _unify(infer(side), IOTA)
                    except _Clash as c:
                        self._clash(cl, c)
                return OMICRON
            raise TypeError(e)

        head_ty = OMICRON
        for t in reversed([infer(a) for a in cl.head_args]):
            head_ty = Arrow(t, head_ty)
        try:
            _unify(self.name_type(cl.head), head_ty)
        except _Clash as c:
            self._clash(cl, c)
        for b in cl.body:
            try:
                _unify(infer(b), OMICRON)
            except _Clash as c:
                self._clash(cl, c)
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
                if _has_omicron_arg(ty):
                    self.violations.append(Diagnostic(
                        "E101", "predicate %s has an argument of type o" % name))
                self.signatures[name] = ty
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
            seen = set()
            head_var_names = set()
            for a in cl.head_args:
                if isinstance(a, Var):
                    ty = var_tys.get(a.name, IOTA)
                    if a.name in seen and isinstance(ty, Arrow):
                        self.violations.append(Diagnostic(
                            "E201", "duplicate formal %s in head of %s"
                            % (a.name, cl.head), cl.line, cl.col))
                    seen.add(a.name)
                    head_var_names.add(a.name)
                elif isinstance(a, (Const, Pred)):
                    if a.name in self.signatures:
                        self.violations.append(Diagnostic(
                            "E202", "predicate constant %s as head argument of %s"
                            % (a.name, cl.head), cl.line, cl.col))
                else:
                    self.violations.append(Diagnostic(
                        "E202", "non-variable predicate argument in head of %s"
                        % cl.head, cl.line, cl.col))
            for b in cl.body:
                for v in {x.name for x in core.expr_vars(b)}:
                    if v in head_var_names:
                        continue
                    if isinstance(var_tys.get(v, IOTA), Arrow):
                        self.violations.append(Diagnostic(
                            "E203", "free predicate variable %s in body of %s"
                            % (v, cl.head), cl.line, cl.col))


# ---------------------------------------------------------------------------
# Public operations

def infer_types(src):
    """Type a SourceProgram (or a core Program); returns a TypeReport."""
    if isinstance(src, Program):
        src = _surface_of(src)
    a = _Analysis(src)
    a.run()
    order = classify_order_from_signatures(a.signatures)
    return TypeReport(a.signatures, a.var_types, order, a.violations)


def validate_definitional(src, report=None):
    """Wadge-restriction diagnostics (E201/E202/E203) for a program."""
    if report is None:
        report = infer_types(src)
    return [d for d in report.violations if d.code in ("E201", "E202", "E203")]


def classify_order_from_signatures(signatures):
    orders = [type_order(ty) for ty in signatures.values()]
    return max(max(orders, default=1), 1)


def classify_order(report):
    return report.program_order


# ---------------------------------------------------------------------------
# Desugaring to the definitional core

def desugar(src, report=None):
    """Lower a SourceProgram to a core Program.

    Head individual constants and repeated head variables become fresh
    formals equated in the body (paper-style: `p a.` turns into
    `p X :- (X = a).`); identifiers with predicate type become Pred nodes.
    Raises TypeCheckError on E101 clashes; Wadge violations are reported
    through infer_types and left to the caller.
    """
    if report is None:
        report = infer_types(src)
    hard = [d for d in report.violations if d.code == "E101"]
    if hard:
        raise TypeCheckError(hard)

    pred_names = set(report.signatures)
    clauses = []
    for cl, var_tys in zip(src.clauses, report.clause_var_types):
        counter = [0]

        def fresh():
            counter[0] += 1
            return "_H%d" % counter[0]

        sig_args = core.arg_types(report.signatures[cl.head])
        formals = []
        equations = []
        seen = set()
        for a, ty in zip(cl.head_args, sig_args):
            if isinstance(a, Var) and a.name not in seen:
                seen.add(a.name)
                formals.append(Formal(a.name, ty))
            elif isinstance(a, Var):
                v = fresh()
                formals.append(Formal(v, ty))
                equations.append(Eq(Var(a.name, ty), Var(v, ty)))
            elif isinstance(a, (Const, Pred)) and a.name not in pred_names:
                v = fresh()
                formals.append(Formal(v, ty))
                equations.append(Eq(Var(v, ty), Const(a.name, IOTA)))
            else:
                # invalid head argument (E202 case); keep the shape with a
                # fresh formal so later passes can still run
                formals.append(Formal(fresh(), ty))
        body = equations + [_lower(b, pred_names, var_tys) for b in cl.body]
        clauses.append(Clause(cl.head, formals, body))
    return Program.from_clauses(dict(report.signatures), clauses)


def _lower(e, pred_names, var_tys):
    if isinstance(e, Var):
        return Var(e.name, var_tys.get(e.name))
    if isinstance(e, (Const, Pred)):
        if e.name in pred_names:
            return Pred(e.name)
        return Const(e.name, IOTA)
    if isinstance(e, App):
        return App(_lower(e.fn, pred_names, var_tys), _lower(e.arg, pred_names, var_tys))
    if isinstance(e, Eq):
        return Eq(_lower(e.left, pred_names, var_tys), _lower(e.right, pred_names, var_tys))
    raise TypeError(e)


def analyze(src):
    """Full front end: type, validate, desugar. Returns (Program, TypeReport)."""
    if isinstance(src, str):
        src = parse_program(src)
    report = infer_types(src)
    prog = desugar(src, report)
    return prog, report
