"""Extensional semantics: monotone-relation domains, expression evaluation,
the immediate consequence operator, and the naive fixpoint engine.

A predicate value of arity >= 1 is stored flattened: the full-arity set of
argument tuples.  Partial application is residuation (fixing the first
tuple position).  All values are immutable and canonical, so structural
equality is semantic equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (App, BudgetExhaustedError, Const, Eq, HodlError, IOTA,
                   OMICRON, Pred, Var, arg_types, expr_vars)


class DomainTooLargeError(HodlError):
    code = "E301"

    def __init__(self, ty, predicted):
        super().__init__("E301 domain for %r too large (predicted %d elements)"
                         % (ty, predicted))
        self.ty = ty
        self.predicted = predicted


# ---------------------------------------------------------------------------
# Semantic values

_INDS = {}  # name -> its Ind


class Ind:
    """An individual.  `Ind(name)` is one shared object per name, so two
    individuals are equal exactly when they are the same object, and
    compare and hash by identity, in C.  Pickling and copying re-intern."""

    __slots__ = ("name",)

    def __new__(cls, name):
        ind = _INDS.get(name)
        if ind is None:
            ind = object.__new__(cls)
            object.__setattr__(ind, "name", name)
            # another thread may have interned the name meanwhile
            ind = _INDS.setdefault(name, ind)
        return ind

    def __setattr__(self, attr, value):
        raise AttributeError("cannot assign to field %r" % attr)

    def __delattr__(self, attr):
        raise AttributeError("cannot delete field %r" % attr)

    def __reduce__(self):
        return Ind, (self.name,)

    def __repr__(self):
        return "Ind(name=%r)" % (self.name,)


@dataclass(frozen=True)
class Bool:
    value: bool


@dataclass(frozen=True)
class Rel:
    ty: object               # predicate Type of arity >= 1
    tuples: frozenset        # of tuples of semantic values


TRUE = Bool(True)
FALSE = Bool(False)


def bottom_value(ty):
    if ty == OMICRON:
        return FALSE
    return Rel(ty, frozenset())


def value_leq(x, y):
    """The pointwise partial order, computed extensionally."""
    if isinstance(x, Ind) and isinstance(y, Ind):
        return x == y
    if isinstance(x, Bool) and isinstance(y, Bool):
        return (not x.value) or y.value
    if isinstance(x, Rel) and isinstance(y, Rel):
        if x.ty != y.ty:
            raise TypeError("comparing relations of different types")
        return x.tuples <= y.tuples
    raise TypeError("comparing values of different kinds: %r, %r" % (x, y))


def value_key(v, universe_index):
    """Total encoding order used for canonical rendering."""
    if isinstance(v, Bool):
        return (0, v.value)
    if isinstance(v, Ind):
        return (1, universe_index.get(v.name, len(universe_index)), v.name)
    tuples = sorted(tuple(value_key(c, universe_index) for c in t)
                    for t in v.tuples)
    return (2, len(tuples), tuples)


# ---------------------------------------------------------------------------
# Domains

@dataclass
class Domain:
    ty: object
    elements: list

    def __post_init__(self):
        self.index = {e: i for i, e in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)


def herbrand_universe(prog):
    """Individual constants of the program in first-occurrence order."""
    return list(prog.constants)


_PREDICTED_PRODUCT_CAP = 4096


def predicted_domain_size(ty, n_plus_c):
    """Upper bound 2^|S| on the number of monotone elements (|S| clamped
    at _PREDICTED_PRODUCT_CAP, so the figure stays printable in
    diagnostics)."""
    if ty == IOTA:
        return n_plus_c
    if ty == OMICRON:
        return 2
    size = 1
    for a in arg_types(ty):
        size = min(size * predicted_domain_size(a, n_plus_c),
                   _PREDICTED_PRODUCT_CAP)
    return 2 ** size


# The most argument tuples a predicate domain is enumerated over, whatever
# the cap: its elements are searched over subsets of them.
MAX_PRODUCT = 60


def enumerate_domain(ty, universe, cap=1 << 16):
    """All elements of the domain of `ty` over the given universe.

    For a predicate type this is exactly the set of monotone functions,
    represented as upward-closed subsets of the product of the argument
    domains.  Raises DomainTooLargeError (E301) when that product exceeds
    the cap or MAX_PRODUCT, or the elements exceed the cap.
    """
    if ty == IOTA:
        return Domain(ty, [Ind(c) for c in universe])
    if ty == OMICRON:
        return Domain(ty, [FALSE, TRUE])
    args = arg_types(ty)
    arg_domains = [enumerate_domain(a, universe, cap) for a in args]
    product_size = 1
    for d in arg_domains:
        product_size *= len(d)
    if product_size > min(cap, MAX_PRODUCT):
        predicted = predicted_domain_size(ty, len(universe))
        raise DomainTooLargeError(ty, predicted)
    product = [t for t in itertools.product(*(d.elements for d in arg_domains))]
    product.sort(key=lambda t: sum(1 for u in product if u != t and _tuple_leq(u, t)))
    below = [[i for i in range(len(product)) if i != j
              and _tuple_leq(product[i], product[j])] for j in range(len(product))]

    out = []

    def extend(j, chosen):
        if j == len(product):
            out.append(Rel(ty, frozenset(product[i] for i in chosen)))
            if len(out) > cap:
                raise DomainTooLargeError(ty, predicted_domain_size(ty, len(universe)))
            return
        forced = any(i in chosen for i in below[j])
        if not forced:
            extend(j + 1, chosen)
        chosen.add(j)
        extend(j + 1, chosen)
        chosen.discard(j)

    extend(0, set())
    return Domain(ty, out)


def _tuple_leq(u, v):
    return all(value_leq(a, b) for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# Interpretations and evaluation

def bottom_interpretation(prog):
    return {p: bottom_value(ty) for p, ty in prog.signatures.items()}


def eval_expr(e, interp, state):
    """Denotation of a typed expression under interpretation and state."""
    if isinstance(e, Var):
        try:
            return state[e.name]
        except KeyError:
            raise HodlError("unbound variable %s" % e.name) from None
    if isinstance(e, Const):
        return Ind(e.name)
    if isinstance(e, Pred):
        return interp[e.name]
    if isinstance(e, Eq):
        return Bool(eval_expr(e.left, interp, state) == eval_expr(e.right, interp, state))
    if isinstance(e, App):
        f = eval_expr(e.fn, interp, state)
        a = eval_expr(e.arg, interp, state)
        return apply_value(f, a)
    raise TypeError(e)


def apply_value(f, a):
    """Residuation: fix the first tuple position of a relation."""
    if not isinstance(f, Rel):
        raise TypeError("cannot apply non-relation %r" % (f,))
    rest = frozenset(t[1:] for t in f.tuples if t[0] == a)
    res_ty = f.ty.res
    if res_ty == OMICRON:
        return Bool(() in rest)
    return Rel(res_ty, rest)


# ---------------------------------------------------------------------------
# T_P and the naive engine

def collect_domain_types(prog):
    types = set()
    for ty in prog.signatures.values():
        for a in arg_types(ty):
            types.add(a)
    types.add(IOTA)
    return types


def build_domains(prog, cap=1 << 16):
    universe = herbrand_universe(prog)
    return {ty: enumerate_domain(ty, universe, cap)
            for ty in collect_domain_types(prog)}


def _clause_extra_vars(cl):
    formal_names = {f.name for f in cl.formals}
    extras = []
    for b in cl.body:
        for v in expr_vars(b):
            if v.name not in formal_names and v.name not in extras:
                extras.append(v.name)
    return extras


def tp_step(prog, interp, domains):
    """One application of the immediate consequence operator: T_P(I)(p) is
    p's fact rows and what p's clauses derive under I."""
    universe = herbrand_universe(prog)
    iota_elems = [Ind(c) for c in universe]
    out = {}
    for p, ty in prog.signatures.items():
        args = arg_types(ty)
        clauses = prog.clauses_for(p)
        tuples = {tuple(map(Ind, row)) for row in prog.facts.get(p, ())}
        if not args:
            out[p] = Bool(bool(tuples) or any(
                _derivable(cl, (), interp, iota_elems) for cl in clauses))
            continue
        arg_domains = [domains[a] for a in args]
        for tup in itertools.product(*(d.elements for d in arg_domains)):
            if tup not in tuples and any(
                    _derivable(cl, tup, interp, iota_elems) for cl in clauses):
                tuples.add(tup)
        rel = Rel(ty, frozenset(tuples))
        _assert_upward_closed(rel, arg_domains)
        out[p] = rel
    return out


def _derivable(cl, tup, interp, iota_elems):
    state = {f.name: v for f, v in zip(cl.formals, tup)}
    extras = _clause_extra_vars(cl)
    for assignment in itertools.product(iota_elems, repeat=len(extras)):
        st = dict(state)
        st.update(zip(extras, assignment))
        if all(eval_expr(b, interp, st) == TRUE for b in cl.body):
            return True
    return False


def _assert_upward_closed(rel, arg_domains):
    tuples = rel.tuples
    for t in tuples:
        for u in itertools.product(*(d.elements for d in arg_domains)):
            if _tuple_leq(t, u) and u not in tuples:
                raise HodlError("computed relation is not upward-closed")


@dataclass
class FixpointResult:
    interpretation: dict
    iterations: int  # productive T_P applications


def least_model_naive(prog, cap=1 << 16, budget=10 ** 7):
    """Iterate T_P from bottom to the least fixpoint.

    The step budget counts productive T_P applications; BudgetExhaustedError
    is raised once the count passes it.
    """
    domains = build_domains(prog, cap)
    interp = bottom_interpretation(prog)
    productive = 0
    while True:
        nxt = tp_step(prog, interp, domains)
        if nxt == interp:
            return FixpointResult(interp, productive)
        productive += 1
        if productive > budget:
            raise BudgetExhaustedError("unknown: budget")
        interp = nxt


# ---------------------------------------------------------------------------
# Model dump

def render_value(v, universe_index):
    if isinstance(v, Bool):
        return "true" if v.value else "false"
    if isinstance(v, Ind):
        return v.name
    tuples = sorted(v.tuples, key=lambda t: tuple(value_key(c, universe_index) for c in t))
    return "{" + ",".join(_render_tuple(t, universe_index) for t in tuples) + "}"


def _render_tuple(t, universe_index):
    parts = [render_value(c, universe_index) for c in t]
    if len(parts) == 1:
        return parts[0]
    return "(" + ",".join(parts) + ")"


def dump_model(prog, interp):
    """One line per predicate: `pred = { tuple ; tuple ; ... }`."""
    universe_index = {c: i for i, c in enumerate(herbrand_universe(prog))}
    lines = []
    for p in sorted(interp):
        v = interp[p]
        if isinstance(v, Bool):
            lines.append("%s = %s" % (p, "true" if v.value else "false"))
        else:
            tuples = sorted(v.tuples,
                            key=lambda t: tuple(value_key(c, universe_index) for c in t))
            body = " ; ".join(_render_tuple(t, universe_index) for t in tuples)
            lines.append("%s = { %s }" % (p, body))
    return "\n".join(lines) + ("\n" if lines else "")
