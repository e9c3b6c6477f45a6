"""Core AST, the two-sorted type grammar, program statistics and size bounds."""

from __future__ import annotations

from dataclasses import dataclass, field


class HodlError(Exception):
    """Base class for all errors raised by this package."""


class ResourceLimitError(HodlError):
    """An arbitrary-precision computation exceeded the configured bit cap."""


class BudgetExhaustedError(HodlError):
    """Raised when an engine's step budget runs out; the answer is unknown."""


# ---------------------------------------------------------------------------
# Types

class Type:
    __slots__ = ()


@dataclass(frozen=True)
class Iota(Type):
    def __repr__(self):
        return "i"


@dataclass(frozen=True)
class Omicron(Type):
    def __repr__(self):
        return "o"


@dataclass(frozen=True)
class Arrow(Type):
    arg: Type
    res: Type

    def __repr__(self):
        return render_type(self)


IOTA = Iota()
OMICRON = Omicron()


def arrow(args, res=OMICRON):
    """Build arg1 -> ... -> argn -> res."""
    ty = res
    for a in reversed(list(args)):
        ty = Arrow(a, ty)
    return ty


def arg_types(ty):
    """Flatten a predicate type rho1 -> ... -> rhon -> o into [rho1, ..., rhon]."""
    out = []
    while isinstance(ty, Arrow):
        out.append(ty.arg)
        ty = ty.res
    if ty != OMICRON:
        raise ValueError("not a predicate type: %r" % ty)
    return out


def is_predicate_type(ty):
    while isinstance(ty, Arrow):
        ty = ty.res
    return ty == OMICRON


def type_arity(ty):
    return len(arg_types(ty))


def render_type(ty):
    if isinstance(ty, Iota):
        return "i"
    if isinstance(ty, Omicron):
        return "o"
    left = render_type(ty.arg)
    if isinstance(ty.arg, Arrow):
        left = "(" + left + ")"
    return left + " -> " + render_type(ty.res)


def type_order(ty):
    """order(i) = order(o) = 0; order(rho1->...->rhon->o) = 1 + max arg order."""
    if isinstance(ty, (Iota, Omicron)):
        return 0
    args = arg_types(ty)
    return 1 + max(type_order(a) for a in args)


# ---------------------------------------------------------------------------
# Expressions

@dataclass(eq=True)
class Var:
    name: str
    ty: Type | None = field(default=None, compare=False)

    def __hash__(self):
        return hash(("Var", self.name))


@dataclass(eq=True)
class Const:
    name: str
    ty: Type | None = field(default=None, compare=False)

    def __hash__(self):
        return hash(("Const", self.name))


@dataclass(eq=True)
class Pred:
    name: str
    ty: Type | None = field(default=None, compare=False)

    def __hash__(self):
        return hash(("Pred", self.name))


@dataclass(eq=True)
class App:
    fn: object
    arg: object
    ty: Type | None = field(default=None, compare=False)

    def __hash__(self):
        return hash(("App", self.fn, self.arg))


@dataclass(eq=True)
class Eq:
    left: object
    right: object
    ty: Type | None = field(default=OMICRON, compare=False)

    def __hash__(self):
        return hash(("Eq", self.left, self.right))


def app_spine(e):
    """Decompose nested applications into (head, [args])."""
    args = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


def expr_vars(e):
    if isinstance(e, Var):
        yield e
    elif isinstance(e, App):
        yield from expr_vars(e.fn)
        yield from expr_vars(e.arg)
    elif isinstance(e, Eq):
        yield from expr_vars(e.left)
        yield from expr_vars(e.right)


def expr_consts(e):
    if isinstance(e, Const):
        yield e.name
    elif isinstance(e, App):
        yield from expr_consts(e.fn)
        yield from expr_consts(e.arg)
    elif isinstance(e, Eq):
        yield from expr_consts(e.left)
        yield from expr_consts(e.right)


# ---------------------------------------------------------------------------
# Clauses and programs

@dataclass(eq=True)
class Formal:
    name: str
    ty: Type | None = field(default=None, compare=False)


@dataclass(eq=True)
class Clause:
    head: str
    formals: list
    body: list

    def atoms(self):
        """Number of atoms in the clause, head included."""
        return 1 + len(self.body)


# The designated Herbrand constant for programs that mention no constant.
DESIGNATED_CONSTANT = "u0"


@dataclass
class Program:
    signatures: dict
    clauses: list
    constants: list

    @staticmethod
    def from_clauses(signatures, clauses):
        seen = {}
        for cl in clauses:
            for e in cl.body:
                for c in expr_consts(e):
                    seen.setdefault(c, None)
        constants = list(seen) or [DESIGNATED_CONSTANT]
        return Program(signatures, clauses, constants)

    def clauses_for(self, pred):
        return [cl for cl in self.clauses if cl.head == pred]


def input_numerals(prog):
    """All-digit constants occurring in input/3 facts of the program."""
    out = set()
    for cl in prog.clauses:
        if cl.head != "input":
            continue
        for e in cl.body:
            for c in expr_consts(e):
                if c.isdigit():
                    out.add(c)
    return out


# ---------------------------------------------------------------------------
# Statistics and bounds

@dataclass(frozen=True)
class ProgramStats:
    l: int  # max atoms per rule, head counted
    c: int  # individual constants, input numerals excluded
    r: int  # rules
    p: int  # predicates
    s: int  # predicate types involved
    t: int  # max arity of an involved predicate type


def _involved_types(prog):
    types = set()

    def add(ty):
        if not isinstance(ty, Arrow):
            return
        if ty in types:
            return
        types.add(ty)
        for a in arg_types(ty):
            add(a)

    for ty in prog.signatures.values():
        if is_predicate_type(ty) and ty != OMICRON:
            add(ty)
    for cl in prog.clauses:
        for f in cl.formals:
            if f.ty is not None:
                add(f.ty)
    return types


def compute_stats(prog):
    numerals = input_numerals(prog)
    consts = [c for c in prog.constants if c not in numerals]
    types = _involved_types(prog)
    return ProgramStats(
        l=max((cl.atoms() for cl in prog.clauses), default=0),
        c=len(consts),
        r=len(prog.clauses),
        p=len(prog.signatures),
        s=len(types),
        t=max((type_arity(ty) for ty in types), default=0),
    )


DEFAULT_BIT_CAP = 1 << 20


def expk(k, x, bit_cap=DEFAULT_BIT_CAP):
    """Iterated exponential: expk(0, x) = x, expk(k+1, x) = 2 ** expk(k, x)."""
    if k < 0 or x < 0:
        raise ValueError("expk arguments must be nonnegative")
    v = x
    for _ in range(k):
        if v > bit_cap:
            raise ResourceLimitError(
                "expk result would exceed %d bits" % bit_cap)
        v = 1 << v
    if v.bit_length() > bit_cap:
        raise ResourceLimitError("expk result exceeds %d bits" % bit_cap)
    return v


def iteration_bound(stats, n, k, bit_cap=DEFAULT_BIT_CAP):
    """Upper bound on productive bottom-up iterations for a program of order k."""
    if k < 1:
        raise ValueError("program order must be >= 1")
    base = n + stats.c
    t = stats.t
    if k == 1:
        bound = stats.p * base ** t
    else:
        inner = (t ** (k - 2)) * base ** t
        e = expk(k - 1, inner, bit_cap=bit_cap)
        if e.bit_length() * max(t, 1) > bit_cap:
            raise ResourceLimitError("iteration bound exceeds %d bits" % bit_cap)
        bound = stats.p * e ** t
    if bound.bit_length() > bit_cap:
        raise ResourceLimitError("iteration bound exceeds %d bits" % bit_cap)
    return bound
