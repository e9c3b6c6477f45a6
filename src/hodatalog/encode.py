"""Ordered-database encoding of input strings over {a, b}."""

from __future__ import annotations

from .core import (Clause, Const, DESIGNATED_CONSTANT, Eq, Formal, HodlError,
                   IOTA, Program, Var, arrow)

ALPHABET = ("a", "b")
END = "end"
EMPTY = "empty"

INPUT_TYPE = arrow([IOTA, IOTA, IOTA])


class EncodingError(HodlError):
    pass


def _fact(pred, args):
    formals = tuple(Formal("_H%d" % (i + 1), IOTA) for i in range(len(args)))
    body = tuple(Eq(Var(f.name, IOTA), Const(a, IOTA)) for f, a in zip(formals, args))
    return Clause(pred, formals, body)


def input_rows(w):
    """The constant names of each input/3 fact of w: an ordered chain of
    positions ending in `end`."""
    for ch in w:
        if ch not in ALPHABET:
            raise EncodingError("character %r outside alphabet {a, b}" % ch)
    n = len(w)
    if n == 0:
        return [("0", EMPTY, END)]
    return [(str(i), ch, END if i == n - 1 else str(i + 1))
            for i, ch in enumerate(w)]


def encode_input(w):
    """Facts for input/3: an ordered chain of positions ending in `end`."""
    return [_fact("input", row) for row in input_rows(w)]


def merged_constants(prog, rows):
    """The constants of prog merged with input/3 rows: prog's own, then
    each new one in first-occurrence order.  Raises EncodingError if prog
    declares input at another type."""
    declared = prog.signatures.get("input")
    if declared is not None and declared != INPUT_TYPE:
        raise EncodingError("program declares input at type %r" % declared)
    constants = list(prog.constants)
    if constants == [DESIGNATED_CONSTANT] and not prog.clauses:
        constants = []
    seen = set(constants)
    for row in rows:
        for c in row:
            if c not in seen:
                seen.add(c)
                constants.append(c)
    return constants


def merge(prog, facts):
    """Union a program with ground input/3 facts."""
    constants = merged_constants(
        prog, [[b.right.name for b in cl.body] for cl in facts])
    signatures = dict(prog.signatures)
    signatures["input"] = INPUT_TYPE
    return Program(signatures, list(prog.clauses) + list(facts), constants)
