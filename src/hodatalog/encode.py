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
    formals = [Formal("_H%d" % (i + 1), IOTA) for i in range(len(args))]
    body = [Eq(Var(f.name, IOTA), Const(a, IOTA)) for f, a in zip(formals, args)]
    return Clause(pred, formals, body)


def encode_input(w):
    """Facts for input/3: an ordered chain of positions ending in `end`."""
    for ch in w:
        if ch not in ALPHABET:
            raise EncodingError("character %r outside alphabet {a, b}" % ch)
    n = len(w)
    if n == 0:
        return [_fact("input", ["0", EMPTY, END])]
    facts = []
    for i, ch in enumerate(w):
        nxt = END if i == n - 1 else str(i + 1)
        facts.append(_fact("input", [str(i), ch, nxt]))
    return facts


def merge(prog, facts):
    """Union a program with ground input/3 facts."""
    declared = prog.signatures.get("input")
    if declared is not None and declared != INPUT_TYPE:
        raise EncodingError("program declares input at type %r" % declared)
    signatures = dict(prog.signatures)
    signatures["input"] = INPUT_TYPE
    constants = list(prog.constants)
    if constants == [DESIGNATED_CONSTANT] and not prog.clauses:
        constants = []
    seen = set(constants)
    for cl in facts:
        for b in cl.body:
            c = b.right.name
            if c not in seen:
                seen.add(c)
                constants.append(c)
    return Program(signatures, list(prog.clauses) + list(facts), constants)
