"""Ordered-database encoding of input strings over {a, b}: the rows of the
relation input/3, added to a program's facts."""

from __future__ import annotations

from .core import DESIGNATED_CONSTANT, HodlError, IOTA, Program, arrow

ALPHABET = ("a", "b")
END = "end"
EMPTY = "empty"

INPUT_TYPE = arrow([IOTA, IOTA, IOTA])


class EncodingError(HodlError):
    pass


def encode_input(w):
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


def merged_constants(prog, rows):
    """The constants of prog merged with input/3 rows: prog's own, then
    each new one in first-occurrence order.  Raises EncodingError if prog
    declares input at another type."""
    declared = prog.signatures.get("input")
    if declared is not None and declared != INPUT_TYPE:
        raise EncodingError("program declares input at type %r" % declared)
    constants = list(prog.constants)
    if constants == [DESIGNATED_CONSTANT] and not (prog.clauses or prog.facts):
        constants = []
    seen = set(constants)
    for row in rows:
        for c in row:
            if c not in seen:
                seen.add(c)
                constants.append(c)
    return constants


def merge(prog, rows):
    """Union a program with input/3 rows: they follow its own input facts."""
    signatures = dict(prog.signatures)
    signatures["input"] = INPUT_TYPE
    facts = dict(prog.facts)
    facts["input"] = [*facts.get("input", ()), *rows]
    return Program(signatures, list(prog.clauses),
                   merged_constants(prog, rows), facts)
