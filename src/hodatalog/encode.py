"""Ordered-database encoding of input strings over {a, b}: the rows of the
relation input/3, added to a program's facts."""

from __future__ import annotations

import itertools

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


def new_constants(signatures, rows, known):
    """The constants of input/3 rows not in `known`, in first-occurrence
    order.  Raises EncodingError if `signatures` declare input at another
    type."""
    declared = signatures.get("input")
    if declared is not None and declared != INPUT_TYPE:
        raise EncodingError("program declares input at type %r" % declared)
    return [c for c in dict.fromkeys(itertools.chain.from_iterable(rows))
            if c not in known]


def merged_constants(prog, rows):
    """The constants of prog merged with input/3 rows: prog's own, then
    each new one in first-occurrence order.  Raises EncodingError if prog
    declares input at another type."""
    constants = list(prog.constants)
    if constants == [DESIGNATED_CONSTANT] and not (prog.clauses or prog.facts):
        constants = []
    return constants + new_constants(prog.signatures, rows, set(constants))


def merge(prog, rows):
    """Union a program with input/3 rows, a new program: they follow its
    own input facts."""
    return Program({**prog.signatures, "input": INPUT_TYPE}, prog.clauses,
                   merged_constants(prog, rows),
                   {**prog.facts,
                    "input": (*prog.facts.get("input", ()), *rows)})
