"""Deterministic single-tape Turing machines with three primitive actions.

Machine file format (".tm", line oriented, '#' comments):

    states: s0 s1 yes
    start: s0
    trans: s0 a -> s1 write a
    trans: s0 b -> s0 right
    trans: s1 _ -> yes write _

The blank symbol is written "_".  The accepting state `yes` is absorbing;
its self-loops are completed automatically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import HodlError

BLANK = "_"
TAPE_ALPHABET = ("a", "b", BLANK)


class TmFormatError(HodlError):
    pass


@dataclass(frozen=True)
class Write:
    next_state: str
    symbol: str


@dataclass(frozen=True)
class MoveRight:
    next_state: str


@dataclass(frozen=True)
class MoveLeft:
    next_state: str


@dataclass
class TuringMachine:
    name: str
    states: list
    start: str
    transitions: dict  # (state, symbol) -> action

    def __post_init__(self):
        if self.start not in self.states:
            raise TmFormatError("start state %r not listed" % self.start)
        if "yes" not in self.states:
            raise TmFormatError("machine must have a yes state")
        for (s, sym), act in self.transitions.items():
            if s not in self.states:
                raise TmFormatError("unknown state %r" % s)
            if sym not in TAPE_ALPHABET:
                raise TmFormatError("unknown symbol %r" % sym)
            nxt = act.next_state
            if nxt not in self.states:
                raise TmFormatError("unknown target state %r" % nxt)
        # yes is absorbing: stay put, rewrite the same symbol
        for sym in TAPE_ALPHABET:
            self.transitions.setdefault(("yes", sym), Write("yes", sym))


_IDENT = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def parse_tm(text, name="machine"):
    states = None
    start = None
    transitions = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "states":
            states = rest.split()
            for s in states:
                if not _IDENT.match(s):
                    raise TmFormatError("line %d: bad state name %r" % (lineno, s))
        elif key == "start":
            start = rest
        elif key == "trans":
            m = re.match(r"(\S+)\s+(\S+)\s*->\s*(\S+)\s+(write\s+\S+|right|left)\Z", rest)
            if not m:
                raise TmFormatError("line %d: cannot parse transition %r" % (lineno, rest))
            state, sym, nxt, act = m.groups()
            if (state, sym) in transitions:
                raise TmFormatError("line %d: duplicate transition for (%s, %s)"
                                    % (lineno, state, sym))
            if act == "right":
                action = MoveRight(nxt)
            elif act == "left":
                action = MoveLeft(nxt)
            else:
                action = Write(nxt, act.split()[1])
            transitions[(state, sym)] = action
        else:
            raise TmFormatError("line %d: unknown key %r" % (lineno, key))
    if states is None:
        raise TmFormatError("missing states line")
    if start is None:
        raise TmFormatError("missing start line")
    return TuringMachine(name, states, start, transitions)


@dataclass(frozen=True)
class RunResult:
    verdict: str  # accepted | rejected | out_of_steps | left_edge_violation
    steps_used: int
    final_state: str

    @property
    def accepted(self):
        return self.verdict == "accepted"


def tm_run(machine, w, max_steps):
    """Direct simulation: input on cells 0..n-1, head at 0, start state."""
    tape = dict(enumerate(w))
    state = machine.start
    head = 0
    steps = 0
    while True:
        if state == "yes":
            return RunResult("accepted", steps, state)
        if steps >= max_steps:
            return RunResult("out_of_steps", steps, state)
        sym = tape.get(head, BLANK)
        act = machine.transitions.get((state, sym))
        if act is None:
            return RunResult("rejected", steps, state)
        if isinstance(act, Write):
            tape[head] = act.symbol
        elif isinstance(act, MoveRight):
            head += 1
        else:
            if head == 0:
                return RunResult("left_edge_violation", steps, state)
            head -= 1
        state = act.next_state
        steps += 1


# ---------------------------------------------------------------------------
# Sample machines

ACCEPT_ALL = """\
# accepts every string: one step into yes
states: s0 yes
start: s0
trans: s0 a -> yes write a
trans: s0 b -> yes write b
trans: s0 _ -> yes write _
"""

REJECT_ALL = """\
# no transitions: halts immediately in s0
states: s0 yes
start: s0
"""

# even number of a's: scan right flipping parity, accept on blank in s0
PARITY = """\
states: s0 s1 yes
start: s0
trans: s0 a -> s1 right
trans: s0 b -> s0 right
trans: s1 a -> s0 right
trans: s1 b -> s1 right
trans: s0 _ -> yes write _
"""

SAMPLE_MACHINES = {
    "accept_all": ACCEPT_ALL,
    "reject_all": REJECT_ALL,
    "parity": PARITY,
}


def sample_machine(name):
    try:
        return parse_tm(SAMPLE_MACHINES[name], name=name)
    except KeyError:
        raise TmFormatError("no sample machine named %r" % name) from None
