"""Generation of Turing-machine simulation programs and the big-number
libraries they build on.

All generators produce ".hodl" text and parse it back, so every emitted
program is guaranteed to round-trip through the concrete syntax.  Tuple
arguments (written X-bar in blackboard presentations of this construction)
are expanded to d explicit individual arguments.
"""

from __future__ import annotations

from .core import Arrow, HodlError, IOTA, arrow
from .core import render_type
from .syntax import parse_program
from .tm import BLANK, MoveLeft, MoveRight, Write, tm_run
from .typecheck import analyze

GENERATOR_VERSION = "1.0"

SYMBOL_NAMES = {"a": "symbol_a", "b": "symbol_b", BLANK: "symbol_blank"}


class GenerationError(HodlError):
    pass


def _vars(prefix, d):
    return ["%s%d" % (prefix, i) for i in range(1, d + 1)]


def _atom(pred, *args):
    return "(%s)" % " ".join([pred] + [a for group in args
                                       for a in (group if isinstance(group, list) else [group])])


def _clause(head_pred, head_args, body):
    head = " ".join([head_pred] + [a for group in head_args
                                   for a in (group if isinstance(group, list) else [group])])
    if not body:
        return head + "."
    return "%s :- %s." % (head, ", ".join(body))


def _directive(name, ty):
    return "#pred %s : %s." % (name, render_type(ty))


def _iotas(n):
    return [IOTA] * n


# ---------------------------------------------------------------------------
# Base and tuple arithmetic over input positions (numbers 0 .. n^d - 1)

def base_arith_text(d):
    if d < 1:
        raise GenerationError("d must be >= 1")
    X, Y, Z = _vars("X", d), _vars("Y", d), _vars("Z", d)
    rel_d = arrow(_iotas(d))
    rel_2d = arrow(_iotas(2 * d))
    lines = [
        _directive("input", arrow(_iotas(3))),
        _directive("base_zero", arrow(_iotas(1))),
        _directive("base_last", arrow(_iotas(1))),
        _directive("base_succ", arrow(_iotas(2))),
        _directive("base_pred", arrow(_iotas(2))),
        _directive("tuple_zero", rel_d),
        _directive("tuple_last", rel_d),
        _directive("tuple_base_last", rel_d),
        _directive("tuple_succ", rel_2d),
        _directive("tuple_pred", rel_2d),
        _directive("less_than", rel_2d),
        _directive("tuple_non_zero", rel_d),
        "base_zero 0.",
        "base_last I :- (input I X end).",
        "base_succ I J :- (input I X J), (input J A K).",
        "base_pred I J :- (base_succ J I).",
        _clause("tuple_zero", [X], [_atom("base_zero", x) for x in X]),
        _clause("tuple_last", [X], [_atom("base_last", x) for x in X]),
        _clause("tuple_base_last", [X],
                [_atom("base_zero", x) for x in X[:-1]] + [_atom("base_last", X[-1])]),
    ]
    # d carry-chain clauses, incrementing at position m (1-based, last first)
    for m in range(d, 0, -1):
        body = ["(%s = %s)" % (X[i], Y[i]) for i in range(m - 1)]
        body.append(_atom("base_succ", X[m - 1], Y[m - 1]))
        body += [_atom("base_last", x) for x in X[m:]]
        body += [_atom("base_zero", y) for y in Y[m:]]
        lines.append(_clause("tuple_succ", [X, Y], body))
    lines += [
        _clause("tuple_pred", [X, Y], [_atom("tuple_succ", Y, X)]),
        _clause("less_than", [X, Y], [_atom("tuple_succ", X, Y)]),
        _clause("less_than", [X, Y],
                [_atom("tuple_succ", X, Z), _atom("less_than", Z, Y)]),
        _clause("tuple_non_zero", [X],
                [_atom("tuple_zero", Z), _atom("less_than", Z, X)]),
    ]
    return lines


def gen_base_arith(d):
    """The position-arithmetic library as parsed surface clauses."""
    return parse_program("\n".join(base_arith_text(d))).clauses


# ---------------------------------------------------------------------------
# First-order Turing machine simulation

def _transition_groups_first_order(machine, d):
    T, U = _vars("T", d), _vars("U", d)
    X, Y = _vars("X", d), _vars("Y", d)
    lines = []
    for (s, sym), act in machine.transitions.items():
        prefix = [_atom("tuple_succ", T, U),
                  _atom("state_%s" % s, T),
                  _atom("cursor", T, X),
                  _atom(SYMBOL_NAMES[sym], T, X)]
        if isinstance(act, Write):
            lines.append(_clause(SYMBOL_NAMES[act.symbol], [U, X], prefix))
            lines.append(_clause("state_%s" % act.next_state, [U], prefix))
            lines.append(_clause("cursor", [U, X], prefix))
        elif isinstance(act, MoveRight):
            lines.append(_clause(SYMBOL_NAMES[sym], [U, X], prefix))
            lines.append(_clause("state_%s" % act.next_state, [U], prefix))
            lines.append(_clause("cursor", [U, Y],
                                 prefix + [_atom("tuple_succ", X, Y)]))
        elif isinstance(act, MoveLeft):
            lines.append(_clause(SYMBOL_NAMES[sym], [U, X], prefix))
            lines.append(_clause("state_%s" % act.next_state, [U], prefix))
            lines.append(_clause("cursor", [U, Y],
                                 prefix + [_atom("tuple_pred", X, Y)]))
    return lines


def short_string_rules(machine, horizon=10 ** 6):
    """Direct acceptance rules for the inputs of length 0 and 1."""
    rules = []
    cases = [("", "accept :- (input 0 empty end)."),
             ("a", "accept :- (input 0 a end)."),
             ("b", "accept :- (input 0 b end).")]
    for w, rule in cases:
        res = tm_run(machine, w, horizon)
        if res.verdict == "out_of_steps":
            raise GenerationError(
                "machine did not halt on %r within %d steps" % (w, horizon))
        if res.accepted:
            rules.append(rule)
    return rules


def first_order_text(machine, d):
    rel_d = arrow(_iotas(d))
    rel_2d = arrow(_iotas(2 * d))
    T, X = _vars("T", d), _vars("X", d)
    Y = _vars("Y", d)
    lines = base_arith_text(d)
    for name in SYMBOL_NAMES.values():
        lines.append(_directive(name, rel_2d))
    for s in machine.states:
        lines.append(_directive("state_%s" % s, rel_d))
    lines.append(_directive("cursor", rel_2d))
    lines.append(_directive("accept", arrow([])))
    for sym in ("a", "b"):
        lines.append(_clause(
            SYMBOL_NAMES[sym], [T, X],
            [_atom("tuple_zero", T)] +
            [_atom("base_zero", x) for x in X[:-1]] +
            [_atom("input", X[-1], sym, "W")]))
    lines.append(_clause(
        SYMBOL_NAMES[BLANK], [T, X],
        [_atom("tuple_zero", T), _atom("tuple_base_last", Y),
         _atom("less_than", Y, X)]))
    lines.append(_clause("state_%s" % machine.start, [T],
                         [_atom("tuple_zero", T)]))
    lines.append(_clause("cursor", [T, X],
                         [_atom("tuple_zero", T), _atom("tuple_zero", X)]))
    lines += _transition_groups_first_order(machine, d)
    for name in SYMBOL_NAMES.values():
        lines.append(_clause(name, [_vars("U", d), Y],
                             [_atom("tuple_succ", T, _vars("U", d)),
                              _atom("cursor", T, X),
                              _atom("less_than", X, Y),
                              _atom(name, T, Y)]))
        lines.append(_clause(name, [_vars("U", d), Y],
                             [_atom("tuple_succ", T, _vars("U", d)),
                              _atom("cursor", T, X),
                              _atom("less_than", Y, X),
                              _atom(name, T, Y)]))
    lines.append("accept :- (tuple_last %s), (state_yes %s)."
                 % (" ".join(T), " ".join(T)))
    lines += short_string_rules(machine)
    return lines


def compile_tm_first_order(machine, d):
    text = "\n".join(first_order_text(machine, d))
    prog, report = analyze(text)
    if not report.ok:
        raise GenerationError("generated program failed validation: %s"
                              % report.violations)
    return prog


# ---------------------------------------------------------------------------
# Big numbers (levels 1 .. k-1)

def number_type(level, d):
    """The type of a level-j number predicate: positions -> bit -> o."""
    if level == 1:
        return arrow(_iotas(d + 1))
    return arrow([number_type(level - 1, d), IOTA])


def _pos_args(level, d, name):
    """Argument variables for a position at the given level."""
    if level == 1:
        return _vars(name, d)
    return [name]


def _level_directives(level, d):
    num = number_type(level, d)
    pos = _iotas(d) if level == 1 else [number_type(level - 1, d)]
    suffix = "_%d" % level
    return [
        _directive("zero" + suffix, num),
        _directive("last" + suffix, num),
        _directive("is_zero" + suffix, arrow([num])),
        _directive("non_zero" + suffix, arrow([num])),
        _directive("is_last" + suffix, arrow([num])),
        _directive("non_last" + suffix, arrow([num])),
        _directive("all_to_right" + suffix, arrow([IOTA, num] + pos)),
        _directive("exists_to_right" + suffix, arrow([IOTA, num] + pos)),
        _directive("pred" + suffix, arrow([num] + pos + [IOTA])),
        _directive("succ" + suffix, arrow([num] + pos + [IOTA])),
        _directive("equal" + suffix, arrow([num, num])),
        _directive("equal_test" + suffix, arrow([num, num] + pos)),
        _directive("less_than" + suffix, arrow([num, num])),
    ]


def _level_one_text(d):
    X, Y = _vars("X", d), _vars("Y", d)
    lines = _level_directives(1, d)
    lines += [
        _directive("invert", arrow(_iotas(2))),
        _clause("zero_1", [X, "low"], []),
        _clause("last_1", [X, "high"], []),
        _clause("is_zero_1", ["N"],
                [_atom("tuple_last", X), _atom("all_to_right_1", "low", "N", X)]),
        _clause("all_to_right_1", ["V", "N", X],
                [_atom("tuple_zero", X), _atom("N", X, "V")]),
        _clause("all_to_right_1", ["V", "N", X],
                [_atom("tuple_pred", X, Y), _atom("N", X, "V"),
                 _atom("all_to_right_1", "V", "N", Y)]),
        _clause("non_zero_1", ["N"],
                [_atom("tuple_last", X), _atom("exists_to_right_1", "high", "N", X)]),
        _clause("exists_to_right_1", ["V", "N", X], [_atom("N", X, "V")]),
        _clause("exists_to_right_1", ["V", "N", X],
                [_atom("tuple_pred", X, Y), _atom("exists_to_right_1", "V", "N", Y)]),
        _clause("is_last_1", ["N"],
                [_atom("tuple_last", X), _atom("all_to_right_1", "high", "N", X)]),
        _clause("non_last_1", ["N"],
                [_atom("tuple_last", X), _atom("exists_to_right_1", "low", "N", X)]),
        _clause("pred_1", ["N", X, "V"],
                [_atom("tuple_zero", X), _atom("non_zero_1", "N"),
                 _atom("N", X, "V1"), _atom("invert", "V1", "V")]),
        _clause("pred_1", ["N", X, "V"],
                [_atom("non_zero_1", "N"), _atom("tuple_pred", X, Y),
                 _atom("exists_to_right_1", "high", "N", Y), _atom("N", X, "V")]),
        _clause("pred_1", ["N", X, "V"],
                [_atom("non_zero_1", "N"), _atom("tuple_pred", X, Y),
                 _atom("all_to_right_1", "low", "N", Y),
                 _atom("N", X, "V1"), _atom("invert", "V1", "V")]),
        "invert low high.",
        "invert high low.",
        _clause("succ_1", ["N", X, "V"],
                [_atom("tuple_zero", X), _atom("non_last_1", "N"),
                 _atom("N", X, "V1"), _atom("invert", "V1", "V")]),
        _clause("succ_1", ["N", X, "V"],
                [_atom("non_last_1", "N"), _atom("tuple_pred", X, Y),
                 _atom("exists_to_right_1", "low", "N", Y), _atom("N", X, "V")]),
        _clause("succ_1", ["N", X, "V"],
                [_atom("non_last_1", "N"), _atom("tuple_pred", X, Y),
                 _atom("all_to_right_1", "high", "N", Y),
                 _atom("N", X, "V1"), _atom("invert", "V1", "V")]),
        _clause("equal_1", ["N", "M"],
                [_atom("tuple_last", X), _atom("equal_test_1", "N", "M", X)]),
        _clause("equal_test_1", ["N", "M", X],
                [_atom("tuple_zero", X), _atom("N", X, "V"), _atom("M", X, "V")]),
        _clause("equal_test_1", ["N", "M", X],
                [_atom("tuple_pred", X, Y), _atom("N", X, "V"), _atom("M", X, "V"),
                 _atom("equal_test_1", "N", "M", Y)]),
        _clause("less_than_1", ["N", "M"],
                [_atom("is_zero_1", "N"), _atom("non_zero_1", "M")]),
        _clause("less_than_1", ["N", "M"],
                [_atom("non_zero_1", "N"), _atom("non_zero_1", "M"),
                 "(less_than_1 (pred_1 N) (pred_1 M))"]),
    ]
    return lines


def _level_up_text(level):
    """Clauses for level j = `level` >= 2, built on level j-1."""
    j, lo = "_%d" % level, "_%d" % (level - 1)
    lines = [
        _clause("zero" + j, ["X", "low"], []),
        _clause("last" + j, ["X", "high"], []),
        _clause("is_zero" + j, ["N"],
                ["(all_to_right%s low N last%s)" % (j, lo)]),
        _clause("all_to_right" + j, ["V", "N", "X"],
                ["(is_zero%s X)" % lo, "(N X V)"]),
        _clause("all_to_right" + j, ["V", "N", "X"],
                ["(non_zero%s X)" % lo, "(N X V)",
                 "(all_to_right%s V N (pred%s X))" % (j, lo)]),
        _clause("non_zero" + j, ["N"],
                ["(exists_to_right%s high N last%s)" % (j, lo)]),
        _clause("exists_to_right" + j, ["V", "N", "X"], ["(N X V)"]),
        _clause("exists_to_right" + j, ["V", "N", "X"],
                ["(non_zero%s X)" % lo,
                 "(exists_to_right%s V N (pred%s X))" % (j, lo)]),
        _clause("is_last" + j, ["N"],
                ["(all_to_right%s high N last%s)" % (j, lo)]),
        _clause("non_last" + j, ["N"],
                ["(exists_to_right%s low N last%s)" % (j, lo)]),
        _clause("pred" + j, ["N", "X", "V"],
                ["(is_zero%s X)" % lo, "(non_zero%s N)" % j,
                 "(N X V1)", "(invert V1 V)"]),
        _clause("pred" + j, ["N", "X", "V"],
                ["(non_zero%s X)" % lo,
                 "(exists_to_right%s high N (pred%s X))" % (j, lo), "(N X V)"]),
        _clause("pred" + j, ["N", "X", "V"],
                ["(non_zero%s X)" % lo, "(non_zero%s N)" % j,
                 "(all_to_right%s low N (pred%s X))" % (j, lo),
                 "(N X V1)", "(invert V1 V)"]),
        _clause("succ" + j, ["N", "X", "V"],
                ["(is_zero%s X)" % lo, "(non_last%s N)" % j,
                 "(N X V1)", "(invert V1 V)"]),
        _clause("succ" + j, ["N", "X", "V"],
                ["(non_zero%s X)" % lo,
                 "(exists_to_right%s low N (pred%s X))" % (j, lo), "(N X V)"]),
        _clause("succ" + j, ["N", "X", "V"],
                ["(non_zero%s X)" % lo, "(non_zero%s N)" % j,
                 "(all_to_right%s high N (pred%s X))" % (j, lo),
                 "(N X V1)", "(invert V1 V)"]),
        _clause("equal" + j, ["N", "M"],
                ["(equal_test%s N M last%s)" % (j, lo)]),
        _clause("equal_test" + j, ["N", "M", "X"],
                ["(is_zero%s X)" % lo, "(N X V)", "(M X V)"]),
        _clause("equal_test" + j, ["N", "M", "X"],
                ["(non_zero%s X)" % lo, "(N X V)", "(M X V)",
                 "(equal_test%s N M (pred%s X))" % (j, lo)]),
        _clause("less_than" + j, ["N", "M"],
                ["(is_zero%s N)" % j, "(non_zero%s M)" % j]),
        _clause("less_than" + j, ["N", "M"],
                ["(non_zero%s N)" % j, "(non_zero%s M)" % j,
                 "(less_than%s (pred%s N) (pred%s M))" % (j, j, j)]),
    ]
    return lines


def bignum_text(k, d):
    """Number libraries for levels 1 .. k-1 on top of position arithmetic."""
    if k < 2:
        raise GenerationError("big numbers require k >= 2")
    lines = base_arith_text(d) + _level_one_text(d)
    for level in range(2, k):
        lines += _level_directives(level, d)
        lines += _level_up_text(level)
    return lines


def gen_bignum(k, d):
    return parse_program("\n".join(bignum_text(k, d))).clauses


# ---------------------------------------------------------------------------
# Higher-order Turing machine simulation (program order k, numbers of
# level L = k-1 count the simulated steps)

def higher_order_text(machine, k, d):
    if k < 2:
        raise GenerationError("higher-order simulation requires k >= 2")
    L = k - 1
    suf = "_%d" % L
    num = number_type(L, d)
    pos = _iotas(d) if L == 1 else [number_type(L - 1, d)]
    I = _pos_args(L, d, "I")
    lines = bignum_text(k, d)
    lines += [
        _directive("base_to_higher" + suf, arrow([IOTA] + pos + [IOTA])),
        _directive("symbol_a", arrow([num, num])),
        _directive("symbol_b", arrow([num, num])),
        _directive("symbol_blank", arrow([num, num])),
    ]
    for s in machine.states:
        lines.append(_directive("state_%s" % s, arrow([num])))
    lines.append(_directive("cursor", arrow([num] + pos + [IOTA])))
    lines.append(_directive("accept", arrow([])))

    X = _pos_args(L, d, "X")
    lines.append(_clause("base_to_higher" + suf, ["0", X, "low"], []))
    lines.append(_clause(
        "base_to_higher" + suf, ["M", X, "V"],
        [_atom("input", "J", "S", "M"),
         "(succ%s (base_to_higher%s J) %s V)" % (suf, suf, " ".join(X))]))
    for sym in ("a", "b"):
        lines.append(_clause(
            SYMBOL_NAMES[sym], ["T", "X"],
            ["(is_zero%s T)" % suf, _atom("input", "Y", sym, "W"),
             "(equal%s (base_to_higher%s Y) X)" % (suf, suf)]))
    lines.append(_clause(
        SYMBOL_NAMES[BLANK], ["T", "X"],
        ["(is_zero%s T)" % suf, "(base_last Y)",
         "(less_than%s (base_to_higher%s Y) X)" % (suf, suf)]))
    lines.append(_clause("state_%s" % machine.start, ["T"],
                         ["(is_zero%s T)" % suf]))
    lines.append(_clause("cursor", ["T", I, "low"], ["(is_zero%s T)" % suf]))

    prev = "(pred%s T)" % suf
    cursor_prev = "(cursor %s)" % prev
    for (s, sym), act in machine.transitions.items():
        common = ["(non_zero%s T)" % suf,
                  "(state_%s %s)" % (s, prev),
                  "(%s %s %s)" % (SYMBOL_NAMES[sym], prev, cursor_prev)]
        symbol_rule = ["(non_zero%s T)" % suf,
                       "(equal%s X %s)" % (suf, cursor_prev),
                       "(state_%s %s)" % (s, prev),
                       "(%s %s %s)" % (SYMBOL_NAMES[sym], prev, cursor_prev)]
        if isinstance(act, Write):
            lines.append(_clause(SYMBOL_NAMES[act.symbol], ["T", "X"], symbol_rule))
            lines.append(_clause("state_%s" % act.next_state, ["T"], common))
            lines.append(_clause("cursor", ["T", I, "V"],
                                 common + ["(cursor %s %s V)" % (prev, " ".join(I))]))
        elif isinstance(act, MoveRight):
            lines.append(_clause(SYMBOL_NAMES[sym], ["T", "X"], symbol_rule))
            lines.append(_clause("state_%s" % act.next_state, ["T"], common))
            lines.append(_clause("cursor", ["T", I, "V"],
                                 common + ["((succ%s %s) %s V)"
                                           % (suf, cursor_prev, " ".join(I))]))
        elif isinstance(act, MoveLeft):
            lines.append(_clause(SYMBOL_NAMES[sym], ["T", "X"], symbol_rule))
            lines.append(_clause("state_%s" % act.next_state, ["T"], common))
            lines.append(_clause("cursor", ["T", I, "V"],
                                 common + ["((pred%s %s) %s V)"
                                           % (suf, cursor_prev, " ".join(I))]))
    for name in SYMBOL_NAMES.values():
        lines.append(_clause(name, ["T", "X"],
                             ["(less_than%s X %s)" % (suf, cursor_prev),
                              "(%s %s X)" % (name, prev)]))
        lines.append(_clause(name, ["T", "X"],
                             ["(less_than%s %s X)" % (suf, cursor_prev),
                              "(%s %s X)" % (name, prev)]))
    lines.append("accept :- (state_yes last%s)." % suf)
    lines += short_string_rules(machine)
    return lines


def compile_tm_higher_order(machine, k, d):
    text = "\n".join(higher_order_text(machine, k, d))
    prog, report = analyze(text)
    if not report.ok:
        raise GenerationError("generated program failed validation: %s"
                              % report.violations)
    return prog


# ---------------------------------------------------------------------------
# File output

def emit_hodl(machine, k, d):
    """Full .hodl text with a provenance header, ready to write to disk."""
    if k < 1:
        raise GenerationError("order must be >= 1")
    if k == 1:
        body = first_order_text(machine, d)
    else:
        body = higher_order_text(machine, k, d)
    header = ["%% machine: %s" % machine.name,
              "%% k: %d  d: %d" % (k, d),
              "%% generator: hodatalog %s" % GENERATOR_VERSION]
    return "\n".join(header + body) + "\n"
