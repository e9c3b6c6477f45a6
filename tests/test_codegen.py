import itertools

import pytest

from conftest import C, P, ap
from hodatalog.codegen import (GenerationError, base_arith_text,
                               bignum_text, compile_tm_first_order,
                               compile_tm_higher_order, emit_hodl,
                               first_order_text, gen_base_arith, gen_bignum,
                               higher_order_text, number_type,
                               short_string_rules)
from hodatalog.core import App, Pred
from hodatalog.encode import encode_input, merge
from hodatalog.engines import DemandEngine, EngineConfig, decide
from hodatalog.syntax import parse_program, print_source
from hodatalog.tm import parse_tm, sample_machine, tm_run
from hodatalog.typecheck import analyze, infer_types


def test_base_arith_round_trip():
    for d in (1, 2, 3):
        text = "\n".join(base_arith_text(d))
        src = parse_program(text)
        assert parse_program(print_source(src)) == src


def test_base_arith_golden_clauses():
    text = "\n".join(base_arith_text(2))
    assert "base_zero 0." in text
    assert "base_last I :- (input I X end)." in text
    assert "base_pred I J :- (base_succ J I)." in text
    assert "tuple_pred X1 X2 Y1 Y2 :- (tuple_succ Y1 Y2 X1 X2)." in text
    assert ("tuple_non_zero X1 X2 :- (tuple_zero Z1 Z2), "
            "(less_than Z1 Z2 X1 X2).") in text


def test_tuple_succ_clause_count():
    for d in (1, 2, 3):
        clauses = [cl for cl in gen_base_arith(d) if cl.head == "tuple_succ"]
        assert len(clauses) == d


def test_tuple_succ_d1_delegates_to_base():
    text = "\n".join(base_arith_text(1))
    assert "tuple_succ X1 Y1 :- (base_succ X1 Y1)." in text


def test_tuple_succ_carry_chain_text():
    text = "\n".join(base_arith_text(2))
    assert ("tuple_succ X1 X2 Y1 Y2 :- (X1 = Y1), "
            "(base_succ X2 Y2).") in text
    assert ("tuple_succ X1 X2 Y1 Y2 :- (base_succ X1 Y1), "
            "(base_last X2), (base_zero Y2).") in text


def _tuple_semantics(n, d):
    """Decode tuple_succ over an input of length n into integer pairs."""
    prog, report = analyze("\n".join(base_arith_text(d)))
    assert report.ok
    merged = merge(prog, encode_input("a" * n))
    eng = DemandEngine(merged)
    digits = [str(i) for i in range(n)]
    pairs = set()
    for xs in itertools.product(digits, repeat=d):
        for ys in itertools.product(digits, repeat=d):
            goal = ap(P("tuple_succ"), *[C(v) for v in xs + ys])
            if eng.solve(goal):
                x = int("".join(xs), n) if n > 1 else 0
                y = int("".join(ys), n) if n > 1 else 0
                pairs.add((x, y))
    return pairs


def test_tuple_succ_decoded_semantics():
    # n=3, d=2: tuple_succ must relate m and m+1 for every m < 8
    pairs = _tuple_semantics(3, 2)
    assert pairs == {(m, m + 1) for m in range(8)}


def test_first_order_program_is_order_one():
    for name in ("accept_all", "reject_all", "parity"):
        prog = compile_tm_first_order(sample_machine(name), 2)
        assert infer_types(prog).program_order == 1


def test_first_order_inertia_and_accept_text():
    text = "\n".join(first_order_text(sample_machine("parity"), 1))
    assert ("symbol_a U1 Y1 :- (tuple_succ T1 U1), (cursor T1 X1), "
            "(less_than X1 Y1), (symbol_a T1 Y1).") in text
    assert ("symbol_a U1 Y1 :- (tuple_succ T1 U1), (cursor T1 X1), "
            "(less_than Y1 X1), (symbol_a T1 Y1).") in text
    assert "accept :- (tuple_last T1), (state_yes T1)." in text


def test_first_order_initialization_text():
    text = "\n".join(first_order_text(sample_machine("parity"), 2))
    assert ("symbol_a T1 T2 X1 X2 :- (tuple_zero T1 T2), (base_zero X1), "
            "(input X2 a W).") in text
    assert ("symbol_blank T1 T2 X1 X2 :- (tuple_zero T1 T2), "
            "(tuple_base_last Y1 Y2), (less_than Y1 Y2 X1 X2).") in text
    assert "state_s0 T1 T2 :- (tuple_zero T1 T2)." in text
    assert ("cursor T1 T2 X1 X2 :- (tuple_zero T1 T2), "
            "(tuple_zero X1 X2).") in text


def test_short_string_rules_by_oracle():
    assert short_string_rules(sample_machine("accept_all")) == [
        "accept :- (input 0 empty end).",
        "accept :- (input 0 a end).",
        "accept :- (input 0 b end).",
    ]
    assert short_string_rules(sample_machine("reject_all")) == []
    assert short_string_rules(sample_machine("parity")) == [
        "accept :- (input 0 empty end).",
        "accept :- (input 0 b end).",
    ]


def test_short_string_rules_horizon_error():
    looper = parse_tm("states: s0 yes\nstart: s0\n"
                      "trans: s0 _ -> s0 write _\n")
    with pytest.raises(GenerationError):
        short_string_rules(looper, horizon=100)


def test_bignum_requires_k2():
    with pytest.raises(GenerationError):
        gen_bignum(1, 1)


def test_bignum_level1_golden_text():
    text = "\n".join(bignum_text(2, 1))
    assert "zero_1 X1 low." in text
    assert "last_1 X1 high." in text
    assert ("is_zero_1 N :- (tuple_last X1), "
            "(all_to_right_1 low N X1).") in text
    assert "all_to_right_1 V N X1 :- (tuple_zero X1), (N X1 V)." in text
    assert "exists_to_right_1 V N X1 :- (N X1 V)." in text
    assert "invert low high." in text and "invert high low." in text
    assert ("pred_1 N X1 V :- (tuple_zero X1), (non_zero_1 N), (N X1 V1), "
            "(invert V1 V).") in text
    assert ("less_than_1 N M :- (non_zero_1 N), (non_zero_1 M), "
            "(less_than_1 (pred_1 N) (pred_1 M)).") in text


def test_bignum_level2_golden_text():
    text = "\n".join(bignum_text(3, 1))
    assert "zero_2 X low." in text
    assert "is_zero_2 N :- (all_to_right_2 low N last_1)." in text
    assert ("all_to_right_2 V N X :- (non_zero_1 X), (N X V), "
            "(all_to_right_2 V N (pred_1 X)).") in text
    assert ("succ_2 N X V :- (is_zero_1 X), (non_last_2 N), (N X V1), "
            "(invert V1 V).") in text
    assert "equal_2 N M :- (equal_test_2 N M last_1)." in text


def test_bignum_orders():
    prog2, report2 = analyze("\n".join(bignum_text(2, 1)))
    assert report2.ok and report2.program_order == 2
    prog3, report3 = analyze("\n".join(bignum_text(3, 1)))
    assert report3.ok and report3.program_order == 3


def test_number_type_shape():
    from hodatalog.core import IOTA, arrow, type_order
    assert number_type(1, 2) == arrow([IOTA, IOTA, IOTA])
    assert number_type(2, 2) == arrow([number_type(1, 2), IOTA])
    assert type_order(number_type(3, 1)) == 3


def test_higher_order_program_classifies_as_k():
    for k in (2, 3):
        prog = compile_tm_higher_order(sample_machine("parity"), k, 1)
        assert infer_types(prog).program_order == k


def test_higher_order_simulation_golden_text():
    text = "\n".join(higher_order_text(sample_machine("parity"), 2, 1))
    assert "state_s0 T :- (is_zero_1 T)." in text
    assert "cursor T I1 low :- (is_zero_1 T)." in text
    assert "base_to_higher_1 0 X1 low." in text
    assert ("base_to_higher_1 M X1 V :- (input J S M), "
            "(succ_1 (base_to_higher_1 J) X1 V).") in text
    assert ("symbol_blank T X :- (is_zero_1 T), (base_last Y), "
            "(less_than_1 (base_to_higher_1 Y) X).") in text
    assert "accept :- (state_yes last_1)." in text
    # inertia rules, exactly two per symbol
    assert ("symbol_a T X :- (less_than_1 X (cursor (pred_1 T))), "
            "(symbol_a (pred_1 T) X).") in text
    assert ("symbol_a T X :- (less_than_1 (cursor (pred_1 T)) X), "
            "(symbol_a (pred_1 T) X).") in text


def test_higher_order_k3_uses_level2_numbers():
    text = "\n".join(higher_order_text(sample_machine("accept_all"), 3, 1))
    assert "accept :- (state_yes last_2)." in text
    assert "cursor T I low :- (is_zero_2 T)." in text


def test_emit_hodl_header_and_reparse():
    m = sample_machine("parity")
    text = emit_hodl(m, 2, 1)
    assert text.splitlines()[0] == "% machine: parity"
    assert "% k: 2  d: 1" in text
    prog, report = analyze(text)
    assert report.ok


def test_end_to_end_first_order_reject_all():
    prog = compile_tm_first_order(sample_machine("reject_all"), 2)
    cfg = EngineConfig(engine="seminaive")
    for w in ("", "a", "ab", "bb"):
        assert decide(prog, w, cfg) == "reject"


def test_end_to_end_higher_order_accept_all():
    prog = compile_tm_higher_order(sample_machine("accept_all"), 2, 1)
    cfg = EngineConfig(engine="demand")
    for w in ("", "a", "ab"):
        assert decide(prog, w, cfg) == "accept"
