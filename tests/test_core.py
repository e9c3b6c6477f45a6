import pickle

import pytest

from hodatalog.core import (Arrow, IOTA, OMICRON, ResourceLimitError, arrow,
                            arg_types, compute_stats, expk, iteration_bound,
                            render_type, type_arity, type_order)
from hodatalog.typecheck import analyze


def test_arrow_flattening():
    ty = arrow([IOTA, IOTA])
    assert arg_types(ty) == [IOTA, IOTA]
    assert type_arity(ty) == 2
    assert arrow([]) == OMICRON


def test_render_type_parenthesization():
    unary = arrow([IOTA])
    second = arrow([unary, IOTA])
    assert render_type(unary) == "i -> o"
    assert render_type(second) == "(i -> o) -> i -> o"


def test_type_order():
    assert type_order(IOTA) == 0
    assert type_order(OMICRON) == 0
    assert type_order(arrow([IOTA, IOTA])) == 1
    r = arrow([arrow([IOTA]), arrow([IOTA]), IOTA])
    assert type_order(r) == 2
    assert type_order(arrow([r])) == 3


def test_expk_values():
    assert expk(0, 5) == 5
    assert expk(1, 4) == 16
    assert expk(2, 3) == 2 ** 8
    assert expk(3, 1) == 16


def test_expk_bit_cap():
    with pytest.raises(ResourceLimitError):
        expk(3, 10)  # 2^(2^1024)
    with pytest.raises(ValueError):
        expk(-1, 3)


def test_stats_hand_counted():
    # 2 clauses, constants a and b, predicates p and q, types i->o and
    # (i->o)->o, widest clause has 2 atoms, max arity 1
    prog, _ = analyze("p a. q R :- (R b).")
    st = compute_stats(prog)
    assert st.r == 2
    assert st.c == 2
    assert st.p == 2
    assert st.l == 2
    assert st.s == 2
    assert st.t == 1


def test_stats_exclude_input_numerals():
    prog, _ = analyze("input 0 a 1. input 1 b end. accept :- (input 0 a end).")
    st = compute_stats(prog)
    # 0 and 1 are chain numerals; a, b, end remain
    assert st.c == 3


def test_iteration_bound_first_order():
    prog, _ = analyze("p a. q X Y :- (p X), (p Y).")
    st = compute_stats(prog)
    assert iteration_bound(st, n=0, k=1) == st.p * st.c ** st.t


def test_iteration_bound_higher_order_grows():
    prog, _ = analyze("p a. q R :- (R b).")
    st = compute_stats(prog)
    b1 = iteration_bound(st, n=2, k=1)
    b2 = iteration_bound(st, n=2, k=2)
    assert b2 > b1


def test_iteration_bound_overflow():
    prog, _ = analyze("p a. q R :- (R b).")
    st = compute_stats(prog)
    with pytest.raises(ResourceLimitError):
        iteration_bound(st, n=100, k=5)


def test_program_is_frozen_and_pickles():
    # a prepared program must not change under its preparation, and a
    # program still crosses to worker processes
    prog, _ = analyze("p a. p b. q X :- (p X).")
    assert isinstance(prog.clauses, tuple)
    assert isinstance(prog.constants, tuple)
    assert prog.facts["p"] == (("a",), ("b",))
    with pytest.raises(TypeError):
        prog.signatures["r"] = OMICRON
    with pytest.raises(TypeError):
        prog.facts["r"] = ()
    copy = pickle.loads(pickle.dumps(prog))
    assert copy == prog and copy is not prog
    with pytest.raises(TypeError):
        copy.facts["r"] = ()
