import copy
import itertools
import pickle
import random

import pytest

from conftest import (analyzed_corpus, count_upward_closed, ground_goals,
                      interp_leq, truth_in_model)
from hodatalog.core import IOTA, arrow, compute_stats, iteration_bound
from hodatalog.semantics import (MAX_PRODUCT, Bool, DomainTooLargeError,
                                 FALSE, Ind, Rel, TRUE, apply_value,
                                 bottom_interpretation, build_domains,
                                 dump_model, enumerate_domain, eval_expr,
                                 least_model_naive, tp_step, value_leq)
from hodatalog.typecheck import analyze


def test_domain_counts_pinned():
    t1 = arrow([IOTA])
    t2 = arrow([t1])
    assert len(enumerate_domain(t1, ["a", "b"])) == 4
    assert len(enumerate_domain(t2, ["a"])) == 3
    assert len(enumerate_domain(t2, ["a", "b"])) == 6


def test_domain_counts_match_brute_force():
    t1 = arrow([IOTA])
    cases = [
        (arrow([IOTA, IOTA]), ["a", "b"]),
        (t1, ["a", "b", "c"]),
        (arrow([t1]), ["a", "b"]),
        (arrow([t1, IOTA]), ["a", "b"]),
    ]
    for ty, universe in cases:
        from hodatalog.core import arg_types
        arg_domains = [enumerate_domain(a, universe) for a in arg_types(ty)]
        assert len(enumerate_domain(ty, universe)) == \
            count_upward_closed(arg_domains)


def test_domain_elements_are_upward_closed():
    t2 = arrow([arrow([IOTA])])
    universe_rels = enumerate_domain(arrow([IOTA]), ["a", "b"]).elements
    for rel in enumerate_domain(t2, ["a", "b"]).elements:
        for (x,) in rel.tuples:
            for y in universe_rels:
                if value_leq(x, y):
                    assert (y,) in rel.tuples


def test_domain_too_large():
    deep = arrow([arrow([arrow([IOTA])])])
    with pytest.raises(DomainTooLargeError) as e:
        enumerate_domain(deep, ["a", "b", "c", "d", "e", "f", "g"])
    assert e.value.code == "E301"


def test_domain_product_limit_holds_whatever_the_cap():
    # at most 60 argument tuples, as the --cap help states: a unary
    # predicate over 61 individuals ranges over 61, and is refused before
    # any element is built, under the default cap and under a larger one
    assert MAX_PRODUCT == 60
    universe = ["c%d" % i for i in range(61)]
    for cap in (1 << 16, 1 << 40):
        with pytest.raises(DomainTooLargeError) as e:
            enumerate_domain(arrow([IOTA]), universe, cap)
        assert e.value.code == "E301"


def test_ind_is_interned():
    a = Ind("a")
    assert a is Ind("a") and a == Ind("a") and a != Ind("b")
    assert hash(a) == hash(Ind("a"))
    assert a != "a" and "a" != a
    assert repr(a) == "Ind(name='a')"
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a),
                 copy.deepcopy((a, [a]))[0]):
        assert twin is a
    with pytest.raises(AttributeError):
        a.name = "b"
    with pytest.raises(AttributeError):
        a.other = 1
    with pytest.raises(AttributeError):
        del a.name
    assert a.name == "a"


def test_residuation():
    t2 = arrow([IOTA, IOTA])
    rel = Rel(t2, frozenset({(Ind("a"), Ind("b"))}))
    partial = apply_value(rel, Ind("a"))
    assert partial.tuples == frozenset({(Ind("b"),)})
    assert apply_value(partial, Ind("b")) == TRUE
    assert apply_value(partial, Ind("a")) == FALSE


def test_eval_expr_on_worked_example():
    prog, _ = analyze("p a. q R :- (R b).")
    model = least_model_naive(prog).interpretation
    assert model["p"].tuples == frozenset({(Ind("a"),)})
    b = Rel(arrow([IOTA]), frozenset({(Ind("b"),)}))
    ab = Rel(arrow([IOTA]), frozenset({(Ind("a"),), (Ind("b"),)}))
    assert model["q"].tuples == frozenset({(b,), (ab,)})


def test_dump_model_canonical():
    prog, _ = analyze("p a. q R :- (R b).")
    model = least_model_naive(prog).interpretation
    text = dump_model(prog, model)
    assert "p = { a }" in text
    assert "q = { {b} ; {a,b} }" in text


def test_naive_on_first_order_closure():
    prog, _ = analyze("edge a b. path X Y :- (edge X Y). "
                      "path X Y :- (edge X Z), (path Z Y).")
    model = least_model_naive(prog).interpretation
    assert model["path"].tuples == frozenset({(Ind("a"), Ind("b"))})


def _random_leq_pairs(prog, domains, rng, count):
    pairs = []
    pools = {}
    for p, ty in prog.signatures.items():
        from hodatalog.core import OMICRON
        if ty == OMICRON:
            pools[p] = [FALSE, TRUE]
        else:
            pools[p] = domains[ty].elements if ty in domains else \
                enumerate_domain(ty, prog.constants).elements
    for _ in range(count):
        j = {p: rng.choice(pool) for p, pool in pools.items()}
        i = {p: rng.choice([v for v in pools[p] if value_leq(v, j[p])])
             for p in pools}
        pairs.append((i, j))
    return pairs


def test_tp_monotone_on_corpus():
    rng = random.Random(20240824)
    checked = 0
    for name, prog in analyzed_corpus():
        domains = build_domains(prog)
        sig_domains = {ty: enumerate_domain(ty, prog.constants)
                       for ty in set(prog.signatures.values())
                       if ty != arrow([])}
        domains.update(sig_domains)
        for i, j in _random_leq_pairs(prog, domains, rng, 12):
            assert interp_leq(i, j)
            ti = tp_step(prog, i, domains)
            tj = tp_step(prog, j, domains)
            assert interp_leq(ti, tj), name
            checked += 1
    assert checked >= 100


def test_fixpoint_stability_and_iteration_bounds():
    for name, prog in analyzed_corpus():
        domains = build_domains(prog)
        res = least_model_naive(prog)
        again = tp_step(prog, res.interpretation, domains)
        assert again == res.interpretation, name
        st = compute_stats(prog)
        from hodatalog.typecheck import classify_order_from_signatures
        order = classify_order_from_signatures(prog.signatures)
        assert res.iterations <= iteration_bound(st, n=0, k=order), name


def test_bottom_is_least():
    for name, prog in analyzed_corpus():
        bottom = bottom_interpretation(prog)
        model = least_model_naive(prog).interpretation
        assert interp_leq(bottom, model), name


def test_model_satisfies_ground_goals_monotonically():
    # partial application of a model value agrees with full-tuple membership
    prog, _ = analyze("q R :- (R a), (R b). tc a. tc b.")
    model = least_model_naive(prog).interpretation
    for goal in ground_goals(prog):
        v = eval_expr(goal, model, {})
        assert isinstance(v, Bool)
