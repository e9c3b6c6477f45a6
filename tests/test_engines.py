import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import C, P, analyzed_corpus, ap, ground_goals, truth_in_model
from hodatalog.codegen import compile_tm_first_order, compile_tm_higher_order
from hodatalog.core import Eq, Pred
from hodatalog.encode import encode_input, merge
from hodatalog.engines import (BudgetExhaustedError, DemandEngine,
                               EngineConfig, EngineError, _seminaive_fixpoint,
                               decide, least_model_seminaive)
from hodatalog.semantics import Bool, Ind, least_model_naive
from hodatalog.tm import sample_machine
from hodatalog.typecheck import analyze, infer_types


def test_seminaive_matches_naive_on_first_order_corpus():
    for name, prog in analyzed_corpus():
        if infer_types(prog).program_order != 1:
            continue
        semi = least_model_seminaive(prog).interpretation
        naive = least_model_naive(prog).interpretation
        assert semi == naive, name


# Random first-order programs over fixed predicate arities.  Small term
# pools make repeated variables, constants in body atoms, equalities with
# both sides unbound, head formals missing from the body, a predicate
# twice in one body and 0-ary heads all common.
ARITIES = {"z": 0, "u": 1, "e": 2, "t": 3}
TERMS = st.sampled_from(["X", "Y", "Z", "a", "b"])


@st.composite
def _atom(draw):
    if draw(st.integers(0, 4)) == 0:
        return "(%s = %s)" % (draw(TERMS), draw(TERMS))
    p = draw(st.sampled_from(sorted(ARITIES)))
    return "(%s)" % " ".join([p] + [draw(TERMS) for _ in range(ARITIES[p])])


@st.composite
def _clause(draw):
    p = draw(st.sampled_from(sorted(ARITIES)))
    head = " ".join([p] + [draw(TERMS) for _ in range(ARITIES[p])])
    body = draw(st.lists(_atom(), max_size=3))
    return head + (" :- " + ", ".join(body) if body else "") + "."


@settings(max_examples=150, deadline=None)
@given(st.lists(_clause(), min_size=1, max_size=6).map(" ".join))
@example("e a b. e b a. e b b. "
         "u X :- (e X X). "                 # repeated variable
         "u X :- (e X a). "                 # constant in a body atom
         "t X Y Z :- (u X), (Y = Z). "      # equality with both sides unbound
         "e X Y :- (u X). "                 # head formal not in the body
         "t X Y Z :- (e X Y), (e Y Z). "    # one predicate twice: two foci
         "z :- (t a a a).")                 # 0-ary head
@example("e b a. e a a. u c. "
         "u X :- (u Y), (e X X).")          # repeated variable after the focus
@example("e a b. e b c. e c d. e d a. "
         "e X Z :- (e X Y), (e Y Z).")      # probes of grown relations
def test_seminaive_matches_naive_on_random_programs(text):
    prog, report = analyze(text)
    assert report.ok, report.violations
    semi = least_model_seminaive(prog)
    naive = least_model_naive(prog)
    assert semi.interpretation == naive.interpretation
    assert semi.iterations == naive.iterations


@settings(max_examples=100, deadline=None)
@given(st.lists(_clause(), min_size=1, max_size=6).map(" ".join))
@example("e a b. e b a. e b b. "
         "u X :- (e X X). "                 # repeated variable
         "t X Y Z :- (u X), (Y = Z). "      # equality with both sides unbound
         "z :- (X = Y), (u X). "            # unbound equality before an atom
         "z :- (t a a a).")                 # 0-ary head
@example("e a b. e b b. "
         "u X :- (X = Y), (e Y Y). "        # equality binding its right side
         "z :- (Y = a), (e Y Y).")          # ... and its left side
@example("e a b. u b. "
         "e X Y :- (u X). "                 # facts and rules for one predicate
         "z :- (e b a).")
@example("e a b. e b a. "
         "u X :- (e X X). "                 # extensional, repeated variable
         "z :- (e X X).")                   # ... free there: no row matches
@example("e a b. e b c. e c c. "
         "u Y :- (e a Y). "                 # extensional, a constant
         "t X Y Z :- (e a W), (e W X). "    # ... and a free variable
         "z :- (e X Y).")                   # ... every argument unbound
def test_demand_matches_naive_on_random_programs(text):
    prog, report = analyze(text)
    assert report.ok, report.violations
    model = least_model_naive(prog).interpretation
    eng = DemandEngine(prog)
    consts = [C(c) for c in prog.constants]
    goals = ground_goals(prog) + [Eq(x, y) for x in consts for y in consts]
    for goal in goals:
        assert eng.solve(goal) == truth_in_model(goal, model), goal


def test_demand_reaches_facts_through_closures():
    # `R a` with R = e, and `F b` with F = e a, both end at e's fact rows
    prog, report = analyze("e a b. e b b. u a. "
                           "q R :- (R a). r F :- (F b). "
                           "s :- (r (e a)). w :- (q u), (r (e b)).")
    assert report.ok, report.violations
    model = least_model_naive(prog).interpretation
    eng = DemandEngine(prog)
    partial = [ap(P("r"), ap(P("e"), C(c))) for c in prog.constants]
    for goal in ground_goals(prog) + partial:
        assert eng.solve(goal) == truth_in_model(goal, model), goal
    assert eng.solve(P("s")) and eng.solve(P("w"))


def test_seminaive_budget_counts_every_derived_tuple():
    # facts derive 2 tuples; in round 1 the first q rule derives 2 and
    # the second, once per delta focus, 2 + 2 duplicates: 8 in all
    prog, _ = analyze("p a. p b. q X :- (p X). q X :- (p X), (p X).")
    least_model_seminaive(prog, EngineConfig(step_budget=8))
    with pytest.raises(BudgetExhaustedError):
        least_model_seminaive(prog, EngineConfig(step_budget=7))


def test_seminaive_rejects_higher_order():
    prog, _ = analyze("q R :- (R a).")
    with pytest.raises(EngineError):
        least_model_seminaive(prog)


def test_engine_agreement_on_ground_goals():
    disagreements = 0
    goals_checked = 0
    for name, prog in analyzed_corpus():
        naive_model = least_model_naive(prog).interpretation
        eng = DemandEngine(prog)
        for goal in ground_goals(prog):
            want = truth_in_model(goal, naive_model)
            got = eng.solve(goal)
            goals_checked += 1
            if want != got:
                disagreements += 1
                print("disagree", name, goal)
    assert goals_checked > 0
    assert disagreements == 0


def test_demand_closure_goal():
    prog, _ = analyze("f a. twice R X :- (R X), (R X).")
    assert DemandEngine(prog).solve(ap(P("twice"), P("f"), C("a")))
    assert not DemandEngine(prog).solve(ap(P("twice"), P("f"), C("b")))


def test_demand_recursive_program():
    prog, _ = analyze("edge a b. edge b a. path X Y :- (edge X Y). "
                      "path X Y :- (edge X Z), (path Z Y).")
    eng = DemandEngine(prog)
    assert eng.solve(ap(P("path"), C("a"), C("a")))
    assert eng.solve(ap(P("path"), C("a"), C("b")))


def test_demand_root_is_enqueued_once():
    # q a, p a and r a are tabled; s is given only by facts, so s a is
    # looked up, not tabled.  Runs: q, p, r (true), p (true), q (true).
    prog, _ = analyze("q X :- (p X). p X :- (r X). r X :- (s X). s a.")
    eng = DemandEngine(prog)
    assert eng.solve(ap(P("q"), C("a")))
    assert len(eng.table) == 3
    assert eng.steps == 5


def test_demand_table_reuse():
    prog, _ = analyze("p a. q X :- (p X).")
    eng = DemandEngine(prog)
    assert eng.solve(ap(P("q"), C("a")))
    before = eng.steps
    assert eng.solve(ap(P("q"), C("a")))
    assert eng.steps == before  # fully tabled, no re-evaluation


def test_budget_exhaustion():
    prog, _ = analyze("edge a b. edge b a. path X Y :- (edge X Y). "
                      "path X Y :- (edge X Z), (path Z Y).")
    with pytest.raises(BudgetExhaustedError):
        DemandEngine(prog, EngineConfig(step_budget=2)).solve(
            ap(P("path"), C("a"), C("a")))


def test_decide_all_engines_agree():
    prog, _ = analyze("accept :- (input 0 a end).")
    for engine in ("naive", "seminaive", "demand"):
        cfg = EngineConfig(engine=engine)
        assert decide(prog, "a", cfg) == "accept"
        assert decide(prog, "b", cfg) == "reject"
        assert decide(prog, "", cfg) == "reject"


def test_seminaive_iteration_count():
    prog, _ = analyze("p a. q X :- (p X). r X :- (q X).")
    res = least_model_seminaive(prog)
    assert res.iterations == 3


def test_trace_output(capsys):
    prog, _ = analyze("p a.")
    DemandEngine(prog, EngineConfig(trace=True)).solve(ap(P("p"), C("a")))
    captured = capsys.readouterr()
    assert "p a -> true" in captured.err
    assert captured.out == ""


def test_trace_renders_closure_goals(capsys):
    prog, _ = analyze("f a. twice R X :- (R X), (R X). "
                      "apply F X :- (F X).")
    eng = DemandEngine(prog, EngineConfig(trace=True))
    assert eng.solve(ap(P("twice"), P("f"), C("a")))
    assert eng.solve(ap(P("apply"), ap(P("twice"), P("f")), C("a")))
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    for goal in ("f a", "twice f a", "apply (twice f) a"):
        assert any(line.startswith(goal + " -> true @") for line in lines)
    assert captured.out == ""


def test_demand_counters_do_not_depend_on_hash_seed():
    script = ("from hodatalog.codegen import compile_tm_higher_order\n"
              "from hodatalog.core import Pred\n"
              "from hodatalog.encode import encode_input, merge\n"
              "from hodatalog.engines import DemandEngine\n"
              "from hodatalog.tm import sample_machine\n"
              "prog = compile_tm_higher_order(sample_machine('parity'), 3, 1)\n"
              "eng = DemandEngine(merge(prog, encode_input('aa')))\n"
              "eng.solve(Pred('accept'))\n"
              "print(eng.steps, len(eng.table))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path,
                         "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1")]
    assert outs[0] == outs[1]


def test_demand_growth_k2_parity():
    # goals interned per input length n at k=2 d=1: the shape of the
    # engine's growth, which later changes to the engine must not worsen
    prog = compile_tm_higher_order(sample_machine("parity"), 2, 1)
    for w, goals in (("aa", 400), ("aaa", 1011), ("aaaa", 3997)):
        eng = DemandEngine(merge(prog, encode_input(w)))
        eng.solve(Pred("accept"))
        assert len(eng.table) == goals, w
        assert eng.steps <= 1.5 * goals, w


def test_demand_chain_growth():
    # a cold path c0 c(N-1) on an N-node chain tables one goal per source
    # node, because edge atoms bind Z from the fact index; enumerating the
    # universe for Z would table N times as many
    for n in (25, 50, 100):
        facts = " ".join("edge c%d c%d." % (i, i + 1) for i in range(n - 1))
        prog, _ = analyze(facts + " path X Y :- (edge X Y). "
                          "path X Y :- (edge X Z), (path Z Y).")
        eng = DemandEngine(prog)
        assert eng.solve(ap(P("path"), C("c0"), C("c%d" % (n - 1))))
        assert len(eng.table) == n - 1, n
        assert eng.steps <= 2 * len(eng.table), n


def test_seminaive_growth_fo_parity():
    # rounds and tuples of FO parity at d=2: tuples grow as simulated
    # steps times tape cells, about 1.6 * n^4
    prog = compile_tm_first_order(sample_machine("parity"), 2)
    for n, rounds, tuples in ((8, 129, 6625), (12, 289, 32141)):
        total, got = _seminaive_fixpoint(
            merge(prog, encode_input("a" * n)), EngineConfig())
        assert got == rounds, n
        assert sum(map(len, total.values())) == tuples, n
