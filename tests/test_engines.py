import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import C, P, analyzed_corpus, ap, ground_goals, truth_in_model
from hodatalog.engines import (BudgetExhaustedError, DemandEngine,
                               EngineConfig, EngineError, decide,
                               least_model_seminaive)
from hodatalog.semantics import Bool, Ind, least_model_naive
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
