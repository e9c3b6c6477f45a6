import dataclasses
import gc
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import C, P, analyzed_corpus, ap, ground_goals, truth_in_model
from hodatalog import engines
from hodatalog.codegen import compile_tm_first_order, compile_tm_higher_order
from hodatalog.core import Pred, Var
from hodatalog.encode import encode_input, merge
from hodatalog.engines import (BudgetExhaustedError, DemandEngine,
                               EngineConfig, EngineError, _seminaive_fixpoint,
                               decide, least_model_seminaive)
from hodatalog.semantics import Bool, Ind, least_model_naive
from hodatalog.tm import sample_machine
from hodatalog.typecheck import analyze, classify_order_from_signatures


def test_seminaive_matches_naive_on_first_order_corpus():
    for name, prog in analyzed_corpus():
        if classify_order_from_signatures(prog.signatures) != 1:
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
         "u X :- (e X X). "                 # rows atom, repeated variable
         "z :- (e X X).")                   # ... free there: no row matches
@example("e a b. e b c. e c c. "
         "u Y :- (e a Y). "                 # rows atom, a constant
         "t X Y Z :- (e a W), (e W X). "    # ... and a free variable
         "z :- (e X Y).")                   # ... every argument unbound
def test_demand_matches_naive_on_random_programs(text):
    prog, report = analyze(text)
    assert report.ok, report.violations
    model = least_model_naive(prog).interpretation
    eng = DemandEngine(prog)
    for goal in ground_goals(prog):
        assert eng.solve(goal) == truth_in_model(goal, model), goal


# Random higher-order programs: q takes a unary predicate and h a binary
# one, so bodies hold closure-headed atoms on predicate-typed formals
# ((R X), (S X Y)) and closures passed as arguments, partial applications
# among them ((q (e a) X), (q (S X) Y)).  f is given only by facts, so its
# atoms bind from fact rows; repeated variables and equalities with both
# sides unbound are common.  The directives fix the predicates' types
# (an unused formal would otherwise be an individual), and two constants
# keep the naive engine's higher-order domains small.
HO_HEADS = {"u X": [], "e X Y": [], "z": [],
            "q R X": ["(R %s)", "(q R %s)"],
            "h S X": ["(S %s %s)", "(q (S %s) %s)", "(h S %s)"]}
HO_ATOMS = ["(e %s %s)", "(u %s)", "(f %s %s)", "(%s = %s)", "(q u %s)",
            "(q (e %s) %s)", "(q (f %s) %s)", "(h e %s)", "(h f %s)"]
HO_TERMS = st.sampled_from(["X", "Y", "Z", "a", "b"])
HO_FACTS = ("#pred q : (i -> o) -> i -> o. #pred h : (i -> i -> o) -> i -> o. "
            "f a b. f b b. e b a. u b.")


@st.composite
def _ho_clause(draw):
    head = draw(st.sampled_from(sorted(HO_HEADS)))
    atoms = draw(st.lists(st.sampled_from(HO_ATOMS + HO_HEADS[head]),
                          min_size=1, max_size=3))
    body = [a % tuple(draw(HO_TERMS) for _ in range(a.count("%s")))
            for a in atoms]
    return "%s :- %s." % (head, ", ".join(body))


@settings(max_examples=150, deadline=None)
@given(st.lists(_ho_clause(), max_size=4).map(
    lambda clauses: " ".join([HO_FACTS] + clauses)))
@example(HO_FACTS +
         "q R X :- (R X). "                 # closure-headed on a formal
         "z :- (q (e b) a), (q (f a) b).")  # partial applications as args
@example(HO_FACTS +
         "q R X :- (f X Y), (R Y). "        # binds Y from a fact row
         "z :- (q u a).")
@example(HO_FACTS +
         "u Y :- (f X X), (X = Y). "        # rows atom, repeated variable
         "h S X :- (Y = Z), (S Y X), (q (S Z) X). "  # unbound equality first
         "z :- (h f b).")
@example(HO_FACTS +
         "e X Y :- (q (f X) Y). "           # closure-headed via a subgoal
         "q R X :- (q R Y), (e Y X). "      # recursion through a closure
         "q R X :- (R Y), (Y = X).")
def test_demand_matches_naive_on_higher_order_programs(text):
    prog, report = analyze(text)
    assert report.ok, report.violations
    model = least_model_naive(prog).interpretation
    eng = DemandEngine(prog)
    partial = [ap(P("q"), ap(P(p), C(c)), C(x)) for p in ("e", "f")
               for c in "ab" for x in "ab"]
    for goal in ground_goals(prog) + partial:
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


@pytest.mark.parametrize("n", [40, 120])
def test_seminaive_long_bodies(n):
    # every focus of a 40- or 120-atom chain nests more loops than CPython
    # allows in one function, so the plan's code is split into several
    body = ", ".join("(e X%d X%d)" % (i, i + 1) for i in range(n))
    prog, report = analyze("e a b. e b c. e c a. q X0 :- %s." % body)
    assert report.ok, report.violations
    q = least_model_seminaive(prog).interpretation["q"]
    assert q.tuples == {(Ind(c),) for c in "abc"}


def test_seminaive_names_never_reach_the_source():
    # predicates, constants and variables named like Python keywords and
    # like the emitted code's own names
    prog, report = analyze(
        "for def add. for add tick. for tick budget. run make. run budget. "
        "universe None True :- (for None True). "
        "universe None False :- (universe None True), (for True False). "
        "template None :- (universe def None), (run None). "
        "row :- (template budget). "
        "if None True :- (run None), (universe True tick), (True = def).")
    assert report.ok, report.violations
    semi = least_model_seminaive(prog).interpretation
    assert semi == least_model_naive(prog).interpretation
    assert semi["row"] == Bool(True) and len(semi["if"].tuples) == 2


def test_seminaive_compiles_each_rule_shape_once(monkeypatch):
    compiled = []

    def counting_compile(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(engines, "compile", counting_compile, raising=False)
    engines._trie_code.cache_clear()
    # one program decided on two inputs: each focus's trie, and the trie of
    # the rules with no focus, is compiled once; the second input brings
    # new input facts but no new trie, so it compiles nothing
    prog = compile_tm_first_order(sample_machine("parity"), 2)
    cfg = EngineConfig(engine="seminaive")
    assert decide(prog, "ab", cfg) == "reject"
    prep = engines._prepare(prog)
    assert len(compiled) == len(set(compiled)) == len(prep.seeds) + sum(
        map(len, prep.plans.values()))
    seen = len(compiled)
    assert decide(prog, "aab", cfg) == "accept"
    assert len(compiled) == seen
    # two programs of one shape with different constants: the constants
    # reach the shared code as arguments, so each gets its own model
    models = []
    for text in ("e a b. e b c. q X :- (e a X).",
                 "e c d. e d a. q X :- (e d X)."):
        prog, _ = analyze(text)
        semi = least_model_seminaive(prog).interpretation
        assert semi == least_model_naive(prog).interpretation
        models.append(semi["q"].tuples)
    assert models == [{(Ind("b"),)}, {(Ind("a"),)}]
    assert len(compiled) == seen + 1  # e's trie: facts are rows, not plans


def test_seminaive_shared_prefixes_agree_with_naive():
    # q's two identical rules and the p rule they extend share the focus
    # p and a body prefix; s has a constant in its focus atom, t a repeated
    # variable, u an equality enumerated over the universe; l and m share
    # their first 20 atoms, so the code of a plan focused on p is split
    # into several functions inside their common prefix
    prefix = ", ".join(["(p X Y)", "(e X Y)"] * 10)
    prog, report = analyze(
        "e a b. e b c. e c a. e c c. e c d. f b. f c. f d. "
        "p X Y :- (e X Y). "
        "p X Z :- (p X Y), (e Y Z). "
        "q X Z :- (p X Y), (e Y Z), (f Z). "
        "q X Z :- (p X Y), (e Y Z), (f Z). "
        "s Y :- (p a Y), (f Y). "
        "t X :- (p X X). "
        "u X Y :- (f X), (Y = Z). "
        "l X Y :- %s, %s. "
        "m X Y :- %s, %s." % (prefix, ", ".join(["(p Y X)"] * 20),
                              prefix, ", ".join(["(f Y)"] * 20)))
    assert report.ok, report.violations
    semi = least_model_seminaive(prog)
    assert semi.interpretation == least_model_naive(prog).interpretation
    assert len(semi.interpretation["l"].tuples) == 4
    # the least budget counts every fact row and derived tuple, those of
    # each of q's identical rules and other duplicates included
    assert semi.iterations == 5
    least_model_seminaive(prog, EngineConfig(step_budget=200))
    with pytest.raises(BudgetExhaustedError):
        least_model_seminaive(prog, EngineConfig(step_budget=199))


def test_seminaive_plans_of_one_focus_share_their_prefixes(monkeypatch):
    # FO parity at d=2: 160 plans of 599 steps before their emit steps
    # (594 loops and tests, the checks of 5 loops a step of their own)
    # merge into 16 tries of 185 such nodes, one per focus predicate (no
    # rule lacks a focus); a focus's delta steps differ only in the checks
    # that follow them, so each trie loops over the delta rows once
    tries, sources = [], []

    def recording_source(trie, *args, _source=engines._source):
        tries.append(trie)
        sources.append(_source(trie, *args))
        return sources[-1]

    monkeypatch.setattr(engines, "_source", recording_source)
    prog = compile_tm_first_order(sample_machine("parity"), 2)
    steps = [len(steps) - 1 for cl in prog.clauses
             for _, steps in engines._rule_plans(
                 engines._shape(cl, prog.signatures)[0])]
    assert (len(steps), sum(steps)) == (160, 599)
    engines._prepare(prog).seminaive()

    def nodes(node):
        return [step for step, children in node
                for step in (step, *nodes(children))]

    kinds = [step[0] for trie in tries for step in nodes(trie.root)]
    assert len(tries) == 16
    assert kinds.count("emit") == 160
    assert len(kinds) - kinds.count("emit") == 185
    assert kinds.count("delta") == 16
    assert sum(src.count(" in rows:") for src in sources) == 16


def test_seminaive_long_bodies_split_their_tries(monkeypatch):
    # the 120 plans of a 120-atom chain, 121 steps each, share little: one
    # trie would hold thousands of nodes, and compiling a source takes
    # memory in proportion to its length, so a plan that finds its focus's
    # trie full starts another
    sizes = []

    def recording_source(trie, *args, _source=engines._source):
        sizes.append(trie.size)
        return _source(trie, *args)

    monkeypatch.setattr(engines, "_source", recording_source)
    body = ", ".join("(e X%d X%d)" % (i, i + 1) for i in range(120))
    prog, _ = analyze("e a b. e b c. e c a. q X0 :- %s." % body)
    engines._prepare(prog).seminaive()
    assert len(sizes) > 1 and sum(sizes) > 7000
    assert max(sizes) <= engines._MAX_NODES + 121


@pytest.mark.parametrize("n", [40, 120])
def test_demand_long_bodies(n):
    # e has a rule, so every atom of the chain is a subgoal with one free
    # variable: a loop and a test per atom, more blocks than CPython lets
    # one function nest, so the body's code is split into several
    # (the naive engine would try all 4^(n+1) assignments of the body, so
    # the reference is the seminaive model: a walk of n edges from a, b or
    # c stays on the cycle, and d has no edge out)
    body = ", ".join("(e X%d X%d)" % (i, i + 1) for i in range(n))
    prog, report = analyze("f a b. f b c. f c a. f c d. e X Y :- (f X Y). "
                           "q X0 :- %s." % body)
    assert report.ok, report.violations
    model = least_model_seminaive(prog).interpretation
    assert model["q"].tuples == {(Ind(c),) for c in "abc"}
    eng = DemandEngine(prog)
    for goal in ground_goals(prog):
        assert eng.solve(goal) == truth_in_model(goal, model), goal


def test_demand_names_never_reach_the_source():
    # predicates, constants and variables named like Python keywords and
    # like the emitted code's own names
    prog, report = analyze(
        "for key def. for def key. row def. "
        "return X :- (for X True), (row True). "
        "call X Y :- (for X Y). "
        "call X Y :- (call X True), (call True Y). "
        "mk R True :- (R True). "
        "universe True :- (mk return True), (True = key). "
        "universe True :- (call True True), (mk universe key).")
    assert report.ok, report.violations
    model = least_model_naive(prog).interpretation
    eng = DemandEngine(prog)
    for goal in ground_goals(prog):
        assert eng.solve(goal) == truth_in_model(goal, model), goal
    assert eng.solve(ap(P("universe"), C("def")))


def test_demand_compiles_each_clause_shape_once(monkeypatch):
    compiled = []

    def counting_compile(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(engines, "compile", counting_compile, raising=False)
    engines._demand_body.cache_clear()
    # one program decided on two inputs: the second brings new input facts
    # but no new clause shape, so it compiles nothing
    prog = compile_tm_higher_order(sample_machine("parity"), 2, 1)
    assert decide(prog, "aa") == "accept"
    assert compiled
    seen = len(compiled)
    assert decide(prog, "ab") == "reject"
    assert len(compiled) == seen
    # two programs of one shape with different names and constants: they
    # reach the shared code as arguments, so each gets its own answers
    answers = []
    for text, head in (
            ("e a b. e b c. p X Y :- (e X Y). q X :- (p a X).", "q"),
            ("g c d. g d a. r X Y :- (g X Y). s X :- (r d X).", "s")):
        prog, _ = analyze(text)
        eng = DemandEngine(prog)
        answers.append([c for c in prog.constants
                        if eng.solve(ap(P(head), C(c)))])
    assert answers == [["b"], ["a"]]
    assert len(compiled) == seen + 2  # the first program: p and q rules


def _count_lowering(monkeypatch):
    """Counts of the calls to `_shape` from now on."""
    calls = {"_shape": 0}
    for name in calls:
        def counting(*args, _f=getattr(engines, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(engines, name, counting)
    return calls


def test_second_decision_lowers_nothing(monkeypatch):
    # a program is prepared on its first decision: the next ones on the
    # same program object, whatever their input, lower no clause again;
    # rows predicates do not depend on the input, so a demand decision
    # without input rows shares the bodies lowered with them
    fo = compile_tm_first_order(sample_machine("parity"), 2)
    ho = compile_tm_higher_order(sample_machine("parity"), 2, 1)
    prog, _ = analyze("edge a b. edge b c. path X Y :- (edge X Y). "
                      "path X Y :- (edge X Z), (path Z Y).")
    semi = EngineConfig(engine="seminaive")
    assert decide(fo, "ab", semi) == "reject"
    assert decide(ho, "aa") == "accept"
    least_model_seminaive(prog)
    eng = DemandEngine(prog)
    assert eng.solve(ap(P("path"), C("a"), C("c")))
    calls = _count_lowering(monkeypatch)
    assert decide(fo, "aab", semi) == "accept"
    assert decide(ho, "ab") == "reject"
    assert decide(ho, None) == "reject"
    assert least_model_seminaive(prog).iterations == 3
    assert not eng.solve(ap(P("path"), C("c"), C("a")))  # a new solve
    assert DemandEngine(prog).solve(ap(P("path"), C("b"), C("c")))
    assert calls == {"_shape": 0}


def test_changed_program_gets_its_new_model():
    # a program cannot change in place; a rebuilt one, with another fact
    # row or without a rule, is a new object prepared anew
    prog, _ = analyze("p a. r b. q X :- (p X).")
    assert least_model_seminaive(prog).interpretation["q"].tuples == {
        (Ind("a"),)}
    assert not DemandEngine(prog).solve(ap(P("q"), C("b")))
    with pytest.raises(AttributeError):
        prog.facts["p"].append(("b",))
    with pytest.raises(TypeError):
        prog.facts["p"] = (("a",), ("b",))
    with pytest.raises(dataclasses.FrozenInstanceError):
        prog.clauses = ()
    more = dataclasses.replace(prog, facts={**prog.facts,
                                            "p": (("a",), ("b",))})
    semi = least_model_seminaive(more).interpretation
    assert semi == least_model_naive(more).interpretation
    assert semi["q"].tuples == {(Ind("a"),), (Ind("b"),)}
    assert DemandEngine(more).solve(ap(P("q"), C("b")))
    fewer = dataclasses.replace(prog, clauses=())  # q's rule gone
    assert least_model_seminaive(fewer).interpretation["q"].tuples == set()
    assert not DemandEngine(fewer).solve(ap(P("q"), C("a")))
    # the first program keeps its own model
    assert least_model_seminaive(prog).interpretation["q"].tuples == {
        (Ind("a"),)}


def test_clauses_cannot_change_in_place():
    # a preparation is kept for the life of its program, so neither a
    # clause nor the clause tuple may change under it
    prog, _ = analyze("p a. p b. q X :- (p X), (X = a). accept :- (q b).")
    assert least_model_seminaive(prog).interpretation["q"].tuples == {
        (Ind("a"),)}
    rule = prog.clauses[0]
    with pytest.raises(AttributeError):
        rule.body.pop()
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.body = rule.body[:1]
    with pytest.raises(TypeError):
        prog.clauses[0] = dataclasses.replace(rule, body=rule.body[:1])
    loose = dataclasses.replace(prog, clauses=(
        dataclasses.replace(rule, body=rule.body[:1]), *prog.clauses[1:]))
    semi = least_model_seminaive(loose).interpretation
    assert semi == least_model_naive(loose).interpretation
    assert semi["q"].tuples == {(Ind("a"),), (Ind("b"),)}
    # a merge is a new program too, with a model of its own
    for engine in ("seminaive", "demand"):
        cfg = EngineConfig(engine=engine)
        assert decide(merge(loose, encode_input("a")), None, cfg) == "accept"
        assert decide(prog, None, cfg) == "reject"


def test_prepared_programs_are_not_kept_alive():
    refs = []
    for n in range(5):
        prog, _ = analyze("e c%d c%d. q X :- (e X Y)." % (n, n + 1))
        assert decide(prog, None, EngineConfig(engine="seminaive")) == "reject"
        refs.append(weakref.ref(prog))
        del prog
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert not any(ref() is None for ref, _ in engines._PREPARED.values())


def test_round_one_plan_shares_a_live_index():
    # (path, (0,)) is probed by the plan focused on edge, which runs in
    # round 1 only, and by a plan focused on path, which recurs: it is
    # live, so kept up to date for the recurring plan
    prog, _ = analyze("edge a b. edge b c. edge c d. edge d e. "
                      "path X Y :- (edge X Y). "
                      "path X Y :- (edge X Z), (path Z Y). "
                      "path X Y :- (path X Z), (path Z Y).")
    assert ("path", (0,)) in engines._prepare(prog).seminaive().live
    semi = least_model_seminaive(prog).interpretation
    assert semi == least_model_naive(prog).interpretation
    assert len(semi["path"].tuples) == 10


def test_facts_and_rules_keep_indexes_live():
    # r has facts and a rule, so a plan focused on r recurs, and the
    # indexes it probes are extended every round
    prog, _ = analyze("r a b. r b c. r c d. r d e. "
                      "r X Y :- (r X Z), (r Z Y).")
    assert engines._prepare(prog).seminaive().live == {("r", (0,)),
                                                       ("r", (1,))}
    semi = least_model_seminaive(prog).interpretation
    assert semi == least_model_naive(prog).interpretation
    assert len(semi["r"].tuples) == 10


def test_chain_keeps_no_round_one_index(monkeypatch):
    runs = []

    class Recorded(engines._Joins):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(engines, "_Joins", Recorded)
    facts = " ".join("edge c%d c%d." % (i, i + 1) for i in range(9))
    prog, _ = analyze(facts + " path X Y :- (edge X Y). "
                      "path X Y :- (edge X Z), (path Z Y).")
    assert least_model_seminaive(prog).iterations == 10
    (joins,) = runs
    # only the plan focused on edge probes path by its first position, in
    # round 1; the index of edge the recurring plan probes is kept
    assert (0,) not in joins.indexes.get("path", {})
    assert list(joins.indexes) == ["edge"]
    assert list(joins.indexes["edge"]) == [(1,)]


def test_seminaive_budget_counts_every_derived_tuple():
    # facts derive 2 tuples; in round 1 the first q rule derives 2 and
    # the second, once per delta focus, 2 + 2 duplicates: 8 in all
    prog, _ = analyze("p a. p b. q X :- (p X). q X :- (p X), (p X).")
    least_model_seminaive(prog, EngineConfig(step_budget=8))
    with pytest.raises(BudgetExhaustedError):
        least_model_seminaive(prog, EngineConfig(step_budget=7))


def test_seminaive_budget_counts_every_fact_row():
    # three fact rows, one repeated: three steps for two tuples
    prog, _ = analyze("p a. p a. p b.")
    model = least_model_seminaive(prog, EngineConfig(step_budget=3))
    assert model.interpretation["p"].tuples == {(Ind("a"),), (Ind("b"),)}
    with pytest.raises(BudgetExhaustedError):
        least_model_seminaive(prog, EngineConfig(step_budget=2))


def test_warm_decision_counts_the_no_input_steps():
    # the no-input model takes the 8 steps counted above; a decision on
    # "a" adds its input row and accept: 10 steps, warm or cold
    text = ("p a. p b. q X :- (p X). q X :- (p X), (p X). "
            "accept :- (input 0 a end), (q a).")

    def semi(budget):
        return EngineConfig(engine="seminaive", step_budget=budget)

    prog, _ = analyze(text)
    assert decide(prog, "a", semi(10)) == "accept"
    assert decide(prog, None, semi(8)) == "reject"
    for w, budget in (("a", 9), (None, 7)):
        with pytest.raises(BudgetExhaustedError):
            decide(prog, w, semi(budget))
        with pytest.raises(BudgetExhaustedError):
            decide(analyze(text)[0], w, semi(budget))
    with pytest.raises(BudgetExhaustedError):
        least_model_seminaive(prog, semi(7))


def test_warm_rounds_add_the_no_input_rounds():
    # no input: p, q and r in 3 rounds; then "a" makes accept in 1 more
    # round and ends in another: 5, where a run from the empty model,
    # which meets the input before r, takes 4
    prog, _ = analyze("p a. q X :- (p X). r X :- (q X). "
                      "accept :- (input 0 S J), (r a).")
    semi = EngineConfig(engine="seminaive")
    assert least_model_seminaive(prog).iterations == 3
    assert engines._run_engine(prog, "a", semi) == (True, 5, "rounds")
    assert least_model_seminaive(
        merge(prog, encode_input("a"))).iterations == 4
    # so the crosscheck gate against the paper's round bound only tightens
    fo = compile_tm_first_order(sample_machine("parity"), 1)
    for w in ("", "a", "b"):
        _, rounds, _ = engines._run_engine(fo, w, semi)
        assert rounds >= least_model_seminaive(
            merge(fo, encode_input(w))).iterations, w


def test_new_constants_restart_a_universe_enumerating_program():
    # p X Y enumerates X over the universe with no delta, so a start from
    # the no-input model, whose universe lacks b, would miss p b a
    text = "q a. p X Y :- (q Y). accept :- (input 0 S J), (p J a)."
    for engine in ("naive", "seminaive", "demand"):
        cfg = EngineConfig(engine=engine)
        assert decide(analyze(text)[0], "b", cfg) == "accept", engine
        prog, _ = analyze(text)
        assert decide(prog, None, cfg) == "reject", engine
        assert decide(prog, "b", cfg) == "accept", engine


def test_warm_decision_leaves_the_program_facts_alone(monkeypatch):
    # the second decision on each fast engine makes no Ind of a program
    # constant and extends no index of edge: both are prepared once; and
    # no plan enumerates the universe, so the input's new constants are
    # never appended to a copy of it
    prog, _ = analyze(" ".join("edge n%d n%d." % (i, i + 1)
                               for i in range(1000))
                      + " two X Z :- (edge X Y), (edge Y Z)."
                      " accept :- (input I S J), (edge n0 X), (two X n3).")
    edges = {(Ind("n%d" % i), Ind("n%d" % (i + 1))) for i in range(1000)}
    made, extended, runs = [], [], []

    class RecordedJoins(engines._Joins):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    class RecordedEngine(engines.DemandEngine):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    def counting_ind(name, _ind=Ind):
        made.append(name)
        return _ind(name)

    def counting_extend(idx, positions, rows, _extend=engines._extend):
        rows = list(rows)
        extended.extend(row for row in rows if row in edges)
        _extend(idx, positions, rows)

    for engine in ("seminaive", "demand"):
        cfg = EngineConfig(engine=engine)
        assert decide(prog, "ab", cfg) == "accept"
        with monkeypatch.context() as m:
            m.setattr(engines, "Ind", counting_ind)
            m.setattr(engines, "_extend", counting_extend)
            m.setattr(engines, "_Joins", RecordedJoins)
            m.setattr(engines, "DemandEngine", RecordedEngine)
            assert decide(prog, "ba", cfg) == "accept"
        assert not set(made) & set(prog.constants), engine
        assert made and not extended, engine
        universe = engines._prepare(prog).universe
        assert runs and all(run.universe is universe for run in runs), engine
        runs.clear()


# Random first-order programs whose rules read the input: decisions on
# one program object must not see each other's input rows.
INPUT_TERMS = st.sampled_from(["X", "Y", "Z", "a", "b", "0", "end"])


@st.composite
def _input_clause(draw):
    arities = {**ARITIES, "input": 3}
    head = draw(st.sampled_from(sorted(ARITIES) + ["accept"]))
    head = " ".join([head] + [draw(INPUT_TERMS)
                              for _ in range(ARITIES.get(head, 0))])
    body = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 4)) == 0:
            body.append("(%s = %s)" % (draw(INPUT_TERMS), draw(INPUT_TERMS)))
            continue
        p = draw(st.sampled_from(sorted(arities)))
        body.append("(%s)" % " ".join(
            [p] + [draw(INPUT_TERMS) for _ in range(arities[p])]))
    return "%s :- %s." % (head, ", ".join(body))


@settings(max_examples=100, deadline=None)
@given(st.lists(_input_clause(), min_size=1, max_size=5).map(" ".join),
       st.text("ab", max_size=3), st.text("ab", max_size=3))
@example("e a b. u a. e X Y :- (input X Y Z). u Y :- (e X Y), (u X). "
         "accept :- (u end), (input X a Y).", "ab", "b")
@example("u a. t X Y Z :- (u Y). accept :- (input 0 S J), (t J a X).",
         "b", "a")                          # enumerates: new constants
def test_decisions_on_one_program_stay_isolated(text, w1, w2):
    prog, report = analyze("e a b. u a. " + text)
    assert report.ok, report.violations
    for w in (w1, w2, w1):
        rows = encode_input(w)
        naive = least_model_naive(merge(prog, rows)).interpretation
        total, _ = _seminaive_fixpoint(prog, EngineConfig(), rows)
        assert {p: Bool(() in total[p]) if isinstance(v, Bool)
                else dataclasses.replace(v, tuples=frozenset(total[p]))
                for p, v in naive.items()} == naive, w
        want = "accept" if naive.get("accept") == Bool(True) else "reject"
        for engine in ("seminaive", "demand"):
            assert decide(prog, w, EngineConfig(engine=engine)) == want, w


@pytest.mark.parametrize("text, rows", [
    # each program with its fact rows; every other clause is a rule
    ("p a. p a. p b.", {"p": [("a",), ("a",), ("b",)]}),
    ("z. e a b. z :- (e b a).", {"z": [()], "e": [("a", "b")]}),
    ("e X X. u a.", {"u": [("a",)]}),                # repeated head variable
    ("e X Y :- (X = Y). u a.", {"u": [("a",)]}),     # variables equated
    ("u X :- (a = X). u b.", {"u": [("b",)]}),       # constant on the left
    ("u X :- (X = a), (X = b). u c.", {"u": [("c",)]}),  # a formal twice
    ("e a b. e b c. e X Y :- (e Y X). u X :- (e X c).",  # facts and rules
     {"e": [("a", "b"), ("b", "c")]}),
])
def test_fact_rows_agree_with_naive(text, rows):
    prog, report = analyze(text)
    assert report.ok, report.violations
    assert prog.facts == {p: tuple(r) for p, r in rows.items()}
    naive = least_model_naive(prog)
    semi = least_model_seminaive(prog)
    assert semi.interpretation == naive.interpretation
    assert semi.iterations == naive.iterations
    eng = DemandEngine(prog)
    for goal in ground_goals(prog):
        assert eng.solve(goal) == truth_in_model(
            goal, naive.interpretation), goal


def test_rules_for_input_keep_the_input_rows():
    # input has a rule, so it is a ruled predicate, not a rows one: a
    # decision's input rows still hold beside what its rules derive
    prog, report = analyze("input X a Y :- (extra X Y). extra 0 1. "
                           "accept :- (input 0 b end), (input 0 a 1).")
    assert report.ok, report.violations
    for engine in ("naive", "seminaive", "demand"):
        cfg = EngineConfig(engine=engine)
        assert decide(prog, "b", cfg) == "accept", engine
        assert decide(prog, "a", cfg) == "reject", engine
        assert decide(prog, None, cfg) == "reject", engine


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


def test_demand_solves_ground_application_arguments():
    # a rule whose atom's argument is the ground application (twice f),
    # lowered as one constant
    prog, _ = analyze("f a. twice R X :- (R X), (R X). "
                      "apply F X :- (F X). r :- (apply (twice f) a).")
    eng = DemandEngine(prog)
    assert eng.solve(ap(P("apply"), ap(P("twice"), P("f")), C("a")))
    assert not eng.solve(ap(P("apply"), ap(P("twice"), P("f")), C("b")))
    assert eng.solve(P("r"))
    with pytest.raises(EngineError):
        eng.solve(ap(P("f"), Var("X")))


def test_demand_recursive_program():
    prog, _ = analyze("edge a b. edge b a. path X Y :- (edge X Y). "
                      "path X Y :- (edge X Z), (path Z Y).")
    eng = DemandEngine(prog)
    assert eng.solve(ap(P("path"), C("a"), C("a")))
    assert eng.solve(ap(P("path"), C("a"), C("b")))


def test_demand_root_is_enqueued_once():
    # q a, p a and r a are tabled; s is given only by facts, so s a is
    # looked up, not tabled.  Runs: q, in it p, in it r (true), so p and
    # then q end true, each in its one run.
    prog, _ = analyze("q X :- (p X). p X :- (r X). r X :- (s X). s a.")
    eng = DemandEngine(prog)
    assert eng.solve(ap(P("q"), C("a")))
    assert len(eng.table) == 3
    assert eng.steps == 3


def test_demand_binds_before_enumerating():
    # a "rows" atom binds Y from the facts of e before the call to p, so
    # q d0 tables itself and p d0 c0, true at once; the false q c0 tables
    # itself and p c0 c0..c2, not p c0 Y for all 23 constants
    facts = " ".join(["e c%d." % i for i in range(3)]
                     + ["u d%d." % i for i in range(20)])
    prog, _ = analyze(facts + " p X Y :- (u X), (e Y). "
                      "q X :- (p X Y), (e Y).")
    eng = DemandEngine(prog)
    assert eng.solve(ap(P("q"), C("d0")))
    assert (len(eng.table), eng.steps) == (2, 2)
    assert not eng.solve(ap(P("q"), C("c0")))
    assert (len(eng.table), eng.steps) == (6, 6)
    # the bound call s d0 comes before p d0 Y enumerates Y, and its false
    # goal ends the body
    facts = " ".join(["u d%d." % i for i in range(20)] + ["r d1."])
    prog, _ = analyze(facts + " p X Y :- (u X), (u Y). s X :- (r X). "
                      "q X :- (p X Y), (s X).")
    eng = DemandEngine(prog)
    assert not eng.solve(ap(P("q"), C("d0")))
    assert (len(eng.table), eng.steps) == (2, 2)


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
        DemandEngine(prog, EngineConfig(step_budget=1)).solve(
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
    for w, goals in (("aa", 341), ("aaa", 778), ("aaaa", 2714)):
        eng = DemandEngine(merge(prog, encode_input(w)))
        eng.solve(Pred("accept"))
        assert len(eng.table) == goals, w
        assert eng.steps <= 1.5 * goals, w


def test_demand_growth_k3_parity():
    # goals interned and goal runs at k=3 d=1, n = 1 and 2
    prog = compile_tm_higher_order(sample_machine("parity"), 3, 1)
    for w, accept, goals, runs in (("a", False, 187, 187),
                                   ("aa", True, 1733, 1733)):
        eng = DemandEngine(merge(prog, encode_input(w)))
        assert eng.solve(Pred("accept")) == accept, w
        assert (len(eng.table), eng.steps) == (goals, runs), w


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



def test_demand_acyclic_goals_run_once():
    # on an acyclic goal graph no read can flip later: every goal runs
    # once, inside its caller, and no dependency edge is left
    prog = compile_tm_higher_order(sample_machine("parity"), 2, 1)
    eng = DemandEngine(merge(prog, encode_input("aa")))
    assert eng.solve(Pred("accept"))
    assert eng.steps == len(eng.table)
    assert not eng.deps


@pytest.mark.parametrize("text", [
    "edge a b. edge b a. path X Y :- (edge X Y). "
    "path X Y :- (edge X Z), (path Z Y).",
    # left recursion first: a path goal reads itself false, and its base
    # case comes later in its own run or in a goal called after it
    "edge a b. edge b c. edge c a. edge c d. "
    "path X Y :- (path X Z), (edge Z Y). path X Y :- (edge X Y).",
])
def test_demand_cycles_agree_with_naive(text):
    prog, _ = analyze(text)
    model = least_model_naive(prog).interpretation
    warm = DemandEngine(prog)
    for goal in ground_goals(prog):
        want = truth_in_model(goal, model)
        assert DemandEngine(prog).solve(goal) == want, goal
        assert warm.solve(goal) == want, goal


def test_demand_queued_cycle_agrees_with_seminaive():
    # a ring longer than the eager nesting: goals past the cap are queued
    # and read false, and the base case reaches them through flips
    n = engines._EAGER_DEPTH + 10
    prog, _ = analyze(" ".join("edge c%d c%d." % (i, (i + 1) % n)
                               for i in range(n))
                      + " base c%d. reach X :- (edge X Y), (reach Y). "
                        "reach X :- (base X)." % (n - 1))
    model = least_model_seminaive(prog).interpretation
    for goal in ground_goals(prog):
        assert (DemandEngine(prog).solve(goal)
                == truth_in_model(goal, model)), goal


def test_demand_stays_within_its_frame_budget():
    # eager first runs add at most five frames a level to the stack, so a
    # deep caller and a long chain never meet the recursion limit
    text = "".join("edge n%d n%d. " % (i, i + 1) for i in range(5000))
    chain, _ = analyze(text + "path X Y :- (edge X Y). "
                              "path X Z :- (edge X Y), (path Y Z).")
    goal = ap(P("path"), C("n0"), C("n5000"))
    parity = merge(compile_tm_higher_order(sample_machine("parity"), 2, 1),
                   encode_input("aaaa"))
    # plans are compiled before the limit drops: compiling is not counted
    assert DemandEngine(chain).solve(goal)
    assert DemandEngine(parity).solve(Pred("accept"))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 5 * engines._EAGER_DEPTH + 20)
    try:
        assert DemandEngine(chain).solve(goal)
        assert DemandEngine(parity).solve(Pred("accept"))
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("engine", ["naive", "seminaive", "demand"])
def test_warm_decision_leaves_no_cycles(engine):
    prog = (compile_tm_first_order(sample_machine("parity"), 1)
            if engine == "seminaive" else
            compile_tm_higher_order(sample_machine("parity"), 2, 1)
            if engine == "demand" else
            analyze("accept :- (input 0 a end).")[0])
    cfg = EngineConfig(engine=engine)
    verdict = decide(prog, "aa", cfg)
    gc.collect()
    assert decide(prog, "aa", cfg) == verdict
    assert gc.collect() == 0

def test_seminaive_growth_fo_parity():
    # rounds and tuples of FO parity at d=2: tuples grow as simulated
    # steps times tape cells, about 1.6 * n^4
    prog = compile_tm_first_order(sample_machine("parity"), 2)
    for n, rounds, tuples in ((8, 129, 6625), (12, 289, 32141)):
        total, got = _seminaive_fixpoint(
            merge(prog, encode_input("a" * n)), EngineConfig())
        assert got == rounds, n
        assert sum(map(len, total.values())) == tuples, n


def test_seminaive_chain_growth():
    # an N-node chain closes in N rounds with its N - 1 edges and
    # N(N - 1)/2 paths, and the model holds the fixpoint's tuples
    for n, rounds, tuples in ((25, 25, 324), (50, 50, 1274),
                              (100, 100, 5049)):
        facts = " ".join("edge c%d c%d." % (i, i + 1) for i in range(n - 1))
        prog, _ = analyze(facts + " path X Y :- (edge X Y). "
                          "path X Y :- (edge X Z), (path Z Y).")
        res = least_model_seminaive(prog)
        assert res.iterations == rounds, n
        model = res.interpretation
        assert (len(model["edge"].tuples)
                + len(model["path"].tuples)) == tuples, n
        assert (Ind("c0"), Ind("c%d" % (n - 1))) in model["path"].tuples
