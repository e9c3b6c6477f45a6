"""Acceptance criteria, one test per criterion.

Each test prints a single "PASS criterion-N ..." line on success (pytest -s
shows them; the suite fails loudly otherwise).  Oracles: the direct Turing
machine simulator, Python integer arithmetic on decoded numbers, and
brute-force lattice enumeration.
"""

import itertools
import random
import time

import pytest

from conftest import (C, P, analyzed_corpus, ap, count_upward_closed,
                      ground_goals, interp_leq, truth_in_model)
from hodatalog.codegen import (bignum_text, compile_tm_first_order,
                               compile_tm_higher_order)
from hodatalog.core import IOTA, arrow, compute_stats, expk, iteration_bound
from hodatalog.encode import encode_input, merge
from hodatalog.engines import DemandEngine, EngineConfig, decide, \
    least_model_seminaive
from hodatalog.semantics import (Ind, Rel, build_domains, enumerate_domain,
                                 least_model_naive, tp_step, value_leq)
from hodatalog.tm import sample_machine, tm_run
from hodatalog.typecheck import analyze, infer_types, validate_definitional
from hodatalog.syntax import parse_program


def _report(name, ok, detail=""):
    print("%s criterion-%s %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, detail


def _all_strings(max_len):
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product("ab", repeat=n))
    return out


def test_criterion_1_worked_example_model():
    t0 = time.time()
    prog, _ = analyze("p a. q R :- (R b).")
    model = least_model_naive(prog).interpretation
    rel = arrow([IOTA])
    b = Rel(rel, frozenset({(Ind("b"),)}))
    ab = Rel(rel, frozenset({(Ind("a"),), (Ind("b"),)}))
    ok = (model["p"].tuples == frozenset({(Ind("a"),)})
          and model["q"].tuples == frozenset({(b,), (ab,)}))
    elapsed = time.time() - t0
    _report("1-worked-example", ok and elapsed < 1.0,
            "M(p)={a}, M(q)={{b},{a,b}} in %.2fs" % elapsed)


def test_criterion_2_first_order_capture():
    t0 = time.time()
    words = _all_strings(4)
    mismatches = []
    cfg = EngineConfig(engine="seminaive")
    for name in ("accept_all", "reject_all", "parity"):
        machine = sample_machine(name)
        prog = compile_tm_first_order(machine, 2)
        for w in words:
            bound = len(w) ** 2 - 1 if len(w) >= 2 else 10 ** 6
            want = "accept" if tm_run(machine, w, bound).accepted else "reject"
            got = decide(prog, w, cfg)
            if got != want:
                mismatches.append((name, w, got, want))
    elapsed = time.time() - t0
    _report("2-first-order-capture",
            not mismatches and elapsed < 60.0,
            "3 machines x %d strings, %d mismatches, %.1fs"
            % (len(words), len(mismatches), elapsed))


def _make_level1_engine(n, nbits):
    lines = bignum_text(2, 1)
    for m in range(2 ** nbits):
        lines.append("#pred n_%d : i -> i -> o." % m)
        for i in range(nbits):
            bit = "high" if (m >> i) & 1 else "low"
            lines.append("n_%d %d %s." % (m, i, bit))
    prog, report = analyze("\n".join(lines))
    assert report.ok
    merged = merge(prog, encode_input("a" * n))
    return DemandEngine(merged, EngineConfig())


def _decode_bits(eng, numexpr, nbits):
    bits = []
    for i in range(nbits):
        hi = eng.solve(ap(numexpr, C(str(i)), C("high")))
        lo = eng.solve(ap(numexpr, C(str(i)), C("low")))
        if hi == lo:
            return None
        bits.append(1 if hi else 0)
    return sum(b << i for i, b in enumerate(bits))


def test_criterion_3_level1_numbers_exhaustive():
    t0 = time.time()
    eng = _make_level1_engine(n=3, nbits=3)
    errors = []
    top = 7
    for m in range(top + 1):
        s = _decode_bits(eng, ap(P("succ_1"), P("n_%d" % m)), 3)
        p = _decode_bits(eng, ap(P("pred_1"), P("n_%d" % m)), 3)
        if s != (m + 1 if m < top else None):
            errors.append(("succ", m, s))
        if p != (m - 1 if m > 0 else None):
            errors.append(("pred", m, p))
        for j in range(top + 1):
            if eng.solve(ap(P("equal_1"), P("n_%d" % m), P("n_%d" % j))) \
                    != (m == j):
                errors.append(("equal", m, j))
            if eng.solve(ap(P("less_than_1"), P("n_%d" % m), P("n_%d" % j))) \
                    != (m < j):
                errors.append(("less_than", m, j))
    elapsed = time.time() - t0
    _report("3-level1-numbers", not errors and elapsed < 120.0,
            "range 0..7 exhaustive, %d errors, %.1fs" % (len(errors), elapsed))


def test_criterion_4_k2_capture():
    t0 = time.time()
    words = _all_strings(3)
    mismatches = []
    cfg = EngineConfig(engine="demand")
    for name in ("accept_all", "parity"):
        machine = sample_machine(name)
        prog = compile_tm_higher_order(machine, 2, 1)
        for w in words:
            bound = 2 ** len(w) - 1 if len(w) >= 2 else 10 ** 6
            want = "accept" if tm_run(machine, w, bound).accepted else "reject"
            got = decide(prog, w, cfg)
            if got != want:
                mismatches.append((name, w, got, want))
    elapsed = time.time() - t0
    _report("4-k2-capture", not mismatches and elapsed < 600.0,
            "2 machines x %d strings, %d mismatches, %.1fs"
            % (len(words), len(mismatches), elapsed))


def test_criterion_5_level2_chain():
    t0 = time.time()
    lines = bignum_text(3, 1)
    for m in range(4):
        lines.append("#pred n1_%d : i -> i -> o." % m)
        for i in range(2):
            bit = "high" if (m >> i) & 1 else "low"
            lines.append("n1_%d %d %s." % (m, i, bit))
    for m in range(16):
        lines.append("#pred m2_%d : (i -> i -> o) -> i -> o." % m)
        for i in range(4):
            bit = "high" if (m >> i) & 1 else "low"
            lines.append("m2_%d X %s :- (equal_1 X n1_%d)." % (m, bit, i))
    prog, report = analyze("\n".join(lines))
    assert report.ok
    eng = DemandEngine(merge(prog, encode_input("ab")), EngineConfig())
    errors = []
    cur = P("m2_0")
    for step in (1, 2, 3):
        cur = ap(P("succ_2"), cur)
        for j in range(5):
            got = eng.solve(ap(P("equal_2"), cur, P("m2_%d" % j)))
            if got != (j == step):
                errors.append((step, j, got))
    elapsed = time.time() - t0
    _report("5-level2-chain", not errors and elapsed < 600.0,
            "succ_2/equal_2 chain 0->3 over 0..15, %d errors, %.1fs"
            % (len(errors), elapsed))


def test_criterion_6_domain_cardinalities():
    t1 = arrow([IOTA])
    t2 = arrow([t1])
    counts = {
        (t1, 2): len(enumerate_domain(t1, ["a", "b"])),
        (t2, 1): len(enumerate_domain(t2, ["a"])),
        (t2, 2): len(enumerate_domain(t2, ["a", "b"])),
    }
    golden = {(t1, 2): 4, (t2, 1): 3, (t2, 2): 6}
    brute = {
        (t1, 2): count_upward_closed([enumerate_domain(IOTA, ["a", "b"])]),
        (t2, 1): count_upward_closed([enumerate_domain(t1, ["a"])]),
        (t2, 2): count_upward_closed([enumerate_domain(t1, ["a", "b"])]),
    }
    # size bound: |dom(rho_j)| <= expk(j, t^(j-1) * (n+c)^t) with t=1
    bounds = {
        (t1, 2): expk(1, 2),
        (t2, 1): expk(2, 1),
        (t2, 2): expk(2, 2),
    }
    ok = all(counts[k] == golden[k] == brute[k] for k in counts) and \
        all(counts[k] <= bounds[k] for k in counts)
    _report("6-cardinalities", ok,
            "counts %s match brute force and stay under expk bounds"
            % sorted(counts.values()))


def test_criterion_7_engine_agreement():
    programs = 0
    goals = 0
    disagreements = []
    for name, prog in analyzed_corpus():
        programs += 1
        naive_model = least_model_naive(prog).interpretation
        order = infer_types(prog).program_order
        semi = None
        if order == 1:
            semi = least_model_seminaive(prog).interpretation
        eng = DemandEngine(prog)
        for goal in ground_goals(prog):
            goals += 1
            want = truth_in_model(goal, naive_model)
            if eng.solve(goal) != want:
                disagreements.append((name, "demand", goal))
            if semi is not None and truth_in_model(goal, semi) != want:
                disagreements.append((name, "seminaive", goal))
    _report("7-engine-agreement",
            programs >= 10 and goals > 0 and not disagreements,
            "%d programs, %d ground goals, %d disagreements"
            % (programs, goals, len(disagreements)))


def test_criterion_8_tp_properties():
    rng = random.Random(8675309)
    pairs_checked = 0
    failures = []
    for name, prog in analyzed_corpus():
        domains = build_domains(prog)
        pools = {}
        for p, ty in prog.signatures.items():
            if ty == arrow([]):
                from hodatalog.semantics import FALSE, TRUE
                pools[p] = [FALSE, TRUE]
            else:
                pools[p] = enumerate_domain(ty, prog.constants).elements
        for _ in range(10):
            j = {p: rng.choice(pool) for p, pool in pools.items()}
            i = {p: rng.choice([v for v in pools[p] if value_leq(v, j[p])])
                 for p in pools}
            if not interp_leq(tp_step(prog, i, domains),
                              tp_step(prog, j, domains)):
                failures.append(("monotone", name))
            pairs_checked += 1
        res = least_model_naive(prog)
        if tp_step(prog, res.interpretation, domains) != res.interpretation:
            failures.append(("fixpoint", name))
        st = compute_stats(prog)
        order = infer_types(prog).program_order
        if res.iterations > iteration_bound(st, n=0, k=order):
            failures.append(("bound", name))
    _report("8-tp-properties", pairs_checked >= 100 and not failures,
            "%d monotone pairs + fixpoint stability + iteration bounds, "
            "failures: %s" % (pairs_checked, failures))


def test_criterion_9_typing_conformance():
    failures = []
    for text, code in (("q a. r q.", "E202"),
                       ("p Q Q :- (Q a).", "E201"),
                       ("p X :- (Q X).", "E203")):
        report = infer_types(parse_program(text))
        got = {d.code for d in validate_definitional(None, report)}
        if got != {code}:
            failures.append((text, got))
    union = infer_types(parse_program(
        "union R S X :- (R X). union R S X :- (S X)."))
    rel = arrow([IOTA])
    if not union.ok or union.signatures["union"] != arrow([rel, rel, IOTA]):
        failures.append(("union", union.signatures))
    ex2 = infer_types(parse_program("p a. q X X. r P Q b :- (P b), (Q Y)."))
    if not ex2.ok or ex2.signatures["r"] != arrow([rel, rel, IOTA]):
        failures.append(("example-2", ex2.signatures))
    _report("9-typing-conformance", not failures,
            "3 counterexamples + 2 clean programs, failures: %s" % failures)
