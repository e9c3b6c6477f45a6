"""Shared helpers: expression builders, goal enumeration, the tiny-program
corpus used by the engine-agreement and consequence-operator suites, and
brute-force oracles for domains and interpretations."""

import itertools

from hodatalog.core import App, Const, Pred, arg_types
from hodatalog.semantics import TRUE, eval_expr, value_leq
from hodatalog.typecheck import analyze


def P(name):
    return Pred(name)


def C(name):
    return Const(name)


def ap(f, *args):
    e = f
    for a in args:
        e = App(e, a)
    return e


# Tiny programs, order <= 2, at most two individual constants each.
CORPUS = [
    ("single-fact", "p a."),
    ("two-facts", "p a. p b."),
    ("closure", "edge a b. path X Y :- (edge X Y). "
                "path X Y :- (edge X Z), (path Z Y)."),
    ("apply-arg", "p a. q R :- (R b)."),
    ("need-both", "q R :- (R a), (R b)."),
    ("identity", "id R X :- (R X). p a. r X :- (id p X)."),
    ("all-of", "tc a. tc b. every R :- (R a), (R b). okay :- (every tc)."),
    ("propositional", "zero. one :- zero. two :- one, zero."),
    ("partial-app", "f a. res X :- (apply f X). apply F X :- (F X)."),
    ("equations", "p X :- (X = a). q X Y :- (p X), (X = Y)."),
    ("union", "f a. g b. union R S X :- (R X). union R S X :- (S X). "
              "u X :- (union f g X)."),
    ("empty-pred", "p a. mirrors X :- (ghost X)."),
]


def analyzed_corpus():
    return [(name, analyze(text)[0]) for name, text in CORPUS]


def ground_goals(prog):
    """All type-correct ground atoms over the program's own constants:
    individual positions range over the universe, predicate positions over
    program predicates of exactly the needed type."""
    goals = []
    for p, ty in sorted(prog.signatures.items()):
        pools = []
        for a in arg_types(ty):
            from hodatalog.core import IOTA
            if a == IOTA:
                pools.append([C(c) for c in prog.constants])
            else:
                pools.append([P(q) for q, qty in prog.signatures.items()
                              if qty == a])
        if not all(pools) and pools:
            continue
        for combo in itertools.product(*pools):
            goals.append(ap(P(p), *combo))
    return goals


def truth_in_model(goal, interpretation):
    return eval_expr(goal, interpretation, {}) == TRUE


def count_upward_closed(arg_domains):
    """Brute-force oracle: filter the full powerset for upward closure."""
    product = list(itertools.product(*(d.elements for d in arg_domains)))
    count = 0
    for bits in itertools.product((False, True), repeat=len(product)):
        s = [t for t, b in zip(product, bits) if b]
        if all(t2 in s or not all(map(value_leq, t1, t2))
               for t1 in s for t2 in product):
            count += 1
    return count


def interp_leq(i, j):
    return all(value_leq(i[p], j[p]) for p in i)
