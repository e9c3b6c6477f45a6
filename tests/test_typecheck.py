import pytest

from hodatalog.core import Arrow, Eq, IOTA, OMICRON, arrow
from hodatalog.syntax import parse_program
from hodatalog import typecheck
from hodatalog.typecheck import TypeCheckError, analyze, desugar, infer_types

UNION = "union R S X :- (R X). union R S X :- (S X)."

EXAMPLE_TWO = "p a. q X X. r P Q b :- (P b), (Q Y)."


def test_union_program_clean_with_expected_type():
    report = infer_types(parse_program(UNION))
    assert report.ok
    rel = arrow([IOTA])
    assert report.signatures["union"] == arrow([rel, rel, IOTA])
    assert report.program_order == 2


def test_example_two_clean_with_expected_types():
    report = infer_types(parse_program(EXAMPLE_TWO))
    assert report.ok
    rel = arrow([IOTA])
    assert report.signatures["p"] == rel
    assert report.signatures["q"] == arrow([IOTA, IOTA])
    assert report.signatures["r"] == arrow([rel, rel, IOTA])
    assert report.program_order == 2


def test_predicate_constant_as_head_argument_is_e202():
    report = infer_types(parse_program("q a. r q."))
    codes = {d.code for d in report.violations}
    assert codes == {"E202"}


def test_duplicate_predicate_formal_is_e201():
    report = infer_types(parse_program("p Q Q :- (Q a)."))
    codes = {d.code for d in report.violations}
    assert codes == {"E201"}


def test_free_body_predicate_variable_is_e203():
    report = infer_types(parse_program("p X :- (Q X)."))
    codes = {d.code for d in report.violations}
    assert codes == {"E203"}


def test_duplicate_individual_formal_is_sugar_not_e201():
    report = infer_types(parse_program("q X X."))
    assert report.ok


def test_type_clash_is_e101():
    report = infer_types(parse_program("p X :- (X a), (X = b)."))
    assert any(d.code == "E101" for d in report.violations)
    with pytest.raises(TypeCheckError):
        desugar(parse_program("p X :- (X a), (X = b)."), report)


def test_omicron_argument_rejected():
    # a predicate whose argument would be of type o is not an argument type
    report = infer_types(parse_program("t. p X :- (X t). q :- (p r)."))
    assert any(d.code == "E101" for d in report.violations)


def test_defaulting_unconstrained_to_iota():
    report = infer_types(parse_program("p X Y :- (p Y X)."))
    assert report.ok
    assert report.signatures["p"] == arrow([IOTA, IOTA])


def test_undefined_predicate_constant_is_legal():
    prog, report = analyze("p a. mirrors X :- (ghost X).")
    assert report.ok
    assert report.signatures["ghost"] == arrow([IOTA])
    assert prog.clauses_for("ghost") == []


def test_desugar_head_constant():
    # a ground fact is a row; a head constant beside a variable is equated
    prog, _ = analyze("p a. r a X.")
    assert prog.facts == {"p": (("a",),)}
    assert prog.clauses_for("p") == []
    cl = prog.clauses_for("r")[0]
    assert len(cl.formals) == 2
    assert isinstance(cl.body[0], Eq)


def test_desugar_mixed_program():
    # only bodiless clauses with all-constant heads are facts, a
    # proposition included; a written equation stays a rule
    prog, report = analyze("p a. r a X. q X :- (X = a). z.")
    assert report.ok, report.violations
    assert prog.facts == {"p": (("a",),), "z": ((),)}
    assert [cl.head for cl in prog.clauses] == ["r", "q"]
    assert prog.constants == ("a",)


def test_desugar_repeated_variable():
    prog, _ = analyze("q X X.")
    cl = prog.clauses_for("q")[0]
    assert len(cl.formals) == 2
    assert len({f.name for f in cl.formals}) == 2
    assert isinstance(cl.body[0], Eq)


def test_classify_order_of_example_programs():
    assert infer_types(parse_program("p a. q a b.")).program_order == 1
    assert infer_types(parse_program(UNION)).program_order == 2
    third = "#pred h : ((i -> o) -> o) -> o.\nh Z :- (Z p). p X :- (X = a)."
    assert infer_types(parse_program(third)).program_order == 3


def test_empty_program_is_order_one():
    report = infer_types(parse_program(""))
    assert report.ok and report.program_order == 1


def test_directive_conflict_is_clash():
    report = infer_types(parse_program("#pred p : i -> o.\np a b."))
    assert any(d.code == "E101" for d in report.violations)


class _CountingTV:
    """A type variable that counts the reads of its link."""
    __slots__ = ("_ref",)
    reads = 0

    def __init__(self):
        self._ref = None

    @property
    def ref(self):
        _CountingTV.reads += 1
        return self._ref

    @ref.setter
    def ref(self, value):
        self._ref = value


def test_typing_a_chain_follows_few_links(monkeypatch):
    # every edge fact unifies edge's argument types with two fresh
    # constants' types; without path compression each unification walks
    # the chain of all earlier ones
    text = "".join("edge n%d n%d.\n" % (i, i + 1) for i in range(2000))
    src = parse_program(text + "path X Y :- (edge X Y).\n"
                              "path X Z :- (edge X Y), (path Y Z).\n")
    monkeypatch.setattr(typecheck, "_TV", _CountingTV)
    monkeypatch.setattr(_CountingTV, "reads", 0)
    report = typecheck.infer_types(src)
    assert report.ok and report.signatures["path"] == arrow([IOTA, IOTA])
    assert _CountingTV.reads < 40 * len(src.clauses)


# Diagnostics as the type checker gave them before type variables were
# path-compressed and an application of an arrow built no fresh variable.
@pytest.mark.parametrize("text, rendered", [
    ("p X :- (X a), (X = b).", ["<input>:1:1: E101 type clash: ? -> o vs i"]),
    ("t. p X :- (X t). q :- (p r).",
     ["<input>:0:0: E101 predicate p has an argument of type o",
      "<input>:0:0: E101 predicate r has an argument of type o"]),
    ("#pred p : i -> o.\np a b.", ["<input>:2:1: E101 type clash: o vs ? -> o"]),
    ("p :- (a = b), (a b).", ["<input>:1:1: E101 type clash: i vs i -> ?"]),
    ("p F :- (F a), (F a b).", ["<input>:1:1: E101 type clash: o vs ? -> ?"]),
    ("p X :- (X = q). q a.", ["<input>:1:17: E101 type clash: i vs ? -> o"]),
    ("p. p a.", ["<input>:1:4: E101 type clash: o vs ? -> o"]),
    # after a clash an application's type is fresh, so no second clash
    ("#pred f : i -> i -> o.\np :- ((f (f a)) = b).",
     ["<input>:2:1: E101 type clash: i vs i -> o"]),
    ("#pred q : (i -> o) -> o.\np X :- (q X), (X a b).",
     ["<input>:2:1: E101 type clash: o vs ? -> ?"]),
    ("q a. r q.", ["<input>:1:6: E202 predicate constant q as head argument of r"]),
    ("p Q Q :- (Q a).", ["<input>:1:1: E201 duplicate formal Q in head of p"]),
    ("p (f X) :- (q X).",
     ["<input>:1:1: E202 non-variable predicate argument in head of p"]),
    ("p X :- (Q X), (Q a).",
     ["<input>:1:1: E203 free predicate variable Q in body of p"] * 2),
    ("f a. p :- (f (f a)).",
     ["<input>:0:0: E101 predicate f has an argument of type o",
      "<input>:1:1: E202 predicate constant a as head argument of f"]),
])
def test_diagnostic_text(text, rendered):
    report = infer_types(parse_program(text))
    assert [d.render() for d in report.violations] == rendered


# A type that would contain itself, and a predicate argument typed by an
# arrow that does not end in o, are E101s; they were a RecursionError and
# a ValueError.
ILL_FORMED = [
    ("r :- (R R).", ["<input>:1:1: E101 type clash: ? vs ? -> ?"]),
    ("r :- (p = (a a)).", ["<input>:1:1: E101 type clash: ? vs ? -> ?"]),
    ("q Z :- ((Z r) = (q R)).",
     ["<input>:1:1: E101 type clash: o vs i",
      "<input>:0:0: E101 predicate q has an argument of type i -> i"]),
    ("#pred q : (i -> i) -> o.\n",
     ["<input>:0:0: E101 predicate q has an argument of type i -> i"]),
]


@pytest.mark.parametrize("text, rendered", ILL_FORMED)
def test_ill_formed_types_are_e101(text, rendered):
    with pytest.raises(TypeCheckError) as err:
        analyze(text)
    assert [d.render() for d in err.value.diagnostics] == rendered
