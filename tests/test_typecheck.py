import pytest

from hodatalog.core import Arrow, Eq, IOTA, OMICRON, arrow
from hodatalog.syntax import parse_program
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
    prog, _ = analyze("p a.")
    cl = prog.clauses_for("p")[0]
    assert len(cl.formals) == 1
    assert isinstance(cl.body[0], Eq)


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
