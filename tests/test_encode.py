import pytest

from hodatalog.encode import EncodingError, INPUT_TYPE, encode_input, merge
from hodatalog.typecheck import analyze


def test_empty_string():
    assert encode_input("") == [("0", "empty", "end")]


def test_single_character():
    assert encode_input("a") == [("0", "a", "end")]


def test_chain_shape():
    assert encode_input("abba") == [
        ("0", "a", "1"), ("1", "b", "2"), ("2", "b", "3"), ("3", "a", "end")]


def test_alphabet_enforced():
    with pytest.raises(EncodingError):
        encode_input("abc")


def test_merge_adds_signature_and_constants():
    prog, _ = analyze("accept :- (input 0 a end).")
    merged = merge(prog, encode_input("ab"))
    assert merged.signatures["input"] == INPUT_TYPE
    for c in ("0", "1", "a", "b", "end"):
        assert c in merged.constants


def test_merge_appends_to_the_input_facts():
    # the input rows follow the program's own input facts, and the
    # program itself keeps its facts
    prog, _ = analyze("input 0 b end. accept :- (input 0 a end).")
    merged = merge(prog, encode_input("a"))
    assert merged.facts["input"] == (("0", "b", "end"), ("0", "a", "end"))
    assert prog.facts == {"input": (("0", "b", "end"),)}
    assert merged.clauses == prog.clauses
    with pytest.raises(TypeError):  # shared, so neither may change
        merged.facts["input"] = ()


def test_merge_drops_designated_constant():
    prog, _ = analyze("")
    merged = merge(prog, encode_input("a"))
    assert "u0" not in merged.constants


def test_merge_rejects_conflicting_input_type():
    prog, _ = analyze("#pred input : i -> o.\ninput a.")
    with pytest.raises(EncodingError):
        merge(prog, encode_input("a"))
