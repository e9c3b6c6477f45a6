import pytest
from hypothesis import example, given, settings, strategies as st

from hodatalog.core import App, Arrow, Const, Eq, IOTA, OMICRON, Var
from hodatalog.syntax import (ParseError, parse_program, print_source,
                              render_expr, tokenize)


def test_tokenize_kinds():
    kinds, texts, _ = tokenize("p X :- (q a), (X = b). % comment\n#pred p : i -> o.")
    assert "VAR" in kinds and "IDENT" in kinds
    assert [t for k, t in zip(kinds, texts) if k == "PUNCT"][:2] == [":-", "("]
    assert kinds[-1] == "EOF"


# The character loop that `tokenize` replaced, kept as its reference.
_PUNCT = (":-", "->", "#pred", "(", ")", ",", ".", "=", ":")


def _reference_tokenize(text):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(("PUNCT", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(("NUMERAL", text[i:j], line, col))
                col += j - i
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = "VAR" if (word[0].isupper() or word[0] == "_") else "IDENT"
                toks.append((kind, word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(("EOF", "", line, col))
    return toks


def _positioned(text):
    """tokenize's tokens as (kind, text, line, col)."""
    return [(k, t, text.count("\n", 0, s) + 1, s - text.rfind("\n", 0, s))
            for k, t, s in zip(*tokenize(text))]


def _outcome(tokens, text):
    try:
        return tokens(text)
    except ParseError as e:
        return ("ParseError", e.message, e.line, e.col)


_FRAGMENTS = st.sampled_from(
    list(_PUNCT) + ["p", "q1", "end", "X", "_w", "Z9", "0", "42", "é", "É",
                    "ǅ", "²", "٣", "½", "€", "#", "-", "!", " ", "\t", "\r",
                    "\n", "% note", "%", "a_b"])


@settings(max_examples=400, deadline=None)
@given(st.lists(_FRAGMENTS, max_size=30).map("".join))
@example("0² 42٣x 1é 7½")
@example("é½ ǅx _a X½ #predx -> p. %")
@example("p :-\n  q ->- r.")
@example("p\r\n\t% c\nq")
def test_tokenize_matches_reference(text):
    assert _outcome(_positioned, text) == _outcome(_reference_tokenize, text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="pX_0é²٣½ \t\r\n%()#->.,=:", max_size=40))
def test_tokenize_matches_reference_on_characters(text):
    assert _outcome(_positioned, text) == _outcome(_reference_tokenize, text)


# Messages and positions as the character-loop tokenizer and the
# recursive parser gave them.
@pytest.mark.parametrize("text, message", [
    ("p :- .", "1:6: E001 unexpected '.'"),
    ("p a", "1:4: E001 expected '.', found 'end of input'"),
    ("p ((a b) c.\n", "1:11: E001 expected ')', found '.'"),
    ("#pred p : i -> o.\n#pred p : i -> o.", "2:1: E001 duplicate directive for 'p'"),
    ("p.\nq :- % to the end", "2:6: E001 unexpected 'end of input'"),
    ("p :- ((a = b)).", "1:10: E001 expected ')', found '='"),
    ("#pred p : (i -> o.", "1:18: E001 expected ')', found '.'"),
    ("#pred 3 : o.", "1:7: E001 expected predicate name"),
    ("#pred p : i -> x.", "1:16: E001 expected type"),
    ("X a.", "1:1: E001 clause head must be a predicate constant"),
    ("p.\n\tq é½ ! r.", "2:7: E001 unexpected character '!'"),
])
def test_parse_error_text(text, message):
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert str(e.value) == message


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["p", "q", "X", "a", "0", "i", "o", "(", ")",
                                 "=", ",", ".", ":-", ":", "->", "#pred"]),
                max_size=25).map(" ".join))
def test_parse_is_a_program_or_a_parse_error(text):
    try:
        src = parse_program(text)
    except ParseError:
        return
    assert parse_program(print_source(src)) == src


def test_deep_parentheses_parse_without_recursion():
    depth = 3000
    src = parse_program("p " + "(" * depth + "a" + ")" * depth + ".")
    assert src == parse_program("p a.")
    ty = "(" * depth + "i -> o" + ")" * depth
    assert parse_program("#pred p : %s.\n" % ty).declared()["p"] == Arrow(IOTA, OMICRON)


def test_deep_term_prints_without_recursion():
    # texts are compared, not terms: comparing two deep App terms recurses
    depth = 3000
    text = "p X :- (q %sa%s).\n" % ("(f " * depth, ")" * depth)
    assert print_source(parse_program(text)) == text


def test_clause_positions():
    src = parse_program("% head\n  p a.\n\n#pred q : o.\nq :- (p b), \n p c.  r.")
    assert [(cl.line, cl.col) for cl in src.clauses] == [(2, 3), (5, 1), (6, 8)]
    assert src.directives[0][2:] == (4, 1)


def test_comments_and_numerals():
    src = parse_program("input 0 a 1. % chain\n")
    cl = src.clauses[0]
    assert cl.head == "input"
    assert [a.name for a in cl.head_args] == ["0", "a", "1"]


def test_directive_types():
    src = parse_program("#pred r : (i -> o) -> (i -> o) -> i -> o.")
    ty = src.declared()["r"]
    assert ty == Arrow(Arrow(IOTA, OMICRON),
                       Arrow(Arrow(IOTA, OMICRON), Arrow(IOTA, OMICRON)))


def test_directive_must_end_in_o():
    with pytest.raises(ParseError):
        parse_program("#pred p : i -> i.")


def test_application_left_associative():
    src = parse_program("p :- (f a b).")
    body = src.clauses[0].body[0]
    assert isinstance(body, App)
    assert isinstance(body.fn, App)
    assert body.arg == Const("b")


def test_equation_vs_grouping():
    src = parse_program("p X :- (X = a), (q X).")
    eq, atom = src.clauses[0].body
    assert isinstance(eq, Eq)
    assert eq.left == Var("X") and eq.right == Const("a")
    assert isinstance(atom, App)


def test_nested_closure_argument():
    src = parse_program("p :- (less_than_1 (pred_1 N) (pred_1 M)).")
    body = src.clauses[0].body[0]
    assert render_expr(body) == "less_than_1 (pred_1 N) (pred_1 M)"


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        parse_program("p :- .")
    assert "E001" in str(e.value)


def test_missing_period():
    with pytest.raises(ParseError):
        parse_program("p a")


def test_head_must_be_constant():
    with pytest.raises(ParseError):
        parse_program("X a.")


def test_print_source_round_trip():
    text = ("#pred q : (i -> o) -> o.\n"
            "p a.\n"
            "q R :- (R b), (X = a).\n"
            "r X Y :- (q (s X)), (t X Y).\n")
    src = parse_program(text)
    assert parse_program(print_source(src)) == src


_ident = st.sampled_from(["p", "q", "edge", "f0", "a", "b", "end"])
_var = st.sampled_from(["X", "Y", "Z", "R", "_W"])


@st.composite
def _appterms(draw, depth=2):
    head = Const(draw(_ident))
    n = draw(st.integers(0, 3))
    e = head
    for _ in range(n):
        if depth > 0 and draw(st.booleans()):
            arg = draw(_appterms(depth=depth - 1))
            if not isinstance(arg, (Const, Var)):
                e = App(e, arg)
                continue
            e = App(e, arg)
        else:
            e = App(e, Var(draw(_var)) if draw(st.booleans())
                    else Const(draw(_ident)))
    return e


@settings(max_examples=60, deadline=None)
@given(st.lists(_appterms(), min_size=0, max_size=3))
def test_clause_round_trip_property(body):
    from hodatalog.syntax import SourceProgram, SurfaceClause
    src = SourceProgram([], [SurfaceClause("p", [Var("X")], list(body))])
    assert parse_program(print_source(src)) == src
