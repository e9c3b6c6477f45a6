"""Concrete syntax for ".hodl" program files.

Grammar (application by juxtaposition, left-associative):

    program   := { directive | clause }
    directive := "#pred" IDENT ":" type "."
    type      := "i" | "o" | type "->" type          (right-assoc)
    clause    := appterm [ ":-" body ] "."
    body      := bexpr { "," bexpr }
    bexpr     := appterm | "(" appterm "=" appterm ")"
    appterm   := primary { primary }
    primary   := IDENT | NUMERAL | VAR | "(" appterm ")"

Identifiers starting lowercase (or numerals) are constants/predicates,
uppercase or underscore are variables.  "%" starts a line comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (App, Arrow, Const, Eq, HodlError, IOTA, OMICRON, Pred, Var,
                   app_spine, is_predicate_type, render_type)


class ParseError(HodlError):
    code = "E001"

    def __init__(self, message, line, col):
        super().__init__("%d:%d: E001 %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # IDENT NUMERAL VAR PUNCT EOF
    text: str
    line: int
    col: int


_PUNCT = (":-", "->", "#pred", "(", ")", ",", ".", "=", ":")


def tokenize(text):
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
                toks.append(Token("PUNCT", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(Token("NUMERAL", text[i:j], line, col))
                col += j - i
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = "VAR" if (word[0].isupper() or word[0] == "_") else "IDENT"
                toks.append(Token(kind, word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Surface AST

@dataclass
class SurfaceClause:
    head: str
    head_args: list  # Const / Var / App expressions, repeats allowed
    body: list       # appterm or Eq expressions
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class SourceProgram:
    directives: list  # (name, Type, line, col)
    clauses: list

    def declared(self):
        return {name: ty for name, ty, _, _ in self.directives}


class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text or t.kind == "EOF":
            raise ParseError("expected %r, found %r" % (text, t.text or "end of input"),
                             t.line, t.col)
        return t

    def at(self, text):
        return self.peek().text == text and self.peek().kind != "EOF"

    def parse_program(self):
        directives = []
        clauses = []
        seen = set()
        while self.peek().kind != "EOF":
            if self.at("#pred"):
                d = self.parse_directive()
                if d[0] in seen:
                    raise ParseError("duplicate directive for %r" % d[0], d[2], d[3])
                seen.add(d[0])
                directives.append(d)
            else:
                clauses.append(self.parse_clause())
        return SourceProgram(directives, clauses)

    def parse_directive(self):
        t0 = self.expect("#pred")
        name = self.next()
        if name.kind != "IDENT":
            raise ParseError("expected predicate name", name.line, name.col)
        self.expect(":")
        ty = self.parse_type()
        self.expect(".")
        if not is_predicate_type(ty):
            raise ParseError("directive type must end in o", t0.line, t0.col)
        return (name.text, ty, t0.line, t0.col)

    def parse_type(self):
        left = self.parse_type_primary()
        if self.at("->"):
            self.next()
            return Arrow(left, self.parse_type())
        return left

    def parse_type_primary(self):
        t = self.next()
        if t.text == "i" and t.kind == "IDENT":
            return IOTA
        if t.text == "o" and t.kind == "IDENT":
            return OMICRON
        if t.text == "(":
            ty = self.parse_type()
            self.expect(")")
            return ty
        raise ParseError("expected type", t.line, t.col)

    def parse_clause(self):
        t0 = self.peek()
        head = self.parse_appterm()
        body = []
        if self.at(":-"):
            self.next()
            body.append(self.parse_bexpr())
            while self.at(","):
                self.next()
                body.append(self.parse_bexpr())
        self.expect(".")
        h, args = app_spine(head)
        if not isinstance(h, Const):
            raise ParseError("clause head must be a predicate constant", t0.line, t0.col)
        return SurfaceClause(h.name, args, body, t0.line, t0.col)

    def parse_bexpr(self):
        # "(" appterm "=" appterm ")" needs lookahead past the paren.
        if self.at("("):
            save = self.pos
            self.next()
            left = self.parse_appterm()
            if self.at("="):
                self.next()
                right = self.parse_appterm()
                self.expect(")")
                return Eq(left, right)
            self.pos = save
        return self.parse_appterm()

    def parse_appterm(self):
        e = self.parse_primary()
        while True:
            t = self.peek()
            if t.kind in ("IDENT", "NUMERAL", "VAR") or t.text == "(":
                e = App(e, self.parse_primary())
            else:
                return e

    def parse_primary(self):
        t = self.next()
        if t.kind in ("IDENT", "NUMERAL"):
            return Const(t.text)
        if t.kind == "VAR":
            return Var(t.text)
        if t.text == "(":
            e = self.parse_appterm()
            self.expect(")")
            return e
        raise ParseError("unexpected %r" % (t.text or "end of input"), t.line, t.col)


def parse_program(text):
    return _Parser(text).parse_program()


# ---------------------------------------------------------------------------
# Printing

def render_expr(e, outer=True):
    if isinstance(e, (Const, Pred, Var)):
        return e.name
    if isinstance(e, Eq):
        return "(%s = %s)" % (render_expr(e.left), render_expr(e.right))
    if isinstance(e, App):
        head, args = app_spine(e)
        parts = [render_expr(head)] + [
            render_expr(a) if not isinstance(a, App) else "(" + render_expr(a) + ")"
            for a in args]
        s = " ".join(parts)
        return s if outer else "(" + s + ")"
    raise TypeError("cannot render %r" % (e,))


def _render_body_atom(e):
    if isinstance(e, Eq):
        return render_expr(e)
    return "(" + render_expr(e) + ")"


def print_source(src):
    """Render a SourceProgram back to .hodl text."""
    lines = []
    for name, ty, _, _ in src.directives:
        lines.append("#pred %s : %s." % (name, render_type(ty)))
    for cl in src.clauses:
        head = " ".join([cl.head] + [
            render_expr(a) if not isinstance(a, App) else "(" + render_expr(a) + ")"
            for a in cl.head_args])
        if cl.body:
            lines.append("%s :- %s." % (head, ", ".join(_render_body_atom(b) for b in cl.body)))
        else:
            lines.append("%s." % head)
    return "\n".join(lines) + ("\n" if lines else "")
