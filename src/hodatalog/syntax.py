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

import re
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


# One match per token, the blanks and comments before it skipped; the
# group that matched is its kind.  Words and numerals that start with an
# ASCII character are read here (\w is str.isalnum or "_"); a numeral
# running into a non-ASCII character, a non-ASCII start and a stray
# character fall to the last group and are read by `_other`.  EOF starts
# at the end of the text, or at a comment that ends it.
_TOKEN = re.compile(r"(?:[ \t\r\n]|%.*\n)*(?:(:-|->|#pred|[(),.=:])|([a-z]\w*)"
                    r"|([0-9]+)(?![0-9]|[^\x00-\x7f])|([A-Z_]\w*)|()(?:%.*)?\Z|(.))")
_KINDS = (None, "PUNCT", "IDENT", "NUMERAL", "VAR", "EOF")
_WORD_TAIL = re.compile(r"\w*")


def _other(text, i):
    """(kind, end) of the token at text[i], by the rules of str's methods."""
    ch, j = text[i], i + 1
    if ch.isdigit():
        while j < len(text) and text[j].isdigit():
            j += 1
        return "NUMERAL", j
    if ch.isalpha():
        return ("VAR" if ch.isupper() else "IDENT"), _WORD_TAIL.match(text, j).end()
    raise ParseError("unexpected character %r" % ch, text.count("\n", 0, i) + 1,
                     i - text.rfind("\n", 0, i))


def tokenize(text):
    """Parallel lists (kinds, texts, starts): each token's kind (PUNCT,
    IDENT, NUMERAL, VAR or EOF), text and character offset."""
    kinds, texts, starts = [], [], []
    pos = 0
    while True:
        for m in _TOKEN.finditer(text, pos):
            k = m.lastindex
            if k == 6:
                break
            kinds.append(_KINDS[k])
            texts.append(m[k])
            starts.append(m.start(k))
            if k == 5:
                return kinds, texts, starts
        pos = m.start(6)
        kind, end = _other(text, pos)
        kinds.append(kind)
        texts.append(text[pos:end])
        starts.append(pos)
        pos = end


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
    """Recursive descent over `tokenize`'s lists.  Parentheses nest on
    explicit stacks, not Python frames, and the occurrences of a name
    share one Const or Var node."""

    def __init__(self, text):
        self.text = text
        self.kinds, self.texts, self.starts = tokenize(text)
        self.pos = 0
        self.leaves = {}  # name -> its Const or Var
        self.types = {}  # each Arrow type read, so that equal ones are one
        self.line, self.offset = 1, 0  # last position found, for `where`

    def where(self, pos):
        """(line, col) of token pos, at or after the last one asked for."""
        offset = self.starts[pos]
        self.line += self.text.count("\n", self.offset, offset)
        self.offset = offset
        return self.line, offset - self.text.rfind("\n", 0, offset)

    def error(self, message, pos):
        return ParseError(message, *self.where(pos))

    def expect(self, text):
        pos = self.pos
        if self.texts[pos] != text:
            raise self.error("expected %r, found %r"
                             % (text, self.texts[pos] or "end of input"), pos)
        self.pos = pos + 1

    def parse_program(self):
        directives, clauses, seen = [], [], set()
        while self.kinds[self.pos] != "EOF":
            if self.texts[self.pos] == "#pred":
                d = self.parse_directive()
                if d[0] in seen:
                    raise ParseError("duplicate directive for %r" % d[0], d[2], d[3])
                seen.add(d[0])
                directives.append(d)
            else:
                clauses.append(self.parse_clause())
        return SourceProgram(directives, clauses)

    def parse_directive(self):
        line, col = self.where(self.pos)
        self.pos += 1
        name = self.pos
        if self.kinds[name] != "IDENT":
            raise self.error("expected predicate name", name)
        self.pos += 1
        self.expect(":")
        ty = self.parse_type()
        self.expect(".")
        if not is_predicate_type(ty):
            raise ParseError("directive type must end in o", line, col)
        return (self.texts[name], ty, line, col)

    def parse_type(self):
        """type := primary ["->" type]; primary := i | o | "(" type ")"."""
        texts, stack, args = self.texts, [], []  # per open "(", the args before it
        while True:
            t = texts[self.pos]
            self.pos += 1
            if t == "(":
                stack.append(args)
                args = []
                continue
            if t != "i" and t != "o":
                raise self.error("expected type", self.pos - 1)
            ty = IOTA if t == "i" else OMICRON
            while texts[self.pos] != "->":
                for a in reversed(args):
                    ty = Arrow(a, ty)
                    ty = self.types.setdefault(ty, ty)
                if not stack:
                    return ty
                self.expect(")")
                args = stack.pop()
            self.pos += 1
            args.append(ty)

    def parse_clause(self):
        line, col = self.where(self.pos)
        head = self.parse_appterm()
        body, sep = [], ":-"
        while self.texts[self.pos] == sep:
            self.pos, sep = self.pos + 1, ","
            body.append(self.parse_bexpr())
        self.expect(".")
        h, args = app_spine(head)
        if not isinstance(h, Const):
            raise ParseError("clause head must be a predicate constant", line, col)
        return SurfaceClause(h.name, args, body, line, col)

    def parse_bexpr(self):
        # "(" appterm "=" appterm ")", else an appterm that the parenthesis
        # opens, taken up where the lookahead stopped.
        if self.texts[self.pos] != "(":
            return self.parse_appterm()
        self.pos += 1
        left = self.parse_appterm()
        if self.texts[self.pos] != "=":
            return self.parse_appterm([None], left)
        self.pos += 1
        right = self.parse_appterm()
        self.expect(")")
        return Eq(left, right)

    def parse_appterm(self, stack=None, e=None):
        """appterm := primary {primary}; primary := IDENT | NUMERAL | VAR |
        "(" appterm ")".  `stack` holds, per open parenthesis, the
        application before it (None if none), and `e` the one being read."""
        kinds, texts, leaves = self.kinds, self.texts, self.leaves
        stack = [] if stack is None else stack
        pos = self.pos
        while True:
            kind = kinds[pos]
            if kind != "PUNCT" and kind != "EOF":
                x = leaves.get(texts[pos])
                if x is None:
                    x = leaves[texts[pos]] = (Var if kind == "VAR" else Const)(texts[pos])
            elif texts[pos] == "(":
                stack.append(e)
                e = None
                pos += 1
                continue
            elif e is None:
                raise self.error("unexpected %r" % (texts[pos] or "end of input"), pos)
            elif not stack:
                self.pos = pos
                return e
            else:
                self.pos = pos
                self.expect(")")
                x, e = e, stack.pop()
            pos += 1
            e = x if e is None else App(e, x)


def parse_program(text):
    return _Parser(text).parse_program()


# ---------------------------------------------------------------------------
# Printing

def render_expr(e):
    """The text of e, an argument that is an application in parentheses.
    It is written left to right from an explicit stack of the expressions
    and texts still to write, since a term can nest deeper than Python
    recurses."""
    out, todo = [], [e]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif isinstance(x, (Const, Pred, Var)):
            out.append(x.name)
        elif isinstance(x, Eq):
            todo += [")", x.right, " = ", x.left, "("]
        elif isinstance(x, App):
            head, args = app_spine(x)
            for a in reversed(args):
                todo += [")", a, " ("] if isinstance(a, App) else [a, " "]
            todo.append(head)
        else:
            raise TypeError("cannot render %s" % type(x).__name__)
    return "".join(out)


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
