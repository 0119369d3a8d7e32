"""Surface syntax for theory files (`.gat`): parser and canonical printer.

Grammar (ASCII keywords, `--` comments to end of line):

    file      := [EXTENDS string] item*
    item      := SORT name '(' telescope ')'
               | OP name '(' telescope ')' ':' sort
               | SORTAX [string] [tag] '(' telescope ')' sort '=' sort
               | TERMAX [string] [tag] '(' telescope ')' term '=' term ':' sort
               | NOTATION name string
    telescope := [binding (',' binding)*]
    binding   := name ':' sort
    sort      := name '{' subst '}'
    term      := name | sort
    subst     := [term '/' name (',' term '/' name)*]
    tag       := '[' ('lr' | 'rl' | 'unoriented') ']'

The optional string after SORTAX/TERMAX is an axiom label; the optional tag
fixes the direction the equality engine rewrites with (default left to
right).  Cuts always carry braces, so a bare name is a variable and a name
followed by `{` is a cut; no lookahead beyond one token is needed.

Printing is canonical: `print_source(parse_source(text))` reproduces
canonical text byte for byte, and parsing the printer's output yields an
equal syntax tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    Cut,
    OpDecl,
    Sort,
    SortAxiom,
    SortDecl,
    Subst,
    Telescope,
    Term,
    TermAxiom,
    Theory,
    Var,
    LR,
    RL,
    UNORIENTED,
)

KEYWORDS = {"SORT", "OP", "SORTAX", "TERMAX", "NOTATION", "EXTENDS"}
_TAGS = {LR, RL, UNORIENTED}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)


@dataclass(frozen=True)
class NotationDecl:
    """Display sugar for one symbol: a pattern with `_` argument slots.

    Never semantic; slot count must equal the symbol's telescope length,
    enforced when a notation table is used for printing.
    """

    symbol: str
    pattern: str

    def slots(self) -> int:
        return self.pattern.count("_")


@dataclass(frozen=True)
class SourceFile:
    path: str | None
    text: str
    theory: Theory
    notations: tuple[NotationDecl, ...] = ()
    extends: str | None = None


# ---------------------------------------------------------------------------
# Tokenizer

# Blanks and comments match no named group and are dropped; `bad` catches
# any character no token can start with.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]+ | --[^\n]*
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<name>[^\W\d][\w-]*)
  | (?P<punct>[(){}\[\],:/=])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.UNICODE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "string", "punct", "eof"
    value: str
    offset: int


def _error(text: str, offset: int, message: str, expected=()) -> ParseError:
    """A ParseError located at `offset`, with 1-based line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1, expected)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _error(text, m.start(),
                         f"unexpected character {m.group()!r}")
        if kind == "string":
            tokens.append(_Token(kind, m.group()[1:-1].replace('\\"', '"')
                                 .replace("\\\\", "\\"), m.start()))
        elif kind is not None:
            tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, expected=()):
        raise _error(self.text, self.peek().offset, message, expected)

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != ch:
            self.fail(f"expected {ch!r}, found {tok.value or 'end of file'!r}",
                      expected=(ch,))
        return self.next()

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == ch

    def expect_name(self, what="name") -> str:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(f"expected {what}, found {tok.value or 'end of file'!r}",
                      expected=(what,))
        return self.next().value

    def parse_file(self) -> tuple[Theory, tuple[NotationDecl, ...], str | None]:
        extends = None
        if self.peek().kind == "name" and self.peek().value == "EXTENDS":
            self.next()
            tok = self.peek()
            if tok.kind != "string":
                self.fail("expected quoted path after EXTENDS")
            extends = self.next().value
        items = []
        notations = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name" or tok.value not in KEYWORDS:
                self.fail(f"expected a declaration keyword, found {tok.value!r}",
                          expected=sorted(KEYWORDS))
            kw = self.next().value
            if kw == "EXTENDS":
                self.fail("EXTENDS is only allowed as the file header")
            elif kw == "SORT":
                name = self.expect_name("sort symbol")
                self.expect_punct("(")
                tele = self.parse_telescope()
                self.expect_punct(")")
                items.append(SortDecl(name, tele))
            elif kw == "OP":
                name = self.expect_name("operation symbol")
                self.expect_punct("(")
                tele = self.parse_telescope()
                self.expect_punct(")")
                self.expect_punct(":")
                items.append(OpDecl(name, tele, self.parse_sort()))
            elif kw == "SORTAX":
                label, orientation = self.parse_axiom_head()
                self.expect_punct("(")
                tele = self.parse_telescope()
                self.expect_punct(")")
                lhs = self.parse_sort()
                self.expect_punct("=")
                rhs = self.parse_sort()
                items.append(SortAxiom(tele, lhs, rhs, label, orientation))
            elif kw == "TERMAX":
                label, orientation = self.parse_axiom_head()
                self.expect_punct("(")
                tele = self.parse_telescope()
                self.expect_punct(")")
                lhs = self.parse_term()
                self.expect_punct("=")
                rhs = self.parse_term()
                self.expect_punct(":")
                sort = self.parse_sort()
                items.append(TermAxiom(tele, lhs, rhs, sort, label, orientation))
            elif kw == "NOTATION":
                symbol = self.expect_name("symbol")
                tok = self.peek()
                if tok.kind != "string":
                    self.fail("expected quoted display pattern")
                notations.append(NotationDecl(symbol, self.next().value))
        return Theory(tuple(items)), tuple(notations), extends

    def parse_axiom_head(self) -> tuple[str | None, str]:
        label = None
        if self.peek().kind == "string":
            label = self.next().value
        orientation = LR
        if self.at_punct("["):
            self.next()
            tag = self.expect_name("orientation tag")
            if tag not in _TAGS:
                self.fail(f"unknown orientation tag {tag!r}", expected=sorted(_TAGS))
            orientation = tag
            self.expect_punct("]")
        return label, orientation

    def parse_telescope(self) -> Telescope:
        bindings = []
        if self.peek().kind == "name":
            while True:
                var = self.expect_name("variable")
                self.expect_punct(":")
                bindings.append((var, self.parse_sort()))
                if not self.at_punct(","):
                    break
                self.next()
        return Telescope(tuple(bindings))

    def parse_sort(self) -> Sort:
        name = self.expect_name("sort symbol")
        self.expect_punct("{")
        args = self.parse_subst()
        self.expect_punct("}")
        return Cut(name, args)

    def parse_term(self) -> Term:
        name = self.expect_name("term")
        if self.at_punct("{"):
            self.next()
            args = self.parse_subst()
            self.expect_punct("}")
            return Cut(name, args)
        return Var(name)

    def parse_subst(self) -> Subst:
        entries = []
        if not self.at_punct("}"):
            while True:
                value = self.parse_term()
                self.expect_punct("/")
                target = self.expect_name("target variable")
                entries.append((target, value))
                if not self.at_punct(","):
                    break
                self.next()
        return Subst(tuple(entries))


def parse_source(text: str, path: str | None = None) -> SourceFile:
    parser = _Parser(text)
    theory, notations, extends = parser.parse_file()
    return SourceFile(path, text, theory, notations, extends)


def parse_theory(text: str) -> Theory:
    return parse_source(text).theory


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    term = parser.parse_term()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after term")
    return term


def parse_sort(text: str) -> Sort:
    parser = _Parser(text)
    sort = parser.parse_sort()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after sort")
    return sort


def parse_telescope(text: str) -> Telescope:
    parser = _Parser(text)
    tele = parser.parse_telescope()
    if parser.peek().kind != "eof":
        parser.fail("trailing input after telescope")
    return tele


# ---------------------------------------------------------------------------
# Printer

def _notation_table(notations) -> dict[str, NotationDecl]:
    return {n.symbol: n for n in notations}


def print_term(m: Term, notations=()) -> str:
    table = _notation_table(notations)
    return _print_term(m, table)


def _print_term(m: Term, table: dict) -> str:
    if isinstance(m, Var):
        return m.name
    decl = table.get(m.head)
    if decl is not None and decl.slots() == len(m.args):
        parts = decl.pattern.split("_")
        args = [_print_term(v, table) for v in m.args.values()]
        out = parts[0]
        for arg, seg in zip(args, parts[1:]):
            out += arg + seg
        return out
    inner = ", ".join(f"{_print_term(v, table)}/{t}" for t, v in m.args.entries)
    return f"{m.head}{{{inner}}}"


def print_sort(a: Sort, notations=()) -> str:
    return print_term(a, notations)


def print_telescope(tele: Telescope, notations=()) -> str:
    table = _notation_table(notations)
    return ", ".join(f"{n}: {_print_term(s, table)}" for n, s in tele.bindings)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_item(item, notations=()) -> str:
    if isinstance(item, SortDecl):
        return f"SORT {item.name}({print_telescope(item.params)})"
    if isinstance(item, OpDecl):
        return (f"OP {item.name}({print_telescope(item.params)}) : "
                f"{print_sort(item.result)}")
    head = "SORTAX" if isinstance(item, SortAxiom) else "TERMAX"
    if item.label is not None:
        head += f" {_quote(item.label)}"
    if item.orientation != LR:
        head += f" [{item.orientation}]"
    head += f" ({print_telescope(item.params)}) "
    if isinstance(item, SortAxiom):
        return head + f"{print_sort(item.lhs)} = {print_sort(item.rhs)}"
    return head + (f"{print_term(item.lhs)} = {print_term(item.rhs)} : "
                   f"{print_sort(item.sort)}")


def print_theory(t: Theory, notations=()) -> str:
    """Canonical text: one item per line, trailing newline, no comments."""
    lines = [_print_item(item) for item in t.items]
    lines += [f"NOTATION {n.symbol} {_quote(n.pattern)}" for n in notations]
    return "".join(line + "\n" for line in lines)


def print_source(src: SourceFile) -> str:
    out = ""
    if src.extends is not None:
        out += f"EXTENDS {_quote(src.extends)}\n"
    out += print_theory(src.theory, src.notations)
    return out
