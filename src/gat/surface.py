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

import itertools
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
    is_valid_name,
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

# One match per token: the blanks and comments before a token, then the
# token itself, the only group.  After the longest run of blanks and
# comments the token group always matches, if only a single character or
# the empty string at the end of the text, so the run is never given back.
# The empty token marks the end of the text; a single character that is not
# punctuation and cannot start a name is one no token can start with.
_TOKEN_RE = re.compile(
    r"""
    (?: [ \t\r\n]+ | --[^\n]* )*
    ( "(?:[^"\\\n]|\\.)*"
    | [^\W\d][\w-]*
    | [(){}\[\],:/=]
    | .
    | \Z
    )
    """,
    re.VERBOSE | re.UNICODE,
)
_PUNCT = frozenset("(){}[],:/=")


def _error(text: str, index: int, message: str, expected=()) -> ParseError:
    """A ParseError located at token `index`, with 1-based line and column."""
    match = next(itertools.islice(_TOKEN_RE.finditer(text), index, None))
    offset = match.start(1)
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1, expected)


def _tokenize(text: str) -> list[str]:
    """The tokens of `text` as they are written, ending with `""`."""
    tokens = _TOKEN_RE.findall(text)
    if tokens[-2:-1] == [""]:
        # blanks or comments end the text: both their match and the empty
        # match after it capture the end
        tokens.pop()
    bad = [tokens.index(t) for t in set(tokens)
           if len(t) == 1 and t not in _PUNCT and not is_valid_name(t)]
    if bad:
        i = min(bad)
        raise _error(text, i, f"unexpected character {tokens[i]!r}")
    return tokens


def _is_name(tok: str) -> bool:
    # `_tokenize` lets no stray character through, so a token that is not
    # the end, a string or punctuation is a name
    return tok != "" and tok[0] != '"' and tok not in _PUNCT


def _value(tok: str) -> str:
    """What a token stands for: a string literal unquoted and unescaped."""
    if tok[:1] == '"':
        return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return tok


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i]

    def next(self) -> str:
        tok = self.tokens[self.i]
        if tok:
            self.i += 1
        return tok

    def fail(self, message: str, expected=()):
        raise _error(self.text, self.i, message, expected)

    def found(self) -> str:
        return _value(self.peek()) or "end of file"

    def expect_punct(self, ch: str) -> str:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}, found {self.found()!r}",
                      expected=(ch,))
        return self.next()

    def expect_name(self, what="name") -> str:
        if not _is_name(self.peek()):
            self.fail(f"expected {what}, found {self.found()!r}",
                      expected=(what,))
        return self.next()

    def expect_string(self, message: str) -> str:
        if self.peek()[:1] != '"':
            self.fail(message)
        return _value(self.next())

    def parse_file(self) -> tuple[Theory, tuple[NotationDecl, ...], str | None]:
        extends = None
        if self.peek() == "EXTENDS":
            self.next()
            extends = self.expect_string("expected quoted path after EXTENDS")
        items = []
        notations = []
        while self.peek():
            if self.peek() not in KEYWORDS:
                self.fail("expected a declaration keyword, "
                          f"found {_value(self.peek())!r}",
                          expected=sorted(KEYWORDS))
            kw = self.next()
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
                notations.append(NotationDecl(
                    symbol, self.expect_string("expected quoted display pattern")))
        return Theory(tuple(items)), tuple(notations), extends

    def parse_axiom_head(self) -> tuple[str | None, str]:
        label = None
        if self.peek()[:1] == '"':
            label = _value(self.next())
        orientation = LR
        if self.peek() == "[":
            self.next()
            tag = self.expect_name("orientation tag")
            if tag not in _TAGS:
                self.fail(f"unknown orientation tag {tag!r}", expected=sorted(_TAGS))
            orientation = tag
            self.expect_punct("]")
        return label, orientation

    def parse_telescope(self) -> Telescope:
        bindings = []
        if _is_name(self.peek()):
            while True:
                var = self.expect_name("variable")
                self.expect_punct(":")
                bindings.append((var, self.parse_sort()))
                if self.peek() != ",":
                    break
                self.next()
        return Telescope(tuple(bindings))

    def parse_sort(self) -> Sort:
        name = self.expect_name("sort symbol")
        self.expect_punct("{")
        return self.parse_cut(name)

    def parse_term(self) -> Term:
        name = self.expect_name("term")
        if self.peek() != "{":
            return Var(name)
        self.next()
        return self.parse_cut(name)

    def parse_cut(self, head: str) -> Cut:
        """The rest of `head{subst}` once its `{` is read.  The cuts still
        open wait on a stack, each with the entries read so far, so a term
        nested any depth parses without recursion."""
        stack = [(head, [])]
        opened = True  # the innermost open cut has no entry yet
        while True:
            if opened and self.peek() == "}":
                self.next()
                term = Cut(stack.pop()[0], Subst())
            else:
                name = self.expect_name("term")
                opened = self.peek() == "{"
                if opened:
                    self.next()
                    stack.append((name, []))
                    continue
                term = Var(name)
            # `term` is the value of the innermost open cut's next entry;
            # close each cut that completes
            while stack:
                self.expect_punct("/")
                head, entries = stack[-1]
                entries.append((self.expect_name("target variable"), term))
                if self.peek() == ",":
                    self.next()
                    opened = False
                    break
                self.expect_punct("}")
                stack.pop()
                term = Cut(head, Subst(tuple(entries)))
            else:
                return term


def parse_source(text: str, path: str | None = None) -> SourceFile:
    parser = _Parser(text)
    theory, notations, extends = parser.parse_file()
    return SourceFile(path, text, theory, notations, extends)


def parse_theory(text: str) -> Theory:
    return parse_source(text).theory


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    term = parser.parse_term()
    if parser.peek():
        parser.fail("trailing input after term")
    return term


def parse_sort(text: str) -> Sort:
    parser = _Parser(text)
    sort = parser.parse_sort()
    if parser.peek():
        parser.fail("trailing input after sort")
    return sort


def parse_telescope(text: str) -> Telescope:
    parser = _Parser(text)
    tele = parser.parse_telescope()
    if parser.peek():
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
