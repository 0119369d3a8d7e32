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
    NAME_RE,
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

# A token is punctuation, a name or a string.  The three start with
# distinct characters, so their order decides nothing; the most common kind
# is tried first.  A name is what `gat.syntax.NAME_RE` says it is.
_NAME = NAME_RE.pattern
_STRING = r'"(?:[^"\\\n]|\\.)*"'
_TOKEN = r"[(){}\[\],:/=] | " + _NAME + " | " + _STRING
# One match per token: the blanks before a token, each comment there with
# the blanks after it, then the token itself, in group 1.  After the
# longest run of blanks and comments group 1 or 2 always matches, so the
# run is never given back: at the end of the text group 1 matches the empty
# string, which marks the end; at a character no token can start with, a
# stray one, group 2 takes that character and the rest of the text.  The
# string methods below lex; this regex only locates errors: `_error` finds
# a token's offset with it, and `_tokenize` the first stray character.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]* (?: --[^\n]* [ \t\r\n]* )* (?: (" + _TOKEN
    + r"| \Z ) | (.[\s\S]*) )",
    re.VERBOSE | re.UNICODE,
)
_PUNCT = frozenset("(){}[],:/=")

# A text is lexed with string methods, in under half the regex's time on
# the bundled files, since the regex pays one match per token.  One pass of
# `_LIFT_RE` takes out the strings and comments, leaving a padded NUL, a
# hole, in place of each string and nothing for a comment; padding each
# punctuation mark with spaces then lets `str.split` cut the rest into
# tokens.  A comment's dashes must not follow a name character or a dash,
# where the regex reads on in the name; the lookbehind stands after the
# dashes, so that it is tried only where two dashes are.  What is left lexes
# unless it holds a NUL that is no hole, a blank that `str.split` cuts at
# and the lexer does not (in ASCII these are `_ODD_ASCII`; `_ODD_RE` finds
# any), or a piece that is neither a name nor punctuation: a stray character
# or an unclosed string.
_ODD_ASCII = "\x0b\x0c\x1c\x1d\x1e\x1f"
_ODD_RE = re.compile(r"[^\S \t\r\n]")
_LIFT_RE = re.compile(_STRING + r"|--(?<![\w-]--)[^\n]*")
_PADDED = [(c, f" {c} ") for c in "(){}[],:/="]
_PUNCT_AND_HOLE = _PUNCT | {"\x00"}


def _located(text: str, offset: int, message: str, expected=()) -> ParseError:
    """A ParseError at `offset` in `text`, with 1-based line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1, expected)


def _error(text: str, index: int, message: str, expected=()) -> ParseError:
    """A ParseError located at token `index` of a text that lexes."""
    match = next(itertools.islice(_TOKEN_RE.finditer(text), index, None))
    return _located(text, match.start(1), message, expected)


def _tokenize(text: str) -> list[str]:
    """The tokens of `text` as they are written, ending with `""`.  A text
    that does not lex raises a ParseError at its first stray character."""
    tokens = _split(text)
    if tokens is None:
        stray = next(m for m in _TOKEN_RE.finditer(text) if m.lastindex == 2)
        raise _located(text, stray.start(2),
                       f"unexpected character {stray.group(2)[0]!r}")
    return tokens


def _split(text: str) -> list[str] | None:
    """The tokens `_tokenize` gives, or None when `text` does not lex."""
    strings = []

    def lift(m):
        s = m.group()
        if s[0] == '"':
            strings.append(s)
            return " \x00 "
        return ""

    rest = _LIFT_RE.sub(lift, text)
    if ((any(c in rest for c in _ODD_ASCII) if rest.isascii()
            else _ODD_RE.search(rest)) or rest.count("\x00") != len(strings)):
        return None
    for c, padded in _PADDED:
        rest = rest.replace(c, padded)
    tokens = rest.split()
    if not all(map(NAME_RE.fullmatch, set(tokens) - _PUNCT_AND_HOLE)):
        return None
    i = -1
    for s in strings:
        i = tokens.index("\x00", i + 1)
        tokens[i] = s
    tokens.append("")
    return tokens


# `_tokenize` lets no stray character through, so a token is a name unless
# it is the end, a string or punctuation: unless its first character, or ""
# for the end, is in this set.
_NOT_NAME = _PUNCT | {'"', ""}

# The arguments of every nullary cut, held so that they stay interned.
_NO_ARGS = Subst()


def _value(tok: str) -> str:
    """What a token stands for: a string literal unquoted and unescaped."""
    if tok[:1] == '"':
        return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return tok


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    """Each parse method takes the index in `tokens` of the first token it
    reads and returns `(node, index after it)`.  The checks are inline;
    `toks[i + 1]` is read only once `toks[i]` is known not to be the end
    `""`.  A check that fails raises through `fail`, or `fail_expected` for
    "expected X, found Y", at the token at fault."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        # the variables read so far by name; terms are interned, so this
        # gives the node `Var` would, without the call
        self.known: dict[str, Var] = {}

    def fail(self, i: int, message: str, expected=()):
        raise _error(self.text, i, message, expected)

    def fail_expected(self, i: int, what: str):
        """Token `i` is not `what`: a punctuation mark, or a name's role."""
        tok = self.tokens[i]
        found = _value(tok) if tok else "end of file"
        shown = repr(what) if what in _PUNCT else what
        self.fail(i, f"expected {shown}, found {found!r}", (what,))

    def parse_file(self, i: int) -> tuple[
            tuple[Theory, tuple[NotationDecl, ...], str | None], int]:
        toks = self.tokens
        extends = None
        if toks[i] == "EXTENDS":
            i += 1
            if toks[i][:1] != '"':
                self.fail(i, "expected quoted path after EXTENDS")
            extends = _value(toks[i])
            i += 1
        items = []
        notations = []
        while toks[i]:
            kw = toks[i]
            if kw not in KEYWORDS:
                self.fail(i, f"expected a declaration keyword, found "
                          f"{_value(kw)!r}", sorted(KEYWORDS))
            i += 1
            if kw == "EXTENDS":
                self.fail(i, "EXTENDS is only allowed as the file header")
            if kw == "NOTATION":
                symbol = toks[i]
                if symbol[:1] in _NOT_NAME:
                    self.fail_expected(i, "symbol")
                pattern = toks[i + 1]
                if pattern[:1] != '"':
                    self.fail(i + 1, "expected quoted display pattern")
                i += 2
                notations.append(NotationDecl(symbol, _value(pattern)))
                continue
            label, orientation = None, LR
            if kw == "SORT" or kw == "OP":
                name = toks[i]
                if name[:1] in _NOT_NAME:
                    self.fail_expected(
                        i, "sort symbol" if kw == "SORT" else "operation symbol")
                i += 1
            else:
                if toks[i][:1] == '"':
                    label = _value(toks[i])
                    i += 1
                if toks[i] == "[":
                    orientation = toks[i + 1]
                    if orientation[:1] in _NOT_NAME:
                        self.fail_expected(i + 1, "orientation tag")
                    if orientation not in _TAGS:
                        self.fail(i + 2, f"unknown orientation tag "
                                  f"{orientation!r}", sorted(_TAGS))
                    if toks[i + 2] != "]":
                        self.fail_expected(i + 2, "]")
                    i += 3
            if toks[i] != "(":
                self.fail_expected(i, "(")
            tele, i = self.parse_telescope(i + 1)
            if toks[i] != ")":
                self.fail_expected(i, ")")
            i += 1
            if kw == "SORT":
                items.append(SortDecl(name, tele))
            elif kw == "OP":
                if toks[i] != ":":
                    self.fail_expected(i, ":")
                result, i = self.parse_sort(i + 1)
                items.append(OpDecl(name, tele, result))
            else:
                side = self.parse_sort if kw == "SORTAX" else self.parse_term
                lhs, i = side(i)
                if toks[i] != "=":
                    self.fail_expected(i, "=")
                rhs, i = side(i + 1)
                if kw == "SORTAX":
                    items.append(SortAxiom(tele, lhs, rhs, label, orientation))
                    continue
                if toks[i] != ":":
                    self.fail_expected(i, ":")
                sort, i = self.parse_sort(i + 1)
                items.append(TermAxiom(tele, lhs, rhs, sort, label,
                                       orientation))
        return (Theory(tuple(items)), tuple(notations), extends), i

    def parse_telescope(self, i: int) -> tuple[Telescope, int]:
        toks = self.tokens
        bindings = []
        if toks[i][:1] not in _NOT_NAME:
            while True:
                var = toks[i]
                if var[:1] in _NOT_NAME:
                    self.fail_expected(i, "variable")
                if toks[i + 1] != ":":
                    self.fail_expected(i + 1, ":")
                sort, i = self.parse_sort(i + 2)
                bindings.append((var, sort))
                if toks[i] != ",":
                    break
                i += 1
        return Telescope(tuple(bindings)), i

    def parse_sort(self, i: int) -> tuple[Sort, int]:
        name = self.tokens[i]
        if name[:1] in _NOT_NAME:
            self.fail_expected(i, "sort symbol")
        if self.tokens[i + 1] != "{":
            self.fail_expected(i + 1, "{")
        return self.parse_cut(name, i + 2)

    def parse_term(self, i: int) -> tuple[Term, int]:
        name = self.tokens[i]
        if name[:1] in _NOT_NAME:
            self.fail_expected(i, "term")
        if self.tokens[i + 1] != "{":
            return Var(name), i + 1
        return self.parse_cut(name, i + 2)

    def parse_cut(self, head: str, i: int) -> tuple[Cut, int]:
        """`head{subst}` from the index `i` after its `{`.  The cuts still
        open wait on a stack, each with the entries read so far, so a term
        nested any depth parses without recursion, in one loop."""
        toks, known = self.tokens, self.known
        stack = [(head, [])]
        opened = True  # the innermost open cut has no entry yet
        while True:
            name = toks[i]
            if opened and name == "}":
                i += 1
                term = Cut(stack.pop()[0], _NO_ARGS)
            else:
                if name[:1] in _NOT_NAME:
                    self.fail_expected(i, "term")
                i += 1
                opened = toks[i] == "{"
                if opened:
                    i += 1
                    stack.append((name, []))
                    continue
                term = known.get(name)
                if term is None:
                    term = known[name] = Var(name)
            # `term` is the value of the innermost open cut's next entry;
            # close each cut that completes
            while stack:
                if toks[i] != "/":
                    self.fail_expected(i, "/")
                target = toks[i + 1]
                if target[:1] in _NOT_NAME:
                    self.fail_expected(i + 1, "target variable")
                head, entries = stack[-1]
                entries.append((target, term))
                i += 2
                if toks[i] == ",":
                    i += 1
                    opened = False
                    break
                if toks[i] != "}":
                    self.fail_expected(i, "}")
                i += 1
                stack.pop()
                term = Cut(head, Subst(tuple(entries)))
            else:
                return term, i


def parse_source(text: str, path: str | None = None) -> SourceFile:
    (theory, notations, extends), _ = _Parser(text).parse_file(0)
    return SourceFile(path, text, theory, notations, extends)


def parse_theory(text: str) -> Theory:
    return parse_source(text).theory


def _parse_whole(text: str, parse, kind: str):
    """What the `_Parser` method `parse` reads from `text`, which it must
    read to the end."""
    parser = _Parser(text)
    node, i = parse(parser, 0)
    if parser.tokens[i]:
        parser.fail(i, f"trailing input after {kind}")
    return node


def parse_term(text: str) -> Term:
    return _parse_whole(text, _Parser.parse_term, "term")


def parse_sort(text: str) -> Sort:
    return _parse_whole(text, _Parser.parse_sort, "sort")


def parse_telescope(text: str) -> Telescope:
    return _parse_whole(text, _Parser.parse_telescope, "telescope")


# ---------------------------------------------------------------------------
# Printer

def _notation_table(notations) -> dict[str, NotationDecl]:
    return {n.symbol: n for n in notations}


def print_term(m: Term, notations=()) -> str:
    table = _notation_table(notations)
    return _print_term(m, table)


def _print_term(m: Term, table: dict) -> str:
    """`m` as text.  What is left to print waits on a stack, nodes and text
    mixed, so a term nested any depth prints without recursion."""
    out = []
    todo = [m]
    while todo:
        x = todo.pop()
        if type(x) is str:
            out.append(x)
        elif isinstance(x, Var):
            out.append(x.name)
        else:
            decl = table.get(x.head)
            if decl is not None and decl.slots() == len(x.args):
                parts = decl.pattern.split("_")
                out.append(parts[0])
                for v, seg in zip(reversed(x.args.values()),
                                  reversed(parts[1:])):
                    todo += (seg, v)
                continue
            out.append(x.head + "{")
            todo.append("}")
            sep = ""
            for t, v in reversed(x.args.entries):
                todo += (sep, "/" + t, v)
                sep = ", "
    return "".join(out)


def print_sort(a: Sort, notations=()) -> str:
    return print_term(a, notations)


def print_telescope(tele: Telescope, notations=()) -> str:
    table = _notation_table(notations)
    return ", ".join(f"{n}: {_print_term(s, table)}" for n, s in tele.bindings)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_item(item) -> str:
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
