"""Parser and canonical printer: examples, errors, round trips."""

import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gat.library import entry, library_names
from gat.surface import (
    _PUNCT,
    _TAGS,
    _TOKEN_RE,
    KEYWORDS,
    NotationDecl,
    ParseError,
    _error,
    _tokenize,
    _value,
    parse_sort,
    parse_source,
    parse_telescope,
    parse_term,
    parse_theory,
    print_sort,
    print_source,
    print_telescope,
    print_term,
    print_theory,
)
from gat.syntax import (
    LR,
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
)


def test_sort_decl_parses():
    th = parse_theory("SORT ob()")
    assert th.items == (SortDecl("ob", Telescope(())),)


def test_monoid_axiom_parses():
    th = parse_theory(
        "TERMAX (x: ob{}) cmp{x/a, id{}/b} = x : ob{}")
    (ax,) = th.items
    assert isinstance(ax, TermAxiom)
    assert ax.params == Telescope((("x", Cut("ob", Subst())),))
    assert ax.lhs == Cut("cmp", Subst((("a", Var("x")),
                                       ("b", Cut("id", Subst())))))
    assert ax.rhs == Var("x")
    assert ax.sort == Cut("ob", Subst())
    assert ax.label is None and ax.orientation == "lr"


def test_label_and_tag_parse():
    th = parse_theory(
        'TERMAX "assoc" [rl] (x: ob{}) cmp{x/a, id{}/b} = x : ob{}')
    (ax,) = th.items
    assert ax.label == "assoc" and ax.orientation == "rl"


def test_unbalanced_brace_is_located():
    with pytest.raises(ParseError) as exc:
        parse_theory("SORT ob()\nOP id() : ob{")
    assert exc.value.line == 2
    assert exc.value.col >= 13


@pytest.mark.parametrize("text, message, line, col, expected", [
    ("-- a comment\nSORT ob)", "expected '(', found ')'", 2, 8, ("(",)),
    ("SORT ob()\n\n\n  OP $", "unexpected character '$'", 4, 6, ()),
    ("SORT ob()\nOP id() : ob{", "expected term, found 'end of file'", 2, 14,
     ("term",)),
], ids=["after-a-comment-line", "after-blank-lines", "at-end-of-file"])
def test_error_line_and_column(text, message, line, col, expected):
    with pytest.raises(ParseError) as exc:
        parse_theory(text)
    assert (exc.value.message, exc.value.line, exc.value.col,
            exc.value.expected) == (message, line, col, expected)
    assert str(exc.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("parse, text, message", [
    (parse_term, '""', "1:1: expected term, found ''"),
    (parse_source, 'SORT ""', "1:6: expected sort symbol, found ''"),
], ids=["term", "sort-symbol"])
def test_an_empty_string_literal_is_not_shown_as_end_of_file(
        parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_unknown_tag_rejected():
    with pytest.raises(ParseError):
        parse_theory('TERMAX "a" [sideways] (x: ob{}) x = x : ob{}')


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_term("x y")


def test_comments_are_skipped():
    th = parse_theory("-- a comment\nSORT ob() -- trailing\n")
    assert len(th.items) == 1


@pytest.mark.parametrize("name", library_names())
def test_print_after_parse_is_byte_identical(name):
    text = entry(name).source
    src = parse_source(text, path=name)
    assert print_source(src) == text


@pytest.mark.parametrize("name", library_names())
def test_parse_after_print_gives_equal_tree(name):
    src = parse_source(entry(name).source, path=name)
    again = parse_source(print_source(src), path=name)
    assert again.theory == src.theory
    assert again.extends == src.extends
    assert again.notations == src.notations


def test_round_trip_of_telescope_and_sort_text():
    text = "x: ob{}, f: hom{x/d, x/c}"
    tele = parse_telescope(text)
    from gat.surface import print_telescope

    assert print_telescope(tele) == text
    assert parse_telescope(print_telescope(tele)) == tele
    sort_text = "hom{x/d, x/c}"
    assert parse_sort(sort_text) == parse_sort(sort_text)


def test_notation_prints_infix_with_explicit_arguments():
    notations = (NotationDecl("cmp", "_ * _"),)
    m = parse_term("cmp{x/a, id{}/b}")
    assert print_term(m, notations) == "x * id{}"


def test_notation_declaration_round_trips():
    text = 'SORT ob()\nNOTATION cmp "_ * _"\n'
    src = parse_source(text)
    assert src.notations == (NotationDecl("cmp", "_ * _"),)
    assert print_source(src) == text


def test_empty_theory_prints_empty_file():
    assert print_theory(parse_theory("")) == ""


def test_extends_header_parses_and_prints():
    text = 'EXTENDS "cat"\nSORT ty(g: ob{})\n'
    src = parse_source(text)
    assert src.extends == "cat"
    assert print_source(src) == text


# -- deep nesting -------------------------------------------------------------


def _deep_numeral(n: int) -> tuple[str, Cut]:
    """`ls{…/u}` nested n deep around `lz{}`, as text and as the node."""
    node = Cut("lz", Subst())
    for _ in range(n):
        node = Cut("ls", Subst((("u", node),)))
    return "ls{" * n + "lz{}" + "/u}" * n, node


def test_deeply_nested_term_parses_without_recursion():
    text, node = _deep_numeral(5000)
    assert parse_term(text) is node


def test_deeply_nested_sort_parses_without_recursion():
    text, node = _deep_numeral(5000)
    assert parse_sort(f"el{{{text}/l}}") is Cut("el", Subst((("l", node),)))



@pytest.mark.parametrize("text", ["f{x/u, }", "f{g{}/u, }", "f{g{x/v}/u, }"])
def test_an_entry_is_due_after_a_comma(text):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert (exc.value.message, exc.value.col) == (
        "expected term, found '}'", len(text))

# -- the lexer against the seed's ---------------------------------------------

# The seed's lexer, kept as the reference: one match per token and per run
# of blanks or a comment, the kind named by the group that matched.
_REF_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]+ | --[^\n]*
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<name>[^\W\d][\w-]*)
  | (?P<punct>[(){}\[\],:/=])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.UNICODE,
)


class _RefToken(NamedTuple):
    kind: str  # "name", "string", "punct", "eof"
    value: str
    offset: int


def _ref_error(text: str, offset: int, message: str) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1)


def _ref_tokenize(text: str) -> list[_RefToken]:
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise _ref_error(text, m.start(),
                             f"unexpected character {m.group()!r}")
        if kind == "string":
            tokens.append(_RefToken(kind, m.group()[1:-1].replace('\\"', '"')
                                    .replace("\\\\", "\\"), m.start()))
        elif kind is not None:
            tokens.append(_RefToken(kind, m.group(), m.start()))
    tokens.append(_RefToken("eof", "", len(text)))
    return tokens


def _kind(tok: str) -> str:
    """A token's kind, read from its first character."""
    if not tok:
        return "eof"
    if tok[0] == '"':
        return "string"
    return "punct" if tok[0] in "(){}[],:/=" else "name"


_PIECES = [
    "x", "ob", "SORT", "OP", "é", "λx", "_a", "a-b", "x-", "ß2", "²", "0",
    "12", "(", ")", "{", "}", "[", "]", ",", ":", "/", "=", '"', '"ab"',
    '""', '"a\\"b"', '"\\\\"', '"é -- x"', "\\", "\\n", "--", "-- c", "-",
    "\n", " ", "\t", "\r", "@", "$", "#", "\u00a0",
    "\x0c", "'",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
       st.data())
def test_lexer_matches_the_seed_lexer(text, data):
    try:
        ref = _ref_tokenize(text)
    except ParseError as want:
        with pytest.raises(ParseError) as exc:
            _tokenize(text)
        assert ((exc.value.message, exc.value.line, exc.value.col)
                == (want.message, want.line, want.col))
        return
    tokens = _tokenize(text)
    assert ([(_kind(t), _value(t)) for t in tokens]
            == [(t.kind, t.value) for t in ref])
    # a parse failure at a token is located where the seed put it
    for i in data.draw(st.lists(st.integers(0, len(ref) - 1), max_size=3)):
        got = _error(text, i, "stop")
        want = _ref_error(text, ref[i].offset, "stop")
        assert (got.line, got.col) == (want.line, want.col)


# -- the parser against the one it replaced -----------------------------------

# The parser as it was before its loops read tokens by a local index: one
# helper call per token.  Kept as the reference the parser must agree with.


def _ref_is_name(tok: str) -> bool:
    return tok != "" and tok[0] != '"' and tok not in _PUNCT


class _RefParser:
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
        tok = self.peek()
        return _value(tok) if tok else "end of file"

    def expect_punct(self, ch: str) -> str:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}, found {self.found()!r}",
                      expected=(ch,))
        return self.next()

    def expect_name(self, what="name") -> str:
        if not _ref_is_name(self.peek()):
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
        if _ref_is_name(self.peek()):
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


def _ref_parse(kind: str, text: str):
    parser = _RefParser(text)
    if kind == "source":
        return parser.parse_file()
    out = getattr(parser, f"parse_{kind}")()
    if parser.peek():
        parser.fail(f"trailing input after {kind}")
    return out


def _parse(kind: str, text: str):
    if kind == "source":
        src = parse_source(text)
        return src.theory, src.notations, src.extends
    return {"term": parse_term, "sort": parse_sort,
            "telescope": parse_telescope}[kind](text)


def _samples() -> dict[str, list[str]]:
    """Texts by entry point: each printed bundled file, and the printed
    telescopes, sorts and terms of its items."""
    out: dict[str, set[str]] = {
        "source": set(), "telescope": set(), "sort": set(), "term": set()}
    for name in library_names():
        src = parse_source(entry(name).source)
        out["source"].add(print_source(src))
        for item in src.theory.items:
            out["telescope"].add(print_telescope(item.params))
            if isinstance(item, OpDecl):
                out["sort"].add(print_sort(item.result))
            elif isinstance(item, SortAxiom):
                out["sort"] |= {print_sort(item.lhs), print_sort(item.rhs)}
            elif isinstance(item, TermAxiom):
                out["term"] |= {print_term(item.lhs), print_term(item.rhs)}
                out["sort"].add(print_sort(item.sort))
    # no bundled file declares a notation
    out["source"].add('SORT ob()\nNOTATION cmp "_ * _"\n')
    return {kind: sorted(texts) for kind, texts in out.items()}


# each entry point as often as the others
_SAMPLES = st.one_of(*(st.tuples(st.just(kind), st.sampled_from(texts))
                       for kind, texts in _samples().items()))
_EDITS = ["delete", "duplicate", "swap", "}", "/", ",", '"s"', "end"]


def _corrupt(text: str, edit: str, k: int) -> str:
    """`text` with its token `k` (of its tokens but the end) edited."""
    spans = [m.span(1) for m in _TOKEN_RE.finditer(text)][:-1]
    if not spans:
        return text
    a, b = spans[k % len(spans)]
    tok = text[a:b]
    if edit == "delete":
        return text[:a] + text[b:]
    if edit == "duplicate":
        return text[:a] + tok + " " + text[a:]
    if edit == "swap":
        if k % len(spans) + 1 == len(spans):
            return text
        c, d = spans[k % len(spans) + 1]
        return text[:a] + text[c:d] + text[b:c] + tok + text[d:]
    if edit == "end":
        return text[:a]
    return text[:a] + edit + text[b:]


# Token soup: a short run of any tokens, read whole and cut after each
# token by every entry point, so that a text ends right after each token
# that makes the parser look one further, which corrupting a bundled file
# seldom gives.
_SOUP = st.lists(st.sampled_from(
    sorted(KEYWORDS) + sorted(_PUNCT)
    + ["x", "ob", "lr", "rl", "unoriented", '"s"', "-- c", "\n", "@"]),
    max_size=15)


@settings(max_examples=400, deadline=None)
@given(_SAMPLES,
       st.lists(st.tuples(st.sampled_from(_EDITS), st.integers(0, 10 ** 4)),
                max_size=2),
       _SOUP)
def test_parser_matches_the_reference_parser(sample, edits, soup):
    kind, text = sample
    for edit, k in edits:
        text = _corrupt(text, edit, k)
    cases = [(kind, text)] + [
        (kind, " ".join(soup[:n])) for n in range(len(soup) + 1)
        for kind in ("source", "telescope", "sort", "term")]
    for kind, text in cases:
        try:
            want = _ref_parse(kind, text)
        except ParseError as err:
            with pytest.raises(ParseError) as exc:
                _parse(kind, text)
            got = exc.value
            assert ((got.message, got.line, got.col, got.expected)
                    == (err.message, err.line, err.col, err.expected))
            continue
        assert _parse(kind, text) == want
