"""Parser and canonical printer: examples, errors, round trips."""

import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gat.library import entry, library_names
from gat.surface import (
    NotationDecl,
    ParseError,
    _Parser,
    _tokenize,
    _value,
    parse_sort,
    parse_source,
    parse_telescope,
    parse_term,
    parse_theory,
    print_source,
    print_term,
    print_theory,
)
from gat.syntax import Cut, SortDecl, Subst, Telescope, TermAxiom, Var


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
        parser = _Parser(text)
        parser.i = i
        with pytest.raises(ParseError) as exc:
            parser.fail("stop")
        want = _ref_error(text, ref[i].offset, "stop")
        assert (exc.value.line, exc.value.col) == (want.line, want.col)
