"""Bundled theories: inventories, axiom well-formedness, extension layout."""

import pytest

from gat.checker import CheckedTheory, check_term, check_theory, theory_extends
from gat.equality import EqEngineConfig, Equal, eq_term
from gat.library import (
    LibraryError,
    entry,
    library_names,
    library_path,
    load,
)
from gat.surface import parse_source, parse_sort, parse_telescope, parse_term
from gat.syntax import Telescope, Theory


def test_names_are_fixed():
    assert library_names() == ("monoid", "cat", "cwf", "mltt")


@pytest.mark.parametrize("name", library_names())
def test_source_file_exists(name):
    assert library_path(name).is_file()


def test_unknown_name_raises():
    with pytest.raises(LibraryError):
        load("nope")


def test_load_is_memoized():
    assert load("monoid") is load("monoid")


@pytest.mark.parametrize("name", library_names())
def test_counts_match_inventory(name):
    th = load(name)
    assert isinstance(th, CheckedTheory)
    counts = th.counts()
    got = (counts["sort_decls"], counts["op_decls"],
           counts["sort_axioms"], counts["term_axioms"])
    assert got == entry(name).expected_counts


def test_mltt_has_the_expected_axiom_labels():
    labels = set(load("mltt").axiom_labels)
    assert {"level irrelevance", "element lifting", "universe elements",
            "lift substitution", "lift composition", "pi lifting",
            "pi computation", "pi unicity", "obs lifting",
            "substitution 1", "substitution 2"} <= labels


def test_level_irrelevance_registers_an_irrelevant_sort():
    assert "lt" in load("mltt").irrelevant_heads


@pytest.mark.parametrize("name", library_names())
def test_axiom_sides_check_at_their_stated_sort(name):
    th = load(name)
    for _, ax in th.term_axioms:
        assert check_term(th, ax.params, ax.lhs, ax.sort) is None
        assert check_term(th, ax.params, ax.rhs, ax.sort) is None


def test_cwf_equals_cat_plus_its_tail():
    src = parse_source(entry("cwf").source, path="cwf")
    assert src.extends == "cat"
    ext = theory_extends(load("cat"), src.theory)
    assert isinstance(ext, CheckedTheory)
    assert ext.theory.items == load("cwf").theory.items


def test_mltt_checks_as_one_flat_theory():
    src = parse_source(entry("mltt").source, path="mltt")
    assert src.extends == "cat"
    flat = Theory(load("cat").theory.items + src.theory.items)
    th = check_theory(flat)
    assert isinstance(th, CheckedTheory)
    assert th.theory.items == load("mltt").theory.items


def test_level_numerals_check_at_lvl():
    th = load("mltt")
    for n in range(4):
        numeral = parse_term("ls{" * n + "lz{}" + "/u}" * n)
        assert check_term(th, Telescope(), numeral,
                          parse_sort("lvl{}")) is None


# -- the lifting equations, proven rather than assumed ---------------------

LIFT_CASES = [
    ("pi types",
     "a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}, A: ty{a/l, g/g}, "
     "B: ty{a/l, ext{a/l, g/g, A/A}/g}",
     "lift{a/a, b/b, p/p, g/g, pi{a/l, g/g, A/A, B/B}/A}",
     "pi{b/l, g/g, lift{a/a, b/b, p/p, g/g, A/A}/A, "
     "lift{a/a, b/b, p/p, ext{a/l, g/g, A/A}/g, B/A}/B}",
     "ty{b/l, g/g}"),
    ("base type",
     "a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}",
     "lift{a/a, b/b, p/p, g/g, obs{a/l, g/g}/A}",
     "obs{b/l, g/g}",
     "ty{b/l, g/g}"),
    ("universes",
     "a: lvl{}, b: lvl{}, c: lvl{}, p: lt{a/u, b/v}, q: lt{b/u, c/v}, g: ob{}",
     "lift{b/a, c/b, q/p, g/g, univ{a/a, b/b, p/p, g/g}/A}",
     "univ{a/a, c/b, ltcmp{a/u, b/v, c/w, p/p, q/q}/p, g/g}",
     "ty{c/l, g/g}"),
]


@pytest.mark.parametrize("tele,lhs,rhs,sort",
                         [c[1:] for c in LIFT_CASES],
                         ids=[c[0].replace(" ", "-") for c in LIFT_CASES])
def test_lifting_commutes_with_type_formers(tele, lhs, rhs, sort):
    th = load("mltt")
    verdict = eq_term(th, parse_telescope(tele), parse_term(lhs),
                      parse_term(rhs), parse_sort(sort),
                      EqEngineConfig(fuel=1000))
    assert isinstance(verdict, Equal)
