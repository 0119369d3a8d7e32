"""Judgment checker: positive examples, the error corpus, monotonicity."""

import pytest

from negative_corpus import CASES
from gat.checker import (
    CheckedTheory,
    CheckError,
    ErrorKind,
    check_sort,
    check_subst,
    check_telescope,
    check_term,
    check_theory,
    infer_term,
    theory_extends,
)
from gat.equality import EqEngineConfig
from gat.library import load
from gat.surface import parse_sort, parse_telescope, parse_term, parse_theory
from gat.syntax import Telescope, Theory


@pytest.fixture(scope="module")
def monoid():
    return load("monoid")


@pytest.fixture(scope="module")
def cat():
    return load("cat")


@pytest.fixture(scope="module")
def mltt():
    return load("mltt")


def test_empty_theory_checks():
    th = check_theory(Theory())
    assert isinstance(th, CheckedTheory)
    assert th.theory.items == ()


def test_monoid_checks_with_expected_counts(monoid):
    assert monoid.counts() == {
        "sort_decls": 1, "op_decls": 2, "sort_axioms": 0, "term_axioms": 3}


@pytest.mark.parametrize(
    "source,kind,item",
    [(c[1], c[2], c[3]) for c in CASES],
    ids=[c[0].replace(" ", "-") for c in CASES])
def test_ill_formed_theory_is_rejected(source, kind, item):
    err = check_theory(parse_theory(source))
    assert isinstance(err, CheckError)
    assert err.kind == kind
    assert err.item == item


# -- telescopes ------------------------------------------------------------


def test_telescope_with_dependent_sort_checks(cat):
    tele = parse_telescope("x: ob{}, f: hom{x/d, x/c}")
    assert check_telescope(cat, tele) is None


def test_telescope_duplicate_name_is_located(cat):
    tele = parse_telescope("x: ob{}, x: ob{}")
    err = check_telescope(cat, tele)
    assert err.kind == ErrorKind.DUPLICATE_VARIABLE
    assert err.path == (1,)


def test_telescope_binding_may_not_use_later_variable(cat):
    tele = parse_telescope("f: hom{x/d, x/c}, x: ob{}")
    err = check_telescope(cat, tele)
    assert err.kind == ErrorKind.UNKNOWN_VARIABLE
    assert err.path[0] == 0


# -- sorts -----------------------------------------------------------------


def test_check_sort_accepts_instantiated_hom(cat):
    tele = parse_telescope("x: ob{}, y: ob{}")
    assert check_sort(cat, tele, parse_sort("hom{x/d, y/c}")) is None


def test_check_sort_rejects_operation_symbol(monoid):
    err = check_sort(monoid, Telescope(), parse_sort("id{}"))
    assert err.kind == ErrorKind.NOT_A_SORT_SYMBOL


def test_check_sort_rejects_wrong_arity(cat):
    err = check_sort(cat, Telescope(), parse_sort("hom{}"))
    assert err.kind == ErrorKind.ARITY_MISMATCH
    assert err.expected == 2 and err.found == 0


# -- term inference --------------------------------------------------------


def test_infer_variable_sort(monoid):
    tele = parse_telescope("x: ob{}")
    assert infer_term(monoid, tele, parse_term("x")) == parse_sort("ob{}")


def test_infer_nullary_op(monoid):
    assert infer_term(monoid, Telescope(), parse_term("id{}")) \
        == parse_sort("ob{}")


def test_infer_instantiates_result_sort(cat):
    tele = parse_telescope("x: ob{}")
    got = infer_term(cat, tele, parse_term("homid{x/g}"))
    assert got == parse_sort("hom{x/d, x/c}")


def test_infer_unknown_variable(monoid):
    err = infer_term(monoid, Telescope(), parse_term("x"))
    assert err.kind == ErrorKind.UNKNOWN_VARIABLE


def test_infer_sort_symbol_used_as_term(monoid):
    err = infer_term(monoid, Telescope(), parse_term("ob{}"))
    assert err.kind == ErrorKind.NOT_AN_OP_SYMBOL


# -- term checking ---------------------------------------------------------


def test_check_term_exact_sort(monoid):
    tele = parse_telescope("x: ob{}")
    m = parse_term("cmp{x/a, id{}/b}")
    assert check_term(monoid, tele, m, parse_sort("ob{}")) is None


def test_check_term_presupposes_well_formed_expected_sort(monoid):
    tele = parse_telescope("x: ob{}")
    err = check_term(monoid, tele, parse_term("x"), parse_sort("id{}"))
    assert err.kind == ErrorKind.PRESUPPOSITION_VIOLATION


def test_check_term_applies_conversion(mltt):
    # the inferred sort mentions tyact over an identity; conversion removes it
    tele = parse_telescope(
        "a: lvl{}, g: ob{}, A: ty{a/l, g/g}, M: el{a/l, g/g, A/A}")
    m = parse_term("elact{a/l, g/d, g/g, homid{g/g}/f, A/A, M/M}")
    assert check_term(mltt, tele, m, parse_sort("el{a/l, g/g, A/A}")) is None


def test_check_term_reports_fuel_exhaustion_separately(mltt):
    tele = parse_telescope(
        "a: lvl{}, g: ob{}, A: ty{a/l, g/g}, M: el{a/l, g/g, A/A}")
    inner = "elact{a/l, g/d, g/g, homid{g/g}/f, A/A, M/M}"
    m = parse_term(
        "elact{a/l, g/d, g/g, homid{g/g}/f, "
        "tyact{a/l, g/d, g/g, homid{g/g}/f, A/A}/A, " + inner + "/M}")
    sort = parse_sort("el{a/l, g/g, A/A}")
    for warm in (False, True):
        # a judgement accepted under the default config must not be
        # accepted from cache under a smaller one
        th = mltt.copy()
        if warm:
            assert check_term(th, tele, m, sort) is None
        err = check_term(th, tele, m, sort, EqEngineConfig(fuel=1))
        assert err is not None
        assert err.kind == ErrorKind.EQUALITY_FUEL_EXHAUSTED


# -- substitutions ---------------------------------------------------------


def test_check_subst_progressive_instantiation(cat):
    tele = parse_telescope("x: ob{}")
    target = cat.sort_decls["hom"]
    psi = parse_term("hom{x/d, x/c}").args
    assert check_subst(cat, tele, psi, target) is None


def test_check_subst_arity(cat):
    target = cat.sort_decls["hom"]
    err = check_subst(cat, Telescope(), parse_term("hom{}").args, target)
    assert err.kind == ErrorKind.ARITY_MISMATCH


def test_check_subst_target_name_mismatch(cat):
    tele = parse_telescope("x: ob{}")
    target = cat.sort_decls["hom"]
    psi = parse_term("k{x/d, x/q}").args
    err = check_subst(cat, tele, psi, target)
    assert err.kind == ErrorKind.UNKNOWN_VARIABLE
    assert err.path == (1,)


# -- monotone extension ----------------------------------------------------


def test_extension_preserves_earlier_judgments(monoid):
    ext = theory_extends(monoid, parse_theory("SORT extra()"))
    assert isinstance(ext, CheckedTheory)
    assert ext.counts()["sort_decls"] == 2
    tele = parse_telescope("x: ob{}")
    m = parse_term("cmp{x/a, id{}/b}")
    assert check_term(ext, tele, m, parse_sort("ob{}")) is None
    # the original object is untouched
    assert monoid.counts()["sort_decls"] == 1


def test_extension_rejects_redeclaration(monoid):
    err = theory_extends(monoid, parse_theory("SORT ob()"))
    assert isinstance(err, CheckError)
    assert err.kind == ErrorKind.DUPLICATE_SYMBOL
    assert err.item == len(monoid.theory.items)


def test_infer_and_check_agree_on_axiom_sides(monoid, cat):
    for th in (monoid, cat):
        for _, ax in th.term_axioms:
            for side in (ax.lhs, ax.rhs):
                inferred = infer_term(th, ax.params, side)
                assert not isinstance(inferred, CheckError)
                assert check_term(th, ax.params, side, inferred) is None
                assert check_term(th, ax.params, side, ax.sort) is None
