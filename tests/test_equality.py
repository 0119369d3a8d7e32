"""Bounded equality engine: verdicts, traces, replay."""

import dataclasses

import pytest

from conftest import replay_ok
from gat.equality import (
    SORT_AXIOM,
    EqEngineConfig,
    EqTrace,
    Equal,
    NotProven,
    ReplayError,
    eq_sort,
    eq_subst,
    eq_term,
    normalize_term,
    replay_trace,
)
from gat.library import load
from gat.surface import parse_sort, parse_telescope, parse_term
from gat.syntax import Subst, Telescope, Var, subst_apply_term


@pytest.fixture(scope="module")
def monoid():
    return load("monoid")


@pytest.fixture(scope="module")
def mltt():
    return load("mltt")


OB = parse_sort("ob{}")


def test_right_unit_is_provable(monoid):
    tele = parse_telescope("x: ob{}")
    verdict = eq_term(monoid, tele,
                      parse_term("cmp{x/a, id{}/b}"), parse_term("x"), OB)
    assert isinstance(verdict, Equal)
    assert len(verdict.trace.steps) >= 1
    assert replay_ok(monoid, verdict.trace)


def test_associativity_instance_is_provable(monoid):
    tele = parse_telescope("x: ob{}, y: ob{}, z: ob{}")
    lhs = parse_term("cmp{cmp{x/a, y/b}/a, z/b}")
    rhs = parse_term("cmp{x/a, cmp{y/a, z/b}/b}")
    assert isinstance(eq_term(monoid, tele, lhs, rhs, OB), Equal)


def test_distinct_variables_are_not_proven_equal(monoid):
    tele = parse_telescope("x: ob{}, y: ob{}")
    verdict = eq_term(monoid, tele, Var("x"), Var("y"), OB)
    assert isinstance(verdict, NotProven)
    assert not verdict.fuel_exhausted
    assert verdict.lhs_nf == Var("x") and verdict.rhs_nf == Var("y")


def test_sort_reflexivity_has_empty_trace(monoid):
    verdict = eq_sort(monoid, Telescope(), OB, OB)
    assert isinstance(verdict, Equal)
    assert verdict.trace.steps == ()


def test_universe_elements_are_types(mltt):
    tele = parse_telescope("a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}")
    u_el = parse_sort("el{b/l, g/g, univ{a/a, b/b, p/p, g/g}/A}")
    ty = parse_sort("ty{a/l, g/g}")
    assert isinstance(eq_sort(mltt, tele, u_el, ty), Equal)
    # the judgment is symmetric
    assert isinstance(eq_sort(mltt, tele, ty, u_el), Equal)


def test_element_sorts_are_lift_invariant(mltt):
    tele = parse_telescope(
        "a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}, A: ty{a/l, g/g}")
    low = parse_sort("el{a/l, g/g, A/A}")
    high = parse_sort("el{b/l, g/g, lift{a/a, b/b, p/p, g/g, A/A}/A}")
    assert isinstance(eq_sort(mltt, tele, low, high), Equal)
    assert isinstance(eq_sort(mltt, tele, high, low), Equal)


def test_element_sort_is_not_a_type(mltt):
    tele = parse_telescope("a: lvl{}, g: ob{}, A: ty{a/l, g/g}")
    verdict = eq_sort(mltt, tele, parse_sort("el{a/l, g/g, A/A}"),
                      parse_sort("ty{a/l, g/g}"))
    assert isinstance(verdict, NotProven)
    assert not verdict.fuel_exhausted


def test_lifted_pi_elements_join_through_the_bridge(mltt):
    # "pi lifting" pushes lift inside pi, so no oriented rule rewrites one
    # side into the other; one "element lifting" step relates them.
    tele = parse_telescope(
        "a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}, A: ty{a/l, g/g}, "
        "B: ty{a/l, ext{a/l, g/g, A/A}/g}")
    low = parse_sort("el{a/l, g/g, pi{a/l, g/g, A/A, B/B}/A}")
    high = parse_sort(
        "el{b/l, g/g, pi{b/l, g/g, lift{a/a, b/b, p/p, g/g, A/A}/A, "
        "lift{a/a, b/b, p/p, ext{a/l, g/g, A/A}/g, B/A}/B}/A}")
    for x, y in ((high, low), (low, high)):
        verdict = eq_sort(mltt, tele, x, y)
        assert isinstance(verdict, Equal)
        sort_steps = [s for s in verdict.trace.steps if s.kind == SORT_AXIOM]
        assert [s.axiom for s in sort_steps] == [
            mltt.axiom_labels["element lifting"]]
        assert replay_ok(mltt, verdict.trace)


def test_sort_step_must_name_the_axiom_it_uses(mltt):
    tele = parse_telescope("a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}")
    u_el = parse_sort("el{b/l, g/g, univ{a/a, b/b, p/p, g/g}/A}")
    verdict = eq_sort(mltt, tele, u_el, parse_sort("ty{a/l, g/g}"))
    assert isinstance(verdict, Equal)
    trace = verdict.trace
    assert replay_ok(mltt, trace)
    wrong = mltt.axiom_labels["element lifting"]
    steps = tuple(
        dataclasses.replace(s, axiom=wrong) if s.kind == SORT_AXIOM else s
        for s in trace.steps)
    assert wrong not in (s.axiom for s in trace.steps)
    out = replay_trace(mltt, u_el, dataclasses.replace(trace, steps=steps))
    assert isinstance(out, ReplayError)


def test_empty_substitutions_are_equal(monoid):
    verdict = eq_subst(monoid, Telescope(), Subst(), Subst(), Telescope())
    assert isinstance(verdict, Equal)
    assert verdict.trace.entry_traces == ()


def test_substitution_equality_is_entrywise(monoid):
    tele = parse_telescope("x: ob{}")
    target = monoid.op_decls["cmp"][0]
    p0 = parse_term("cmp{cmp{x/a, id{}/b}/a, x/b}").args
    p1 = parse_term("cmp{x/a, x/b}").args
    verdict = eq_subst(monoid, tele, p0, p1, target)
    assert isinstance(verdict, Equal)
    assert len(verdict.trace.entry_traces) == 2
    assert replay_ok(monoid, verdict.trace)


def test_unequal_substitutions_fail_on_the_bad_entry(monoid):
    tele = parse_telescope("x: ob{}, y: ob{}")
    target = monoid.op_decls["cmp"][0]
    p0 = parse_term("cmp{x/a, x/b}").args
    p1 = parse_term("cmp{x/a, y/b}").args
    assert isinstance(eq_subst(monoid, tele, p0, p1, target), NotProven)


def test_substitution_equality_is_a_congruence(monoid):
    tele = parse_telescope("x: ob{}")
    target = monoid.op_decls["cmp"][0]
    p0 = parse_term("cmp{cmp{x/a, id{}/b}/a, x/b}").args
    p1 = parse_term("cmp{x/a, x/b}").args
    assert isinstance(eq_subst(monoid, tele, p0, p1, target), Equal)
    body = parse_term("cmp{a/a, b/b}")
    verdict = eq_term(monoid, tele,
                      subst_apply_term(p0, body), subst_apply_term(p1, body),
                      OB)
    assert isinstance(verdict, Equal)


def test_verdicts_are_symmetric(monoid):
    tele = parse_telescope("x: ob{}")
    m = parse_term("cmp{id{}/a, x/b}")
    assert isinstance(eq_term(monoid, tele, m, Var("x"), OB), Equal)
    assert isinstance(eq_term(monoid, tele, Var("x"), m, OB), Equal)


def test_provable_equality_is_transitive(monoid):
    # both sides rewrite to x through different unit axioms
    tele = parse_telescope("x: ob{}")
    left = parse_term("cmp{x/a, id{}/b}")
    right = parse_term("cmp{id{}/a, x/b}")
    assert isinstance(eq_term(monoid, tele, left, right, OB), Equal)


def test_tiny_fuel_reports_exhaustion(monoid):
    tele = parse_telescope("x: ob{}")
    m = parse_term("cmp{cmp{x/a, id{}/b}/a, id{}/b}")
    verdict = eq_term(monoid, tele, m, Var("x"), OB, EqEngineConfig(fuel=1))
    assert isinstance(verdict, NotProven)
    assert verdict.fuel_exhausted


def test_config_rejects_nonpositive_bounds():
    with pytest.raises(ValueError):
        EqEngineConfig(fuel=0)
    with pytest.raises(ValueError):
        EqEngineConfig(max_term_size=-1)


def test_normalization_trace_reaches_the_normal_form(monoid):
    m = parse_term("cmp{cmp{id{}/a, id{}/b}/a, id{}/b}")
    nf, trace = normalize_term(monoid, m)
    assert nf == parse_term("id{}")
    assert trace.start == m and trace.end == nf
    assert len(trace.steps) == 2
    assert replay_trace(monoid, m, trace) == nf


def test_replay_of_empty_trace(monoid):
    x = Var("x")
    assert replay_trace(monoid, x, EqTrace(x, x)) == x


def test_replay_rejects_corrupted_subterm(monoid):
    m = parse_term("cmp{id{}/a, id{}/b}")
    nf, trace = normalize_term(monoid, m)
    step = trace.steps[0]
    bad = dataclasses.replace(trace, steps=(
        dataclasses.replace(step, before=parse_term("cmp{id{}/a, cmp{id{}/a, id{}/b}/b}")),)
        + trace.steps[1:])
    out = replay_trace(monoid, m, bad)
    assert isinstance(out, ReplayError)
    assert out.step == 0


def test_replay_rejects_corrupted_path(monoid):
    m = parse_term("cmp{id{}/a, id{}/b}")
    nf, trace = normalize_term(monoid, m)
    step = trace.steps[0]
    bad = dataclasses.replace(
        trace, steps=(dataclasses.replace(step, path=(0, 0, 0, 0)),))
    assert isinstance(replay_trace(monoid, m, bad), ReplayError)


def test_replay_rejects_wrong_start(monoid):
    m = parse_term("cmp{id{}/a, id{}/b}")
    nf, trace = normalize_term(monoid, m)
    out = replay_trace(monoid, parse_term("id{}"), trace)
    assert isinstance(out, ReplayError)
    assert out.step == -1
