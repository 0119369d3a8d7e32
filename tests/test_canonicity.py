"""Closed-term generator and evaluator for the two-point base type."""

import hashlib

import pytest

from gat.canonicity import (
    GREEN,
    RED,
    GenBudget,
    Stuck,
    evaluate_closed,
    generate_closed_obs_terms,
)
from gat.checker import check_term, infer_term, theory_extends
from gat.equality import Equal, eq_term, record_verdicts
from gat.library import load
from gat.surface import parse_sort, parse_source, parse_term, print_term
from gat.syntax import Cut, Telescope

from conftest import replay_ok


@pytest.fixture(scope="module")
def mltt():
    return load("mltt")


EL_OBS = parse_sort("el{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A}")
# (λx. green) red, with the body weakened along the projection
CONST_BETA = parse_term(
    "app{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A, "
    "tyact{lz{}/l, ext{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A}/d, "
    "emp{}/g, proj{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A}/f, "
    "obs{lz{}/l, emp{}/g}/A}/B, "
    "lam{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A, "
    "tyact{lz{}/l, ext{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A}/d, "
    "emp{}/g, proj{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A}/f, "
    "obs{lz{}/l, emp{}/g}/A}/B, "
    "elact{lz{}/l, ext{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A}/d, "
    "emp{}/g, proj{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A}/f, "
    "obs{lz{}/l, emp{}/g}/A, green{lz{}/l, emp{}/g}/M}/M}/M, "
    "red{lz{}/l, emp{}/g}/N}")


def test_depth_one_is_the_two_constants(mltt):
    terms = generate_closed_obs_terms(mltt, GenBudget(max_depth=1, seed=0))
    assert terms == [parse_term("red{lz{}/l, emp{}/g}"),
                     parse_term("green{lz{}/l, emp{}/g}")]


def test_generation_is_deterministic(mltt):
    budget = GenBudget(max_depth=3, seed=4)
    assert (generate_closed_obs_terms(mltt, budget)
            == generate_closed_obs_terms(mltt, budget))


def test_generator_output_is_pinned(mltt):
    # SHA-256 over the printed terms, one per line, of depths 1-6 at seeds
    # 0 and 1 (404 terms); any change to what the generator builds shows
    digest = hashlib.sha256()
    for depth in range(1, 7):
        for seed in (0, 1):
            for t in generate_closed_obs_terms(
                    mltt, GenBudget(max_depth=depth, seed=seed)):
                digest.update(print_term(t).encode() + b"\n")
    assert digest.hexdigest() == (
        "28baebdb3a913dcfae936871eeeff64cb19f40e4b87378e6acd1c84bb0ab9992")


def test_seeds_vary_the_output(mltt):
    a = generate_closed_obs_terms(mltt, GenBudget(max_depth=3, seed=0))
    b = generate_closed_obs_terms(mltt, GenBudget(max_depth=3, seed=1))
    assert a != b


def test_generated_terms_are_closed_and_well_sorted(mltt):
    for t in generate_closed_obs_terms(mltt, GenBudget(max_depth=3, seed=0)):
        sort = infer_term(mltt, Telescope(), t)
        assert isinstance(sort, Cut) and sort.head == "el"


def test_depth_three_exercises_redexes_and_lifts(mltt):
    terms = generate_closed_obs_terms(mltt, GenBudget(max_depth=3, seed=0))
    assert len(terms) == 40
    heads = {t.head for t in terms}
    assert "app" in heads or any(
        "app" in str(t) for t in terms)
    assert any("lift" in str(t) for t in terms)


def test_red_constant_evaluates_to_red(mltt):
    assert evaluate_closed(mltt, parse_term("red{lz{}/l, emp{}/g}")) == RED


def test_constant_function_beta_reduces(mltt):
    assert check_term(mltt, Telescope(), CONST_BETA, EL_OBS) is None
    assert evaluate_closed(mltt, CONST_BETA) == GREEN


def test_evaluate_rejects_non_observation_input(mltt):
    with pytest.raises(ValueError):
        evaluate_closed(mltt, parse_term("lz{}"))
    with pytest.raises(ValueError):
        evaluate_closed(mltt, parse_term("homid{emp{}/g}"))


def test_evaluate_rejects_a_closed_element_of_another_type(mltt):
    # the function of CONST_BETA: an element of el, at the empty context,
    # whose type is a pi, not obs
    fn = CONST_BETA.args.lookup("M")
    sort = infer_term(mltt, Telescope(), fn)
    assert fn.head == "lam" and sort.head == "el"
    assert sort.args.lookup("g") == parse_term("emp{}")
    assert sort.args.lookup("A").head == "pi"
    with pytest.raises(ValueError, match="not a closed element of the "
                                         "observable type"):
        evaluate_closed(mltt, fn)


def test_the_observable_check_is_a_replayable_verdict(mltt):
    for depth in (1, 3):
        for t in generate_closed_obs_terms(
                mltt, GenBudget(max_depth=depth, seed=0)):
            sort = infer_term(mltt, Telescope(), t)
            level = print_term(sort.args.lookup("l"))
            el_obs = parse_sort(f"el{{{level}/l, emp{{}}/g, "
                                f"obs{{{level}/l, emp{{}}/g}}/A}}")
            with record_verdicts() as log:
                evaluate_closed(mltt, t)
            proofs = [trace for th, trace in log if th is mltt
                      and (trace.start, trace.end) == (sort, el_obs)]
            assert proofs, print_term(t)
            assert all(replay_ok(mltt, trace) for trace in proofs)


def test_evaluation_that_gives_up_is_a_value_error(mltt):
    el = "el{l/l, emp{}/g, obs{l/l, emp{}/g}/A}"
    th = theory_extends(mltt, parse_source(
        f"OP sw(l: lvl{{}}, M: {el}, N: {el}) : {el}\n"
        f'TERMAX "swap" (l: lvl{{}}, M: {el}, N: {el}) '
        f"sw{{l/l, M/M, N/N}} = sw{{l/l, N/M, M/N}} : {el}").theory)
    t = parse_term("sw{lz{}/l, red{lz{}/l, emp{}/g}/M, "
                   "green{lz{}/l, emp{}/g}/N}")
    with pytest.raises(ValueError, match="rewrite fuel exhausted"):
        evaluate_closed(th, t)


def test_open_term_is_rejected(mltt):
    with pytest.raises(ValueError):
        evaluate_closed(mltt, parse_term("x"))


def test_sweep_slice_is_canonical_with_replayable_proofs(mltt):
    from gat.equality import normalize_term

    for seed in (0, 1):
        for t in generate_closed_obs_terms(
                mltt, GenBudget(max_depth=4, seed=seed)):
            verdict = evaluate_closed(mltt, t)
            assert not isinstance(verdict, Stuck), t
            nf, _ = normalize_term(mltt, t)
            assert nf.head == verdict.tag
            sort = infer_term(mltt, Telescope(), t)
            proof = eq_term(mltt, Telescope(), t, nf, sort)
            assert isinstance(proof, Equal)
            assert replay_ok(mltt, proof.trace)


def test_generated_terms_stay_within_engine_size_bounds(mltt):
    for t in generate_closed_obs_terms(mltt, GenBudget(max_depth=6, seed=0)):
        assert t.size < 5000
