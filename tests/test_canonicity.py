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
from gat.checker import check_term, infer_term
from gat.equality import Equal, eq_term
from gat.library import load
from gat.surface import parse_sort, parse_term, print_term
from gat.syntax import Cut, Telescope, term_size


@pytest.fixture(scope="module")
def mltt():
    return load("mltt")


EL_OBS = parse_sort("el{lz{}/l, emp{}/g, obs{lz{}/l, emp{}/g}/A}")


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
    # (λx. green) red, with the body weakened along the projection
    t = parse_term(
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
    assert check_term(mltt, Telescope(), t, EL_OBS) is None
    assert evaluate_closed(mltt, t) == GREEN


def test_evaluate_rejects_non_observation_input(mltt):
    with pytest.raises(ValueError):
        evaluate_closed(mltt, parse_term("lz{}"))
    with pytest.raises(ValueError):
        evaluate_closed(mltt, parse_term("homid{emp{}/g}"))


def test_open_term_is_rejected(mltt):
    with pytest.raises(ValueError):
        evaluate_closed(mltt, parse_term("x"))


def test_sweep_slice_is_canonical_with_replayable_proofs(mltt):
    from gat.equality import normalize_term

    from conftest import replay_ok

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
        assert term_size(t) < 5000
