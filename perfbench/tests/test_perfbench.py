"""Tests of the benchmark itself: its reference answers, its generated
inputs, its tracer and its recorded verdict digests.

    python3 -m pytest perfbench/tests
"""

import hashlib
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

import reference
import run
import tracer as tracing
import workloads
from gat import canonicity, checker, equality

ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def built():
    return workloads.build_theories(workloads.ALL_THEORIES)


def test_reference_agrees_with_evaluate_closed(built):
    th = built["mltt"]
    seen = Counter()
    for depth in range(1, 5):
        budget = canonicity.GenBudget(max_depth=depth, seed=3)
        for term in canonicity.generate_closed_obs_terms(th, budget):
            value = reference.closed_obs_value(term)
            assert canonicity.evaluate_closed(th, term).tag == value
            seen[value] += 1
    assert seen["red"] and seen["green"]


def test_reference_rejects_unknown_shapes(built):
    with pytest.raises(reference.ReferenceError):
        reference.closed_obs_value(workloads._cut("emp"))


def test_open_equality_terms_check(built):
    queries = workloads.WORKLOADS["open_equality"].queries(0)
    assert sum(q.equal for q in queries) * 2 == len(queries)
    for q in queries:
        th = built[q.theory]
        assert checker.check_telescope(th, q.tele) is None
        assert checker.check_sort(th, q.tele, q.sort) is None
        for side in (q.lhs, q.rhs):
            assert checker.check_term(th, q.tele, side, q.sort) is None
        normal_form = (reference.monoid_word if q.theory == "monoid"
                       else reference.cat_path)
        assert (normal_form(q.lhs) == normal_form(q.rhs)) == q.equal


def _traced(workload, seed, n):
    tracer = tracing.Tracer()
    with tracer.installed():
        ops = list(itertools.islice(workload.round(seed, tracer.op), n))
    return tracer, ops


def test_self_times_add_up_to_each_op():
    tracer, ops = _traced(workloads.WORKLOADS["open_equality"], 0, 40)
    per_op = Counter()
    root = {}
    for (_, ix, t0, t1, _, op), own in zip(tracer.spans, tracer.self_times()):
        assert own >= 0
        if op >= 0:
            per_op[op] += own
        if tracer.names[ix] == tracing.OP_SPAN:
            root[op] = t1 - t0
    assert len(root) == len(ops)
    for op_id, op in enumerate(ops):
        wall = op.latency * 1e9
        assert per_op[op_id] == root[op_id] <= wall
        # what lies outside the root span is the tracer's own entry and exit
        assert wall - root[op_id] < 0.05 * wall + 200_000


def test_tracer_catches_calls_through_every_module():
    tracer, ops = _traced(workloads.WORKLOADS["canonicity_sweep"], 0, 45)
    assert all(op.ok for op in ops)
    parent_name = {sid: tracer.names[ix] for sid, ix, *_ in tracer.spans}
    pairs = Counter((parent_name.get(parent), tracer.names[ix])
                    for _, ix, _, _, parent, _ in tracer.spans)
    # imported by name into gat.canonicity, and lazily inside the checker
    assert pairs["canonicity.evaluate_closed", "equality.normalize_term"]
    assert pairs["checker.check_term", "equality.eq_sort"]
    assert pairs[tracing.OP_SPAN, "library.build"] == 0
    assert equality.eq_term.__module__ == "gat.equality"
    assert not hasattr(equality.eq_term, "__wrapped__")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_verdict_digest_matches_the_record(name):
    digest = hashlib.sha256()
    for op in workloads.WORKLOADS[name].round(0):
        assert op.ok, op.line
        digest.update(op.line.encode() + b"\n")
    assert digest.hexdigest() == run.recorded_digest(name, 0)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_run_prints_every_metric(trace, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace == "1" else "end_to_end"]
    run.main(["--workload", "theory_check", "--seed", "0", "--seconds", "0",
              "--trace", trace])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in section} == {
        name: m["unit"] for name, m in result["metrics"].items()}
