"""The replay kernel: recorded traces replay, mutated and forged ones do not.

Every mutation here must be rejected with a `ReplayError`.  One property
compares the kernel, with its zipper walk, its turn to the trace's end and
its instance cache, against a definitional replay that walks from the root,
tries every step to turn at and caches nothing; another compares the lazy
zipper with a walk that rebuilds each parent it pops; another compares the
kernel's sort check with the checker's.
"""

import ast
import dataclasses
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gat import checker, equality, kernel, syntax
from gat.canonicity import GenBudget, _el_obs, generate_closed_obs_terms
from gat.checker import check_term, check_theory, infer_term, theory_extends
from gat.equality import (
    IRRELEVANCE,
    IRRELEVANT_SORT,
    SORT_AXIOM,
    TERM_AXIOM,
    EqStep,
    EqTrace,
    Equal,
    ReplayError,
    eq_sort,
    eq_subst,
    eq_term,
    normalize_term,
    record_fuel,
    replay_trace,
    tally,
)
from gat.library import load
from gat.surface import parse_sort, parse_source, parse_telescope, parse_term
from gat.syntax import (
    LR,
    RL,
    Cut,
    Subst,
    Telescope,
    Var,
    replace_at,
    subst_apply_sort,
    subst_apply_term,
    subterm_at,
)

EMPTY = Telescope()
OB = parse_sort("ob{}")


@pytest.fixture(scope="module")
def monoid():
    return load("monoid")


@pytest.fixture(scope="module")
def mltt():
    return load("mltt")


def _with_step(trace: EqTrace, i: int, **changes) -> EqTrace:
    step = dataclasses.replace(trace.steps[i], **changes)
    return dataclasses.replace(
        trace, steps=trace.steps[:i] + (step,) + trace.steps[i + 1:])


def _rejected(th, trace: EqTrace) -> bool:
    return isinstance(replay_trace(th, trace.start, trace), ReplayError)


def _proof(th, tele, m, n, sort) -> EqTrace:
    verdict = eq_term(th, tele, m, n, sort)
    assert isinstance(verdict, Equal)
    assert replay_trace(th, m, verdict.trace) == n
    return verdict.trace


@pytest.fixture(scope="module")
def monoid_trace(monoid):
    # rewrites below the root in both halves of the join
    return _proof(monoid, parse_telescope("x: ob{}, y: ob{}, z: ob{}"),
                  parse_term("cmp{cmp{x/a, id{}/b}/a, "
                             "cmp{y/a, cmp{id{}/a, z/b}/b}/b}"),
                  parse_term("cmp{cmp{id{}/a, x/b}/a, cmp{y/a, z/b}/b}"), OB)


def _sweep_traces(mltt, depths, count, back=False):
    """The proofs t = nf of the first `count` seed-0 sweep terms t at each
    depth, and when `back`, then those of nf = t."""
    pairs = []
    for depth in depths:
        for t in generate_closed_obs_terms(
                mltt, GenBudget(max_depth=depth, seed=0))[:count]:
            pairs.append((t, normalize_term(mltt, t)[0],
                          infer_term(mltt, EMPTY, t)))
    if back:
        pairs += [(nf, t, sort) for t, nf, sort in pairs]
    return [_proof(mltt, EMPTY, *pair) for pair in pairs]


@pytest.fixture(scope="module")
def sweep(mltt):
    return _sweep_traces(mltt, (2, 3, 4), 8, back=True)


@pytest.fixture(scope="module")
def pre_step(sweep):
    """A sweep trace and the index of a step with a `pre` sub-trace: a
    rewrite that deferred a flex position."""
    return next((t, i) for t in sweep for i, s in enumerate(t.steps) if s.pre)


PI_TELE = parse_telescope(
    "a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}, A: ty{a/l, g/g}, "
    "B: ty{a/l, ext{a/l, g/g, A/A}/g}")
LOW = parse_sort("el{a/l, g/g, pi{a/l, g/g, A/A, B/B}/A}")
HIGH = parse_sort(
    "el{b/l, g/g, pi{b/l, g/g, lift{a/a, b/b, p/p, g/g, A/A}/A, "
    "lift{a/a, b/b, p/p, ext{a/l, g/g, A/A}/g, B/A}/B}/A}")


def _lifted(mltt, x, y):
    """The trace of `eq_sort` between LOW and HIGH, one rewrite by "pi
    lifting" and one by "element lifting", and the index of the latter."""
    verdict = eq_sort(mltt, PI_TELE, x, y)
    assert isinstance(verdict, Equal)
    trace = verdict.trace
    (i,) = [i for i, s in enumerate(trace.steps) if s.kind == SORT_AXIOM]
    return trace, i


# -- recorded traces ---------------------------------------------------------


def test_steps_record_sigma_and_sub_traces(monoid_trace, pre_step, mltt):
    assert all(isinstance(s.sigma, Subst) for s in monoid_trace.steps)
    for x, y in ((LOW, HIGH), (HIGH, LOW)):
        trace, _ = _lifted(mltt, x, y)
        assert all(isinstance(s.sigma, Subst) and s.pre == s.post == ()
                   for s in trace.steps)
    # the engine fills only `pre`; inverting a step moves it to `post`
    trace, i = pre_step
    step = trace.steps[i]
    assert step.pre and step.post == ()
    back = kernel.invert(trace.steps)[len(trace.steps) - 1 - i]
    assert back.pre == () and back.post == kernel.invert(step.pre)


def test_inverted_steps_swap_and_invert_their_sub_traces(mltt, pre_step):
    trace, i = pre_step
    sort = infer_term(mltt, EMPTY, trace.start)
    back = _proof(mltt, EMPTY, trace.end, trace.start, sort)
    step = trace.steps[i]
    (inverse,) = [s for s in back.steps if s.sigma is step.sigma
                  and s.axiom == step.axiom and s.after is step.before]
    assert inverse.direction != step.direction and inverse.pre == ()
    assert [s.before for s in inverse.post] == [s.after for s in
                                                reversed(step.pre)]


# -- mutations ---------------------------------------------------------------


def test_wrong_after_is_rejected(monoid_trace, pre_step, mltt, monoid):
    for i, s in enumerate(monoid_trace.steps):
        assert _rejected(monoid, _with_step(monoid_trace, i, after=s.before))
        assert _rejected(monoid, _with_step(monoid_trace, i,
                                            after=parse_term("id{}")))
    trace, i = pre_step
    assert _rejected(mltt, _with_step(trace, i, after=trace.steps[i].before))


def _ill_typed(trace: EqTrace, i: int) -> list:
    """`trace` with one field, of the trace, of its step i or of that
    step's first sub-step, given a value of the wrong type, and the step
    replay must name: -1 for the types it checks before it walks, the end
    for the end, and None for the sides of a step, which no step passes."""
    step, n = trace.steps[i], len(trace.steps)
    out = [(_with_step(trace, i, **{field: value}), at)
           for field, value, at in (
               ("path", None, -1), ("path", list(step.path), -1),
               ("pre", (None,), -1), ("pre", None, -1),
               ("pre", list(step.pre), -1), ("post", 5, -1),
               ("before", 5, None), ("after", None, None))]
    out += [(dataclasses.replace(trace, **{field: value}), at)
            for field, value, at in (
                ("steps", (None,), -1), ("steps", None, -1),
                ("steps", list(trace.steps), -1), ("tele", "x", -1),
                ("end", 5, n), ("start", 5, -1))]
    if step.pre:
        sub = step.pre[0]
        for field, value, at in (("path", None, -1), ("post", 5, -1),
                                 ("after", 5, None)):
            pre = (dataclasses.replace(sub, **{field: value}),) + step.pre[1:]
            out.append((_with_step(trace, i, pre=pre), at))
    return out


def test_an_ill_typed_trace_is_a_replay_error(monoid_trace, monoid, mltt,
                                              pre_step):
    cases = [(monoid, t, at) for i in range(len(monoid_trace.steps))
             for t, at in _ill_typed(monoid_trace, i)]
    cases += [(mltt, t, at) for t, at in _ill_typed(*pre_step)]
    assert len(cases) > 40
    for th, trace, at in cases:
        for t in (th, th.copy()):  # a warm and a cold instance cache
            out = replay_trace(t, trace.start, trace)
            assert isinstance(out, ReplayError), trace
            assert at is None or out.step == at, trace


def _nested(trace: EqTrace, depth: int) -> EqTrace:
    """`trace` with its first step held in its own `pre`, `depth` levels
    deep."""
    step = trace.steps[0]
    for _ in range(depth):
        step = dataclasses.replace(step, pre=(step,))
    return _with_step(trace, 0, pre=step.pre)


def test_sub_traces_nested_past_the_cap_are_a_replay_error(monoid_trace,
                                                           monoid):
    # the engine nests sub-traces one level per nested discharge, which
    # the cap allows with a level to spare; the kernel cannot import it to
    # read its cap
    assert kernel.NESTING_CAP > equality._PENDING_CAP + 1
    deepest = f"sub-traces nest deeper than {kernel.NESTING_CAP}"
    for depth, at in ((5000, -1), (kernel.NESTING_CAP + 1, -1),
                      (kernel.NESTING_CAP, 0)):
        trace = _nested(monoid_trace, depth)
        for th in (monoid, monoid.copy()):  # a warm and a cold instance cache
            out = replay_trace(th, trace.start, trace)
            assert isinstance(out, ReplayError) and out.step == at
            assert (out.reason == deepest) == (at == -1)


def _unfolded(steps) -> int:
    return sum(1 + _unfolded(s.pre) + _unfolded(s.post) for s in steps)


def test_the_engines_traces_unfold_to_few_steps_per_fuel(mltt):
    # Each axiom step costs the engine one fuel, and a query adds at most
    # one fuel-free step per deferred position, per repeated pattern
    # variable and per join; but a subterm that recurs in a term repeats
    # its steps in the trace, charged once, so no ratio holds for every
    # term.  Over the benchmark workloads at seeds 0-9 a trace unfolds to
    # at most 5.3 steps per unit of fuel spent, plus one.
    proofs = 0
    for depth in (2, 3, 4, 5):
        for t in generate_closed_obs_terms(
                mltt, GenBudget(max_depth=depth, seed=0)):
            nf, sort = normalize_term(mltt, t)[0], infer_term(mltt, EMPTY, t)
            with record_fuel() as spent:
                trace = _proof(mltt, EMPTY, t, nf, sort)
            assert _unfolded(trace.steps) <= 8 * spent[0] + 1
            proofs += 1
    assert proofs > 50


def _self_shared(step: EqStep, depth: int) -> EqStep:
    """`step` wrapped `depth` times, each wrapping holding the one below as
    both its `pre` and its `post`: 2^(depth+1) - 1 steps unfolded."""
    for _ in range(depth):
        step = dataclasses.replace(step, pre=(step,), post=(step,))
    return step


def _rejects_self_shared_at_once(monoid_trace, monoid, depth):
    # its first step fails, and the inversion of the steps from there is
    # built and walked before replay gives up
    leaf = dataclasses.replace(monoid_trace.steps[0], pre=(), post=())
    step = _self_shared(leaf, depth)
    for steps in ((step,), (step,) + monoid_trace.steps[1:]):
        trace = dataclasses.replace(monoid_trace, steps=steps)
        for th in (monoid, monoid.copy()):  # a warm and a cold cache
            start = time.perf_counter()
            out = replay_trace(th, trace.start, trace)
            assert time.perf_counter() - start < 0.01
            assert isinstance(out, ReplayError) and out.step == 0
            assert out.reason.startswith("pre step 0: ")


def test_a_self_shared_trace_is_rejected_at_once(monoid_trace, monoid):
    # walked path by path, checking this trace would take hours
    _rejects_self_shared_at_once(monoid_trace, monoid, kernel.NESTING_CAP)


def test_a_self_shared_trace_under_the_cap_is_rejected_at_once(monoid_trace,
                                                              monoid):
    # nested 20 deep, under the nesting cap: 2^21 - 1 steps unfolded
    _rejects_self_shared_at_once(monoid_trace, monoid, 20)


def test_a_shared_sub_trace_nests_as_deep_as_its_deepest_path(monoid_trace):
    # the check visits the shared tuple once, from whichever path it
    # meets first, and must still count the deepest one
    leaf = dataclasses.replace(monoid_trace.steps[0], pre=(), post=())

    def chain(step, depth):
        for _ in range(depth):
            step = dataclasses.replace(step, pre=(step,))
        return step

    shared = (chain(leaf, 16),)
    near = dataclasses.replace(leaf, pre=shared)
    deepest = f"sub-traces nest deeper than {kernel.NESTING_CAP}"
    for depth, expected in ((15, None), (16, deepest)):
        far = chain(near, depth)  # `shared` at depth + 1, 16 deep below
        assert kernel._misshapen((far, near)) == expected
        assert kernel._misshapen((near, far)) == expected


def test_a_trace_may_unfold_to_any_number_of_steps(monoid_trace):
    # only the nesting is bounded: this one unfolds to 2^33 + 1 steps
    leaf = dataclasses.replace(monoid_trace.steps[0], pre=(), post=())
    shared = _self_shared(leaf, kernel.NESTING_CAP)
    why = kernel._misshapen((shared, leaf, leaf))  # no repr of the trace
    assert why is None


# `c{h0{u{}}/x, y/y}` defers its flex position `x`, which a rewrite by
# "c of u" discharges with 16 steps from `u{}` back up to `h0{u{}}`
CHAIN = 16
SHARED_PRE = "\n".join([
    "SORT N()", "SORT P(n: N{})", "OP u() : N{}", "OP z() : N{}",
    "OP q() : P{u{}/n}", "OP f(a: N{}, b: N{}) : N{}",
    "OP c(x: N{}, y: P{x/n}) : N{}",
    *(f"OP h{i}(n: N{{}}) : N{{}}" for i in range(CHAIN)),
    *(f"TERMAX (n: N{{}}) h{i}{{n/n}} = h{i + 1}{{n/n}} : N{{}}"
      for i in range(CHAIN - 1)),
    f"TERMAX (n: N{{}}) h{CHAIN - 1}{{n/n}} = n : N{{}}",
    'TERMAX "c of u" (y: P{h0{u{}/n}/n}) c{h0{u{}/n}/x, y/y} = z{} : N{}'])


def _counting(monkeypatch, name: str) -> list:
    """The argument tuples of each call to kernel function `name`, from
    now on."""
    calls, f = [], getattr(kernel, name)

    def counted(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(kernel, name, counted)
    return calls


def test_a_trace_whose_steps_share_one_pre_replays_each_step_once(
        monkeypatch):
    # t_k = f{t_(k-1)/a, t_(k-1)/b}, with t_0 the redex: the engine
    # normalizes t_0 once and emits its step at each of the 2^16 leaves,
    # each copy holding the one `pre`.  Replayed path by path, that is
    # 2^16 * 17 steps; replay validates each top-level step where it
    # stands and walks the one `pre` once, from the one redex.
    th = check_theory(parse_source(SHARED_PRE).theory)
    t = parse_term("c{u{}/x, q{}/y}")
    for _ in range(16):
        t = Cut("f", Subst((("a", t), ("b", t))))
    nf, trace = normalize_term(th, t)
    steps = trace.steps
    assert len(steps) == 1 << 16 and len(steps[0].pre) == CHAIN
    assert all(s.pre is steps[0].pre for s in steps)
    calls, walks = (_counting(monkeypatch, f) for f in ("_step", "_walk"))
    assert replay_trace(th, t, trace) is nf
    assert len(calls) == len({id(s) for _, s, *_ in calls})
    assert len(calls) == len(steps) + CHAIN
    assert len(walks) == 2  # each compared by identity: no trace printed
    assert walks[0][2] is steps and walks[1][2] is steps[0].pre


def _three_redexes(second: str):
    """The engine's step of "c of u" from `c{u{}/x, q{}/y}`, and a trace
    that takes it, each time with its one `pre` tuple, at `a` of `a`, at
    `b` of `a` from `second`, with `second`'s `y` in sigma, and at `b`."""
    th = check_theory(parse_source(SHARED_PRE + "\nOP r() : P{u{}/n}").theory)
    s = normalize_term(th, parse_term("c{u{}/x, q{}/y}"))[1].steps[0]
    other = parse_term(second)
    sigma = Subst((("y", other.args.lookup("y")),))
    steps = (dataclasses.replace(s, path=(0, 0)),
             dataclasses.replace(s, path=(0, 1), before=other, sigma=sigma),
             dataclasses.replace(s, path=(1,)))

    def f(a, b):
        return Cut("f", Subst((("a", a), ("b", b))))

    return th, s, EqTrace(f(f(s.before, other), s.before),
                          f(f(s.after, s.after), s.after), steps, EMPTY)


def test_a_pre_held_by_steps_is_walked_once_from_each_start(monkeypatch):
    th, s, trace = _three_redexes("c{u{}/x, r{}/y}")
    walks = _counting(monkeypatch, "_walk")
    assert replay_trace(th, trace.start, trace) == trace.end
    assert len(walks) == 3 and walks[0][1] is trace.start
    assert all(w[2] is s.pre for w in walks[1:])
    assert [w[1] for w in walks[1:]] == [s.before, trace.steps[1].before]


def test_a_pre_walked_from_a_wrong_start_fails_where_it_fails():
    # the tuple walked from the other steps' start must not answer for
    # the one whose `x` is not the `u{}` its step 0 rewrites
    th, s, trace = _three_redexes("c{z{}/x, r{}/y}")
    for order, n in (((0, 1, 2), 1), ((1, 0, 2), 0), ((0, 2, 1), 2)):
        mutated = dataclasses.replace(
            trace, steps=tuple(trace.steps[i] for i in order))
        for cache in (th, th.copy()):  # a warm and a cold instance cache
            assert replay_trace(cache, trace.start, mutated) == ReplayError(
                n, "pre step 0: recorded subterm differs from the current one")


def test_a_self_shared_step_prints_its_sub_traces_by_length(monoid_trace):
    leaf = dataclasses.replace(monoid_trace.steps[0], pre=(), post=())
    shared = _self_shared(leaf, kernel.NESTING_CAP)
    start = time.perf_counter()
    text = repr(shared)
    assert time.perf_counter() - start < 0.01
    assert len(text) < 2048
    assert text.endswith("pre=<1 steps>, post=<1 steps>)")
    # every other field as the generated repr prints it
    fields = ", ".join(f"{f.name}={getattr(leaf, f.name)!r}"
                       for f in dataclasses.fields(leaf)[:-2])
    assert repr(leaf) == f"EqStep({fields}, pre=<0 steps>, post=<0 steps>)"


def test_a_step_met_again_is_located_again(monoid_trace, monoid):
    # met again, the first step is still compared with the subterm it
    # meets the second time, which it has already rewritten
    trace = dataclasses.replace(
        monoid_trace, steps=monoid_trace.steps[:1] + monoid_trace.steps)
    for th in (monoid, monoid.copy()):  # a warm and a cold instance cache
        assert replay_trace(th, trace.start, trace) == ReplayError(
            1, "recorded subterm differs from the current one")


def _tuples(steps, seen) -> dict:
    """Each distinct tuple of steps within `steps`, by identity."""
    if id(steps) not in seen:
        seen[id(steps)] = steps
        for s in steps:
            _tuples(s.pre, seen)
            _tuples(s.post, seen)
    return seen


def _invert_path_by_path(steps) -> tuple:
    """The inversion of `steps` built afresh along every path to a tuple."""
    return tuple(dataclasses.replace(
        s, direction={LR: RL, RL: LR}[s.direction], before=s.after,
        after=s.before, pre=_invert_path_by_path(s.post),
        post=_invert_path_by_path(s.pre)) for s in reversed(steps))


def test_invert_inverts_each_shared_sub_trace_once(monoid_trace):
    leaf = dataclasses.replace(monoid_trace.steps[0], pre=(), post=())
    shared = (_self_shared(leaf, 3),)
    steps = (dataclasses.replace(leaf, pre=shared, post=shared),) + shared
    plain = _invert_path_by_path(steps)
    inverted = kernel.invert(steps)
    assert inverted == plain
    assert len(_tuples(inverted, {})) == len(_tuples(steps, {}))
    assert len(_tuples(plain, {})) > len(_tuples(steps, {}))
    assert kernel.invert(inverted) == steps


def _by_identity(steps, seen) -> dict:
    """Each distinct step within `steps`, by identity."""
    for s in steps:
        if id(s) not in seen:
            seen[id(s)] = s
            _by_identity(s.pre, seen)
            _by_identity(s.post, seen)
    return seen


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_replay_steps_no_more_than_the_trace_unfolds_to(monoid_trace, monoid,
                                                        data):
    # random traces whose tuples share sub-traces, from genuine steps of
    # monoid_trace, then wrapped in steps that hold them as both `pre` and
    # `post`, at times past the nesting cap; each step `_walk` validates is
    # one call of `_step`, and replay walks each distinct tuple once from
    # each term it starts at, from either end, however many steps the trace
    # unfolds to
    pool = [()]
    for _ in range(data.draw(st.integers(1, 8))):
        pool.append(tuple(dataclasses.replace(
            data.draw(st.sampled_from(monoid_trace.steps)),
            pre=data.draw(st.sampled_from(pool)),
            post=data.draw(st.sampled_from(pool)))
            for _ in range(data.draw(st.integers(1, 2)))))
    steps = pool[-1]
    for _ in range(data.draw(st.integers(0, 30))):
        steps = (dataclasses.replace(steps[0], pre=steps, post=steps),)
    trace = dataclasses.replace(monoid_trace, steps=steps)
    distinct = len(_by_identity(trace.steps, {}))
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    step, kernel._step = kernel._step, counted
    try:
        out = replay_trace(monoid, trace.start, trace)
    finally:
        kernel._step = step
    walked = not (isinstance(out, ReplayError) and out.step == -1)
    assert calls <= 2 * distinct if walked else calls == 0


def test_a_trace_with_no_end_is_a_replay_error(monoid_trace, monoid):
    trace = dataclasses.replace(monoid_trace, end=None)
    for th in (monoid, monoid.copy()):
        assert replay_trace(th, trace.start, trace) == ReplayError(
            len(trace.steps), "end is not over the trace's telescope")


def test_wrong_axiom_index_is_rejected(monoid_trace, monoid, mltt, pre_step):
    for th, trace in ((monoid, monoid_trace), (mltt, pre_step[0])):
        items = range(len(th.theory.items) + 2)
        for i, s in enumerate(trace.steps):
            for k in items:
                if k != s.axiom:
                    assert _rejected(th, _with_step(trace, i, axiom=k))
            other = SORT_AXIOM if s.kind == TERM_AXIOM else TERM_AXIOM
            assert _rejected(th, _with_step(trace, i, kind=other))


ALL_EQUAL = 'SORT ob()\nTERMAX "all equal" (x: ob{}, y: ob{}) x = y : ob{}'


def test_a_step_names_its_axiom_by_an_exact_item_index(monoid_trace, monoid):
    # a float or complex equal to an item index, or True for item 1, is
    # no index, on a warm or a cold instance cache alike
    for th in (monoid, monoid.copy()):
        for i, s in enumerate(monoid_trace.steps):
            for k in (float(s.axiom), complex(s.axiom)):
                assert _rejected(th, _with_step(monoid_trace, i, axiom=k))
    th = check_theory(parse_source(ALL_EQUAL).theory)
    p, q = Var("p"), Var("q")
    step = EqStep(TERM_AXIOM, 1, LR, (), p, q, None,
                  Subst((("x", p), ("y", q))))
    trace = EqTrace(p, q, (step,), parse_telescope("p: ob{}, q: ob{}"))
    assert _rejected(th, _with_step(trace, 0, axiom=True))
    assert replay_trace(th, p, trace) is q
    assert _rejected(th, _with_step(trace, 0, axiom=True))


def test_flipped_direction_is_rejected(monoid_trace, monoid, pre_step, mltt):
    for th, trace in ((monoid, monoid_trace), (mltt, pre_step[0])):
        for i, s in enumerate(trace.steps):
            for d in (LR, RL, None, "sideways", [LR]):
                if d != s.direction:
                    assert _rejected(th, _with_step(trace, i, direction=d))


def test_wrong_path_is_rejected(monoid_trace, monoid):
    for i, s in enumerate(monoid_trace.steps):
        # every cmp has two arguments, so i - 2 indexes like i from the end
        for path in {s.path + (0,), s.path + (1,), s.path[:-1], (0, 0, 0, 0),
                     (-1,) + s.path, (2,), tuple(i - 2 for i in s.path)
                     } - {s.path}:
            assert _rejected(monoid, _with_step(monoid_trace, i, path=path))


def test_perturbed_sigma_is_rejected(monoid_trace, monoid, pre_step, mltt):
    for th, trace in ((monoid, monoid_trace), (mltt, pre_step[0])):
        for i, s in enumerate(trace.steps):
            entries = s.sigma.entries
            changes = [None, Subst(entries + (("stray", s.before),))]
            if entries:
                name, value = entries[0]
                changes += [Subst(entries + ((name, value),)),
                            Subst(((name, Var("elsewhere")),) + entries[1:])]
            changes += [Subst(entries[:j] + entries[j + 1:])
                        for j in range(len(entries))]
            for sigma in changes:
                assert _rejected(th, _with_step(trace, i, sigma=sigma))


def test_dropped_or_truncated_sub_traces_are_rejected(pre_step, mltt):
    trace, i = pre_step
    pre = trace.steps[i].pre
    for cut in {(), pre[:-1], pre[1:]} - {pre}:
        assert _rejected(mltt, _with_step(trace, i, pre=cut))
    # the same cuts of the `post` that inverting the trace puts there
    back = EqTrace(trace.end, trace.start, kernel.invert(trace.steps),
                   trace.tele)
    i = len(trace.steps) - 1 - i
    post = back.steps[i].post
    assert post
    for cut in {(), post[:-1], post[1:]} - {post}:
        assert _rejected(mltt, _with_step(back, i, post=cut))


def test_lone_unit_steps_between_the_two_unit_shapes_are_rejected(monoid):
    # cmp{x, id} and cmp{id, x} are equal, but by two steps, not by one
    tele = parse_telescope("x: ob{}")
    x = Var("x")
    before, after = parse_term("cmp{x/a, id{}/b}"), parse_term("cmp{id{}/a, x/b}")
    for label in ("right unit", "left unit"):
        for direction in (LR, RL):
            for value in (x, before, after):
                step = EqStep(TERM_AXIOM, monoid.axiom_labels[label],
                              direction, (), before, after, None,
                              Subst((("x", value),)))
                forged = EqTrace(before, after, (step,), tele)
                assert _rejected(monoid, forged), (label, direction, value)
    # the two-step derivation through x replays
    right = monoid.axiom_labels["right unit"]
    left = monoid.axiom_labels["left unit"]
    sigma = Subst((("x", x),))
    two = EqTrace(before, after, (
        EqStep(TERM_AXIOM, right, LR, (), before, x, None, sigma),
        EqStep(TERM_AXIOM, left, RL, (), x, after, None, sigma)), tele)
    assert replay_trace(monoid, before, two) == after


OBS = parse_term("obs{lz{}/l, emp{}/g}")


def _obs_substitution(mltt, g, f, tele=EMPTY) -> EqTrace:
    """A trace from `OBS` back to itself by "obs substitution", read right
    to left, which introduces g and f (the source side leaves both open),
    then left to right.  Replayed from either end, the step that
    introduces them checks them."""
    idx = mltt.axiom_labels["obs substitution"]
    sigma = Subst((("a", parse_term("lz{}")), ("d", parse_term("emp{}")),
                   ("g", g), ("f", f)))
    mid = subst_apply_term(sigma, dict(mltt.term_axioms)[idx].lhs)
    return EqTrace(OBS, OBS, (
        EqStep(TERM_AXIOM, idx, RL, (), OBS, mid, None, sigma),
        EqStep(TERM_AXIOM, idx, LR, (), mid, OBS, None, sigma)), tele)


def test_sigma_outside_the_source_side_is_sort_checked(mltt):
    lz, emp = parse_term("lz{}"), parse_term("emp{}")
    bang = parse_term("bang{emp{}/g}")
    th = mltt.copy()
    # no telescope, no replay, even once the instance is cached
    for tele, ok in ((None, False), (EMPTY, True), (None, False)):
        assert _rejected(th, _obs_substitution(th, emp, bang, tele)) != ok
    # f is no arrow emp -> lz, g is no object, and a substitution where
    # sigma's value for f belongs is no term at all
    for g, f in ((emp, lz), (lz, bang), (emp, Subst())):
        assert _rejected(th, _obs_substitution(th, g, f))


def test_irrelevance_steps_are_checked(mltt):
    tele = parse_telescope("u: lvl{}, v: lvl{}, p: lt{u/u, v/v}, q: lt{u/u, v/v}")
    lt = parse_sort("lt{u/u, v/v}")
    p, q = Var("p"), Var("q")
    ok = EqTrace(p, q, (EqStep(IRRELEVANT_SORT, None, None, (), p, q,
                               note=lt),), tele)
    assert replay_trace(mltt, p, ok) == q
    for note in (parse_sort("lvl{}"), parse_sort("lt{v/u, u/v}")):
        assert _rejected(mltt, _with_step(ok, 0, note=note))
    assert _rejected(mltt, dataclasses.replace(ok, tele=None))
    u, v = Var("u"), Var("v")
    assert _rejected(mltt, EqTrace(u, v, (EqStep(IRRELEVANCE, None, None, (),
                                                 u, v),), tele))
    assert _rejected(mltt, EqTrace(u, u, (EqStep("rename", None, None, (),
                                                 u, u),), tele))


DEEP = """
SORT N()
OP z() : N{}
OP s(n: N{}) : N{}
SORT P()
OP p() : P{}
OP q() : P{}
TERMAX "P irrelevant" (x: P{}, y: P{}) x = y : P{}
OP w(e: P{}) : N{}
"""


def test_deep_terms_compare_modulo_irrelevance_without_recursion():
    # 5000 nested s{} at the default recursion limit, differing only in
    # the innermost argument, which is proof-irrelevant or not
    th = check_theory(parse_source(DEEP).theory)
    x, y, z = (parse_term(t) for t in ("w{p{}/e}", "w{q{}/e}", "z{}"))
    for _ in range(5000):
        x, y, z = (Cut("s", Subst((("n", t),))) for t in (x, y, z))
    assert kernel.equal_mod_irr(th, x, y)
    assert not kernel.equal_mod_irr(th, x, z)
    traces = [EqTrace(x, end, (EqStep(IRRELEVANCE, None, None, (), x, end),),
                      EMPTY) for end in (y, z)]
    assert replay_trace(th, x, traces[0]) is y
    assert _rejected(th, traces[1])


# f's third argument has the proof-irrelevant sort pf{e{}}
SHARED = """
SORT ob()
SORT pf(x: ob{})
OP e() : ob{}
OP o() : ob{}
OP q() : pf{e{}/x}
OP r() : pf{e{}/x}
OP f(a: ob{}, b: ob{}, w: pf{e{}/x}) : ob{}
TERMAX "pf irrelevant" (x: ob{}, u: pf{x/x}, v: pf{x/x}) u = v : pf{x/x}
"""


def _shared(k: int, leaf: str, proof: str):
    """t_k = f{t_(k-1)/a, t_(k-1)/b, proof/w}, t_0 = leaf: k + 1 distinct
    nodes that unfold to 2^k leaves."""
    t, w = parse_term(leaf), parse_term(proof)
    for _ in range(k):
        t = Cut("f", Subst((("a", t), ("b", t), ("w", w))))
    return t


def test_comparison_modulo_irrelevance_takes_each_shared_pair_once():
    # two DAGs that differ in the proof-irrelevant argument at every level:
    # compared once per path, the pairs at k = 40 would number 2^40
    th = check_theory(parse_source(SHARED).theory)
    m, n = _shared(40, "e{}", "q{}"), _shared(40, "e{}", "r{}")
    start = time.perf_counter()
    verdict = eq_term(th, EMPTY, m, n, OB)
    assert isinstance(verdict, Equal)
    assert [s.kind for s in verdict.trace.steps] == [IRRELEVANCE]
    assert replay_trace(th, m, verdict.trace) is n
    assert time.perf_counter() - start < 1.0
    # a relevant difference under the shared nodes still tells them apart
    assert not kernel.equal_mod_irr(th, m, _shared(40, "o{}", "r{}"))


# -- the instance cache ------------------------------------------------------


def test_instances_checked_over_a_telescope_are_not_cached(mltt):
    # left to right, "element lifting" takes b and p from the sort it
    # reaches: the values are open, so their check holds for one telescope.
    # The trace goes there and back, so that b and p are checked whichever
    # end replay takes the step from.
    th = mltt.copy()
    there, back = _lifted(th, LOW, HIGH)[0], _lifted(th, HIGH, LOW)[0]
    trace = EqTrace(LOW, LOW, there.steps + back.steps, PI_TELE)
    bad = parse_telescope(
        "a: lvl{}, b: ob{}, p: lt{a/u, a/v}, g: ob{}, A: ty{a/l, g/g}, "
        "B: ty{a/l, ext{a/l, g/g, A/A}/g}")
    for tele, ok in ((PI_TELE, True), (bad, False), (PI_TELE, True)):
        assert _rejected(th, dataclasses.replace(trace, tele=tele)) != ok


def _replayed(th, trace, tele):
    """`replay_trace` of `trace` over `tele`, and the fuel it metered."""
    trace = dataclasses.replace(trace, tele=tele)
    with record_fuel() as meter:
        out = replay_trace(th, trace.start, trace)
    return out, meter[0]


def test_warm_and_cold_replay_agree(mltt, monoid, sweep, monoid_trace):
    cat = load("cat")
    cat_trace = _proof(
        cat, parse_telescope("a: ob{}, b: ob{}, c: ob{}, "
                             "f: hom{a/d, b/c}, g: hom{b/d, c/c}"),
        parse_term("homcmp{a/e, b/d, c/c, g/f, "
                   "homcmp{a/e, a/d, b/c, f/f, homid{a/g}/g}/g}"),
        parse_term("homcmp{a/e, b/d, c/c, homcmp{b/e, c/d, c/c, "
                   "homid{c/g}/f, g/g}/f, f/g}"), parse_sort("hom{a/d, c/c}"))
    cases = [(mltt, t) for t in sweep]
    cases += [(monoid, monoid_trace), (cat, cat_trace),
              (mltt, _lifted(mltt, LOW, HIGH)[0])]
    outs = []
    for th, trace in cases:
        for tele in (trace.tele, None):
            warm = _replayed(th, trace, tele)
            assert warm == _replayed(th, trace, tele)
            assert warm == _replayed(th.copy(), trace, tele)
            outs.append(warm)
    # replay meters no fuel, and without a telescope no trace replays
    assert all(fuel == 0 for _, fuel in outs)
    assert outs[1::2] == [(ReplayError(-1, "no telescope"), 0)] * len(cases)


HAND_BUILT = """
SORT N()
OP a() : N{}
OP b() : N{}
SORT T(n: N{})
OP c() : T{b{}/n}
TERMAX "b to a" () b{} = a{} : N{}
OP f(x: T{a{}/n}) : N{}
TERMAX "f drop" [rl] (x: T{a{}/n}) f{x/x} = a{} : N{}
"""


def test_a_sort_check_that_needs_a_conversion_is_rejected():
    # right to left, "f drop" introduces x; c{} checks at T{a{}/n} only by
    # one conversion, b{} -> a{}, which the kernel does not make.  Alone,
    # the step replays backward from its end, which binds x.  There and
    # back, the step from either end introduces x, and step 0 fails.  Warm
    # and cold alike, with no fuel
    th = check_theory(parse_source(HAND_BUILT).theory)
    a, fc, c = parse_term("a{}"), parse_term("f{c{}/x}"), parse_term("c{}")
    assert check_term(th, EMPTY, c, parse_sort("T{a{}/n}")) is None
    drop, sigma = th.axiom_labels["f drop"], Subst((("x", c),))
    step = EqStep(TERM_AXIOM, drop, RL, (), a, fc, None, sigma)
    trace = EqTrace(a, fc, (step,), EMPTY)
    assert [_replayed(t, trace, EMPTY) for t in (th, th, th.copy())] == [
        (fc, 0)] * 3
    there_and_back = EqTrace(a, a, (
        step, EqStep(TERM_AXIOM, drop, LR, (), fc, a, None, sigma)), EMPTY)
    rejected = ReplayError(
        0, "sigma's value for 'x' does not check at its sort")
    assert [_replayed(t, there_and_back, EMPTY)
            for t in (th, th, th.copy())] == [(rejected, 0)] * 3


def test_sigma_may_not_bind_a_variable_whose_sort_it_leaves_open():
    # neither side of "loose" mentions m or t; a sigma that binds t but not
    # m leaves t's sort, T{m/n}, with no instance to check its value at
    th = check_theory(parse_source(
        HAND_BUILT + 'TERMAX "loose" (m: N{}, t: T{m/n}) b{} = a{} : N{}\n'
    ).theory)
    a, b = parse_term("a{}"), parse_term("b{}")
    sigma = Subst((("t", parse_term("c{}")),))
    step = EqStep(TERM_AXIOM, th.axiom_labels["loose"], LR, (), b, a, None,
                  sigma)
    assert replay_trace(th, b, EqTrace(b, a, (step,), EMPTY)) == ReplayError(
        0, "no sort check for sigma's value for 't'")


def test_cached_instances_are_dropped_when_the_theory_is_extended(monoid):
    base = monoid.copy()
    tele = parse_telescope("x: ob{}, y: ob{}")
    m = parse_term("cmp{x/a, cmp{y/a, id{}/b}/b}")
    trace = _proof(base, tele, m, parse_term("cmp{x/a, y/b}"), OB)
    cached = dict(base.instances)
    assert cached
    ext = theory_extends(base, parse_source(
        'TERMAX "left projection" (x: ob{}, y: ob{}) '
        'cmp{x/a, y/b} = x : ob{}').theory)
    assert ext.instances == {}
    assert base.instances == cached
    # the extension validates its own instances, the new axiom's included
    assert replay_trace(ext, m, trace) == trace.end
    proj = _proof(ext, tele, parse_term("cmp{x/a, y/b}"), Var("x"), OB)
    assert ext.axiom_labels["left projection"] in {k[1] for k in ext.instances}
    # the base never learns the axiom, whatever the extension cached
    assert _rejected(base, proj)
    ext._add_item(ext.theory.items[-1])
    assert ext.instances == {}


# -- one-field mutations of recorded sweep steps -----------------------------


FIELDS = ("kind", "axiom", "direction", "path", "before", "after", "sigma",
          "pre", "post")


def _irr_equal(th, x, y) -> bool:
    if x == y:
        return True
    if not (isinstance(x, Cut) and isinstance(y, Cut) and x.head == y.head
            and x.args.targets() == y.args.targets()):
        return False
    params = (th.sort_decls[x.head] if x.head in th.sort_decls
              else th.op_decls.get(x.head, (Telescope(),))[0])
    heads = [s.head for _, s in params.bindings]
    return all(h in th.irrelevant_heads or _irr_equal(th, a, b) for h, a, b
               in zip(heads, x.args.values(), y.args.values()))


def _reference(th, term, steps, tele):
    """The term `steps` reach from `term`, each step checked from its
    definition at a path followed from the root; None if one fails.  A
    step's sub-traces are checked so, from the step's `before` and from its
    target side's instance."""
    for s in steps:
        if not all(type(i) is int and i >= 0 for i in s.path):
            return None
        try:
            if subterm_at(term, s.path) != s.before:
                return None
        except IndexError:
            return None
        if not _genuine(th, s, tele):
            return None
        term = replace_at(term, s.path, s.after)
    return term


def _checks(th, tele, m, a) -> bool:
    """Whether the checker infers the sort `a` itself for `m` over `tele`,
    with no conversion: the check the kernel makes.  `check_term` also
    derives `a` again, which the kernel does not: `a` is well formed by
    Cartmell's presupposition, and that derivation may convert."""
    conversions = tally.conversions
    return infer_term(th, tele, m) is a and tally.conversions == conversions


def _genuine(th, s, tele) -> bool:
    if s.kind == IRRELEVANCE:
        return _irr_equal(th, s.before, s.after)
    if s.kind == IRRELEVANT_SORT:
        return (isinstance(s.note, Cut) and s.note.head in th.irrelevant_heads
                and tele is not None and _checks(th, tele, s.before, s.note)
                and _checks(th, tele, s.after, s.note))
    axioms = {TERM_AXIOM: th.term_axioms, SORT_AXIOM: th.sort_axioms}
    ax = dict(axioms.get(s.kind, ())).get(s.axiom)
    if ax is None or s.direction not in (LR, RL) or not isinstance(s.sigma, Subst):
        return False
    src, dst = (ax.lhs, ax.rhs) if s.direction == LR else (ax.rhs, ax.lhs)
    names = s.sigma.targets()
    if (len(set(names)) != len(names) or not set(names) <= set(ax.params.names())
            or not src.fv | dst.fv <= set(names)):
        return False
    for v, value in s.sigma.entries:
        if v in src.fv:
            continue
        sort = ax.params.lookup(v)
        if (tele is None or not sort.fv <= set(names) or not _checks(
                th, tele, value, subst_apply_sort(s.sigma, sort))):
            return False
    return (_reference(th, s.before, s.pre, tele) == subst_apply_term(s.sigma, src)
            and _reference(th, subst_apply_term(s.sigma, dst), s.post, tele)
            == s.after)


def _inverse(s):
    """Step `s` taken from `s.after` to `s.before`."""
    return dataclasses.replace(
        s, direction={LR: RL, RL: LR}.get(s.direction, s.direction),
        before=s.after, after=s.before,
        pre=tuple(map(_inverse, reversed(s.post))),
        post=tuple(map(_inverse, reversed(s.pre))))


def _terms(th, term, steps, tele):
    """The terms `steps` pass through from `term`, up to the first that
    fails."""
    out = [term]
    for s in steps:
        term = _reference(th, term, (s,), tele)
        if term is None:
            break
        out.append(term)
    return out


def _joins(th, trace) -> bool:
    """Whether some step k splits `trace` in two that reach one term: the
    steps before k from the start, and those from k on, inverted, from the
    end.  Each end is presupposed well formed, as in an equality judgment,
    so the steps from it check only the values they introduce."""
    n = len(trace.steps)
    ahead = _terms(th, trace.start, trace.steps, trace.tele)
    inverse = [_inverse(s) for s in reversed(trace.steps)]
    behind = _terms(th, trace.end, inverse, trace.tele)
    return any(n - k < len(behind) and behind[n - k] == t
               for k, t in enumerate(ahead))


@pytest.fixture(scope="module")
def field_values(sweep):
    """Every value each field takes in the sweep's steps, nested ones too."""
    values = {f: [] for f in FIELDS}

    def collect(steps):
        for s in steps:
            for f in FIELDS:
                if getattr(s, f) not in values[f]:
                    values[f].append(getattr(s, f))
            collect(s.pre + s.post)

    for trace in sweep:
        collect(trace.steps)
    values["path"] += [(0, 0, 0, 0, 0, 0), (9,)]
    return values


def test_the_reference_accepts_every_recorded_sweep_trace(mltt, sweep):
    assert sum(bool(s.pre) for t in sweep for s in t.steps) > 0
    for trace in sweep:
        assert _joins(mltt, trace)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_field_mutation_is_rejected_unless_still_genuine(
        mltt, sweep, field_values, data):
    trace = data.draw(st.sampled_from(sweep))
    i = data.draw(st.integers(0, len(trace.steps) - 1))
    field = data.draw(st.sampled_from(FIELDS))
    value = data.draw(st.sampled_from(field_values[field]))
    mutated = _with_step(trace, i, **{field: value})
    genuine = _joins(mltt, mutated)
    # the step where replay of the trace as recorded turns to the end, if
    # one fails from the start: the error names the first step that fails
    # from the start, so a mutation past the turn is reported at the turn
    turn = len(_terms(mltt, trace.start, trace.steps, trace.tele)) - 1
    for th in (mltt, mltt.copy()):  # a warm and a cold instance cache
        out = replay_trace(th, trace.start, mutated)
        assert isinstance(out, ReplayError) != genuine
        assert genuine or out.step >= min(i, turn)


# -- replay from either end -------------------------------------------------


def _turns(th, trace) -> bool:
    """Whether a step of `trace` fails from its start, so that replay takes
    the rest backward from its end."""
    try:
        kernel._walk(th, trace.start, trace.steps, trace.tele, {})
    except kernel._Reject:
        return True
    return False


def test_every_seed0_query_replays_either_way_round(mltt, seed0):
    # a join's second half is the other side's normalization inverted; an
    # inverted rewrite can introduce a value that checks only up to
    # conversion, and replay takes such steps from the end they start at
    turned = []
    for proof in seed0[0]:
        t, nf = proof.start, proof.end
        sort = infer_term(mltt, EMPTY, t)
        obs = _el_obs(mltt, sort.args.lookup("l"))
        traces = [_proof(mltt, EMPTY, nf, t, sort)]
        for x, y in ((sort, obs), (obs, sort)):
            verdict = eq_sort(mltt, EMPTY, x, y)
            assert isinstance(verdict, Equal)
            assert replay_trace(mltt, x, verdict.trace) is y
            traces.append(verdict.trace)
        turned.append([_turns(mltt, trace) for trace in traces])
    # the queries with the redex on the right turn, those with it on the
    # left never do
    back_term, ahead_sort, back_sort = (sum(column) for column in zip(*turned))
    assert len(turned) == 202 and back_term > 0 and back_sort > 0
    assert ahead_sort == 0 and not any(_turns(mltt, p) for p in seed0[0])


def test_a_substitution_trace_turns_once(mltt, seed0):
    # entry x needs its backward half, entry y none: each entry's steps to
    # its normal form come first, so one turn serves both
    proofs = seed0[0]
    for a, b in zip(proofs[::7], proofs[1::7]):
        target = Telescope((("x", infer_term(mltt, EMPTY, a.start)),
                            ("y", infer_term(mltt, EMPTY, b.start))))
        p0 = Subst((("x", a.end), ("y", b.start)))
        p1 = Subst((("x", a.start), ("y", b.end)))
        verdict = eq_subst(mltt, EMPTY, p0, p1, target)
        assert isinstance(verdict, Equal)
        assert replay_trace(mltt, p0, verdict.trace) is p1
        firsts = [s.path[0] for s in verdict.trace.steps]
        assert firsts == sorted(firsts, reverse=True)


def test_a_trace_is_over_its_telescope(monoid):
    x, y = Var("x"), Var("y")
    tele = parse_telescope("x: ob{}")
    assert replay_trace(monoid, x, EqTrace(x, x, (), tele)) is x
    assert replay_trace(monoid, y, EqTrace(y, y, (), tele)) == ReplayError(
        -1, "start is not over the trace's telescope")
    # replay presupposes the end well formed, so it must be over the
    # telescope too
    assert replay_trace(monoid, x, EqTrace(x, y, (), tele)) == ReplayError(
        0, "end is not over the trace's telescope")


def test_inversion_is_the_symmetry_of_replay(mltt, seed0):
    # replay walks a trace backward as its inversion forward, so inverting
    # must agree with the definitional inverse and give the steps back when
    # done twice, and a trace from x to y, inverted, must replay from y to
    # x: warm and cold
    proofs, norms = seed0
    traces = proofs + norms + [_lifted(mltt, LOW, HIGH)[0],
                               _lifted(mltt, HIGH, LOW)[0]]
    for proof in proofs:
        sort = infer_term(mltt, EMPTY, proof.start)
        traces.append(_proof(mltt, EMPTY, proof.end, proof.start, sort))
        obs = _el_obs(mltt, sort.args.lookup("l"))
        traces += [eq_sort(mltt, EMPTY, x, y).trace
                   for x, y in ((sort, obs), (obs, sort))]
    a, b = proofs[:2]
    target = Telescope((("x", infer_term(mltt, EMPTY, a.start)),
                        ("y", infer_term(mltt, EMPTY, b.start))))
    traces.append(eq_subst(mltt, EMPTY, Subst((("x", a.end), ("y", b.start))),
                           Subst((("x", a.start), ("y", b.end))),
                           target).trace)
    assert len(traces) == 5 * 202 + 3
    for trace in traces:
        inverse = kernel.invert(trace.steps)
        assert inverse == tuple(map(_inverse, reversed(trace.steps)))
        assert kernel.invert(inverse) == trace.steps
    for th in (mltt, mltt.copy()):
        for trace in traces:
            inverse = EqTrace(trace.end, trace.start,
                              kernel.invert(trace.steps), trace.tele)
            assert replay_trace(th, trace.end, inverse) is trace.start


# -- the kernel's own sort check --------------------------------------------


@pytest.fixture(scope="module")
def seed0(mltt):
    """The `eq_term` proof and the normalization trace of each seed-0 sweep
    term at depths 1-6."""
    proofs = _sweep_traces(mltt, range(1, 7), None)
    return proofs, [normalize_term(mltt, p.start)[1] for p in proofs]


@pytest.fixture(scope="module")
def sort_pool(mltt, seed0):
    """The terms of the seed-0 sweep's steps and of the two lifted pi
    traces, with their sigma values and those traces' variables; and the sorts
    they infer over that telescope, with the sorts of the axiom parameters
    the sigma values instantiate."""
    terms, sorts = {}, {}

    def collect(steps):
        for s in steps:
            terms.update(dict.fromkeys((s.before, s.after)))
            if isinstance(s.sigma, Subst):
                terms.update(dict.fromkeys(s.sigma.values()))
                params = mltt.theory.items[s.axiom].params
                sorts.update(dict.fromkeys(
                    subst_apply_sort(s.sigma, params.lookup(v))
                    for v in s.sigma.targets()))
            collect(s.pre + s.post)

    for trace in seed0[0] + [_lifted(mltt, LOW, HIGH)[0],
                             _lifted(mltt, HIGH, LOW)[0]]:
        collect(trace.steps)
    terms.update(dict.fromkeys(Var(v) for v in PI_TELE.names()))
    for t in terms:
        sort = infer_term(mltt, PI_TELE, t)
        if isinstance(sort, Cut):
            sorts[sort] = None
    return list(terms), list(sorts)


def _swapped(data, m, pool):
    """`m` with one argument replaced by a term of `pool`, if it has one."""
    if not (isinstance(m, Cut) and m.args.entries):
        return m
    entries = list(m.args.entries)
    i = data.draw(st.integers(0, len(entries) - 1))
    entries[i] = (entries[i][0], data.draw(st.sampled_from(pool)))
    return Cut(m.head, Subst(tuple(entries)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_kernel_checks_a_sort_as_the_checker_does_without_conversion(
        mltt, sort_pool, data):
    terms, sorts = sort_pool
    tele = data.draw(st.sampled_from((EMPTY, PI_TELE)))
    m = data.draw(st.sampled_from(terms))
    own = infer_term(mltt, tele, m)
    a = (own if isinstance(own, Cut) and data.draw(st.booleans())
         else data.draw(st.sampled_from(sorts)))
    # the pair as it is, or one of them with one argument swapped
    swap = data.draw(st.sampled_from(("neither", "term", "sort")))
    if swap == "term":
        m = _swapped(data, m, terms)
    elif swap == "sort":
        a = _swapped(data, a, terms)
    assert (kernel._sort_of(mltt, tele, m) is a) == _checks(mltt, tele, m, a)


def test_replay_asks_neither_the_checker_nor_the_engine(mltt, seed0,
                                                        monkeypatch):
    traces = seed0[0] + seed0[1]
    th = mltt.copy()  # a cold instance cache: every instance is validated

    def refuse(*args, **kwargs):
        raise AssertionError("replay asked the checker or the engine")

    for module, name in ((checker, "check_term"), (checker, "infer_term"),
                         (checker, "eq_sort"), (equality, "eq_sort"),
                         (equality, "_Engine")):
        monkeypatch.setattr(module, name, refuse)
    for trace in traces:
        assert replay_trace(th, trace.start, trace) is trace.end
    # a checker that accepts everything changes nothing: lz{} is no arrow
    monkeypatch.setattr(checker, "check_term", lambda *args, **kwargs: None)
    bad = _obs_substitution(th, parse_term("emp{}"), parse_term("lz{}"))
    assert replay_trace(th, OBS, bad) == ReplayError(
        0, "sigma's value for 'f' does not check at its sort")


# -- the lazy zipper against the walk that plugs each parent ---------------


def _plug(parent, i: int, child):
    entries = kernel._children(parent)
    if entries[i][1] is child:
        return parent
    args = Subst(entries[:i] + ((entries[i][0], child),) + entries[i + 1:])
    return Cut(parent.head, args) if isinstance(parent, Cut) else args


def _plugging_walk(th, focus, steps, tele, walked):
    """`kernel._walk` as it was before its zipper was lazy, kept as a
    reference: its stack holds (parent, child index) pairs, and each pop
    plugs the child in and rebuilds the parent, also on a move to a
    sibling and under a step that lands on the parent."""
    stack: list = []
    for n, s in enumerate(steps):
        path = s.path
        k = 0
        while k < len(stack) and k < len(path) and stack[k][1] == path[k]:
            k += 1
        while len(stack) > k:
            focus = _plug(*stack.pop(), focus)
        try:
            for i in path[k:]:
                entries = kernel._children(focus)
                if type(i) is not int or not 0 <= i < len(entries or ()):
                    raise kernel._Reject("path leads outside the term")
                stack.append((focus, i))
                focus = entries[i][1]
            if focus is not s.before or isinstance(focus, Subst):
                raise kernel._Reject(
                    "recorded subterm differs from the current one")
            kernel._step(th, s, tele, walked)
        except kernel._Reject as r:
            while stack:
                focus = _plug(*stack.pop(), focus)
            raise kernel._Reject(n, r.args[0], focus) from None
        focus = s.after
    while stack:
        focus = _plug(*stack.pop(), focus)
    return focus


def _replayed_by_plugging(th, start, trace):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_walk", _plugging_walk)
        return replay_trace(th, start, trace)


@pytest.fixture(scope="module")
def zipper_traces(mltt, seed0):
    """The seed-0 sweep's `eq_term` traces that take a step, and a few
    `eq_subst` traces, whose walks start at a substitution."""
    proofs = seed0[0]
    traces = list(proofs)
    for a, b in zip(proofs[::29], proofs[1::29]):
        target = Telescope((("x", infer_term(mltt, EMPTY, a.start)),
                            ("y", infer_term(mltt, EMPTY, b.start))))
        traces.append(eq_subst(mltt, EMPTY,
                               Subst((("x", a.end), ("y", b.start))),
                               Subst((("x", a.start), ("y", b.end))),
                               target).trace)
    return [t for t in traces if t.steps]


def _reached(th, trace, n):
    """The term the walk of `trace` reaches after its first n steps, or
    None when one of them fails."""
    try:
        return _plugging_walk(th, trace.start, trace.steps[:n], trace.tele,
                              {})
    except kernel._Reject:
        return None


MUTATIONS = ("none", "path", "before", "drop", "swap", "subst")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_lazy_zipper_gives_the_plugging_walks_verdicts(
        mltt, zipper_traces, data):
    # the same node, or the same error index and reason, for recorded
    # traces and copies with one mutation: a path index changed (at times
    # out of range), the path cut short or made longer, a `before` swapped
    # for another node of the trace, a step dropped, two steps swapped, or
    # a `before` that is a substitution, at the step's path or the root
    trace = data.draw(st.sampled_from(zipper_traces))
    steps = list(trace.steps)
    i = data.draw(st.integers(0, len(steps) - 1))
    s = steps[i]
    nodes = [trace.start, trace.end] + [x for t in steps
                                        for x in (t.before, t.after)]
    how = data.draw(st.sampled_from(MUTATIONS))
    if how == "path":
        j = data.draw(st.integers(0, len(s.path)))
        index = data.draw(st.integers(-1, 8))
        steps[i] = dataclasses.replace(s, path=data.draw(st.sampled_from((
            s.path[:j] + (index,) + s.path[j + 1:], s.path[:j],
            s.path + (index,)))))
    elif how == "before":
        steps[i] = dataclasses.replace(s, before=data.draw(
            st.sampled_from(nodes)))
    elif how == "drop":
        del steps[i]
    elif how == "swap":
        j = data.draw(st.integers(0, len(steps) - 1))
        steps[i], steps[j] = steps[j], steps[i]
    elif how == "subst":
        reached = _reached(mltt, trace, i)
        substs = [x.args for x in nodes + [reached] if isinstance(x, Cut)]
        substs += [x for x in (trace.start, reached) if isinstance(x, Subst)]
        steps[i] = dataclasses.replace(
            s, before=data.draw(st.sampled_from(substs)),
            path=data.draw(st.sampled_from((s.path, ()))))
    mutated = dataclasses.replace(trace, steps=tuple(steps))
    out = replay_trace(mltt, trace.start, mutated)
    expected = _replayed_by_plugging(mltt, trace.start, mutated)
    assert out == expected
    assert isinstance(out, ReplayError) or out is expected
    assert how != "none" or out is trace.end


def test_replaying_the_sweep_traces_creates_no_node(mltt, seed0, monkeypatch):
    # every node the walk leaves changed is a subterm of the trace's end,
    # and a step that lands on a node is compared with it entry by entry,
    # so no node is made; the plugging walk makes 2 978 here, parents it
    # rebuilt half rewritten on each move to a sibling
    created = []
    new = syntax._new
    monkeypatch.setattr(syntax, "_new",
                        lambda *args: created.append(args[0]) or new(*args))
    for th in (mltt.copy(), mltt):  # a cold and a warm instance cache
        for trace in seed0[0]:
            assert replay_trace(th, trace.start, trace) is trace.end
    assert created == []
    for trace in seed0[0]:
        assert _replayed_by_plugging(mltt, trace.start, trace) is trace.end
    assert created


def test_a_step_landing_on_a_changed_node_is_compared_with_it(mltt, seed0):
    # a step on a node whose entries the step before rewrote, forged with
    # another head, with the entry that step rewrote as it was before, and
    # as a substitution: each is rejected where it stands, as the plugging
    # walk rejects it
    trace, n = next(
        (t, n) for t in seed0[0] for n in range(1, len(t.steps))
        if len(t.steps[n].path) < len(t.steps[n - 1].path)
        and t.steps[n - 1].path[:len(t.steps[n].path)] == t.steps[n].path)
    s, last = trace.steps[n], trace.steps[n - 1]
    other = next(h for h in mltt.op_decls if h != s.before.head)
    stale = replace_at(s.before, last.path[len(s.path):], last.before)
    assert stale is not s.before
    for before in (Cut(other, s.before.args), stale, s.before.args):
        forged = _with_step(trace, n, before=before)
        expected = ReplayError(
            n, "recorded subterm differs from the current one")
        for th in (mltt, mltt.copy()):  # a warm and a cold instance cache
            assert replay_trace(th, trace.start, forged) == expected
            assert _replayed_by_plugging(th, trace.start, forged) == expected


# -- the trust boundary ------------------------------------------------------


def test_kernel_imports_only_gat_syntax_and_the_standard_library():
    # and every module of the runtime imports from nothing but `gat` and
    # the standard library
    modules = sorted(Path(kernel.__file__).parent.glob("*.py"))
    assert Path(kernel.__file__) in modules and len(modules) > 5
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                if not (name.startswith(".") or name.split(".")[0] == "gat"):
                    assert name.split(".")[0] in sys.stdlib_module_names, (
                        module.name, name)
                elif module.name == "kernel.py":
                    assert name in (".syntax", "gat.syntax"), name
