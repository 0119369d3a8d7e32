"""Bounded equality engine: verdicts, traces, replay."""

import dataclasses
import gc
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import replay_ok
from gat import equality
from gat.equality import (
    DEFAULT_CFG,
    SORT_AXIOM,
    EqEngineConfig,
    EqStep,
    EqTrace,
    Equal,
    NotProven,
    ReplayError,
    eq_sort,
    eq_subst,
    eq_term,
    normalize_term,
    record_fuel,
    record_verdicts,
    replay_trace,
)
from gat.equality import _emit, _Entry, _Steps, _Unemitted
from gat.canonicity import (
    GenBudget,
    evaluate_closed,
    generate_closed_obs_terms,
)
from gat.canonicity import _el_obs
from gat.checker import (
    CheckedTheory,
    CheckError,
    ErrorKind,
    check_sort,
    check_term,
    check_theory,
    infer_term,
    theory_extends,
)
from gat.checker import _extend_checked
from gat.kernel import (IRRELEVANCE, IRRELEVANT_SORT, TERM_AXIOM,
                        equal_mod_irr, invert)
from gat.library import entry, library_names, load
from gat.surface import parse_sort, parse_source, parse_telescope, parse_term
from gat.syntax import (
    LR,
    RL,
    Cut,
    OpDecl,
    SortDecl,
    Subst,
    Telescope,
    TermAxiom,
    Var,
    subst_apply_term,
)


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


# "pi lifting" and "element lifting" are both oriented toward the lower
# level: PI_HIGH's pi rewrites to a lifted pi, and the lift then drops out
# of the sort, which gives PI_LOW.
PI_TELE = parse_telescope(
    "a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}, A: ty{a/l, g/g}, "
    "B: ty{a/l, ext{a/l, g/g, A/A}/g}")
PI_LOW = parse_sort("el{a/l, g/g, pi{a/l, g/g, A/A, B/B}/A}")
PI_HIGH = parse_sort(
    "el{b/l, g/g, pi{b/l, g/g, lift{a/a, b/b, p/p, g/g, A/A}/A, "
    "lift{a/a, b/b, p/p, ext{a/l, g/g, A/A}/g, B/A}/B}/A}")


def test_lifting_normalizes_toward_the_lower_level(mltt):
    high_pi = PI_HIGH.args.lookup("A")
    element = parse_sort("el{b/l, g/g, lift{a/a, b/b, p/p, g/g, A/A}/A}")
    lifted = parse_term("lift{a/a, b/b, p/p, g/g, pi{a/l, g/g, A/A, B/B}/A}")
    for x, nf in ((high_pi, lifted),
                  (element, parse_sort("el{a/l, g/g, A/A}")),
                  (PI_HIGH, PI_LOW), (PI_LOW, PI_LOW)):
        got, trace = normalize_term(mltt, x, PI_TELE)
        assert got == nf
        assert replay_trace(mltt, x, trace) == nf


def test_lifted_pi_elements_join_by_rewriting(mltt):
    pi, element = (mltt.axiom_labels[label]
                   for label in ("pi lifting", "element lifting"))
    for x, y, axioms in ((PI_HIGH, PI_LOW, [pi, element]),
                         (PI_LOW, PI_HIGH, [element, pi])):
        verdict = eq_sort(mltt, PI_TELE, x, y)
        assert isinstance(verdict, Equal)
        steps = verdict.trace.steps
        assert [s.axiom for s in steps] == axioms
        assert all(s.pre == s.post == () for s in steps)
        assert replay_ok(mltt, verdict.trace)


# "S is U" has on each side a variable the other side lacks, so its rule
# can fire in neither orientation.
UNUSABLE = """
SORT ob()
OP c() : ob{}
OP d() : ob{}
SORT S(x: ob{})
SORT U(y: ob{})
SORTAX "S is U" %s (x: ob{}, y: ob{}) S{x/x} = U{y/y}
"""


def test_a_sort_axiom_no_orientation_can_use_is_not_used(mltt):
    s, u = parse_sort("S{c{}/x}"), parse_sort("U{d{}/y}")
    for tag in ("[lr]", "[rl]", "[unoriented]"):
        th = check_theory(parse_source(UNUSABLE % tag).theory)
        assert isinstance(th, CheckedTheory)
        for x, y in ((s, u), (u, s)):
            verdict = eq_sort(th, Telescope(), x, y)
            assert verdict == NotProven(False, "sorts do not join", x, y)
    # with its rule taken out, "element lifting" joins nothing either
    idx = mltt.axiom_labels["element lifting"]
    removed = mltt.copy()
    removed.rules["el"] = tuple(r for r in removed.rules["el"] if r[1] != idx)
    for x, y in ((PI_HIGH, PI_LOW), (PI_LOW, PI_HIGH)):
        verdict = eq_sort(removed, PI_TELE, x, y)
        assert isinstance(verdict, NotProven) and not verdict.fuel_exhausted
        assert verdict.reason == "sorts do not join"


def test_no_step_of_the_builds_or_the_sweep_names_a_placeholder():
    # every variable a step names is bound by the trace's telescope or by
    # its axiom's: the engine makes none up, not even at an irrelevant sort
    built = {}
    with record_verdicts() as log:
        for name in library_names():
            src = parse_source(entry(name).source, path=name)
            built[name] = (check_theory(src.theory) if src.extends is None
                           else theory_extends(built[src.extends], src.theory))
        mltt = built["mltt"]
        for depth in range(1, 7):
            for t in generate_closed_obs_terms(
                    mltt, GenBudget(max_depth=depth, seed=0)):
                evaluate_closed(mltt, t)
    # the free variables of every step, sub-traces and sigma values
    # included, each tuple of steps visited once
    names, seen = set(), set()
    todo = [trace.steps for _, trace in log]
    while todo:
        steps = todo.pop()
        if id(steps) in seen:
            continue
        seen.add(id(steps))
        for s in steps:
            names |= s.before.fv | s.after.fv
            if s.sigma is not None:
                names |= s.sigma.fv
            todo += (s.pre, s.post)
    assert len(log) > 1000 and names
    assert not [v for v in names if v.startswith("?")]


# Per theory: a sort over its terms, so that `eq_sort` has work to do, and
# the telescope of the queries.  Cat's paths run along o0 -f0-> o1 -f1-> o2.
NEVER_FIRES = {
    "monoid": ("SORT T(o: ob{})", "x: ob{}, y: ob{}"),
    "cat": ("SORT H(d: ob{}, c: ob{}, f: hom{d/d, c/c})",
            "o0: ob{}, o1: ob{}, o2: ob{}, f0: hom{o0/d, o1/c}, "
            "f1: hom{o1/d, o2/c}"),
}


@pytest.fixture(scope="module")
def never_fires():
    out = {}
    for name, (decl, tele) in NEVER_FIRES.items():
        base = theory_extends(load(name), parse_source(decl).theory)
        assert isinstance(base, CheckedTheory)
        out[name] = base, parse_telescope(tele)
    return out


def _word(draw, depth):
    """A monoid term in x, y and id{}."""
    if not depth or draw(st.booleans()):
        return draw(st.sampled_from((Var("x"), Var("y"), parse_term("id{}"))))
    return Cut("cmp", Subst((("a", _word(draw, depth - 1)),
                             ("b", _word(draw, depth - 1)))))


def _path(draw, i, j, depth):
    """A cat arrow from o{i} to o{j}, i <= j, bracketed and padded with
    units as drawn."""
    o = [Var(f"o{k}") for k in range(3)]
    if depth and draw(st.booleans()):
        k = draw(st.integers(i, j))
        f, g = _path(draw, k, j, depth - 1), _path(draw, i, k, depth - 1)
    elif i == j:
        return Cut("homid", Subst((("g", o[i]),)))
    elif j == i + 1:
        return Var(f"f{i}")
    else:
        k, f, g = i + 1, _path(draw, i + 1, j, 0), Var(f"f{i}")
    return Cut("homcmp", Subst((("e", o[i]), ("d", o[k]), ("c", o[j]),
                                ("f", f), ("g", g))))


def _never_firing_query(draw, name, tele):
    """An `eq_term`, `eq_sort` or `normalize_term` query on two drawn
    terms of one sort, as (query, arguments) for `_answered`."""
    if name == "monoid":
        m, n = _word(draw, 3), _word(draw, 3)
        sort, head, ends, var = OB, "T", (), "o"
    else:
        i = draw(st.integers(0, 2))
        j = draw(st.integers(i, 2))
        m, n = _path(draw, i, j, 3), _path(draw, i, j, 3)
        ends = (("d", Var(f"o{i}")), ("c", Var(f"o{j}")))
        sort, head, var = Cut("hom", Subst(ends)), "H", "f"
    a, b = (Cut(head, Subst(ends + ((var, t),))) for t in (m, n))
    return draw(st.sampled_from(((eq_term, (tele, m, n, sort)),
                                 (eq_sort, (tele, a, b)),
                                 (_normalize, (m, tele)))))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(NEVER_FIRES)),
       orientation=st.sampled_from((LR, RL)))
def test_a_rule_whose_instance_cannot_complete_changes_nothing(
        never_fires, data, name, orientation):
    base, tele = never_fires[name]
    # a source some rule has, or the most general one of a rule's head,
    # which a term no rule before it rewrites matches, so that the new rule
    # would be tried; and a target with a variable of relevant sort that
    # the source lacks, so that no rule is made
    axioms = base.theory.items
    sources = [(axioms[i].params, src, axioms[i].sort)
               for rules in base.rules.values() for _, i, src, _, _ in rules]
    general = [(params, Cut(head, Subst(tuple(
        (v, Var(v)) for v in params.names()))), result)
        for head, (params, result) in base.op_decls.items()
        if head in base.rules]
    params, src, sort = data.draw(st.sampled_from(sources)
                                  | st.sampled_from(general))
    fresh = Var("fresh")
    dst = data.draw(st.sampled_from([fresh] + [
        subst_apply_term(Subst(((v, fresh),)), src)
        for v, s in params.bindings if s == sort]))
    lhs, rhs = (src, dst) if orientation == LR else (dst, src)
    item = TermAxiom(Telescope(params.bindings + (("fresh", sort),)),
                     lhs, rhs, sort, "never fires", orientation)
    th, without = base.copy(), base.copy()
    assert _extend_checked(th, (item,)) is None
    assert th.rules == base.rules and th.theory.items[-1] is item
    for _ in range(data.draw(st.integers(1, 4))):
        query, args = _never_firing_query(data.draw, name, tele)
        assert (_answered(th, query, args, None)
                == _answered(without, query, args, None))


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


# -- proof irrelevance -------------------------------------------------------


def test_terms_of_an_irrelevant_sort_are_equal_in_one_step(mltt):
    tele = parse_telescope(
        "u: lvl{}, v: lvl{}, p: lt{u/u, v/v}, q: lt{u/u, v/v}")
    lt = parse_sort("lt{u/u, v/v}")
    p, q = Var("p"), Var("q")
    verdict = eq_term(mltt, tele, p, q, lt)
    assert isinstance(verdict, Equal)
    assert [s.kind for s in verdict.trace.steps] == [IRRELEVANT_SORT]
    assert replay_trace(mltt, p, verdict.trace) == q
    same = eq_term(mltt, tele, p, p, lt)
    assert isinstance(same, Equal) and same.trace.steps == ()


# P is proof-irrelevant, so w{z, p1} and w{z, p2} are equal only modulo
# irrelevance, and "diagonal" binds x to the first and meets the second
DIAGONAL = """
SORT N()
OP z() : N{}
SORT P(n: N{})
TERMAX "proof irrelevance" (n: N{}, p: P{n/n}, q: P{n/n}) p = q : P{n/n}
OP w(n: N{}, p: P{n/n}) : N{}
OP d(x: N{}, y: N{}) : N{}
TERMAX "diagonal" (x: N{}) d{x/x, x/y} = z{} : N{}
"""


def test_a_repeated_variable_matches_modulo_irrelevance():
    th = check_theory(parse_source(DIAGONAL).theory)
    tele = parse_telescope("p1: P{z{}/n}, p2: P{z{}/n}")
    m = parse_term("d{w{z{}/n, p1/p}/x, w{z{}/n, p2/p}/y}")
    z = parse_term("z{}")
    verdict = eq_term(th, tele, m, z, parse_sort("N{}"))
    assert isinstance(verdict, Equal)
    (step,) = verdict.trace.steps
    assert step.axiom == th.axiom_labels["diagonal"]
    assert [(s.kind, s.path) for s in step.pre] == [(IRRELEVANCE, ())]
    assert replay_trace(th, m, verdict.trace) == z
    bare = dataclasses.replace(step, pre=())
    out = replay_trace(th, m, dataclasses.replace(verdict.trace,
                                                  steps=(bare,)))
    assert isinstance(out, ReplayError)


def test_empty_substitutions_are_equal(monoid):
    verdict = eq_subst(monoid, Telescope(), Subst(), Subst(), Telescope())
    assert isinstance(verdict, Equal)
    assert verdict.trace.steps == ()
    assert replay_trace(monoid, Subst(), verdict.trace) is Subst()


def test_substitution_equality_is_entrywise(monoid):
    tele = parse_telescope("x: ob{}")
    target = monoid.op_decls["cmp"][0]
    p0 = parse_term("cmp{cmp{x/a, id{}/b}/a, x/b}").args
    p1 = parse_term("cmp{x/a, x/b}").args
    verdict = eq_subst(monoid, tele, p0, p1, target)
    assert isinstance(verdict, Equal)
    # entry a rewrites by "right unit"; entry b is already equal
    assert [(s.path, s.axiom) for s in verdict.trace.steps] == [
        ((0,), monoid.axiom_labels["right unit"])]
    assert replay_trace(monoid, p0, verdict.trace) is p1


def test_a_substitution_verdict_is_recorded_and_replayed_by_entry(monoid,
                                                                   mltt):
    tele = parse_telescope("x: ob{}")
    target = monoid.op_decls["cmp"][0]
    p0 = parse_term("cmp{x/a, cmp{id{}/a, x/b}/b}").args
    p1 = parse_term("cmp{x/a, x/b}").args
    with record_verdicts() as log:
        verdict = eq_subst(monoid, tele, p0, p1, target)
    assert (monoid, verdict.trace) in log
    (step,) = verdict.trace.steps
    assert step.path == (1,)
    assert replay_trace(monoid, p0, verdict.trace) is p1
    # the other entry, no entry, a whole substitution, a subterm of an entry
    for path in ((0,), (2,), (-1,), (), (1, 0)):
        bad = dataclasses.replace(verdict.trace, steps=(
            dataclasses.replace(step, path=path),))
        assert isinstance(replay_trace(monoid, p0, bad), ReplayError), path
    # a step rewrites a term, never a whole substitution
    tele = parse_telescope("u: lvl{}, v: lvl{}, p: lt{u/u, v/v}, "
                           "q: lt{u/u, v/v}")
    s0, s1 = Subst((("p", Var("p")),)), Subst((("p", Var("q")),))
    whole = EqStep(IRRELEVANT_SORT, None, None, (), s0, s1,
                   note=parse_sort("lt{u/u, v/v}"))
    assert isinstance(replay_trace(mltt, s0, EqTrace(s0, s1, (whole,), tele)),
                      ReplayError)


def test_a_substitution_verdict_logs_only_its_own_trace(monoid):
    tele, target = parse_telescope("x: ob{}"), parse_telescope("a: ob{}")
    p0 = Subst((("a", parse_term("cmp{x/a, id{}/b}")),))
    p1 = Subst((("a", Var("x")),))
    with record_verdicts() as log, record_fuel() as meter:
        verdict = eq_subst(monoid, tele, p0, p1, target)
    assert isinstance(verdict, Equal)
    assert log == [(monoid, verdict.trace)]
    # the entry's fuel is metered all the same
    assert meter[0] == 1


def test_unequal_substitutions_fail_on_the_bad_entry(monoid):
    tele = parse_telescope("x: ob{}, y: ob{}")
    target = monoid.op_decls["cmp"][0]
    p0 = parse_term("cmp{x/a, x/b}").args
    p1 = parse_term("cmp{x/a, y/b}").args
    assert isinstance(eq_subst(monoid, tele, p0, p1, target), NotProven)


def test_substitutions_that_do_not_line_up_are_not_proven(monoid):
    tele = parse_telescope("x: ob{}")
    target = monoid.op_decls["cmp"][0]
    p = parse_term("cmp{x/a, x/b}").args
    short = Subst((("a", Var("x")),))
    assert eq_subst(monoid, tele, p, short, target) == NotProven(
        False, "substitution lengths differ")
    renamed = Subst((("b", Var("x")), ("a", Var("x"))))
    assert eq_subst(monoid, tele, renamed, p, target) == NotProven(
        False, "target names do not match 'a'")


def test_an_entry_at_an_irrelevant_sort_is_led_by_its_index(mltt):
    tele = parse_telescope(
        "u: lvl{}, v: lvl{}, p: lt{u/u, v/v}, q: lt{u/u, v/v}")
    target = parse_telescope("u: lvl{}, v: lvl{}, p: lt{u/u, v/v}")
    p0 = Subst((("u", Var("u")), ("v", Var("v")), ("p", Var("p"))))
    p1 = Subst((("u", Var("u")), ("v", Var("v")), ("p", Var("q"))))
    verdict = eq_subst(mltt, tele, p0, p1, target)
    (step,) = verdict.trace.steps
    assert (step.kind, step.path) == (IRRELEVANT_SORT, (2,))
    assert replay_trace(mltt, p0, verdict.trace) is p1


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


def test_a_normalization_trace_holds_the_telescope_it_is_given(monoid):
    tele = parse_telescope("x: ob{}")
    m = parse_term("cmp{x/a, id{}/b}")
    nf, trace = normalize_term(monoid, m, tele)
    assert trace.tele is tele and replay_trace(monoid, m, trace) is nf
    # the default is the empty telescope, which binds no x
    closed = parse_term("cmp{id{}/a, id{}/b}")
    assert normalize_term(monoid, closed)[1].tele == Telescope()
    assert replay_trace(monoid, m, dataclasses.replace(
        trace, tele=Telescope())) == ReplayError(
            -1, "start is not over the trace's telescope")


def test_replay_of_empty_trace(monoid):
    x = Var("x")
    assert replay_trace(monoid, x, EqTrace(x, x, (), parse_telescope(
        "x: ob{}"))) == x
    # a trace with no telescope is no proof, however few its steps
    assert replay_trace(monoid, x, EqTrace(x, x)) == ReplayError(
        -1, "no telescope")


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


# -- the shared normal-form memo ---------------------------------------------


def _metered(th, query, args, cfg):
    """`query`'s verdict on `th`, and the fuel `record_fuel` counted."""
    with record_fuel() as meter:
        verdict = query(th, *args, cfg)
    return verdict, meter[0]


def _query(th, tele, m, n, sort, fuel=10000, size=5000):
    return _metered(th, eq_term, (tele, m, n, sort),
                    EqEngineConfig(fuel, size))


def _assert_warm_is_cold(th, warm, tele, m, n, sort):
    """`warm` has `th`'s items and a filled memo.  Every query on it must
    give the verdict, trace and fuel of the same query on a copy of `th`,
    which starts with an empty memo: also at the fuel the query needs, at
    one less, and under small term size caps.  Returns the cold verdict and
    the fuel it used."""
    cold = _query(th.copy(), tele, m, n, sort)
    assert _query(warm, tele, m, n, sort) == cold
    used = cold[1]
    bounds = [(fuel, 5000) for fuel in (used, used - 1) if fuel > 0]
    bounds += [(10000, size) for size in (6, 12, 24)]
    for fuel, size in bounds:
        assert (_query(warm, tele, m, n, sort, fuel, size)
                == _query(th.copy(), tele, m, n, sort, fuel, size))
    return cold


def test_warm_memo_matches_a_cold_engine_on_sweep_terms(mltt):
    empty = Telescope()
    terms = [t for depth in range(3, 7) for t in generate_closed_obs_terms(
        mltt, GenBudget(max_depth=depth, seed=0))[:6]]
    warm = mltt.copy()
    nfs = [normalize_term(warm, t)[0] for t in terms]
    for t, nf in zip(terms, nfs):
        sort = infer_term(mltt, empty, t)
        (verdict, used) = _assert_warm_is_cold(mltt, warm, empty, t, nf, sort)
        assert isinstance(verdict, Equal) and used > 1
        assert isinstance(_query(warm, empty, t, nf, sort, used)[0], Equal)
        short = _query(warm, empty, t, nf, sort, used - 1)[0]
        assert isinstance(short, NotProven) and short.fuel_exhausted


def _open_queries(monoid):
    """Open term queries on monoid and cat: (theory, telescope, m, n, sort)."""
    cat = load("cat")
    return [
        (monoid, parse_telescope("x: ob{}, y: ob{}, z: ob{}"),
         parse_term("cmp{cmp{x/a, id{}/b}/a, cmp{y/a, cmp{id{}/a, z/b}/b}/b}"),
         parse_term("cmp{cmp{x/a, y/b}/a, z/b}"), OB),
        (cat, parse_telescope("a: ob{}, b: ob{}, c: ob{}, "
                              "f: hom{a/d, b/c}, g: hom{b/d, c/c}"),
         parse_term("homcmp{a/e, b/d, c/c, g/f, "
                    "homcmp{a/e, a/d, b/c, f/f, homid{a/g}/g}/g}"),
         parse_term("homcmp{a/e, b/d, c/c, homcmp{b/e, c/d, c/c, "
                    "homid{c/g}/f, g/g}/f, f/g}"),
         parse_sort("hom{a/d, c/c}")),
    ]


def test_warm_memo_matches_a_cold_engine_on_open_queries(monoid):
    for th, tele, m, n, sort in _open_queries(monoid):
        warm = th.copy()
        normalize_term(warm, m, tele)
        normalize_term(warm, n, tele)
        verdict, used = _assert_warm_is_cold(th, warm, tele, m, n, sort)
        assert isinstance(verdict, Equal) and used > 1


def test_a_copy_meters_a_check_as_a_fresh_theory_does(mltt):
    tele = Telescope(PI_TELE.bindings + (("f", PI_LOW),))

    def fuel(th):
        with record_fuel() as meter:
            assert check_term(th, tele, Var("f"), PI_HIGH) is None
        return meter[0]

    warm = mltt.copy()
    assert fuel(warm) == fuel(warm) == fuel(warm.copy()) == 3


def test_record_fuel_counts_normalization(monoid):
    m = parse_term("cmp{id{}/a, cmp{id{}/a, id{}/b}/b}")
    with record_fuel() as meter:
        nf, trace = normalize_term(monoid.copy(), m)
    assert nf == parse_term("id{}")
    assert meter[0] == len(trace.steps) == 2
    cycle = check_theory(parse_source(COMM).theory)
    with record_fuel() as meter:
        verdict = normalize_term(cycle, parse_term("cmp{x/a, y/b}"))
    assert isinstance(verdict, NotProven) and meter[0] == DEFAULT_CFG.fuel


def test_nested_fuel_recorders_both_count_a_query(monoid):
    m = parse_term("cmp{id{}/a, id{}/b}")
    with record_fuel() as outer:
        with record_fuel() as inner:
            nf, _ = normalize_term(monoid.copy(), m)
    assert nf == parse_term("id{}")
    assert outer[0] == inner[0] == 1


def test_nested_verdict_recorders_both_see_an_equal(monoid):
    m = parse_term("cmp{id{}/a, id{}/b}")
    with record_verdicts() as outer:
        with record_verdicts() as inner:
            verdict = eq_term(monoid, Telescope(), m, parse_term("id{}"), OB)
    assert isinstance(verdict, Equal)
    assert outer == inner == [(monoid, verdict.trace)]


@pytest.fixture(scope="module")
def bounded_cases(monoid, mltt):
    """(theory, a warm copy of it, query, arguments) for sweep terms at
    depths 2-5 against their normal forms, the open queries above, and an
    mltt sort equality that needs both lifting rules."""
    empty = Telescope()
    cases = []
    for depth in range(2, 6):
        for t in generate_closed_obs_terms(
                mltt, GenBudget(max_depth=depth, seed=0))[:5]:
            nf = normalize_term(mltt.copy(), t)[0]
            cases.append((mltt, eq_term,
                          (empty, t, nf, infer_term(mltt, empty, t))))
    cases += [(th, eq_term, q) for th, *q in _open_queries(monoid)]
    cases.append((mltt, eq_sort, (PI_TELE, PI_HIGH, PI_LOW)))
    warm = {}
    for th, query, args in cases:
        query(warm.setdefault(id(th), th.copy()), *args)
    return [(th, warm[id(th)], query, args) for th, query, args in cases]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), fuel=st.integers(1, 400), size=st.integers(1, 80))
def test_warm_and_cold_queries_agree_under_any_bounds(bounded_cases, data,
                                                      fuel, size):
    th, warm, query, args = data.draw(st.sampled_from(bounded_cases))
    cfg = EqEngineConfig(fuel, size)
    assert (_metered(warm, query, args, cfg)
            == _metered(th.copy(), query, args, cfg))


# -- kept answers -------------------------------------------------------------


def _normalize(th, m, tele, cfg):
    """`normalize_term`, which takes no bounds: it runs under the default
    ones whatever `cfg` is."""
    return normalize_term(th, m, tele)


def _answered(th, query, args, cfg):
    """`query`'s answer on `th`, the fuel `record_fuel` counted and the
    traces `record_verdicts` logged, each logged for `th`."""
    with record_verdicts() as log, record_fuel() as meter:
        answer = query(th, *args, cfg)
    assert all(t is th for t, _ in log)
    return answer, meter[0], [trace for _, trace in log]


@pytest.fixture(scope="module")
def kept_cases(monoid, mltt):
    """(theory, a warm copy of it, query, arguments) for the queries whose
    answers a theory keeps: mltt's lifted pi both ways; for sweep terms at
    depths 2-5, canonicity's sort check and the normalization; the open
    terms above, normalized; a sort past the pending cap and one short of
    it; and a sort and a term on a rewrite cycle."""
    empty = Telescope()
    cases = [(mltt, eq_sort, (PI_TELE, PI_HIGH, PI_LOW)),
             (mltt, eq_sort, (PI_TELE, PI_LOW, PI_HIGH))]
    for depth in range(2, 6):
        for t in generate_closed_obs_terms(
                mltt, GenBudget(max_depth=depth, seed=0))[:3]:
            sort = infer_term(mltt, empty, t)
            cases += [(mltt, eq_sort, (empty, sort, _el_obs(
                          mltt, sort.args.lookup("l")))),
                      (mltt, _normalize, (t, empty))]
    for th, tele, m, n, _ in _open_queries(monoid):
        cases += [(th, _normalize, (m, tele)), (th, _normalize, (n, tele))]
    nested = check_theory(parse_source(NESTED).theory)
    for k in (3, 21):
        a, b = (Cut("T", Subst((("n", n),))) for n in (_nested(k),
                                                        _numeral(k + 1)))
        cases.append((nested, eq_sort, (empty, a, b)))
    cases.append((nested, _normalize, (_nested(21), empty)))
    cycle = check_theory(parse_source(COMM + "\nSORT T(o: ob{})").theory)
    tele = parse_telescope("x: ob{}, y: ob{}")
    m, n = parse_term("cmp{x/a, y/b}"), parse_term("cmp{y/a, x/b}")
    cases += [(cycle, eq_sort, (tele, Cut("T", Subst((("o", m),))),
                                Cut("T", Subst((("o", n),))))),
              (cycle, _normalize, (m, tele))]
    warm = {}
    for th, query, args in cases:
        query(warm.setdefault(id(th), th.copy()), *args, None)
    return [(th, warm[id(th)], query, args) for th, query, args in cases]


# the sort queries above spend 1 to 9 fuel, or all of it on the cycle
@settings(max_examples=150, deadline=None)
@given(data=st.data(), fuel=st.integers(1, 12) | st.integers(1, 400),
       size=st.integers(1, 80))
def test_a_repeated_warm_query_agrees_with_a_cold_one_under_any_bounds(
        kept_cases, data, fuel, size):
    th, warm, query, args = data.draw(st.sampled_from(kept_cases))
    cfg = EqEngineConfig(fuel, size)
    cold = _answered(th.copy(), query, args, cfg)
    first = _answered(warm, query, args, cfg)
    again = _answered(warm, query, args, cfg)
    assert first == cold and again == cold
    # the second answer is the one the theory kept
    assert again[0] is first[0]


def test_an_item_drops_the_kept_answers(monoid):
    th = monoid.copy()
    _extend_checked(th, parse_source("SORT T(o: ob{})").theory.items)
    tele = parse_telescope("x: ob{}, y: ob{}")
    m, x = parse_term("cmp{x/a, y/b}"), Var("x")
    a, b = (Cut("T", Subst((("o", t),))) for t in (m, x))
    assert normalize_term(th, m, tele)[0] == m
    assert isinstance(eq_sort(th, tele, a, b), NotProven)
    assert len(th.answers) == 2
    # a declaration changes no verdict, and still empties the table
    th._add_item(SortDecl("mark", Telescope()))
    assert th.answers == {}
    assert normalize_term(th, m, tele)[0] == m
    _extend_checked(th, parse_source(
        'TERMAX "left projection" (x: ob{}, y: ob{}) '
        'cmp{x/a, y/b} = x : ob{}').theory.items)
    assert th.answers == {}
    assert normalize_term(th, m, tele)[0] == x
    assert isinstance(eq_sort(th, tele, a, b), Equal)


# Per theory: declarations the queries need, the queries as (kind,
# telescope, subject, other sort or None), and axioms an item may add.  Some
# inferences convert, some only once an axiom is added, some never.
ACROSS_ITEMS = {
    "monoid": (
        "SORT T(o: ob{})\nOP e() : ob{}\nOP c(o: ob{}) : T{o/o}\n"
        "OP f(t: T{id{}/o}) : ob{}",
        [("infer", "", "f{c{cmp{id{}/a, id{}/b}/o}/t}", None),
         ("infer", "", "f{c{e{}/o}/t}", None),
         ("infer", "", "f{c{cmp{e{}/a, e{}/b}/o}/t}", None),
         ("infer", "x: ob{}", "cmp{f{c{id{}/o}/t}/a, x/b}", None),
         ("infer", "", "cmp{f{c{cmp{id{}/a, id{}/b}/o}/t}/a, id{}/b}",
          None),
         ("infer", "x: ob{}", "c{cmp{x/a, e{}/b}/o}", None),
         ("norm", "x: ob{}", "cmp{cmp{x/a, e{}/b}/a, id{}/b}", None),
         ("norm", "x: ob{}", "cmp{e{}/a, cmp{e{}/a, x/b}/b}", None),
         ("sort", "x: ob{}", "T{cmp{x/a, e{}/b}/o}", "T{x/o}"),
         ("sort", "", "T{e{}/o}", "T{id{}/o}")],
        ['TERMAX "e is id" () e{} = id{} : ob{}',
         'TERMAX "e square" () cmp{e{}/a, e{}/b} = e{} : ob{}',
         'TERMAX "left projection" (x: ob{}, y: ob{}) '
         'cmp{x/a, y/b} = x : ob{}',
         'SORTAX "T e" () T{e{}/o} = T{id{}/o}',
         'TERMAX "T irrelevance" (o: ob{}, p: T{o/o}, q: T{o/o}) '
         'p = q : T{o/o}']),
    "cat": (
        "OP o() : ob{}\nOP t(x: ob{}) : ob{}\n"
        "OP k(x: ob{}) : hom{x/d, t{x/x}/c}\nOP j() : hom{o{}/d, o{}/c}",
        [("infer", "", "homcmp{o{}/e, o{}/d, o{}/c, j{}/f, k{o{}/x}/g}",
          None),
         ("infer", "", "homcmp{o{}/e, o{}/d, o{}/c, j{}/f, "
          "homid{o{}/g}/g}", None),
         ("infer", "x: ob{}", "homcmp{x/e, t{x/x}/d, t{x/x}/c, "
          "homid{t{x/x}/g}/f, k{x/x}/g}", None),
         ("infer", "x: ob{}", "homcmp{x/e, t{x/x}/d, t{x/x}/c, "
          "k{t{x/x}/x}/f, k{x/x}/g}", None),
         ("norm", "", "homcmp{o{}/e, o{}/d, o{}/c, j{}/f, "
          "homid{o{}/g}/g}", None),
         ("norm", "", "t{t{o{}/x}/x}", None),
         ("sort", "", "hom{o{}/d, t{o{}/x}/c}", "hom{o{}/d, o{}/c}"),
         ("sort", "x: ob{}", "hom{x/d, t{t{x/x}/x}/c}",
          "hom{x/d, t{x/x}/c}")],
        ['TERMAX "t o" () t{o{}/x} = o{} : ob{}',
         'TERMAX "t idem" (x: ob{}) t{t{x/x}/x} = t{x/x} : ob{}',
         'SORTAX "k square" (x: ob{}) hom{x/d, t{x/x}/c} = hom{x/d, x/c}',
         'TERMAX "j unit" () j{} = homid{o{}/g} : hom{o{}/d, o{}/c}']),
}


@pytest.fixture(scope="module")
def across_items():
    """Per theory: the library theory with its declarations, its queries
    parsed, and its axioms as items."""
    out = {}
    for name, (decls, queries, axioms) in ACROSS_ITEMS.items():
        base = theory_extends(load(name), parse_source(decls).theory)
        assert isinstance(base, CheckedTheory)
        parsed = [(kind, parse_telescope(tele), parse_term(m) if kind
                   == "infer" else parse_sort(m) if kind == "sort"
                   else parse_term(m), other and parse_sort(other))
                  for kind, tele, m, other in queries]
        out[name] = base, parsed, [parse_source(ax).theory.items[0]
                                   for ax in axioms]
    return out


def _asked(th, query):
    """A query's answer, the fuel `record_fuel` counted and, but for an
    inference, whose kept answer logs no conversion, the traces logged."""
    kind, tele, m, other = query
    with record_verdicts() as log, record_fuel() as meter:
        answer = (infer_term(th, tele, m) if kind == "infer"
                  else normalize_term(th, m, tele) if kind == "norm"
                  else eq_sort(th, tele, m, other))
    return answer, meter[0], [] if kind == "infer" else [t for _, t in log]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(ACROSS_ITEMS)))
def test_queries_between_items_answer_as_a_cold_copy_does(
        across_items, data, name):
    base, queries, axioms = across_items[name]
    th, fresh = base.copy(), 0
    for kind, what in data.draw(st.lists(st.one_of(
            st.tuples(st.just("ask"), st.sampled_from(queries)),
            st.tuples(st.just("axiom"), st.sampled_from(axioms)),
            st.tuples(st.sampled_from((SortDecl, OpDecl)), st.none())),
            max_size=16)):
        if kind == "ask":
            # asked twice, so the second answer is the one the theory kept
            cold = _asked(th.copy(), what)
            assert _asked(th, what) == cold and _asked(th, what) == cold
            continue
        if kind == "axiom":
            item = what
        else:
            fresh += 1
            item = (SortDecl(f"fresh{fresh}", Telescope()) if kind is SortDecl
                    else OpDecl(f"fresh{fresh}", Telescope(),
                                parse_sort("ob{}")))
        assert _extend_checked(th, (item,)) is None


def test_kept_answers_do_not_keep_their_theory_alive(monoid, monkeypatch):
    # a theory that held itself would wait for the cyclic collector, and a
    # loop that builds one theory after another would hold several at once
    monkeypatch.setattr(equality.tally, "verdicts", None)
    th = monoid.copy()
    assert isinstance(normalize_term(th, parse_term("cmp{id{}/a, id{}/b}")),
                      tuple)
    assert isinstance(eq_sort(th, Telescope(), OB, OB), Equal)
    assert len(th.answers) == 2
    ref = weakref.ref(th)
    gc.disable()
    try:
        del th
        assert ref() is None
    finally:
        gc.enable()


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_an_answer_the_stack_ended_is_not_kept(mltt):
    th = mltt.copy()
    m = _numerals(100)

    def near_the_limit(frames):
        return (near_the_limit(frames - 1) if frames
                else normalize_term(th, m))

    # 60 frames reach the engine, and ls^100 needs far more
    out = near_the_limit(sys.getrecursionlimit() - _stack_depth() - 60)
    assert isinstance(out, NotProven) and out.fuel_exhausted
    assert "recursion limit" in out.reason
    warm = _answered(th, _normalize, (m, Telescope()), None)
    assert isinstance(warm[0], tuple)
    assert warm == _answered(mltt.copy(), _normalize, (m, Telescope()), None)


def test_nested_verdict_recorders_both_see_a_kept_answer(monoid):
    th = monoid.copy()
    m = parse_term("cmp{id{}/a, id{}/b}")
    nf, trace = normalize_term(th, m)
    equal = eq_sort(th, Telescope(), OB, OB)
    with record_verdicts() as outer:
        with record_verdicts() as inner:
            assert normalize_term(th, m)[1] is trace
            assert eq_sort(th, Telescope(), OB, OB) is equal
    assert outer == inner == [(th, trace), (th, equal.trace)]


def _check_sort(th, psi, a, cfg):
    return check_sort(th, psi, a)


@pytest.fixture(scope="module")
def checked_cases(mltt):
    """A warm copy of mltt, and checks on it: sweep terms at depths 2-5 at
    their inferred sort and at that sort's normal form, which needs a
    conversion when it differs, a variable of sort PI_LOW at PI_HIGH, and
    the sort PI_HIGH."""
    empty = Telescope()
    cases = []
    for depth in range(2, 6):
        for t in generate_closed_obs_terms(
                mltt, GenBudget(max_depth=depth, seed=0))[:5]:
            sort = infer_term(mltt, empty, t)
            cases += [(check_term, (empty, t, sort)), (check_term, (
                empty, t, normalize_term(mltt.copy(), sort)[0]))]
    cases.append((check_term, (Telescope(PI_TELE.bindings + (
        ("f", PI_LOW),)), Var("f"), PI_HIGH)))
    cases.append((_check_sort, (PI_TELE, PI_HIGH)))
    warm = mltt.copy()
    for query, args in cases:
        query(warm, *args, None)
    return warm, cases


@settings(max_examples=150, deadline=None)
@given(data=st.data(), fuel=st.integers(1, 400), size=st.integers(1, 80))
def test_warm_and_cold_checks_agree_under_any_bounds(mltt, checked_cases,
                                                     data, fuel, size):
    warm, cases = checked_cases
    query, args = data.draw(st.sampled_from(cases))
    cfg = EqEngineConfig(fuel, size)
    assert (_metered(warm, query, args, cfg)
            == _metered(mltt.copy(), query, args, cfg))


# a{} => f{c{}} is one rewrite to a term of size 2; the next, to size 4,
# goes past both one unit of fuel and a size cap of 3
GROW = """
SORT ob()
OP a() : ob{}
OP c() : ob{}
OP f(x: ob{}) : ob{}
OP g(x: ob{}) : ob{}
TERMAX "start" () a{} = f{c{}/x} : ob{}
TERMAX "grow" (x: ob{}) f{x/x} = g{g{g{x/x}/x}/x} : ob{}
"""


def test_a_rewrite_past_fuel_and_size_cap_ends_on_fuel():
    th = check_theory(parse_source(GROW).theory)
    a, big = parse_term("a{}"), parse_term("g{g{g{c{}/x}/x}/x}")
    warm = th.copy()
    assert normalize_term(warm, a)[0] == big
    for t in (th.copy(), warm):
        for fuel, reason in ((1, "rewrite fuel exhausted"),
                             (2, "term size cap exceeded")):
            cfg = EqEngineConfig(fuel=fuel, max_term_size=3)
            assert (eq_term(t, Telescope(), a, big, OB, cfg)
                    == NotProven(True, reason))


def test_extension_rewrites_with_its_axiom_and_the_base_does_not(monoid):
    base = monoid.copy()
    tele = parse_telescope("x: ob{}, y: ob{}")
    m = parse_term("cmp{x/a, y/b}")
    assert normalize_term(base, m, tele)[0] == m
    ext = theory_extends(base, parse_source(
        'TERMAX "left projection" (x: ob{}, y: ob{}) '
        'cmp{x/a, y/b} = x : ob{}').theory)
    assert normalize_term(ext, m, tele)[0] == Var("x")
    assert normalize_term(base, m, tele)[0] == m



def test_every_item_drops_the_caches_and_keeps_the_plain_judgments(mltt):
    th = mltt.copy()
    tele = parse_telescope(
        "a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}, A: ty{a/l, g/g}")
    low = parse_sort("el{a/l, g/g, A/A}")
    high = parse_sort("el{b/l, g/g, lift{a/a, b/b, p/p, g/g, A/A}/A}")
    assert replay_ok(th, eq_sort(th, tele, low, high).trace)
    empty = Telescope()
    closed = generate_closed_obs_terms(th, GenBudget(max_depth=4, seed=0))
    for t in closed[:4]:
        nf = normalize_term(th, t)[0]
        assert replay_ok(th, eq_term(th, empty, t, nf,
                                     infer_term(th, empty, t)).trace)
    assert th.nf_memo and th.instances and th.answers
    judged, rules, plans = dict(th._judged), dict(th.rules), dict(th.plans)
    assert judged and rules and plans
    # a declaration changes no verdict, and still empties every cache
    for item in (SortDecl("mark", Telescope()),
                 OpDecl("top", Telescope(), parse_sort("lvl{}"))):
        th._add_item(item)
        assert th.nf_memo == th.instances == th.answers == {}
        assert th._judged == judged
    assert th.rules == rules
    assert th.plans == {**plans, "mark": ((), (), ()), "top": ((), (), ())}

    def query(t):
        with record_fuel() as meter:
            verdict = eq_sort(t, tele, high, low)
        return verdict, meter[0]

    verdict, used = query(th)
    assert isinstance(verdict, Equal) and used > 0
    assert (verdict, used) == query(th.copy())


# h{n, c{n}} normalizes only through k nested discharges of its deferred
# first argument when n is the k-th numeral.
NESTED = """
SORT N()
SORT T(n: N{})
OP z() : N{}
OP s(m: N{}) : N{}
OP c(n: N{}) : T{n/n}
OP h(n: N{}, x: T{n/n}) : N{}
OP pair(a: N{}, b: N{}) : N{}
SORTAX "succ index" (m: N{}) T{s{m/m}/n} = T{m/n}
SORTAX "h index" (n: N{}, x: T{n/n}) T{h{n/n, x/x}/n} = T{n/n}
TERMAX "base" () h{z{}/n, c{z{}/n}/x} = s{z{}/m} : N{}
TERMAX "step" (m: N{}) h{h{m/n, c{m/n}/x}/n, c{s{m/m}/n}/x} = s{s{m/m}/m} : N{}
"""


def _numeral(k):
    t = Cut("z", Subst())
    for _ in range(k):
        t = Cut("s", Subst((("m", t),)))
    return t


def _nested(k):
    n = _numeral(k)
    return Cut("h", Subst((("n", n), ("x", Cut("c", Subst((("n", n),)))))))


def _pair(a, b):
    return Cut("pair", Subst((("a", a), ("b", b))))


CAP_REASON = "deferred matches nested deeper than 20"


def _hits_the_cap(verdict):
    return (isinstance(verdict, NotProven) and verdict.fuel_exhausted
            and verdict.reason == CAP_REASON)


def test_memo_keeps_the_pending_depth_cap_of_a_cold_engine():
    th = check_theory(parse_source(NESTED).theory)
    u20, u21 = _nested(20), _nested(21)
    warm = th.copy()
    assert normalize_term(warm, u20)[0] == _numeral(21)
    # u21 discharges u20 at depth 1, where u20's 20 levels hit the cap
    assert normalize_term(warm, u21) == normalize_term(th.copy(), u21)
    assert _hits_the_cap(normalize_term(warm, u21))
    # the memo's s{u20} => s^22{z} does not carry the query past the cap
    s_u20 = Cut("s", Subst((("m", u20),)))
    pair = _pair(u21, s_u20)
    warm = th.copy()
    assert normalize_term(warm, s_u20)[0] == _numeral(22)
    assert normalize_term(warm, pair) == normalize_term(th.copy(), pair)
    assert _hits_the_cap(normalize_term(warm, pair))


def test_a_query_past_the_pending_cap_is_not_proven_warm_or_cold():
    th = check_theory(parse_source(NESTED).theory)
    warm = th.copy()
    normalize_term(warm, _nested(20))
    n = parse_sort("N{}")
    # the pair spends fuel on u0 before u21 hits the cap, one discharge
    # short of u0; a u1 to u20 normalized first would shorten the chain
    for m in (_nested(21), _pair(_nested(0), _nested(21))):
        verdict, used = _query(warm, Telescope(), m, _numeral(22), n)
        assert (verdict, used) == _query(th.copy(), Telescope(), m,
                                         _numeral(22), n)
        assert _hits_the_cap(verdict)
    assert used > 0


def test_a_sort_past_the_pending_cap_gives_up_within_bounds():
    th = check_theory(parse_source(NESTED).theory)

    def at(k):
        return (Cut("c", Subst((("n", _nested(k)),))),
                Cut("T", Subst((("n", _numeral(k + 1)),))))

    assert check_term(th, Telescope(), *at(3)) is None
    err = check_term(th, Telescope(), *at(21))
    assert isinstance(err, CheckError)
    assert err.kind is ErrorKind.EQUALITY_FUEL_EXHAUSTED


def test_each_bound_names_itself():
    th = check_theory(parse_source(NESTED).theory)
    n = parse_sort("N{}")
    u3, four = _nested(3), _numeral(4)
    assert isinstance(eq_term(th.copy(), Telescope(), u3, four, n), Equal)
    verdicts = [
        eq_term(th.copy(), Telescope(), m, k, n, cfg)
        for m, k, cfg in ((u3, four, EqEngineConfig(fuel=1)),
                          (u3, four, EqEngineConfig(max_term_size=2)),
                          (_nested(21), _numeral(22), None))]
    assert all(isinstance(v, NotProven) and v.fuel_exhausted
               for v in verdicts)
    fuel, size, cap = (v.reason for v in verdicts)
    assert "fuel" in fuel and "size" in size and cap == CAP_REASON
    assert len({fuel, size, cap}) == 3


# -- rewrite cycles end in fuel exhaustion ------------------------------------


COMM = ('SORT ob()\nOP cmp(a: ob{}, b: ob{}) : ob{}\n'
        'TERMAX "comm" (x: ob{}, y: ob{}) '
        'cmp{x/a, y/b} = cmp{y/a, x/b} : ob{}')


def test_rewrite_cycle_exhausts_fuel_rather_than_the_stack():
    th = check_theory(parse_source(COMM).theory)
    tele = parse_telescope("x: ob{}, y: ob{}")
    m, n = parse_term("cmp{x/a, y/b}"), parse_term("cmp{y/a, x/b}")
    for cfg in (EqEngineConfig(), EqEngineConfig(fuel=50)):
        with record_fuel() as meter:
            verdict = eq_term(th, tele, m, n, OB, cfg)
        assert isinstance(verdict, NotProven) and verdict.fuel_exhausted
        assert meter[0] == cfg.fuel


def test_normalizing_a_rewrite_cycle_is_not_proven():
    th = check_theory(parse_source(COMM).theory)
    verdict = normalize_term(th, parse_term("cmp{x/a, y/b}"))
    assert isinstance(verdict, NotProven) and verdict.fuel_exhausted
    assert verdict.reason == "rewrite fuel exhausted"


def _numerals(n):
    t = Cut("lz", Subst())
    for _ in range(n):
        t = Cut("ls", Subst((("u", t),)))
    return t


def test_nesting_deeper_than_the_stack_is_not_proven(mltt):
    # a stop-gap until the engine walks terms without recursing
    th = mltt.copy()
    n = sys.getrecursionlimit()
    lvl = parse_sort("lvl{}")
    verdict = eq_term(th, Telescope(), _numerals(n), _numerals(n + 1), lvl)
    assert isinstance(verdict, NotProven) and verdict.fuel_exhausted
    assert f"recursion limit ({n})" in verdict.reason
    assert isinstance(normalize_term(th, _numerals(n)), NotProven)
    # the theory still answers as a fresh copy of it does
    small, other = _numerals(3), _numerals(4)
    for m in (small, other):
        assert (_query(th, Telescope(), small, m, lvl)
                == _query(mltt.copy(), Telescope(), small, m, lvl))


def test_sort_rewrite_cycle_is_a_fuel_error_at_its_item():
    # "collapse" applies again to its own result T{z{}/n}
    err = check_theory(parse_source("""
SORT N()
OP z() : N{}
SORT T(n: N{})
SORTAX "collapse" (n: N{}) T{n/n} = T{z{}/n}
OP c(n: N{}) : T{n/n}
OP d() : T{z{}/n}
TERMAX "pick" (n: N{}) c{n/n} = d{} : T{z{}/n}
""").theory)
    assert isinstance(err, CheckError)
    assert err.kind == ErrorKind.EQUALITY_FUEL_EXHAUSTED
    assert err.item == 6


# -- traces built on first read ----------------------------------------------


def _trace_queries(monoid, mltt):
    """Thunks that each run one query afresh and return its trace: the sweep
    terms at depths 3-6 of seed 0 through `normalize_term`, `eq_term` and
    `eq_sort`, and the open monoid and cat queries through the first two."""
    empty = Telescope()
    out = []
    for depth in range(3, 7):
        for t in generate_closed_obs_terms(
                mltt, GenBudget(max_depth=depth, seed=0))[:5]:
            nf = normalize_term(mltt, t)[0]
            sort = infer_term(mltt, empty, t)
            nf_sort = Cut(sort.head, Subst(tuple(
                (name, normalize_term(mltt, v)[0])
                for name, v in sort.args.entries)))
            out += [lambda t=t: normalize_term(mltt, t)[1],
                    lambda t=t, nf=nf, a=sort: eq_term(
                        mltt, empty, t, nf, a).trace,
                    lambda a=sort, b=nf_sort: eq_sort(
                        mltt, empty, a, b).trace]
    for th, tele, m, n, sort in _open_queries(monoid):
        out += [lambda th=th, tele=tele, m=m: normalize_term(th, m, tele)[1],
                lambda th=th, tele=tele, m=m, n=n, a=sort: eq_term(
                    th, tele, m, n, a).trace]
    return out


def test_a_trace_read_late_is_the_trace_read_at_once(monoid, mltt):
    queries = _trace_queries(monoid, mltt)
    at_once = []
    for query in queries:
        trace = query()
        trace.steps
        at_once.append(trace)
    late = [query() for query in queries]
    assert sum(len(t.steps) for t in at_once) > len(at_once)
    for query, early, trace in zip(queries, at_once, late):
        assert trace == early and trace.steps == early.steps
        eager = EqTrace(early.start, early.end, tuple(early.steps),
                        early.tele)
        # each comparison reads a trace not read before
        assert query() == eager and hash(query()) == hash(eager)
        assert repr(query()) == repr(eager)
        assert dataclasses.replace(query(), tele=eager.tele) == eager
        assert dataclasses.replace(query(), steps=eager.steps) == eager


def test_a_trace_read_after_an_axiom_keeps_its_steps(monoid):
    tele = parse_telescope("x: ob{}, y: ob{}")
    m = parse_term("cmp{cmp{x/a, id{}/b}/a, cmp{id{}/a, y/b}/b}")
    n = parse_term("cmp{x/a, y/b}")
    left = parse_source('TERMAX "left projection" (x: ob{}, y: ob{}) '
                        'cmp{x/a, y/b} = x : ob{}').theory
    th = monoid.copy()
    at_once = eq_term(th, tele, m, n, OB).trace
    at_once.steps
    late = eq_term(th, tele, m, n, OB).trace
    norm = normalize_term(th, m, tele)[1]
    ext = theory_extends(th, left)
    assert not isinstance(ext, CheckError)
    # the axiom, added to the theory itself, drops the memo the entries of
    # `late` and `norm` came from
    memo = th.nf_memo
    assert _extend_checked(th, left.items) is None and th.nf_memo is not memo
    assert normalize_term(th, m, tele)[0] == Var("x")
    assert late == at_once and late.steps and norm.end == n
    for t in (th, ext, monoid):
        assert replay_ok(t, late) and replay_ok(t, norm)


def test_evaluating_a_closed_term_emits_no_step(mltt, monkeypatch):
    # a fresh copy: a kept normalization of terms[0] that another test has
    # read would hold its steps already
    th = mltt.copy()
    calls = []
    real = _Steps.__get__

    def get(self, trace, owner=None):
        # a read of a top-level trace whose steps are not yet emitted
        if trace is not None and type(trace.__dict__["steps"]) is _Unemitted:
            calls.append(trace)
        return real(self, trace, owner)

    monkeypatch.setattr(_Steps, "__get__", get)
    terms = generate_closed_obs_terms(th, GenBudget(max_depth=5, seed=0))
    for t in terms:
        evaluate_closed(th, t)
    assert calls == []
    assert normalize_term(th, terms[0])[1].steps and calls


def _emit_by_recursion(e, path, out):
    """The walk `_emit` makes, written as the recursion it replaces."""
    while e is not None:
        for i, kid in e.kids:
            _emit_by_recursion(kid, path + (i,), out)
        s = e.step
        if s is None:
            return
        out.append(dataclasses.replace(s, path=path) if path else s)
        e = e.rest


def _deep_entry(depth):
    """An entry nested `depth` deep through its kids, each at argument 0
    or 1.  Every 500th level, and the innermost, also rewrites; every other
    rewrite leads to an entry with a kid of its own."""
    x = Var("x")
    e = None
    for k in range(depth):
        step = rest = None
        if k % 500 == 0:
            step = EqStep(TERM_AXIOM, k, LR, (), x, Var(f"x{k}"))
        if k % 1000 == 0:
            leaf = _Entry(x, (), EqStep(TERM_AXIOM, -k, RL, (), x, x),
                          None, ())
            rest = _Entry(x, ((2, leaf),), None, None, ())
        e = _Entry(x, () if e is None else ((k % 2, e),), step, rest, ())
    return e


def test_emit_walks_an_entry_of_any_depth():
    e = _deep_entry(5000)
    steps = []
    _emit(e, (7,), steps)
    assert len(steps) == 10 + 5
    trace = EqTrace(None, None, _Unemitted(e, (), e))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 6000)
    try:
        expected, top = [], []
        _emit_by_recursion(e, (7,), expected)
        _emit_by_recursion(e, (), top)
    finally:
        sys.setrecursionlimit(limit)
    assert steps == expected
    assert trace.steps == tuple(top) + invert(top)


def _reference_match(th, p, s, sigma: dict, pending: list, path=()):
    """The match `_Engine.match` must find, written plainly: the extended
    (sigma, pending), or None when it fails.  Each position is matched on
    the bindings so far; where that fails at a loose position, the
    position is deferred and the bindings stay as they were."""
    if isinstance(p, Var):
        if p.name not in sigma:
            return {**sigma, p.name: s}, pending
        if equal_mod_irr(th, sigma[p.name], s):
            return sigma, pending
        return None
    if not (isinstance(s, Cut) and s.head == p.head
            and len(s.args) == len(p.args)):
        return None
    order, loose, _ = th.plans[p.head]
    for i in order:
        pair = p.args.entries[i][1], s.args.entries[i][1]
        found = _reference_match(th, *pair, sigma, pending, path + (i,))
        if found is None:
            if not loose[i]:
                return None
            found = sigma, pending + [(path + (i,), *pair)]
        sigma, pending = found
    return sigma, pending


def _subterms_of(terms):
    seen, todo = {}, list(terms)
    while todo:
        n = todo.pop()
        if n not in seen:
            seen[n] = None
            if isinstance(n, Cut):
                todo += n.args.values()
    return list(seen)


def test_match_binds_as_a_plain_reference_matcher_does(monoid, mltt):
    # subjects: the seed-0 sweep terms, every subterm and its sort, and
    # the sides of each theory's axioms with their subterms
    terms = [t for seed in (0, 1) for depth in range(1, 7)
             for t in generate_closed_obs_terms(
                 mltt, GenBudget(max_depth=depth, seed=seed))]
    sweep = _subterms_of(terms)
    sweep += [infer_term(mltt, Telescope(), t) for t in sweep]
    matched = deferred = 0
    for th in (monoid, load("cat"), mltt):
        engine = equality._Engine(th, DEFAULT_CFG)
        sides = [x for ax in th.theory.items if hasattr(ax, "lhs")
                 for x in (ax.lhs, ax.rhs)]
        subjects = _subterms_of(sweep + sides)
        for rules in th.rules.values():
            for _, _, src, _, _ in rules:
                for subject in subjects:
                    sigma, pending = {}, []
                    ok = engine.match(src, subject, sigma, pending)
                    expected = _reference_match(th, src, subject, {}, [])
                    assert ok == (expected is not None), (src, subject)
                    if ok:
                        assert list(sigma.items()) == list(
                            expected[0].items())
                        assert pending == expected[1]
                        matched += 1
                        deferred += bool(pending)
    assert matched > 2000 and deferred > 1000


# `f`'s position x is flex (x occurs in h's sort), so `match` takes it by
# trial after the strict positions h and y.  `pair`'s positions are strict.
LOOSE = """
SORT ob()
SORT hom(x: ob{})
OP p() : ob{}
OP q() : ob{}
OP pair(a: ob{}, b: ob{}) : ob{}
OP f(x: ob{}, h: hom{x/x}, y: ob{}) : ob{}
"""


@pytest.mark.parametrize("pattern, subject", [
    # binds u at a, then fails at b: q is not u's p
    ("f{pair{u/a, u/b}/x, k/h, z/y}", "f{pair{p{}/a, q{}/b}/x, hh/h, yy/y}"),
    # the inner f's trial binds v, then the outer trial fails at b
    ("f{pair{f{v/x, m/h, n/y}/a, p{}/b}/x, k/h, z/y}",
     "f{pair{f{p{}/x, g/h, e/y}/a, q{}/b}/x, hh/h, yy/y}"),
    # the inner f's trial binds w and fails, deferring its x; then the
    # outer trial fails at b
    ("f{pair{f{pair{w/a, w/b}/x, m/h, n/y}/a, p{}/b}/x, k/h, z/y}",
     "f{pair{f{pair{p{}/a, q{}/b}/x, g/h, e/y}/a, q{}/b}/x, hh/h, yy/y}"),
], ids=["cut", "nested-binding", "nested-deferral"])
def test_a_failed_trial_leaves_no_binding_and_one_deferral(pattern, subject):
    engine = equality._Engine(check_theory(parse_source(LOOSE).theory),
                              DEFAULT_CFG)
    pattern, subject = parse_term(pattern), parse_term(subject)
    sigma, pending = {}, []
    assert engine.match(pattern, subject, sigma, pending)
    assert list(sigma.items()) == [("k", Var("hh")), ("z", Var("yy"))]
    x = pattern.args.entries[0][1], subject.args.entries[0][1]
    assert pending == [((0,), *x)]
