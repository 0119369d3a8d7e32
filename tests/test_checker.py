"""Judgment checker: positive examples, the error corpus, monotonicity."""

import pytest

from negative_corpus import CASES
from gat import checker
from gat.canonicity import GenBudget, generate_closed_obs_terms
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
from gat.equality import (
    SORT_AXIOM,
    TERM_AXIOM,
    EqEngineConfig,
    Equal,
    eq_term,
    record_fuel,
    replay_trace,
)
from gat.library import entry, library_names, load
from gat.surface import (
    parse_sort,
    parse_source,
    parse_telescope,
    parse_term,
    parse_theory,
)
from gat.syntax import (
    LR,
    RL,
    Cut,
    SortAxiom,
    Subst,
    Telescope,
    TermAxiom,
    Theory,
    Var,
    free_vars,
)


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


@pytest.mark.parametrize("non_term", [Subst(), Telescope(), None],
                         ids=["subst", "telescope", "none"])
def test_a_non_term_in_term_position_is_a_presupposition_violation(
        monoid, non_term):
    tele = parse_telescope("x: ob{}")
    for err in (infer_term(monoid, tele, non_term),
                check_term(monoid, tele, non_term, parse_sort("ob{}"))):
        assert isinstance(err, CheckError)
        assert err.kind == ErrorKind.PRESUPPOSITION_VIOLATION


def test_a_substitution_as_an_argument_is_reported_at_its_position(monoid):
    m = Cut("cmp", Subst((("a", Var("x")), ("b", Subst()))))
    err = infer_term(monoid, parse_telescope("x: ob{}"), m)
    assert (err.kind, err.path) == (ErrorKind.PRESUPPOSITION_VIOLATION, (1,))


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


def test_deeply_nested_level_infers_and_checks(mltt):
    # 200 nested successors: comparing and hashing terms must not recurse
    # through them
    level = "lz{}"
    for _ in range(200):
        level = f"ls{{{level}/u}}"
    m = parse_term(f"red{{{level}/l, emp{{}}/g}}")
    sort = infer_term(mltt, Telescope(()), m)
    assert sort == parse_sort(
        f"el{{{level}/l, emp{{}}/g, obs{{{level}/l, emp{{}}/g}}/A}}")
    assert check_term(mltt, Telescope(()), m, sort) is None


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


# -- rewrite rules and match plans -------------------------------------------


def _reference_tables(th):
    """The rules and match plans as the seed engine rebuilt them from the
    whole theory after each axiom: every oriented axiom, grouped by the head
    of its source, then a plan per declared symbol from its flex positions
    and its argument sorts.  A plan's third part is the mask of arguments
    of proof-irrelevant sort, which the seed kernel derived from the
    argument sorts on every comparison."""
    def orient(kind, axioms):
        rules = []
        for idx, ax in axioms:
            if ax.orientation not in (LR, RL):
                continue
            src, dst = ((ax.lhs, ax.rhs) if ax.orientation == LR
                        else (ax.rhs, ax.lhs))
            if not isinstance(src, Var):
                rules.append((kind, idx, src, dst, ax.orientation, ax))
        return rules

    rules: dict = {}
    for rule in (orient(TERM_AXIOM, th.term_axioms)
                 + orient(SORT_AXIOM, th.sort_axioms)):
        rules.setdefault(rule[2].head, []).append(rule)
    plans = {}
    for head, params in (*th.sort_decls.items(),
                         *((n, p) for n, (p, _) in th.op_decls.items())):
        flex = []
        for i, n in enumerate(params.names()):
            later = set()
            for _, s in params.bindings[i + 1:]:
                later |= free_vars(s)
            flex.append(n in later)
        irr = tuple(s.head in th.irrelevant_heads for _, s in params.bindings)
        loose = tuple(f or i for f, i in zip(flex, irr))
        plans[head] = (sorted(range(len(loose)), key=loose.__getitem__),
                       loose, irr)
    return rules, plans


def _assert_tables_match_reference(th):
    rules, plans = _reference_tables(th)
    assert th.rules == {h: tuple(r) for h, r in rules.items()}
    assert th.plans == {h: (tuple(order), loose, irr)
                        for h, (order, loose, irr) in plans.items()}


@pytest.mark.parametrize("name", library_names())
def test_rules_and_plans_match_the_rebuilt_index(name):
    _assert_tables_match_reference(load(name))


CACHES = {"_judged", "_kept", "nf_memo", "instances"}


@pytest.mark.parametrize("name", library_names())
def test_a_copy_has_the_tables_of_its_theory_and_empty_caches(name):
    th = load(name)
    # adding the last axiom dropped `_judged`, not the judgments the build
    # derived with no conversion
    assert th._kept
    fields, copied = vars(th), vars(th.copy())
    assert fields.keys() == copied.keys() and CACHES < fields.keys()
    assert ({k: v for k, v in copied.items() if k not in CACHES}
            == {k: v for k, v in fields.items() if k not in CACHES})
    assert not any(copied[k] for k in CACHES)


class _Forgetful(dict):
    """A cache that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _judgments_and_fuel():
    """Build the bundled theories from source, as `gat check` does, then
    infer and check the sorts of the sweep's terms at depths 2-4, seed 1:
    the results, and the fuel each theory and the sweep metered."""
    built, fuel = {}, []
    for name in library_names():
        src = parse_source(entry(name).source)
        with record_fuel() as meter:
            built[name] = (check_theory(src.theory) if src.extends is None
                           else theory_extends(built[src.extends], src.theory))
        fuel.append(meter[0])
    mltt, empty, results = built["mltt"], Telescope(), []
    with record_fuel() as meter:
        for depth in (2, 3, 4):
            for t in generate_closed_obs_terms(
                    mltt, GenBudget(max_depth=depth, seed=1)):
                sort = infer_term(mltt, empty, t)
                results.append((t, sort, check_term(mltt, empty, t, sort)))
    fuel.append(meter[0])
    return results, fuel


def test_the_judgment_cache_changes_no_result_and_no_fuel(monkeypatch):
    cached = _judgments_and_fuel()
    reset = CheckedTheory._reset_engine_tables

    def reset_forgetful(th):
        reset(th)
        th._judged, th._kept = _Forgetful(), _Forgetful()

    monkeypatch.setattr(CheckedTheory, "_reset_engine_tables",
                        reset_forgetful)
    assert _judgments_and_fuel() == cached
    results, fuel = cached
    assert fuel == [0, 0, 5, 65, 2042]
    assert all(err is None for _, _, err in results)


# "f c" checks f{c{}/x} by converting T{b{}} to T{a{}}; after "b to a" the
# two sort rules cycle, so that conversion runs out of fuel.
STALE_AFTER_AXIOM = """
SORT N()
OP a() : N{}
OP b() : N{}
SORT T(n: N{})
OP c() : T{b{}/n}
SORTAX "a to b" () T{a{}/n} = T{b{}/n}
OP f(x: T{a{}/n}) : N{}
TERMAX "f c" () f{c{}/x} = a{} : N{}
TERMAX "b to a" () b{} = a{} : N{}
"""


def test_a_judgment_made_before_an_axiom_is_not_reused_after_it():
    th = check_theory(parse_theory(STALE_AFTER_AXIOM))
    m, n = parse_term("f{c{}/x}"), parse_sort("N{}")
    with record_fuel() as warm:
        err = check_term(th, Telescope(), m, n)
    assert err.kind == ErrorKind.EQUALITY_FUEL_EXHAUSTED
    with record_fuel() as cold:
        assert check_term(th.copy(), Telescope(), m, n) == err
    assert warm[0] == cold[0] == EqEngineConfig().fuel


# f{c{}/t} checks by converting T{p{}/x} to T{q{}/x}, which P's irrelevance
# proves with no rewrite, and so with no fuel.
ZERO_FUEL_CONVERSION = """
SORT P()
OP p() : P{}
OP q() : P{}
TERMAX "P irrelevance" (a: P{}, b: P{}) a = b : P{}
SORT T(x: P{})
OP c() : T{p{}/x}
OP f(t: T{q{}/x}) : P{}
"""


def test_a_conversion_that_meters_no_fuel_is_derived_again_after_an_axiom(
        monkeypatch):
    th = check_theory(parse_theory(ZERO_FUEL_CONVERSION))
    calls = []
    real = checker.eq_sort
    monkeypatch.setattr(checker, "eq_sort",
                        lambda *args: calls.append(args) or real(*args))
    m, p = parse_term("f{c{}/t}"), parse_sort("P{}")
    with record_fuel() as fuel:
        assert infer_term(th, Telescope(), m) == p
    assert (len(calls), fuel[0]) == (1, 0)
    assert infer_term(th, Telescope(), m) == p
    assert len(calls) == 1
    axiom = parse_theory('TERMAX "p to q" () p{} = q{} : P{}')
    assert checker._extend_checked(th, axiom.items) is None
    assert infer_term(th, Telescope(), m) == p
    assert len(calls) == 2


def test_each_target_sort_check_subst_trusts_is_well_formed(monkeypatch):
    """Cartmell's presupposition, run: a target sort instantiated by entries
    that check is well formed, so `check_subst` need not check it."""
    # `check_subst` gives `_convert` the sorts it trusts; `check_term` gives
    # it only sorts it has checked
    given = set()
    real = checker._convert

    def convert(th, psi, m, a, cfg=None):
        given.add((th, psi, a))
        return real(th, psi, m, a, cfg)

    monkeypatch.setattr(checker, "_convert", convert)
    _judgments_and_fuel()
    monkeypatch.undo()
    assert len(given) > 100
    assert all(check_sort(th, psi, a) is None for th, psi, a in given)


def test_each_axiom_is_oriented_once_while_a_theory_is_built(mltt, monkeypatch):
    seen = []
    real = checker.oriented
    monkeypatch.setattr(checker, "oriented",
                        lambda ax: seen.append(ax) or real(ax))
    check_theory(mltt.theory)
    assert seen == [item for item in mltt.theory.items
                    if isinstance(item, (SortAxiom, TermAxiom))]
    assert len(seen) == 36


# P's irrelevance axiom comes after f, which takes an argument of sort P, and
# before g, which takes one too.
IRRELEVANT_AFTER_USE = """
SORT N()
SORT P(n: N{})
OP z() : N{}
OP p0() : P{z{}/n}
OP f(n: N{}, p: P{n/n}) : N{}
TERMAX "P irrelevance" (n: N{}, p: P{n/n}, q: P{n/n}) p = q : P{n/n}
OP g(p: P{z{}/n}, n: N{}) : N{}
"""


def test_an_irrelevance_axiom_replans_the_symbols_declared_before_it():
    th = check_theory(parse_theory(IRRELEVANT_AFTER_USE))
    assert th.irrelevant_heads == {"P"}
    assert th.plans["f"] == ((0, 1), (True, True), (False, True))
    assert th.plans["g"] == ((1, 0), (True, False), (True, False))
    _assert_tables_match_reference(th)
    # the kernel compares f's second argument modulo irrelevance
    tele = parse_telescope("q: P{z{}/n}")
    m, n = parse_term("f{z{}/n, p0{}/p}"), parse_term("f{z{}/n, q/p}")
    verdict = eq_term(th, tele, m, n, parse_sort("N{}"))
    assert isinstance(verdict, Equal)
    assert replay_trace(th, m, verdict.trace) == n


def test_extending_a_copy_leaves_the_rules_and_plans_unchanged(monoid):
    base = monoid.copy()
    rules, plans = dict(base.rules), dict(base.plans)
    ext = theory_extends(base, parse_theory(
        'SORT P(x: ob{})\n'
        'OP pick(x: ob{}, p: P{x/x}) : ob{}\n'
        'TERMAX "unit square" () cmp{id{}/a, id{}/b} = id{} : ob{}\n'
        'TERMAX "P irrelevance" (x: ob{}, p: P{x/x}, q: P{x/x}) '
        'p = q : P{x/x}'))
    assert isinstance(ext, CheckedTheory)
    assert (base.rules, base.plans) == (rules, plans)
    assert base.irrelevant_heads == frozenset()
    assert len(ext.rules["cmp"]) == len(rules["cmp"]) + 1
    assert ext.plans["pick"][2] == (False, True)
    _assert_tables_match_reference(ext)
