"""Raw syntax: substitution action, composition, and their laws."""

import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from gat import syntax
from gat.surface import parse_term
from gat.syntax import (
    Cut,
    Subst,
    Var,
    free_vars,
    replace_at,
    subst_apply_sort,
    subst_apply_term,
    subst_compose,
    subterm_at,
)


def cut(head, *entries):
    return Cut(head, Subst(tuple(entries)))


RED = cut("red")


class TestApplyTerm:
    def test_empty_subst_fixes_variables(self):
        assert subst_apply_term(Subst(), Var("x")) == Var("x")

    def test_matched_variable_returns_assigned_term(self):
        psi = Subst((("x", RED),))
        assert subst_apply_term(psi, Var("x")) == RED

    def test_unmatched_target_leaves_cut_unchanged(self):
        psi = Subst((("y", RED),))
        m = cut("th", ("z", Var("x")))
        assert subst_apply_term(psi, m) == m

    def test_cut_arguments_are_composed(self):
        psi = Subst((("x", RED),))
        m = cut("th", ("z", Var("x")))
        assert subst_apply_term(psi, m) == cut("th", ("z", RED))


class TestApplySort:
    def test_empty_subst_on_nullary_sort(self):
        assert subst_apply_sort(Subst(), cut("ob")) == cut("ob")

    def test_entrywise_rewrite(self):
        psi = Subst((("x", RED),))
        a = cut("hom", ("a", Var("x")), ("b", Var("x")))
        assert subst_apply_sort(psi, a) == cut("hom", ("a", RED), ("b", RED))

    def test_nullary_cut_fixed_by_any_subst(self):
        psi = Subst((("x", RED), ("y", Var("z"))))
        assert subst_apply_sort(psi, cut("ob")) == cut("ob")


class TestCompose:
    def test_empty_phi(self):
        assert subst_compose(Subst(), Subst((("x", RED),))) == Subst()

    def test_empty_psi_fixes_values(self):
        phi = Subst((("a", Var("x")),))
        assert subst_compose(phi, Subst()) == phi

    def test_values_rewritten_targets_kept(self):
        phi = Subst((("a", Var("x")), ("c", cut("th", ("b", Var("x"))))))
        psi = Subst((("x", RED),))
        assert subst_compose(phi, psi) == Subst(
            (("a", RED), ("c", cut("th", ("b", RED)))))


class TestFreeVars:
    def test_variable(self):
        assert free_vars(Var("x")) == {"x"}

    def test_nullary_cut(self):
        assert free_vars(cut("th")) == set()

    def test_nested(self):
        m = cut("th", ("a", Var("x")), ("c", cut("th2", ("b", Var("y")))))
        assert free_vars(m) == {"x", "y"}


# -- random raw syntax for the algebraic laws ------------------------------

VARS = ("x", "y", "z")
HEADS = (("f", ("a",)), ("g", ("a", "b")), ("k", ()))


def random_term(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return Var(rng.choice(VARS))
    head, targets = rng.choice(HEADS)
    return Cut(head, Subst(tuple(
        (t, random_term(rng, depth - 1)) for t in targets)))


def random_subst(rng, depth, targets=VARS):
    return Subst(tuple((t, random_term(rng, depth)) for t in targets))


def test_composition_respects_action():
    rng = random.Random(7)
    for _ in range(300):
        m = random_term(rng, 3)
        phi = random_subst(rng, 2)
        psi = random_subst(rng, 2)
        lhs = subst_apply_term(psi, subst_apply_term(phi, m))
        rhs = subst_apply_term(subst_compose(phi, psi), m)
        assert lhs == rhs


def test_compose_is_associative():
    rng = random.Random(9)
    for _ in range(300):
        phi = random_subst(rng, 2)
        psi = random_subst(rng, 2)
        chi = random_subst(rng, 2)
        assert (subst_compose(subst_compose(phi, psi), chi)
                == subst_compose(phi, subst_compose(psi, chi)))


def test_free_vars_of_substituted_term_bounded():
    rng = random.Random(10)
    for _ in range(300):
        m = random_term(rng, 3)
        psi = random_subst(rng, 2, targets=("x", "y"))
        got = free_vars(subst_apply_term(psi, m))
        bound = (free_vars(m) - {"x", "y"}) | free_vars(psi)
        assert got <= bound


def test_term_size_counts_nodes():
    assert Var("x").size == 1
    assert cut("k").size == 1
    assert cut("f", ("a", Var("x"))).size == 2


def test_terms_have_slots_and_equal_structures_are_one_node():
    for obj in (Var("x"), cut("f", ("a", Var("x"))), Subst()):
        assert not hasattr(obj, "__dict__")
    a = cut("f", ("a", cut("g")), ("b", Var("x")))
    b = cut("f", ("a", cut("g")), ("b", Var("x")))
    assert a is b and a.args is b.args
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == (
        "Cut(head='f', args=Subst(entries=(('a', Cut(head='g', "
        "args=Subst(entries=()))), ('b', Var(name='x')))))")
    assert a != cut("f", ("a", cut("g")), ("b", Var("y")))


def test_every_way_of_building_a_term_gives_the_interned_node():
    m = cut("f", ("a", cut("g", ("a", Var("x")), ("b", RED))))
    assert Cut("f", Subst((("a", cut("g", ("a", Var("x")), ("b", RED))),))) is m
    assert parse_term("f{g{x/a, red{}/b}/a}") is m
    assert subst_apply_term(Subst((("y", Var("x")),)),
                            parse_term("f{g{y/a, red{}/b}/a}")) is m
    assert replace_at(cut("f", ("a", cut("g", ("a", Var("x")), ("b", Var("z"))))),
                      (0, 1), RED) is m
    for obj in (m, m.args, Var("x")):
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj
        assert pickle.loads(pickle.dumps(obj)) is obj


@pytest.mark.parametrize("path", [(-1,), (2,), (0, 0), (1, -2)])
def test_an_index_outside_the_arguments_has_no_subterm(path):
    m = cut("f", ("x", cut("a")), ("y", cut("g", ("z", cut("b")))))
    with pytest.raises(IndexError):
        subterm_at(m, path)
    with pytest.raises(IndexError):
        replace_at(m, path, RED)
    assert subterm_at(m, (1, 0)) is cut("b")
    assert replace_at(m, (1, 0), RED) is cut(
        "f", ("x", cut("a")), ("y", cut("g", ("z", RED))))


def test_terms_are_immutable():
    m = cut("f", ("a", Var("x")))
    for obj, name in ((m, "head"), (m.args, "entries"), (Var("x"), "name"),
                      (m, "size")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert m.head == "f" and m.size == 2


def _count_nodes(obj):
    if isinstance(obj, Var):
        return 1
    if isinstance(obj, Cut):
        return 1 + _count_nodes(obj.args)
    return sum(_count_nodes(v) for _, v in obj.entries)


TERMS = st.recursive(
    st.builds(Var, st.sampled_from(VARS)),
    lambda kids: st.builds(
        lambda head, values: Cut(head, Subst(tuple(zip("abc", values)))),
        st.sampled_from("fgk"), st.lists(kids, max_size=3)),
    max_leaves=40)


@given(TERMS)
def test_term_size_is_the_node_count(m):
    assert m.size == _count_nodes(m)
    if isinstance(m, Cut):
        assert m.args.size == _count_nodes(m.args)


def test_dead_terms_leave_the_table():
    gc.collect()
    before = len(syntax._table)
    terms = [cut("unique", ("a", cut("leaf", ("n", Var(f"v{i}")))))
             for i in range(200)]
    refs = [weakref.ref(m) for m in terms]
    assert len(syntax._table) >= before + 600
    del terms
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(syntax._table) <= before
