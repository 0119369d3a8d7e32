"""Raw syntax: substitution action, composition, and their laws."""

import copy
import gc
import itertools
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
    Telescope,
    Var,
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
        assert Var("x").fv == {"x"}

    def test_nullary_cut(self):
        assert cut("th").fv == set()

    def test_nested(self):
        m = cut("th", ("a", Var("x")), ("c", cut("th2", ("b", Var("y")))))
        assert m.fv == {"x", "y"}

    def test_sets_are_shared(self):
        # a cut has its substitution's set, a substitution the set of an
        # entry that covers the others, and closed nodes one empty set
        inner = cut("th2", ("b", Var("x")), ("d", Var("y")))
        m = cut("th", ("a", Var("x")), ("c", inner))
        assert m.fv is m.args.fv is inner.fv is inner.args.fv
        assert cut("th").fv is Subst().fv is cut("th", ("a", cut("k"))).fv

    def test_a_deep_term_needs_no_recursion(self):
        # 5000 nested cuts, at the default recursion limit
        m, closed = Var("x"), cut("lz")
        for _ in range(5000):
            m, closed = cut("ls", ("u", m)), cut("ls", ("u", closed))
        assert m.fv == {"x"}
        assert subst_apply_term(Subst((("x", RED),)), closed) is closed


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
        got = subst_apply_term(psi, m).fv
        bound = (m.fv - {"x", "y"}) | psi.fv
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
                      (m, "size"), (m.args, "fv")):
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


def _collect_free(obj, memo):
    """The reference for `fv`: the variables met by walking the term, with
    each shared node walked once."""
    if obj not in memo:
        if isinstance(obj, Var):
            memo[obj] = {obj.name}
        elif isinstance(obj, Cut):
            memo[obj] = _collect_free(obj.args, memo)
        else:
            memo[obj] = set().union(*(_collect_free(v, memo)
                                      for _, v in obj.entries))
    return memo[obj]


def _subterms(m):
    """Each distinct subterm of `m`, itself included."""
    seen, todo = set(), [m]
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            if isinstance(n, Cut):
                todo += n.args.values()
    return seen


@st.composite
def shared_terms(draw):
    """A term built bottom up from a pool of earlier terms, so that its
    subterms recur."""
    pool = [*map(Var, VARS), cut("k")]
    for _ in range(draw(st.integers(1, 12))):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))
        head = draw(st.sampled_from("fgk"))
        values = [pool[i] for i in picks]
        pool.append(Cut(head, Subst(tuple(zip("abc", values)))))
    return pool[-1]


@given(shared_terms())
def test_free_variables_are_the_walked_ones(m):
    memo: dict = {}
    for n in _subterms(m):
        assert n.fv == _collect_free(n, memo)


@given(shared_terms(), st.lists(TERMS, min_size=3, max_size=3))
def test_substitution_returns_a_closed_term_as_it_is(m, values):
    # interning alone would give back the same node; that the closed term
    # is not walked shows in test_a_deep_term_needs_no_recursion
    psi = Subst(tuple(zip(VARS, values)))
    for n in _subterms(m):
        if not n.fv:
            assert subst_apply_term(psi, n) is n
            assert subst_compose(n.args, psi) is n.args


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


def test_substitutions_whose_entries_hash_alike_are_one_node_each(
        monkeypatch):
    # a hash that a live substitution with other entries holds sends the
    # later ones to their exact keys, where every lookup finds them
    start = syntax._spilled
    entries = [(("a", Var(f"collide{i}")),) for i in range(3)]
    monkeypatch.setattr(syntax, "hash", lambda entries: -7, raising=False)
    nodes = [Subst(e) for e in entries]
    assert syntax._spilled == start + 2
    assert [Subst(e) for e in entries] == nodes and len(set(nodes)) == 3
    refs = [weakref.ref(n) for n in nodes]
    del nodes[0]  # the one that held the hash
    assert refs[0]() is None
    assert [Subst(e) for e in entries[1:]] == [r() for r in refs[1:]]
    del nodes
    gc.collect()
    assert all(r() is None for r in refs) and syntax._spilled == start


# -- the memo of applied terms on each substitution ------------------------

def _tree_apply(psi, m):
    """`subst_apply_term` as a tree walk: every path to a subterm rebuilds
    it, and no memo is read or filled."""
    if isinstance(m, Var):
        v = psi.lookup(m.name)
        return m if v is None else v
    return Cut(m.head, Subst(tuple((t, _tree_apply(psi, v))
                                   for t, v in m.args.entries)))


_FRESH = itertools.count()


@given(shared_terms(), st.lists(TERMS, min_size=3, max_size=3))
def test_substitution_gives_the_node_a_tree_walk_builds(m, values):
    # an entry for a variable no term has makes the substitution a new
    # node, so its memo starts empty
    psi = Subst(tuple(zip(VARS, values)) + ((f"w{next(_FRESH)}", RED),))
    assert psi.applied == {}
    expected = _tree_apply(psi, m)
    assert subst_apply_term(psi, m) is expected  # cold
    open_cuts = {n for n in _subterms(m) if isinstance(n, Cut) and n.fv}
    assert psi.applied.keys() == open_cuts
    assert subst_apply_term(psi, m) is expected  # warm
    assert psi.applied.keys() == open_cuts


def test_a_shared_subterm_is_substituted_once():
    # t_k = f{t_(k-1)/a, t_(k-1)/b}: a tree of 2^41 - 1 nodes, 41 distinct
    m = Var("x")
    for _ in range(40):
        m = cut("f", ("a", m), ("b", m))
    psi = Subst((("x", RED), (f"w{next(_FRESH)}", RED)))
    assert psi.applied == {}
    out = subst_apply_term(psi, m)
    assert len(psi.applied) == 40
    assert not out.fv and out.size == m.size == 2 ** 41 - 1
    assert subterm_at(out, (1,) * 40) is RED


def test_a_result_held_only_by_the_memo_dies_with_its_substitution():
    # the second result holds its substitution, as the args of its
    # subterm f{memo-y/x}, so the two are a cycle, which the collector
    # frees: no key of the table holds a node
    for m in (cut("g", ("y", Var("x"))),
              cut("g", ("a", cut("f", ("x", Var("x")))))):
        psi = Subst((("x", Var("memo-y")),))
        result = weakref.ref(subst_apply_term(psi, m))
        gc.collect()
        assert result() is not None  # the memo holds it
        del psi
        gc.collect()
        assert result() is None


def test_a_telescopes_names_are_made_once_and_change_nothing_else():
    ob = parse_term("ob{}")
    tele = Telescope((("x", ob), ("y", ob)))
    twin = Telescope((("x", ob), ("y", ob)))
    assert tele.names() == ("x", "y") and tele.names() is tele.names()
    # equality, hash, repr, copies and pickles see the bindings only
    assert tele == twin and hash(tele) == hash(twin)
    assert repr(tele) == repr(twin) == (
        f"Telescope(bindings={tele.bindings!r})")
    for other in (copy.deepcopy(tele), pickle.loads(pickle.dumps(tele))):
        assert other == tele and other.names() == ("x", "y")
    assert Telescope().names() == ()
