"""Closed-term evaluation at the observable base type.

Every closed term of sort el(empty, obs) should rewrite to the red or the
green constant; Stuck carries the normal form for diagnosis and always
indicates an engine or encoding gap, never an acceptable outcome.  A seeded
generator produces well-typed closed terms (constants, beta redexes,
lift-collapsing redexes, universe-annotated wrappers, substitution-action
wrappers) to exercise the evaluator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .checker import CheckedTheory, CheckError, check_term, infer_term
from .equality import Equal, NotProven, eq_sort, normalize_term
from .syntax import Cut, Subst, Telescope, Term

__all__ = [
    "GREEN",
    "RED",
    "CanonicalValue",
    "GenBudget",
    "Stuck",
    "evaluate_closed",
    "generate_closed_obs_terms",
]

_EMPTY_TELE = Telescope(())
# Generated terms live at levels 0.._LEVEL_CAP.
_LEVEL_CAP = 2


@dataclass(frozen=True)
class CanonicalValue:
    tag: str  # "red" | "green"


RED = CanonicalValue("red")
GREEN = CanonicalValue("green")


@dataclass(frozen=True)
class Stuck:
    term: Term


@dataclass(frozen=True)
class GenBudget:
    max_depth: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


def _op(th: CheckedTheory, head: str, *values: Term) -> Cut:
    """`head` applied to `values`, named by the telescope `th` declares for
    it; a wrong number of values raises rather than truncating."""
    decl = th.op_decls.get(head)
    params = decl[0] if decl is not None else th.sort_decls[head]
    return Cut(head, Subst(tuple(zip(params.names(), values, strict=True))))


# -- evaluation ------------------------------------------------------------


def evaluate_closed(th_mltt: CheckedTheory, m: Term):
    """Normalize a closed term of sort el(empty, obs) and read off the
    constant.  Returns RED, GREEN, or Stuck(normal form).  Raises
    ValueError when the term does not check, its sort is not that one by
    `eq_sort`, or a bound ends that query or the normalization."""
    sort = infer_term(th_mltt, _EMPTY_TELE, m)
    if isinstance(sort, CheckError):
        raise ValueError(f"term does not check over the empty telescope: {sort}")
    # an el sort is compared at its own level: terms live at several levels
    same = (isinstance(sort, Cut) and sort.head == "el"
            and eq_sort(th_mltt, _EMPTY_TELE, sort,
                        _el_obs(th_mltt, sort.args.lookup("l"))))
    # the normal form once the sort is el(empty, obs), else the failed check
    out = normalize_term(th_mltt, m) if isinstance(same, Equal) else same
    if isinstance(out, NotProven) and out.fuel_exhausted:
        raise ValueError(f"normalization gave up: {out.reason}")
    if not isinstance(out, tuple):
        raise ValueError("term is not a closed element of the observable type")
    nf = out[0]
    if isinstance(nf, Cut) and nf.head == "red":
        return RED
    if isinstance(nf, Cut) and nf.head == "green":
        return GREEN
    return Stuck(nf)


def _el_obs(th: CheckedTheory, level: Term) -> Cut:
    """el(empty, obs) at `level`."""
    emp = _op(th, "emp")
    return _op(th, "el", level, emp, _op(th, "obs", level, emp))


# -- generation ------------------------------------------------------------


def generate_closed_obs_terms(th_mltt: CheckedTheory,
                              budget: GenBudget) -> list[Term]:
    """Deterministic list of closed well-typed terms of sort el(empty, obs).

    Depth 1 gives exactly the two constants at level zero.  Deeper budgets
    wrap recursively generated terms in beta redexes, lift-collapsing
    redexes, universe-annotated wrappers, and substitution actions.  Each
    term is checked at el(empty, obs) of its level before it is returned."""
    rng = random.Random(f"{budget.max_depth}:{budget.seed}:{_LEVEL_CAP}")
    gen = _Generator(th_mltt, rng)
    if budget.max_depth == 1:
        return [gen.post_check(_op(th_mltt, name, gen.levels[0], gen.emp), 0)
                for name in ("red", "green")]
    # each level is drawn just before its term, the order that pins the output
    levels = (rng.randint(0, _LEVEL_CAP) for _ in range(40))
    return [gen.post_check(gen.term(budget.max_depth, level), level)
            for level in levels]


class _Generator:
    def __init__(self, th: CheckedTheory, rng: random.Random):
        self.th = th
        self.rng = rng
        self.emp = _op(th, "emp")
        # one shared numeral per level: ls applied n times to lz
        self.levels = [_op(th, "lz")]
        for _ in range(_LEVEL_CAP):
            self.levels.append(_op(th, "ls", self.levels[-1]))
        self.el_obs = [_el_obs(th, level) for level in self.levels]

    def obs(self, level: int) -> Cut:
        return _op(self.th, "obs", self.levels[level], self.emp)

    def lt_proof(self, a: int, b: int) -> Term:
        """A proof term of level a < level b, built from lts and ltcmp."""
        if not a < b:
            raise ValueError("requires a < b")
        th, lv = self.th, self.levels
        step = _op(th, "lts", lv[a])
        if b == a + 1:
            return step
        return _op(th, "ltcmp", lv[a], lv[a + 1], lv[b], step,
                   self.lt_proof(a + 1, b))

    def post_check(self, t: Term, level: int) -> Term:
        err = check_term(self.th, _EMPTY_TELE, t, self.el_obs[level])
        if err is not None:
            raise AssertionError(f"generated term fails to check: {err}")
        return t

    def term(self, depth: int, level: int) -> Term:
        if depth <= 1:
            name = self.rng.choice(("red", "green"))
            return _op(self.th, name, self.levels[level], self.emp)
        makers = [self._const_beta, self._identity_beta, self._action_wrapper]
        if level >= 1:
            makers.append(self._lifted_beta)
        if level < _LEVEL_CAP:
            makers.append(self._universe_annotated)
        return self.rng.choice(makers)(depth, level)

    def _obs_redex(self, level: int, a_ty: Term, body_of, n: Term) -> Term:
        """app of a lam at type a_ty whose codomain is a_ty weakened."""
        th, l, emp = self.th, self.levels[level], self.emp
        ctx = _op(th, "ext", l, emp, a_ty)
        p = _op(th, "proj", l, emp, a_ty)
        b_ty = _op(th, "tyact", l, ctx, emp, p, a_ty)
        fn = _op(th, "lam", l, emp, a_ty, b_ty, body_of(l, ctx, p))
        return _op(th, "app", l, emp, a_ty, b_ty, fn, n)

    def _const_beta(self, depth: int, level: int) -> Term:
        # constant function: body is a weakened recursive term
        inner = self.term(depth - 1, level)
        a_ty = self.obs(level)

        def body(l, ctx, p):
            return _op(self.th, "elact", l, ctx, self.emp, p, a_ty, inner)

        n = self.term(1, level)
        return self._obs_redex(level, a_ty, body, n)

    def _identity_beta(self, depth: int, level: int) -> Term:
        # identity function applied to a recursive argument
        a_ty = self.obs(level)

        def body(l, ctx, p):
            return _op(self.th, "vr", l, self.emp, a_ty)

        return self._obs_redex(level, a_ty, body, self.term(depth - 1, level))

    def _lifted_beta(self, depth: int, level: int) -> Term:
        # same redex with the domain written as a lifted lower-level obs
        low = self.rng.randint(0, level - 1)
        a_ty = _op(self.th, "lift", self.levels[low], self.levels[level],
                   self.lt_proof(low, level), self.emp, self.obs(low))

        def body(l, ctx, p):
            return _op(self.th, "elact", l, ctx, self.emp, p, a_ty,
                       self.term(depth - 1, level))

        return self._obs_redex(level, a_ty, body, self.term(1, level))

    def _universe_annotated(self, depth: int, level: int) -> Term:
        # obs inhabits the universe one level up; confirm that reading of
        # the type, then use obs itself as the annotation of an action
        th, lv, emp = self.th, self.levels, self.emp
        high = self.rng.randint(level + 1, _LEVEL_CAP)
        a_ty = self.obs(level)
        univ = _op(th, "univ", lv[level], lv[high], self.lt_proof(level, high),
                   emp)
        univ_sort = _op(th, "el", lv[high], emp, univ)
        err = check_term(th, _EMPTY_TELE, a_ty, univ_sort)
        if err is not None:
            raise AssertionError(f"obs fails to check at the universe: {err}")
        return _op(th, "elact", lv[level], emp, emp, _op(th, "homid", emp),
                   a_ty, self.term(depth - 1, level))

    def _action_wrapper(self, depth: int, level: int) -> Term:
        a_ty = self.obs(level)
        inner = self.term(depth - 1, level)
        gamma = self._endo_arrow(level)
        return _op(self.th, "elact", self.levels[level], self.emp, self.emp,
                   gamma, a_ty, inner)

    def _endo_arrow(self, level: int) -> Term:
        """A closed arrow from the empty context to itself."""
        th, l, emp = self.th, self.levels[level], self.emp
        a_ty = self.obs(level)
        homid = _op(th, "homid", emp)
        kind = self.rng.randrange(4)
        if kind == 0:
            return homid
        if kind == 1:
            return _op(th, "bang", emp)
        if kind == 2:
            return _op(th, "homcmp", emp, emp, emp, homid,
                       _op(th, "bang", emp))
        # proj composed with a section of the comprehension of obs
        witness = _op(th, "elact", l, emp, emp, homid, a_ty,
                      self.term(1, level))
        ctx = _op(th, "ext", l, emp, a_ty)
        section = _op(th, "snoc", l, emp, emp, a_ty, homid, witness)
        return _op(th, "homcmp", emp, ctx, emp, _op(th, "proj", l, emp, a_ty),
                   section)
