"""Trusted replay of equality traces, sharing no code with the rewriter.

It trusts the theory's tables, `gat.syntax` and a sort-check callback, and
compares whole terms by identity, since terms are hash-consed.  Among the
tables, it trusts each symbol's mask of proof-irrelevant argument positions
(the third part of its plan in `th.plans`) when it compares terms modulo
irrelevance.  The step format and what each kind of step must satisfy are
set out in `gat.equality`.  Validated axiom instances are cached in
`th.instances`, which the theory drops when an axiom is added; an instance
whose sort check was asked about an open term is not cached, since the
answer depends on the trace's telescope.  A hit skips the sort checks and
the fuel they meter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import LR, RL, Cut, Subst, Var, free_vars, subst_apply_term

TERM_AXIOM = "term-axiom"
SORT_AXIOM = "sort-axiom"
IRRELEVANCE = "irrelevance"
IRRELEVANT_SORT = "irrelevant-sort"


@dataclass(frozen=True)
class ReplayError:
    step: int
    reason: str


class _Reject(Exception):
    pass


def sides(ax, direction: str):
    """An axiom's (source, target) when used in `direction`, LR or RL."""
    return (ax.lhs, ax.rhs) if direction == LR else (ax.rhs, ax.lhs)


def equal_mod_irr(th, x, y) -> bool:
    """Whether x and y differ at most in arguments of proof-irrelevant sort."""
    if x is y:
        return True
    if not (isinstance(x, Cut) and isinstance(y, Cut) and x.head == y.head
            and len(x.args.entries) == len(y.args.entries)):
        return False
    plan = th.plans.get(x.head)
    irr = () if plan is None else plan[2]
    return all(
        xt == yt and (i < len(irr) and irr[i] or equal_mod_irr(th, xv, yv))
        for i, ((xt, xv), (yt, yv)) in enumerate(zip(x.args.entries,
                                                      y.args.entries)))


def replay(th, start, trace, check=None):
    """The term `trace` reaches from `start`, or a `ReplayError` naming the
    first top-level step that fails (-1: the start, len(steps): the end).
    `check(m, a)`: does `m` have sort `a` over the trace's telescope?"""
    if trace.start != start:
        return ReplayError(-1, "trace start differs from the given object")
    try:
        end = _walk(th, start, trace.steps, check)
    except _Reject as r:
        return ReplayError(*r.args)
    if trace.end is not None and end != trace.end:
        return ReplayError(len(trace.steps), "trace end differs from the result")
    return end


def _plug(parent: Cut, i: int, child):
    entries = parent.args.entries
    if entries[i][1] is child:
        return parent
    return Cut(parent.head, Subst(
        entries[:i] + ((entries[i][0], child),) + entries[i + 1:]))


def _walk(th, focus, steps, check):
    """Replay `steps` with a zipper: `stack` holds the (parent, argument
    index) pairs from the root down to `focus`, and a parent is rebuilt
    only when the walk leaves it."""
    stack: list = []
    for n, s in enumerate(steps):
        path = s.path
        k = 0
        while k < len(stack) and k < len(path) and stack[k][1] == path[k]:
            k += 1
        while len(stack) > k:
            focus = _plug(*stack.pop(), focus)
        for i in path[k:]:
            if (not isinstance(focus, Cut) or type(i) is not int
                    or not 0 <= i < len(focus.args.entries)):
                raise _Reject(n, "path leads outside the term")
            stack.append((focus, i))
            focus = focus.args.entries[i][1]
        if focus is not s.before:
            raise _Reject(n, "recorded subterm differs from the current one")
        try:
            _step(th, s, check)
        except _Reject as r:
            raise _Reject(n, r.args[0]) from None
        focus = s.after
    while stack:
        focus = _plug(*stack.pop(), focus)
    return focus


def _step(th, s, check) -> None:
    if s.kind == IRRELEVANCE:
        if not equal_mod_irr(th, s.before, s.after):
            raise _Reject("sides differ at a relevant position")
    elif s.kind == IRRELEVANT_SORT:
        a = s.note
        if not (isinstance(a, Cut) and a.head in th.irrelevant_heads
                and check and check(s.before, a) and check(s.after, a)):
            raise _Reject("terms do not check at a proof-irrelevant sort")
    elif s.kind in (TERM_AXIOM, SORT_AXIOM):
        src, dst = _instance(th, s, check)
        _sub(th, s.before, s.pre, src, check, "pre")
        _sub(th, dst, s.post, s.after, check, "post")
    else:
        raise _Reject(f"unknown step kind {s.kind!r}")


def _sub(th, start, steps, end, check, what: str) -> None:
    if steps:
        try:
            start = _walk(th, start, steps, check)
        except _Reject as r:
            raise _Reject(f"{what} step {r.args[0]}: {r.args[1]}") from None
    if start is not end:
        raise _Reject(f"{what} does not connect the step to the axiom instance")


def _instance(th, s, check):
    """(source, target) of the axiom instance `s` names, validated."""
    sigma = s.sigma
    key = (s.kind, s.axiom, s.direction, sigma)
    hit = th.instances.get(key)
    if hit is not None:
        return hit
    table = th.term_axioms if s.kind == TERM_AXIOM else th.sort_axioms
    ax = next((a for i, a in table if i == s.axiom), None)
    if ax is None or s.direction not in (LR, RL) or type(sigma) is not Subst:
        raise _Reject(f"no instance of a {s.kind} at item {s.axiom} used "
                      f"{s.direction!r}")
    src, dst = sides(ax, s.direction)
    names, bound = sigma.targets(), free_vars(src)
    if (len(set(names)) < len(names) or not set(names) <= set(ax.params.names())
            or not bound | free_vars(dst) <= set(names)):
        raise _Reject("sigma is no instantiation of the axiom's variables")
    open_check = False
    for v, value in sigma.entries:
        sort = ax.params.lookup(v)
        if v in bound or (value is Var("?" + v)
                          and sort.head in th.irrelevant_heads):
            continue
        if check is None or not free_vars(sort) <= set(names):
            raise _Reject(f"no sort check for sigma's value for {v!r}")
        sort = subst_apply_term(sigma, sort)
        if not check(value, sort):
            raise _Reject(f"sigma's value for {v!r} does not check at its sort")
        open_check = open_check or bool(free_vars(value) | free_vars(sort))
    out = subst_apply_term(sigma, src), subst_apply_term(sigma, dst)
    if not open_check:
        th.instances[key] = out
    return out
