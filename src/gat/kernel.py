"""Trusted replay of equality traces.

It imports nothing from `gat` but `gat.syntax`; the engine in
`gat.equality` reuses its `sides` and its comparison modulo irrelevance,
`equal_mod_irr`.  It trusts the theory's tables, `gat.syntax` and a
sort-check callback, and compares whole terms by identity, since terms are
hash-consed.  Among the tables, it trusts each symbol's mask of
proof-irrelevant argument positions (the third part of its plan in
`th.plans`) when it compares terms modulo irrelevance.  The step format and
what each kind of step must satisfy are set out in `gat.equality`.  The
callback is asked about IRRELEVANT_SORT steps and the `sigma` values an
axiom's source side leaves open.  Axiom instances are validated once per
theory (see `_instance`), but their sort checks run at every use, so replay
gives the same verdict and meters the same fuel warm or cold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (LR, RL, Cut, SortAxiom, Subst, TermAxiom, Var,
                     subst_apply_term)

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
    """Whether x and y differ at most in arguments of proof-irrelevant sort.
    The pairs left to compare are kept on a stack, not the Python stack."""
    pairs = [(x, y)]
    while pairs:
        x, y = pairs.pop()
        if x is y:
            continue
        if not (isinstance(x, Cut) and isinstance(y, Cut) and x.head == y.head
                and x.args.targets() == y.args.targets()):
            return False
        plan = th.plans.get(x.head)
        irr = () if plan is None else plan[2]
        for i, pair in enumerate(zip(x.args.values(), y.args.values())):
            if not (i < len(irr) and irr[i]):
                pairs.append(pair)
    return True


def replay(th, start, trace, check):
    """What `trace` reaches from `start`, or a `ReplayError` naming the
    first top-level step that fails (-1: the start, len(steps): the end).
    `check(m, a)`: does `m` have sort `a` over the trace's telescope?
    None when it has none: then every open sort check fails."""
    if trace.start != start:
        return ReplayError(-1, "trace start differs from the given object")
    try:
        end = _walk(th, start, trace.steps, check)
    except _Reject as r:
        return ReplayError(*r.args)
    if trace.end is not None and end != trace.end:
        return ReplayError(len(trace.steps), "trace end differs from the result")
    return end


def _children(node):
    """The entries below a cut or a substitution; None below anything else."""
    return (node.args.entries if isinstance(node, Cut)
            else node.entries if isinstance(node, Subst) else None)


def _plug(parent, i: int, child):
    entries = _children(parent)
    if entries[i][1] is child:
        return parent
    args = Subst(entries[:i] + ((entries[i][0], child),) + entries[i + 1:])
    return Cut(parent.head, args) if isinstance(parent, Cut) else args


def _walk(th, focus, steps, check):
    """Replay `steps` with a zipper: `stack` holds the (parent, child index)
    pairs from the root down to `focus`, and a parent is rebuilt only when
    the walk leaves it."""
    stack: list = []
    for n, s in enumerate(steps):
        path = s.path
        k = 0
        while k < len(stack) and k < len(path) and stack[k][1] == path[k]:
            k += 1
        while len(stack) > k:
            focus = _plug(*stack.pop(), focus)
        for i in path[k:]:
            entries = _children(focus)
            if type(i) is not int or not 0 <= i < len(entries or ()):
                raise _Reject(n, "path leads outside the term")
            stack.append((focus, i))
            focus = entries[i][1]
        if focus is not s.before or isinstance(focus, Subst):
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
    """(source, target) of the instance of item `s.axiom` that `s` names.
    `th.instances` holds, per theory, what the telescope does not decide:
    both sides under a well-shaped `sigma`, and a (variable, value, sort)
    check per value the source side leaves open (bar `?` placeholders at
    proof-irrelevant sorts).  The checks run at every use, hit or miss."""
    items, i, sigma = th.theory.items, s.axiom, s.sigma
    kind = TermAxiom if s.kind == TERM_AXIOM else SortAxiom
    if not (type(i) is int and 0 <= i < len(items)
            and isinstance(items[i], kind) and s.direction in (LR, RL)
            and type(sigma) is Subst):
        raise _Reject(f"no {s.kind} at item {i!r} to use {s.direction!r}")
    key = (s.kind, i, s.direction, sigma)
    hit = th.instances.get(key)
    if hit is None:
        ax = items[i]
        src, dst = sides(ax, s.direction)
        names, bound = set(sigma.targets()), src.fv
        if (len(names) < len(sigma.entries) or not bound | dst.fv
                <= names <= set(ax.params.names())):
            raise _Reject("sigma is no instantiation of the axiom's variables")
        checks = []
        for v, value in sigma.entries:
            sort = ax.params.lookup(v)
            if v in bound or (value is Var("?" + v)
                              and sort.head in th.irrelevant_heads):
                continue
            if not sort.fv <= names:
                raise _Reject(f"no sort check for sigma's value for {v!r}")
            checks.append((v, value, subst_apply_term(sigma, sort)))
        hit = th.instances[key] = (subst_apply_term(sigma, src),
                                   subst_apply_term(sigma, dst), tuple(checks))
    src, dst, checks = hit
    for v, value, sort in checks:
        if check is None or not check(value, sort):
            raise _Reject(f"sigma's value for {v!r} does not check at its sort")
    return src, dst
