"""Trusted replay of equality traces.

It imports nothing from `gat` but `gat.syntax`; the engine in
`gat.equality` reuses its `sides` and its comparison modulo irrelevance,
`equal_mod_irr`.  It trusts `gat.syntax` and the theory's tables: axioms by
item index, proof-irrelevant sort symbols, each operation's telescope and
result sort, and each symbol's mask of proof-irrelevant argument positions
(the third part of its plan in `th.plans`).  It asks no callback, and
compares whole terms by identity, since terms are hash-consed.  The step
format and what each kind of step must satisfy are set out in
`gat.equality`.

A trace from x to y proves x = y over its telescope and presupposes, as
that judgment does, that x and y are well formed there; replay checks only
that their free variables are bound.  It takes the steps from x until one
fails, then the rest backward from y, each as the step that uses its axiom
the other way round.  Either way, a step checks what its source side leaves
open (`sigma`'s other values, an IRRELEVANT_SORT step's terms) with
`_sort_of`, with no conversion: sound but incomplete.  A join's second half
inverts the other side's normalization, whose values may check only up to
conversion, so it replays from that side, where the rewrites' sources bind
them.  Sub-traces are replayed in their step's direction only; none of the
seed 0-9 sweep queries, asked either way round, needs more.  Axiom
instances are validated once per theory and direction (see `_instance`);
their open checks run at every use.  Replay rewrites nothing and meters no
fuel, so it gives the same verdict warm or cold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (LR, RL, Cut, SortAxiom, Subst, TermAxiom, Var,
                     subst_apply_term)

TERM_AXIOM = "term-axiom"
SORT_AXIOM = "sort-axiom"
IRRELEVANCE = "irrelevance"
IRRELEVANT_SORT = "irrelevant-sort"
FLIP = {LR: RL, RL: LR}


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


def replay(th, start, trace):
    """`trace.end` (with no end recorded, what the steps reach) when the
    trace joins `start` to it, else a `ReplayError` naming the first
    top-level step that fails from `start` (-1: the start or the telescope,
    len(steps): the end).  From the first step that fails on, the steps are
    replayed backward from the end, and must reach the term the walk from
    `start` stopped at."""
    tele, end, steps = trace.tele, trace.end, trace.steps
    if trace.start != start:
        return ReplayError(-1, "trace start differs from the given object")
    if tele is None:
        return ReplayError(-1, "no telescope")
    names = frozenset(tele.names())
    if not _over(names, start):
        return ReplayError(-1, "start is not over the trace's telescope")
    if end is not None and not _over(names, end):
        return ReplayError(len(steps), "end is not over the trace's telescope")
    try:
        reached = _walk(th, start, steps, tele)
    except _Reject as r:
        n, reason, met = r.args
        try:
            if end is not None and _walk(th, end, steps[n:], tele,
                                         True) is met:
                return end
        except _Reject:
            pass
        return ReplayError(n, reason)
    if end is not None and reached != end:
        return ReplayError(len(steps), "trace end differs from the result")
    return reached


def _over(names, x) -> bool:
    """Whether `names` binds every free variable of `x` bar the engine's `?`
    placeholders, which stand at proof-irrelevant positions."""
    return x.fv <= names or all(v in names or v[0] == "?" for v in x.fv)


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


def _walk(th, focus, steps, tele, back: bool = False):
    """Replay `steps` from `focus`, or backward from their end when `back`,
    with a zipper: `stack` holds the (parent, child index) pairs from the
    root down to `focus`, and a parent is rebuilt only when the walk leaves
    it.  A step that fails raises `_Reject(n, reason, root)`, where `root`
    is the term the walk had reached."""
    stack: list = []
    for n in reversed(range(len(steps))) if back else range(len(steps)):
        s = steps[n]
        path = s.path
        k = 0
        while k < len(stack) and k < len(path) and stack[k][1] == path[k]:
            k += 1
        while len(stack) > k:
            focus = _plug(*stack.pop(), focus)
        try:
            for i in path[k:]:
                entries = _children(focus)
                if type(i) is not int or not 0 <= i < len(entries or ()):
                    raise _Reject("path leads outside the term")
                stack.append((focus, i))
                focus = entries[i][1]
            if (focus is not (s.after if back else s.before)
                    or isinstance(focus, Subst)):
                raise _Reject("recorded subterm differs from the current one")
            _step(th, s, tele, back)
        except _Reject as r:
            while stack:
                focus = _plug(*stack.pop(), focus)
            raise _Reject(n, r.args[0], focus) from None
        focus = s.before if back else s.after
    while stack:
        focus = _plug(*stack.pop(), focus)
    return focus


def _step(th, s, tele, back: bool) -> None:
    """Check step `s`; when `back`, as the step from `s.after` to
    `s.before` that uses its axiom the other way round."""
    if s.kind == IRRELEVANCE:
        if not equal_mod_irr(th, s.before, s.after):
            raise _Reject("sides differ at a relevant position")
    elif s.kind == IRRELEVANT_SORT:
        a = s.note
        if not (isinstance(a, Cut) and a.head in th.irrelevant_heads
                and _sort_of(th, tele, s.before) is a
                and _sort_of(th, tele, s.after) is a):
            raise _Reject("terms do not check at a proof-irrelevant sort")
    elif s.kind in (TERM_AXIOM, SORT_AXIOM):
        src, dst = _instance(th, s, tele, back)
        if back:
            _sub(th, s.after, s.post, src, tele, back, "post")
            _sub(th, dst, s.pre, s.before, tele, back, "pre")
        else:
            _sub(th, s.before, s.pre, src, tele, back, "pre")
            _sub(th, dst, s.post, s.after, tele, back, "post")
    else:
        raise _Reject(f"unknown step kind {s.kind!r}")


def _sub(th, start, steps, end, tele, back: bool, what: str) -> None:
    if steps:
        try:
            start = _walk(th, start, steps, tele, back)
        except _Reject as r:
            raise _Reject(f"{what} step {r.args[0]}: {r.args[1]}") from None
    if start is not end:
        raise _Reject(f"{what} does not connect the step to the axiom instance")


def _instance(th, s, tele, back: bool):
    """(source, target) of the instance of item `s.axiom` that `s` names,
    used in `s.direction`, or the other way round when `back`.
    Each value the source side leaves open (bar `?` placeholders at
    proof-irrelevant sorts) must have its instantiated sort.  `th.instances`
    holds, per theory, both sides under a well-shaped `sigma` and the
    (variable, value, sort) checks of the open values, which run at every
    use over `tele`; a closed value's check is decided once, before that."""
    items, i, sigma = th.theory.items, s.axiom, s.sigma
    kind = TermAxiom if s.kind == TERM_AXIOM else SortAxiom
    if not (type(i) is int and 0 <= i < len(items)
            and isinstance(items[i], kind) and s.direction in (LR, RL)
            and type(sigma) is Subst):
        raise _Reject(f"no {s.kind} at item {i!r} to use {s.direction!r}")
    direction = FLIP[s.direction] if back else s.direction
    key = (s.kind, i, direction, sigma)
    hit = th.instances.get(key)
    if hit is None:
        ax = items[i]
        src, dst = sides(ax, direction)
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
            check = (v, value, subst_apply_term(sigma, sort))
            if value.fv:
                checks.append(check)
            else:
                _check(th, tele, *check)
        hit = th.instances[key] = (subst_apply_term(sigma, src),
                                   subst_apply_term(sigma, dst), tuple(checks))
    src, dst, checks = hit
    for check in checks:
        _check(th, tele, *check)
    return src, dst


def _check(th, tele, v: str, value, sort) -> None:
    if _sort_of(th, tele, value) is not sort:
        raise _Reject(f"sigma's value for {v!r} does not check at its sort")


def _sort_of(th, tele, t):
    """The sort of term `t` over `tele` as written, or None when `t` is no
    term there: each argument's sort must be its parameter's sort under the
    arguments, by identity, with no conversion.  The walk is post-order, on
    a stack of its own, with a memo by identity."""
    memo: dict = {}
    todo = [t]
    while todo:
        m = todo[-1]
        if type(m) is Var:
            todo.pop()
            memo[m] = tele.lookup(m.name)
            if memo[m] is None:
                return None
            continue
        decl = th.op_decls.get(m.head) if type(m) is Cut else None
        if decl is None or m.args.targets() != decl[0].names():
            return None
        todo += [v for v in m.args.values() if v not in memo]
        if todo[-1] is m:
            todo.pop()
            for (_, v), (_, sort) in zip(m.args.entries, decl[0].bindings):
                if memo[v] is not subst_apply_term(m.args, sort):
                    return None
            memo[m] = subst_apply_term(m.args, decl[1])
    return memo[t]
