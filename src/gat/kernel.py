"""Trusted replay of equality traces.

It imports nothing from `gat` but `gat.syntax`; the engine in
`gat.equality` builds its traces from this module's `EqStep` and `invert`,
and reuses its `sides` and its comparison modulo irrelevance,
`equal_mod_irr`.  It trusts `gat.syntax` and the theory's tables: axioms by
item index, proof-irrelevant sort symbols, each operation's telescope and
result sort, and each symbol's mask of proof-irrelevant argument positions
(the third part of its plan in `th.plans`).  It asks no callback, and
compares whole terms by identity, since terms are hash-consed.

Steps.  An `EqStep` rewrites the subterm at `path` from `before` to
`after`; between substitutions, a path's first index picks an entry.  A
step of kind `TERM_AXIOM` or `SORT_AXIOM` uses the axiom at item `axiom` in
`direction`, under the instantiation `sigma` (a `Subst` binding every
variable of both sides, and nothing outside the axiom's telescope), with
two sub-traces at paths relative to the step: `pre` from `before` to the
source side's instance, and `post` from the target side's instance to
`after`.  An `IRRELEVANCE` step changes only arguments at positions of
proof-irrelevant sort; an `IRRELEVANT_SORT` step relates two terms of the
proof-irrelevant sort in `note`.  Sub-traces stay nested in their step,
at most `NESTING_CAP` levels deep, since replay recurses once per level.
Steps and tuples of steps may be shared: replay walks each distinct
sub-trace once from each term it starts at, by identity, however many
paths lead to it, and rebuilds a node only as it leaves it changed, never
one a step lands on.  `invert` turns steps from x to y into steps from y
to x: it reverses them, flips each direction and swaps and inverts each
step's `pre` and `post`, each distinct tuple once.

A trace from x to y proves x = y over its telescope and presupposes, as
that judgment does, that x and y are well formed there; replay checks only
that each is a node whose free variables are bound: a trace with no end
fails.  It takes the steps from x until one fails, then walks the rest,
inverted, from y: a step taken backward is its inversion taken forward.
Either way, a step checks what its source side leaves open (`sigma`'s other
values, an IRRELEVANT_SORT step's terms) with `_sort_of`, with no
conversion: sound but incomplete.  A join's second half inverts the other
side's normalization, whose values may check only up to conversion, so it
replays from that side, where the rewrites' sources bind them.  Sub-traces
are replayed in their step's direction only; none of the seed 0-9 sweep
queries, asked either way round, needs more.  Axiom instances are validated
once per theory and direction (see `_instance`); their open checks run at
every use.  Replay rewrites nothing and meters no fuel, so it gives the
same verdict warm or cold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (LR, RL, Cut, SortAxiom, Subst, Telescope, Term,
                     TermAxiom, Var, subst_apply_term)

TERM_AXIOM = "term-axiom"
SORT_AXIOM = "sort-axiom"
IRRELEVANCE = "irrelevance"
IRRELEVANT_SORT = "irrelevant-sort"
_FLIP = {LR: RL, RL: LR}
# How deep sub-traces may nest; the engine's nest one level per nested
# discharge (`gat.equality._PENDING_CAP`).
NESTING_CAP = 32


@dataclass(frozen=True)
class EqStep:
    kind: str
    axiom: int | None
    direction: str | None
    path: tuple[int, ...]
    before: Term
    after: Term
    note: object = None
    # axiom steps: the instantiation, and the sub-traces from `before` to
    # the source side's instance and from the target side's to `after`
    sigma: Subst | None = None
    pre: tuple["EqStep", ...] = ()
    post: tuple["EqStep", ...] = ()

    def __repr__(self) -> str:
        # sub-traces by their length: a shared one would print once per path
        return "EqStep(" + ", ".join(
            f"{k}=<{len(v)} steps>" if k in ("pre", "post") else f"{k}={v!r}"
            for k, v in vars(self).items()) + ")"


def invert(steps) -> tuple[EqStep, ...]:
    """The steps backwards: each one flipped, its sub-traces swapped and
    inverted.  A direction other than LR and RL is kept as it is.  Each
    distinct tuple of steps is inverted once, by identity, however many
    paths lead to it, so the result shares as the input does."""
    memo: dict = {}

    def inv(t):
        if not t:
            return ()
        hit = memo.get(id(t))
        if hit is None:
            hit = memo[id(t)] = tuple(
                EqStep(s.kind, s.axiom,
                       _FLIP[s.direction] if s.direction in (LR, RL)
                       else s.direction,
                       s.path, s.after, s.before, s.note, s.sigma,
                       inv(s.post), inv(s.pre))
                for s in reversed(t))
        return hit

    return inv(steps)


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
    The pairs left to compare are kept on a stack, not the Python stack,
    and each distinct pair is pushed once, by identity, however many paths
    lead to it: terms are hash-consed, so the work is bounded by the
    distinct nodes of x and y."""
    pairs = [(x, y)]
    pushed = set()
    while pairs:
        x, y = pairs.pop()
        if x is y:
            continue
        if not (isinstance(x, Cut) and isinstance(y, Cut) and x.head == y.head
                and x.args.targets() == y.args.targets()):
            return False
        plan = th.plans.get(x.head)
        irr = () if plan is None else plan[2]
        for i, (a, b) in enumerate(zip(x.args.values(), y.args.values())):
            if a is b or i < len(irr) and irr[i]:
                continue
            key = (id(a), id(b))
            if key not in pushed:
                pushed.add(key)
                pairs.append((a, b))
    return True


def replay(th, start, trace):
    """`trace.end` when the trace joins `start` to it, else a `ReplayError`
    naming the first top-level step that fails from `start` (-1: the start,
    the telescope, the types of the trace's fields or their nesting,
    len(steps): the end).  From the first step that fails on, the steps are
    inverted and walked from the end, and must reach the term the walk from
    `start` stopped at."""
    tele, end, steps = trace.tele, trace.end, trace.steps
    if trace.start != start:
        return ReplayError(-1, "trace start differs from the given object")
    if not isinstance(tele, Telescope):
        return ReplayError(-1, "no telescope")
    misshapen = _misshapen(steps)
    if misshapen:
        return ReplayError(-1, misshapen)
    names = frozenset(tele.names())
    if not _over(names, start):
        return ReplayError(-1, "start is not over the trace's telescope")
    if not _over(names, end):
        return ReplayError(len(steps), "end is not over the trace's telescope")
    walked: dict = {}
    try:
        reached = _walk(th, start, steps, tele, walked)
    except _Reject as r:
        n, reason, met = r.args
        try:
            if _walk(th, end, invert(steps[n:]), tele, walked) is met:
                return end
        except _Reject:
            pass
        return ReplayError(n, reason)
    if reached != end:
        return ReplayError(len(steps), "trace end differs from the result")
    return reached


def _misshapen(steps) -> str | None:
    """Why `steps` and the sub-traces within are not tuples of `EqStep`s
    with tuple paths, nested at most `NESTING_CAP` deep; None when they
    are.  The tuples wait on a stack with their depth, top-down, and each
    (tuple, depth) pair is checked once, by identity, so a tuple is met at
    the depth of its deepest path too.  A step with a side that is no node
    fails in `_walk`, so sides need no check here."""
    todo, seen = [(steps, 0)], set()
    while todo:
        t, depth = todo.pop()
        if (id(t), depth) in seen:
            continue
        seen.add((id(t), depth))
        if type(t) is not tuple or not all(
                type(s) is EqStep and type(s.path) is tuple
                and type(s.pre) is tuple and type(s.post) is tuple for s in t):
            return "steps are not shaped as the format sets out"
        subs = [(u, depth + 1) for s in t for u in (s.pre, s.post) if u]
        if subs and depth == NESTING_CAP:  # also ends a cycle
            return f"sub-traces nest deeper than {NESTING_CAP}"
        todo += subs
    return None


def _over(names, x) -> bool:
    """Whether `x` is a node whose free variables `names` binds."""
    return isinstance(x, (Var, Cut, Subst)) and x.fv <= names


def _children(node):
    """The entries below a cut or a substitution; None below anything else."""
    return (node.args.entries if isinstance(node, Cut)
            else node.entries if isinstance(node, Subst) else None)


def _walk(th, focus, steps, tele, walked):
    """Replay `steps` from `focus`, in order, with a lazy zipper: `stack`
    holds a frame per node from the root down to `focus`: the node, the
    list of its entries as they now stand and the index in focus.  Each
    step is located, compared with the subterm there and validated, its
    sub-traces through `_sub`.  A step that fails raises `_Reject(n,
    reason, root)`, where `root` is the term the walk had reached."""
    stack: list = []
    for n, s in enumerate(steps):
        path, k = s.path, 0
        while k < len(stack) and k < len(path) and stack[k][2] == path[k]:
            k += 1
        while len(stack) > k + (k < len(path)):  # keep those above s.before
            focus = _up(stack.pop(), focus, s.before)
        try:
            if len(stack) > k:  # on to a sibling: nothing is rebuilt
                _, entries, i = frame = stack[k]
                entries[i] = entries[i][0], focus
                focus = entries[_index(path[k], entries)][1]
                frame[2], k = path[k], k + 1
            for i in path[k:]:
                entries = list(_children(focus) or ())
                stack.append([focus, entries, _index(i, entries)])
                focus = entries[i][1]
            if focus is not s.before or isinstance(focus, Subst):
                raise _Reject("recorded subterm differs from the current one")
            _step(th, s, tele, walked)
        except _Reject as r:
            while stack:
                focus = _up(stack.pop(), focus)
            raise _Reject(n, r.args[0], focus) from None
        focus = s.after
    while stack:
        focus = _up(stack.pop(), focus)
    return focus


def _index(i, entries) -> int:
    if type(i) is not int or not 0 <= i < len(entries):
        raise _Reject("path leads outside the term")
    return i


def _up(frame, focus, before=None):
    """The node of `frame` with `focus` at its index: `before` if it is that
    cut, compared entry by entry, else the node, rebuilt if it changed."""
    node, entries, i = frame
    entries[i] = entries[i][0], focus
    entries = tuple(entries)
    if (type(before) is type(node) is Cut and before.head == node.head
            and before.args.entries == entries):
        return before
    if entries == _children(node):
        return node
    args = Subst(entries)
    return Cut(node.head, args) if type(node) is Cut else args


def _step(th, s, tele, walked) -> None:
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
        src, dst = _instance(th, s, tele)
        _sub(th, s.before, s.pre, src, tele, walked, "pre")
        _sub(th, dst, s.post, s.after, tele, walked, "post")
    else:
        raise _Reject(f"unknown step kind {s.kind!r}")


def _sub(th, start, steps, end, tele, walked, what: str) -> None:
    """Check that `steps` lead from `start` to `end`.  Each walk this replay
    finishes is kept in `walked` as `(steps, start, end)`, keyed by the ids
    of the two it holds, since the end depends on them, `th` and `tele`."""
    key = (id(steps), id(start))
    if steps and key not in walked:
        try:
            walked[key] = steps, start, _walk(th, start, steps, tele, walked)
        except _Reject as r:
            raise _Reject(f"{what} step {r.args[0]}: {r.args[1]}") from None
    if (walked[key][2] if steps else start) is not end:
        raise _Reject(f"{what} does not connect the step to the axiom instance")


def _instance(th, s, tele):
    """(source, target) of the instance of item `s.axiom` that `s` names,
    used in `s.direction`.  Each value the source side leaves open must have
    its instantiated sort.
    `th.instances` holds, per theory, both sides under a well-shaped `sigma`
    and the (variable, value, sort) checks of the open values, which run at
    every use over `tele`; a closed value's check is decided once, before
    that."""
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
            if v in bound:
                continue
            sort = ax.params.lookup(v)
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
