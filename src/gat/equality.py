"""Bounded equality engine for sorts, terms and substitutions.

Equality in a generalized algebraic theory is undecidable in general, so the
engine is a fuel-bounded semi-decision procedure: it answers `Equal` with a
replayable trace, or `NotProven`, never "unequal".

Strategy:
  * terms are normalized by leftmost-innermost rewriting with the theory's
    oriented term axioms;
  * axioms whose two sides are distinct telescope variables mark their sort
    as proof-irrelevant; terms are compared modulo arguments at irrelevant
    positions, and such axioms never drive rewriting;
  * sorts are normalized exactly like terms, their roots rewritten with the
    theory's oriented sort axioms; a sort axiom serves only as such a rule,
    so one that no orientation lets fire proves nothing;
  * a query that finds no answer ends at the first of three bounds, with a
    `NotProven(fuel_exhausted=True)` whose reason names it: the rewrite
    fuel, the term size cap, or the cap on nested discharges of deferred
    positions (see `match`).

Pattern matching distinguishes forced argument positions from flex ones.  A
telescope position is flex when its variable is determined by the sort of a
later position (a type or level annotation).  Flex positions are matched by
trial: a failed or conflicting sub-match there is skipped rather than
failing the whole match, because normalization may have rewritten an
annotation the axiom spells out in constructor form.  Forced positions
always match strictly, which is what keeps distinct axioms apart.

Every query (`eq_sort`, `eq_term`, `normalize_term`) that is asked afresh
runs its own engine with its own fuel and its own table of the terms it has
normalized.  All of them read the rewrite rules and match plans the
`CheckedTheory` extends as items are added: each oriented axiom whose
source has every variable of its target appends its rule (see `oriented`),
and each declaration adds its symbol's plan.  They also share one
normal-form memo held by the theory.  A memo entry records
how its term normalized: the entries of its arguments, the terms its
deferred positions made it normalize, and its root rewrite.  Computed or
taken from the memo, a term the query has not normalized yet is charged in
one order: its arguments; then, one nesting level deeper, each deferred
position's instance and subject; then its root rewrite, through the one
helper `_charge`, which spends 1 fuel, checks the size of the result and
then normalizes the result.  A term already in the query's own table costs
nothing.  So a verdict, its trace and the fuel it used never depend on what
the memo holds.

That makes the whole answer of a query a function of the theory, the query
and its bounds, and the theory keeps those of `eq_sort` and
`normalize_term` in `answers` (see `_bounded`), beside the checker's
judgments that converted (see `gat.checker._judge`): `answered` gives one
again for one lookup and the fuel it first spent.  An answer the recursion
limit decided is not kept, since it depends on the caller's stack.
`eq_term` and `eq_subst` run afresh every time: few of their queries
repeat, and a kept `eq_term` trace, the kind replay reads, would hold its
emitted steps as long as the theory.  One rule sets what lasts: anything
that used an equation is a function of the theory's items, so every item,
declaration or axiom, drops the memo, `answers` and replay's validated
instances, and only conversion-free judgments outlive it (see
`CheckedTheory`).

Traces.  An `EqTrace` lists `EqStep`s, whose format `gat.kernel` sets
out.  A rewrite's `pre` covers the positions `match` deferred, each as
subject -> normal form ~ normal form <- instance, then one irrelevance step
where a repeated pattern variable matched only modulo irrelevance; its
`post` is empty until `gat.kernel.invert` moves the `pre` there.
Sub-traces stay nested in their step, so a trace's top-level steps are
exactly the rewrites and irrelevance steps between its ends.  A join's
second half is the other side's normalization, inverted by
`gat.kernel.invert`.  `_Unemitted` builds every run x -> nf ~ nf <- y from
the memo entries of its ends.  The trace a query returns builds its
top-level steps with it on first read, once; `pre` and `post` are built
with the entry that holds them.  So a trace no one reads
costs nothing, and a trace read late is the one an eager engine would have
returned.

`replay_trace` is `gat.kernel.replay`, which imports nothing from this
engine or from the checker.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .kernel import (
    IRRELEVANCE,
    IRRELEVANT_SORT,
    SORT_AXIOM,
    TERM_AXIOM,
    EqStep,
    ReplayError,
    equal_mod_irr,
    invert,
    replay as replay_trace,
    sides,
)
from .syntax import (
    LR,
    RL,
    Cut,
    Sort,
    Subst,
    Telescope,
    Term,
    Var,
    replace_at,
    subst_apply_sort,
    subst_apply_term,
)

if TYPE_CHECKING:
    from .checker import CheckedTheory

@dataclass(frozen=True)
class EqEngineConfig:
    fuel: int = 10000
    max_term_size: int = 5000

    def __post_init__(self):
        if self.fuel <= 0 or self.max_term_size <= 0:
            raise ValueError("fuel and max_term_size must be positive")


DEFAULT_CFG = EqEngineConfig()


class _Steps:
    """`EqTrace.steps`, whose default is ().  The engine passes a trace an
    `_Unemitted` for its steps, and they are emitted on first read, once:
    every reader, `==`, `hash`, `repr` and `dataclasses.replace` included,
    sees the tuple an eager trace holds."""

    def __get__(self, trace, owner=None):
        if trace is None:
            return ()
        steps = trace.__dict__["steps"]
        if type(steps) is _Unemitted:
            steps = trace.__dict__["steps"] = sum(steps.emit(), ())
        return steps

    def __set__(self, trace, steps) -> None:
        trace.__dict__["steps"] = steps


@dataclass(frozen=True)
class EqTrace:
    start: object
    end: object
    steps: tuple[EqStep, ...] = _Steps()
    tele: Telescope | None = None


@dataclass(frozen=True)
class Equal:
    trace: EqTrace


@dataclass(frozen=True)
class NotProven:
    fuel_exhausted: bool = False
    reason: str = ""
    lhs_nf: object = None
    rhs_nf: object = None


class _Bound(Exception):
    """A bound ends the query, and its engine with it: nothing is restored
    on the way out.  The argument names the bound."""


class _Tally:
    """The process-wide accounting: the fuel metered by bounded queries and
    kept answers, the checker's conversions (see `gat.checker._judge`) and
    the innermost active `record_verdicts` log, or None.  Slotted, as the
    checker updates it at every hit."""

    __slots__ = ("fuel", "conversions", "verdicts")

    def __init__(self) -> None:
        self.fuel, self.conversions, self.verdicts = 0, 0, None


tally = _Tally()


@contextmanager
def record_verdicts():
    """Collect the trace of each `Equal` verdict and of each normalization
    given while active as (theory, trace); on exit, pass them on to the
    recorder this one is nested in."""
    outer = tally.verdicts
    log = tally.verdicts = []
    try:
        yield log
    finally:
        tally.verdicts = outer
        if outer is not None:
            outer += log


@contextmanager
def record_fuel():
    """Yield a one-element list holding, on exit, the fuel metered meanwhile
    into `tally` by every query and kept answer.  Recorders nest."""
    out, start = [0], tally.fuel
    try:
        yield out
    finally:
        out[0] = tally.fuel - start


def _logged(th: CheckedTheory, trace: EqTrace) -> EqTrace:
    if tally.verdicts is not None:
        tally.verdicts.append((th, trace))
    return trace


def oriented(ax) -> tuple[Term, Term] | None:
    """The (source, target) of the rewrite rule the `.gat` file orients
    `ax` into; None for an unoriented axiom, for one whose source is a
    variable: that matches everything, so such axioms (the
    proof-irrelevance ones) are handled by comparison instead, and for one
    whose target has a variable its source lacks: a match binds only the
    source's variables, so that rule could never fire, and none is made."""
    if ax.orientation not in (LR, RL):
        return None
    src, dst = sides(ax, ax.orientation)
    return (None if isinstance(src, Var) or not dst.fv <= src.fv
            else (src, dst))


# Discharging a deferred position normalizes terms, which matches rules,
# which may defer again.  The terms shrink in practice; this cap on the
# nesting makes termination unconditional.  Like fuel, it ends the query.
_PENDING_CAP = 20


@dataclass(eq=False, slots=True)
class _Entry:
    """How one term normalized, shared through the theory's `nf_memo`.

    `kids` pairs argument indices with the entries of arguments that took
    steps; `step` is the root rewrite, if a rule fired, to a term whose
    entry is `rest`.  `pending` lists the instance and then the subject of
    each deferred position `_discharge` normalized, one level deeper than
    the term, in order and also for rules that then did not apply.  The
    term's arguments, `pending` and `step.after` are what `_entry` charges
    a query that takes the entry from the memo.  Every entry is a full
    normalization: a query that hits a bound ends without one.  Steps are
    kept unflattened: `_emit` prefixes paths only when a trace is read."""

    nf: Term
    kids: tuple[tuple[int, "_Entry"], ...]
    step: EqStep | None
    rest: "_Entry | None"
    pending: tuple[Term, ...]


def _emit(e: _Entry | None, path: tuple[int, ...], out: list) -> None:
    """Append the steps of `e`, with `path` prefixed, to `out`: those of its
    kids at their indices, then its rewrite, then those of `rest`.  The walk
    keeps its own stack of entries, and of rewrites waiting for the kids
    before them, so an entry of any depth emits."""
    todo = [] if e is None else [(e, path)]
    while todo:
        e, path = todo.pop()
        if type(e) is EqStep:
            out.append(_moved(e, path) if path else e)
            continue
        if e.step is not None:
            if e.rest is not None:
                todo.append((e.rest, path))
            todo.append((e.step, path))
        if e.kids:
            todo += [(kid, path + (i,)) for i, kid in reversed(e.kids)]


def _moved(s: EqStep, path: tuple[int, ...]) -> EqStep:
    """`s` at `path`, its fields copied without the frozen `__init__`,
    which costs a call per field."""
    out = object.__new__(EqStep)
    out.__dict__.update(s.__dict__, path=path)
    return out


@dataclass(eq=False, slots=True)
class _Unemitted:
    """The steps x -> nf ~ nf <- y: those of entry `x`, then `mid`, then
    those of entry `y` inverted, which `emit` gives as three tuples.  A
    top-level trace holds one until it is read; a step's `pre` and `post`
    must be tuples, so they are emitted at once.  Entries never change once
    made, and emitting spends no fuel, so emitting late changes nothing."""

    x: _Entry | None
    mid: tuple[EqStep, ...] = ()
    y: _Entry | None = None

    def emit(self, path: tuple[int, ...] = ()) -> tuple[tuple, tuple, tuple]:
        """The three parts, with `path` prefixed to each step's."""
        steps: list[EqStep] = []
        back: list[EqStep] = []
        _emit(self.x, path, steps)
        _emit(self.y, path, back)
        mid = self.mid
        if path:
            mid = tuple(_moved(s, path + s.path) for s in mid)
        return tuple(steps), mid, invert(back)


class _Engine:
    def __init__(self, th: CheckedTheory, cfg: EqEngineConfig) -> None:
        self.th = th
        self.cfg = cfg
        self.fuel = cfg.fuel
        self._pending_depth = 0
        # The terms this query has normalized, as a cold engine would have
        # cached them; sort and operation symbols are disjoint, so sorts
        # and terms never collide.
        self._table: dict[Cut, _Entry] = {}
        # The (term, pending depth) pairs whose `_fresh` is in progress.
        self._active: set[tuple[Cut, int]] = set()
        # Set by `match` when a repeated pattern variable matched a term
        # equal to its binding only modulo irrelevance.
        self._inexact = False
        self.rules = th.rules
        self._plans = th.plans
        self._memo = th.nf_memo

    def _spend(self) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise _Bound("rewrite fuel exhausted")

    def _deeper(self) -> None:
        """Enter one more nested discharge of deferred positions."""
        if self._pending_depth >= _PENDING_CAP:
            raise _Bound(f"deferred matches nested deeper than {_PENDING_CAP}")
        self._pending_depth += 1

    # -- matching ----------------------------------------------------------

    def match(self, pattern: Term, subject: Term, sigma: dict,
              pending: list, path: tuple[int, ...] = ()) -> bool:
        """Strict match, except at flex and irrelevant argument positions,
        which are matched by trial: a failing trial defers the (path,
        pattern, subject) triple to `pending` instead of failing the whole
        match.  Deferred pairs must later be discharged by `_discharge`,
        which keeps skipping sound: the instantiated pattern has to
        normalize to the subject, it is not simply ignored.  A trial runs
        in place on `sigma` and `pending`; a failed one is cut back to
        their lengths before it."""
        if isinstance(pattern, Var):
            bound = sigma.get(pattern.name)
            if bound is None:
                sigma[pattern.name] = subject
                return True
            if bound is subject:
                return True
            self._inexact = True
            return equal_mod_irr(self.th, bound, subject)
        if not isinstance(subject, Cut) or subject.head != pattern.head:
            return False
        pe = pattern.args.entries
        se = subject.args.entries
        if len(pe) != len(se):
            return False
        # patterns are sides of checked axioms, so of their symbol's arity
        order, loose, _ = self._plans[pattern.head]
        for i in order:
            p, s = pe[i][1], se[i][1]
            if loose[i]:
                # popping undoes exactly a failed trial: `match` only adds
                # keys (it binds where sigma.get gives None, and no subject
                # is None), and a dict pops the last key added first
                keys, deferred = len(sigma), len(pending)
                if not self.match(p, s, sigma, pending, path + (i,)):
                    while len(sigma) > keys:
                        sigma.popitem()
                    del pending[deferred:]
                    pending.append((path + (i,), p, s))
            elif not self.match(p, s, sigma, pending, path + (i,)):
                return False
        return True

    def _discharge(self, sub: Subst, pending: list, t: Term, log: list):
        """Normalize, one nesting level deeper, each deferred position's
        instance and then its subject, appending both to `log`.  Returns
        the steps subject -> nf ~ nf <- instance at each position and `t`
        with every instance put in place; None as soon as an instance's
        normal form differs from its subject's modulo irrelevance."""
        if not pending:
            return [], t
        self._deeper()
        steps: list[EqStep] | None = []
        for path, pattern, subject in pending:
            inst = subst_apply_term(sub, pattern)
            log += (inst, subject)
            ni, ei = self.normal_entry(inst)
            ns, es = self.normal_entry(subject)
            mid = self._meet(ns, ni)
            if mid is None:
                steps = None
                break
            for part in _Unemitted(es, mid, ei).emit(path):
                steps += part
            t = replace_at(t, path, inst)
        self._pending_depth -= 1
        return None if steps is None else (steps, t)

    def match_rule(self, src: Term, subject: Term, log: list):
        """The instantiation making `subject` an instance of `src`, and the
        `pre` steps from `subject` to that instance: empty when `subject` is
        exactly it.  None when the rule does not apply.  Discharges append
        to `log`."""
        sigma: dict = {}
        pending: list = []
        self._inexact = False
        if not self.match(src, subject, sigma, pending):
            return None
        # discharging matches other rules, which resets the flag
        inexact = self._inexact
        if not all(p.fv <= sigma.keys() for _, p, _ in pending):
            return None
        sub = Subst(tuple(sigma.items()))
        found = self._discharge(sub, pending, subject, log)
        if found is None:
            return None
        pre, t = found
        if pending or inexact:
            # one irrelevance step where a repeated pattern variable matched
            # a term equal to its binding only modulo irrelevance
            source = subst_apply_term(sub, src)
            if t is not source:
                pre.append(EqStep(IRRELEVANCE, None, None, (), t, source))
        return sub, tuple(pre)

    def _meet(self, x: Term, y: Term) -> tuple[EqStep, ...] | None:
        """The steps between two normal forms: none when they are one term,
        an irrelevance step when they differ only at irrelevant positions,
        else None."""
        if x is y:
            return ()
        if equal_mod_irr(self.th, x, y):
            return (EqStep(IRRELEVANCE, None, None, (), x, y),)
        return None

    # -- normalization of sorts and terms ---------------------------------

    def normal_entry(self, t: Term):
        """The normal form of `t` and its entry, None for a variable."""
        if isinstance(t, Var):
            return t, None
        e = self._entry(t)
        return e.nf, e

    def _entry(self, t: Cut) -> _Entry:
        """The normalization of `t`: from this query's table, else from the
        theory's memo, else computed afresh.  A memo entry is charged as
        `_fresh` would charge computing it: its arguments, then its
        deferred discharges one level deeper, then its rewrite, so each
        term this query has not yet normalized costs its own rewrites and
        checks."""
        e = self._table.get(t)
        if e is not None:
            return e
        e = self._memo.get(t)
        if e is not None:
            for _, v in t.args.entries:
                if isinstance(v, Cut):
                    self._entry(v)
            if e.pending:
                self._deeper()
                for v in e.pending:
                    if isinstance(v, Cut):
                        self._entry(v)
                self._pending_depth -= 1
            if e.step is not None:
                self._charge(e.step.after)
        else:
            key = (t, self._pending_depth)
            if key in self._active:
                # A rewrite led back to a term being normalized at this
                # depth: a cold engine would repeat the same rewrites, each
                # costing fuel, until the fuel ran out.
                self.fuel = 0
                self._spend()
            self._active.add(key)
            e = self._fresh(t)
            self._active.discard(key)
            self._memo[t] = e
        self._table[t] = e
        return e

    def _charge(self, after: Term) -> _Entry | None:
        """A rewrite to `after`: 1 fuel, the size check, then the
        normalization of `after` (None for a variable), in that order."""
        self._spend()
        if after.size > self.cfg.max_term_size:
            raise _Bound("term size cap exceeded")
        return self._entry(after) if isinstance(after, Cut) else None

    def _fresh(self, t: Cut) -> _Entry:
        args = [self._entry(v) if isinstance(v, Cut) else None
                for _, v in t.args.entries]
        kids = tuple((i, a) for i, a in enumerate(args)
                     if a is not None and (a.kids or a.step is not None))
        if kids:
            t = Cut(t.head, Subst(tuple(
                (name, v if a is None else a.nf)
                for (name, v), a in zip(t.args.entries, args))))
        log: list = []
        for kind, idx, src, dst, direction in self.rules.get(t.head, ()):
            found = self.match_rule(src, t, log)
            if found is not None:
                sub, pre = found
                new = subst_apply_term(sub, dst)
                step = EqStep(kind, idx, direction, (), t, new, None, sub, pre)
                rest = self._charge(new)
                return _Entry(new if rest is None else rest.nf, kids, step,
                              rest, tuple(log))
        return _Entry(t, kids, None, None, tuple(log))

    # -- equality --------------------------------------------------------

    def join(self, x, y, tele, reason: str):
        """Rewrite both sides to normal form and compare modulo irrelevance.
        An `Equal` trace runs x -> nf(x) -> nf(y) -> y; otherwise `NotProven`
        with `reason`."""
        nx, ex = self.normal_entry(x)
        ny, ey = self.normal_entry(y)
        mid = self._meet(nx, ny)
        if mid is None:
            return NotProven(False, reason, nx, ny)
        return Equal(EqTrace(x, y, _Unemitted(ex, mid, ey), tele))


def answered(th: CheckedTheory, kept: tuple):
    """The result of a kept `(result, fuel, trace or None)`, its fuel
    metered and its trace, if any, logged."""
    result, spent, trace = kept
    tally.fuel += spent
    if trace is not None:
        _logged(th, trace)
    return result


def _bounded(th: CheckedTheory, cfg: EqEngineConfig | None, body,
             key: tuple | None = None, log: bool = True):
    """Run `body` on a fresh engine; a bound it hits becomes `NotProven`.
    The fuel it spent is metered, whatever the verdict, and the trace of an
    `Equal` or of a normal form is logged if `log` (see `record_verdicts`).

    A query that passes its `key` keeps its answer in `th.answers`, under
    the key and the effective `cfg`, and is answered from there, with no
    engine, when asked again.  The answer of a cold engine is a function of
    the theory, the query and its bounds, so a kept one is too.  What the
    stack depth decided is not: a query the recursion limit ended is not
    kept, nor is one that raised."""
    cfg = cfg or DEFAULT_CFG
    if key is not None:
        key += (cfg,)
        kept = th.answers.get(key)
        if kept is not None:
            return answered(th, kept)
    engine = _Engine(th, cfg)
    try:
        result = body(engine)
    except _Bound as stop:
        result = NotProven(True, stop.args[0])
    except RecursionError:
        # The engine recurses once per nesting level of a term, so a deep
        # enough term runs out of interpreter stack before it runs out of
        # fuel.
        return NotProven(True, "term nesting deeper than the recursion limit "
                               f"({sys.getrecursionlimit()}) allows")
    finally:
        spent = cfg.fuel - max(engine.fuel, 0)
        tally.fuel += spent
    trace = (result.trace if type(result) is Equal
             else result[1] if type(result) is tuple else None)
    if trace is not None and log:
        _logged(th, trace)
    if key is not None:
        th.answers[key] = result, spent, trace
    return result


def eq_sort(th: CheckedTheory, psi: Telescope, a: Sort, b: Sort,
            cfg: EqEngineConfig | None = None):
    def body(engine: _Engine):
        if a == b:
            return Equal(EqTrace(a, b, (), psi))
        return engine.join(a, b, psi, "sorts do not join")
    return _bounded(th, cfg, body, ("sort", psi.bindings, a, b))


def _term_query(th: CheckedTheory, psi: Telescope, m: Term, n: Term, a: Sort):
    def body(engine: _Engine):
        if isinstance(a, Cut) and a.head in th.irrelevant_heads:
            steps = () if m == n else (
                EqStep(IRRELEVANT_SORT, None, None, (), m, n, note=a),)
            return Equal(EqTrace(m, n, _Unemitted(None, steps), psi))
        return engine.join(m, n, psi, "normal forms differ")
    return body


def eq_term(th: CheckedTheory, psi: Telescope, m: Term, n: Term, a: Sort,
            cfg: EqEngineConfig | None = None):
    return _bounded(th, cfg, _term_query(th, psi, m, n, a))


def eq_subst(th: CheckedTheory, phi: Telescope, p0: Subst, p1: Subst,
             target: Telescope):
    """Entry-wise term equality into `target`, a checked telescope: entry i
    is compared at target sort i, which mentions only names `p0` binds
    before entry i, instantiated by `p0`.  The trace holds each entry's
    steps, their paths led by the entry's index: all steps from `p0` to
    normal forms first, then those between them, then those to `p1`.  Only
    it is logged, not each entry's trace; each entry's fuel is metered."""
    if len(p0) != len(p1) or len(p0) != len(target):
        return NotProven(False, "substitution lengths differ")
    parts: tuple[list[EqStep], ...] = ([], [], [])
    for i, ((t0, v0), (t1, v1), (name, sort)) in enumerate(zip(
            p0.entries, p1.entries, target.bindings)):
        if t0 != name or t1 != name:
            return NotProven(False, f"target names do not match {name!r}")
        verdict = _bounded(th, None, _term_query(
            th, phi, v0, v1, subst_apply_sort(p0, sort)), log=False)
        if not isinstance(verdict, Equal):
            return verdict
        # no one has read the steps yet, so they are still unemitted
        steps = verdict.trace.__dict__["steps"]
        for part, half in zip(parts, steps.emit((i,))):
            part += half
    return Equal(_logged(th, EqTrace(p0, p1, tuple(sum(parts, [])), phi)))


def normalize_term(th: CheckedTheory, m: Term,
                   tele: Telescope = Telescope(())):
    """Normal form of `m` with the oriented axioms, plus the trace there
    over `tele`, the telescope of `m`, which replays: the default, empty,
    is for a closed term, and replay rejects a trace whose telescope leaves
    a variable of `m` unbound.  `NotProven` when a bound ends the rewriting
    first.  Its fuel goes to `record_fuel`, as every bounded query's does."""
    def body(engine: _Engine):
        nf, e = engine.normal_entry(m)
        return nf, EqTrace(m, nf, _Unemitted(e), tele)
    return _bounded(th, None, body, ("norm", m, tele.bindings))

