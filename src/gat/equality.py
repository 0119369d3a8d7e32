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
    theory's oriented sort axioms; when two normal forms still differ, a
    "bridge" step tries to exhibit them as the two sides of one sort axiom
    under a common instantiation, which covers axioms no orientation can
    use as a rewrite rule.

Pattern matching distinguishes forced argument positions from flex ones.  A
telescope position is flex when its variable is determined by the sort of a
later position (a type or level annotation).  Flex positions are matched by
trial: a failed or conflicting sub-match there is skipped rather than
failing the whole match, because normalization may have rewritten an
annotation the axiom spells out in constructor form.  Forced positions
always match strictly, which is what keeps distinct axioms apart.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .syntax import (
    LR,
    RL,
    Cut,
    Sort,
    Subst,
    Telescope,
    Term,
    Var,
    free_vars,
    replace_at,
    subst_apply_sort,
    subst_apply_term,
    subterm_at,
    term_size,
)

if TYPE_CHECKING:
    from .checker import CheckedTheory

# Step kinds appearing in traces.
TERM_AXIOM = "term-axiom"
SORT_AXIOM = "sort-axiom"
IRRELEVANCE = "irrelevance"
IRRELEVANT_SORT = "irrelevant-sort"


@dataclass(frozen=True)
class EqEngineConfig:
    fuel: int = 10000
    max_term_size: int = 5000

    def __post_init__(self):
        if self.fuel <= 0 or self.max_term_size <= 0:
            raise ValueError("fuel and max_term_size must be positive")


@dataclass(frozen=True)
class EqStep:
    kind: str
    axiom: int | None
    direction: str | None
    path: tuple[int, ...]
    before: Term
    after: Term
    note: object = None


@dataclass(frozen=True)
class EqTrace:
    start: object
    end: object
    steps: tuple[EqStep, ...] = ()
    tele: Telescope | None = None
    # Entry-wise traces when the compared objects are substitutions.
    entry_traces: tuple["EqTrace", ...] = ()


@dataclass(frozen=True)
class Equal:
    trace: EqTrace


@dataclass(frozen=True)
class NotProven:
    fuel_exhausted: bool = False
    reason: str = ""
    lhs_nf: object = None
    rhs_nf: object = None


@dataclass(frozen=True)
class ReplayError:
    step: int
    reason: str


class _OutOfFuel(Exception):
    pass


class _SizeExceeded(Exception):
    pass


# Registry collecting every Equal verdict, so a test run can replay them all.
_verdict_log: list | None = None


@contextmanager
def record_verdicts():
    global _verdict_log
    previous = _verdict_log
    _verdict_log = log = []
    try:
        yield log
    finally:
        _verdict_log = previous


def _equal(th: CheckedTheory, trace: EqTrace) -> Equal:
    if _verdict_log is not None:
        _verdict_log.append((th, trace))
    return Equal(trace)


# Accumulator for fuel spent across queries, for reporting.
_fuel_meter: list | None = None


@contextmanager
def record_fuel():
    global _fuel_meter
    previous = _fuel_meter
    _fuel_meter = meter = [0]
    try:
        yield meter
    finally:
        _fuel_meter = previous


def _sides(ax, direction: str):
    """An axiom's (source, target) when used in `direction`."""
    return (ax.lhs, ax.rhs) if direction == LR else (ax.rhs, ax.lhs)


def _flip(direction: str | None) -> str | None:
    if direction == LR:
        return RL
    if direction == RL:
        return LR
    return direction


def _invert(steps) -> tuple[EqStep, ...]:
    return tuple(
        replace(s, direction=_flip(s.direction), before=s.after, after=s.before)
        for s in reversed(steps)
    )


def _orient(kind: str, axioms) -> list:
    """Rewrite rules (kind, item index, source, target, direction, axiom)
    from the axioms the `.gat` file orients."""
    rules = []
    for idx, ax in axioms:
        if ax.orientation not in (LR, RL):
            continue
        src, dst = _sides(ax, ax.orientation)
        # A variable source matches everything; such axioms (the
        # proof-irrelevance ones) are handled by comparison instead.
        if not isinstance(src, Var):
            rules.append((kind, idx, src, dst, ax.orientation, ax))
    return rules


class _Engine:
    def __init__(self, th: CheckedTheory, cfg: EqEngineConfig) -> None:
        self.th = th
        self.cfg = cfg
        self.fuel = cfg.fuel
        self._pending_depth = 0
        # term or sort -> (normal form, steps with paths relative to it);
        # sort and operation symbols are disjoint, so the two never collide.
        self._nf_cache: dict[Term, tuple[Term, tuple[EqStep, ...]]] = {}
        self.rules = (_orient(TERM_AXIOM, th.term_axioms)
                      + _orient(SORT_AXIOM, th.sort_axioms))

    def _spend(self) -> None:
        self.fuel -= 1
        if self.fuel < 0:
            raise _OutOfFuel()

    # -- comparison modulo proof irrelevance -------------------------------

    def equal_mod_irr(self, x, y) -> bool:
        if x == y:
            return True
        if not isinstance(x, Cut) or not isinstance(y, Cut):
            return False
        if x.head != y.head or x.args.targets() != y.args.targets():
            return False
        heads = self.th.arg_heads_of(x.head)
        for i, (xv, yv) in enumerate(zip(x.args.values(), y.args.values())):
            if i < len(heads) and heads[i] in self.th.irrelevant_heads:
                continue
            if not self.equal_mod_irr(xv, yv):
                return False
        return True

    # -- matching ----------------------------------------------------------

    def _loose(self, head: str, i: int) -> bool:
        flex = self.th.flex_of(head)
        heads = self.th.arg_heads_of(head)
        if i < len(heads) and heads[i] in self.th.irrelevant_heads:
            return True
        return i < len(flex) and flex[i]

    def match(self, pattern: Term, subject: Term, sigma: dict,
              pending: list) -> bool:
        """Strict match, except at flex and irrelevant argument positions,
        which are matched by trial: a failing trial defers the (pattern,
        subject) pair to `pending` instead of failing the whole match.
        Deferred pairs must later be discharged by `_check_pending`, which
        keeps skipping sound: the instantiated pattern has to normalize to
        the subject, it is not simply ignored."""
        if isinstance(pattern, Var):
            if pattern.name in sigma:
                return self.equal_mod_irr(sigma[pattern.name], subject)
            sigma[pattern.name] = subject
            return True
        if not isinstance(subject, Cut) or subject.head != pattern.head:
            return False
        pv = pattern.args.values()
        sv = subject.args.values()
        if len(pv) != len(sv):
            return False
        n = len(pv)
        order = [i for i in range(n) if not self._loose(pattern.head, i)]
        order += [i for i in range(n) if self._loose(pattern.head, i)]
        for i in order:
            if self._loose(pattern.head, i):
                trial_sigma = dict(sigma)
                trial_pending = list(pending)
                if self.match(pv[i], sv[i], trial_sigma, trial_pending):
                    sigma.clear()
                    sigma.update(trial_sigma)
                    pending[:] = trial_pending
                else:
                    pending.append((pv[i], sv[i]))
            elif not self.match(pv[i], sv[i], sigma, pending):
                return False
        return True

    def _norm_quiet(self, t: Term) -> Term:
        return self._norm(t, (), [])

    def _check_pending(self, sigma: dict, pending: list) -> bool:
        if not pending:
            return True
        # Depth guard: discharging a deferred position normalizes terms,
        # which matches rules, which may defer again.  The terms shrink in
        # practice; the cap makes termination unconditional.
        if self._pending_depth >= 20:
            return False
        self._pending_depth += 1
        try:
            for pattern, subject in pending:
                inst = self._norm_quiet(self._instantiate(pattern, sigma))
                if not self.equal_mod_irr(inst, self._norm_quiet(subject)):
                    return False
            return True
        finally:
            self._pending_depth -= 1

    def match_rule(self, src: Term, dst: Term, subject: Term, ax):
        """Bindings making `subject` an instance of `src`, usable to build
        the corresponding instance of `dst`; None when the rule does not
        apply."""
        sigma: dict = {}
        pending: list = []
        if not self.match(src, subject, sigma, pending):
            return None
        needed = set(free_vars(dst))
        for pattern, _ in pending:
            needed |= free_vars(pattern)
        if not self._complete(sigma, needed, ax.params):
            return None
        if not self._check_pending(sigma, pending):
            return None
        return sigma

    def soft_match(self, pattern: Term, subject: Term, sigma: dict) -> None:
        """Harvest bindings wherever pattern and subject line up; never
        fails.  Used to recover variables one axiom side leaves free."""
        if isinstance(pattern, Var):
            if pattern.name not in sigma:
                sigma[pattern.name] = subject
            return
        if not isinstance(subject, Cut) or subject.head != pattern.head:
            return
        pv = pattern.args.values()
        sv = subject.args.values()
        if len(pv) != len(sv):
            return
        for p, s in zip(pv, sv):
            self.soft_match(p, s, sigma)

    def _instantiate(self, obj, sigma: dict):
        sub = Subst(tuple(sigma.items()))
        return subst_apply_term(sub, obj)

    def _complete(self, sigma: dict, needed: set[str], params: Telescope) -> bool:
        """Fill unbound variables at proof-irrelevant sorts with fresh
        placeholders (their value never takes part in comparison); any other
        unbound variable makes the instantiation unusable."""
        for v in sorted(needed - sigma.keys()):
            sort = params.lookup(v)
            if sort is not None and sort.head in self.th.irrelevant_heads:
                sigma[v] = Var("?" + v)
            else:
                return False
        return True

    # -- normalization of sorts and terms ---------------------------------

    def normalize(self, t: Term):
        steps: list[EqStep] = []
        nf = self._norm(t, (), steps)
        return nf, steps

    def _norm(self, t: Term, path, steps) -> Term:
        if isinstance(t, Var):
            return t
        hit = self._nf_cache.get(t)
        if hit is None:
            local: list[EqStep] = []
            nf = self._norm_fresh(t, local)
            hit = (nf, tuple(local))
            self._nf_cache[t] = hit
        nf, rel = hit
        if path:
            steps.extend(replace(s, path=path + s.path) for s in rel)
        else:
            steps.extend(rel)
        return nf

    def _norm_fresh(self, t: Cut, steps) -> Term:
        entries = []
        for i, (target, value) in enumerate(t.args.entries):
            entries.append((target, self._norm(value, (i,), steps)))
        t = Cut(t.head, Subst(tuple(entries)))
        for kind, idx, src, dst, direction, ax in self.rules:
            if src.head != t.head:
                continue
            sigma = self.match_rule(src, dst, t, ax)
            if sigma is None:
                continue
            new = self._instantiate(dst, sigma)
            self._spend()
            if term_size(new) > self.cfg.max_term_size:
                raise _SizeExceeded()
            steps.append(EqStep(kind, idx, direction, (), t, new))
            return self._norm(new, (), steps)
        return t

    # -- equality --------------------------------------------------------

    def join(self, x, y, tele, reason: str):
        """Rewrite both sides to normal form and compare modulo irrelevance;
        when the normal forms differ, try one bridge step between them.  An
        `Equal` trace runs x -> nf(x) -> nf(y) -> y; otherwise `NotProven`
        with `reason`."""
        nx, steps_x = self.normalize(x)
        ny, steps_y = self.normalize(y)
        if nx == ny:
            mid = ()
        elif self.equal_mod_irr(nx, ny):
            mid = (EqStep(IRRELEVANCE, None, None, (), nx, ny),)
        else:
            bridge = self._bridge(nx, ny)
            if bridge is None:
                return NotProven(False, reason, nx, ny)
            mid = (bridge,)
        steps = tuple(steps_x) + mid + _invert(steps_y)
        return _equal(self.th, EqTrace(x, y, steps, tele))

    def _bridge(self, x, y) -> EqStep | None:
        """Exhibit sorts x and y as the two sides of one sort axiom under a
        common instantiation.  One strict match seeds the bindings, a soft
        match on the opposite side recovers variables that side alone
        determines, and both instances are re-normalized and compared modulo
        irrelevance.  Term normal forms (including variables) never match."""
        if not isinstance(x, Cut) or not isinstance(y, Cut):
            return None
        for idx, ax in self.th.sort_axioms:
            for direction in (LR, RL):
                left, right = _sides(ax, direction)
                if left.head != x.head or right.head != y.head:
                    continue
                if self._bridge_instance(ax, left, right, x, y):
                    return EqStep(SORT_AXIOM, idx, direction, (), x, y)
        return None

    def _bridge_instance(self, ax, left, right, x: Sort, y: Sort) -> bool:
        """Try to instantiate left ↦ x and right ↦ y under one substitution.
        Either side may seed the strict match; the soft match on the other
        side recovers variables only that side determines.  Deferred
        positions are subsumed by the final normalize-and-compare check on
        whole instances, so pending is dropped."""
        for seed_left in (True, False):
            sigma: dict = {}
            if seed_left:
                if not self.match(left, x, sigma, []):
                    continue
                self.soft_match(right, y, sigma)
            else:
                if not self.match(right, y, sigma, []):
                    continue
                self.soft_match(left, x, sigma)
            needed = free_vars(left) | free_vars(right)
            if not self._complete(sigma, needed, ax.params):
                continue
            lx = self._norm_quiet(self._instantiate(left, sigma))
            ry = self._norm_quiet(self._instantiate(right, sigma))
            if self.equal_mod_irr(lx, x) and self.equal_mod_irr(ry, y):
                return True
        return False

    # -- trace validation --------------------------------------------------

    def validate_step(self, step: EqStep) -> str | None:
        if step.kind == IRRELEVANCE:
            if self.equal_mod_irr(step.before, step.after):
                return None
            return "sides differ at a relevant position"
        if step.kind == IRRELEVANT_SORT:
            sort = step.note
            if not isinstance(sort, Cut) or sort.head not in self.th.irrelevant_heads:
                return "sort is not proof-irrelevant"
            return None
        if step.kind == TERM_AXIOM:
            return self._validate_axiom_step(step, dict(self.th.term_axioms))
        if step.kind == SORT_AXIOM:
            err = self._validate_axiom_step(step, dict(self.th.sort_axioms))
            if err is None:
                return None
            return self._validate_bridge_step(step)
        return f"unknown step kind {step.kind!r}"

    def _validate_axiom_step(self, step: EqStep, axioms: dict) -> str | None:
        ax = axioms.get(step.axiom)
        if ax is None:
            return f"no axiom at item {step.axiom}"
        src, dst = _sides(ax, step.direction)
        sigma: dict = {}
        pending: list = []
        if not self.match(src, step.before, sigma, pending):
            return "source side does not match the rewritten subterm"
        self.soft_match(dst, step.after, sigma)
        needed = set(free_vars(dst))
        for pattern, _ in pending:
            needed |= free_vars(pattern)
        if not self._complete(sigma, needed, ax.params):
            return "axiom instantiation incomplete"
        if not self._check_pending(sigma, pending):
            return "deferred argument positions do not reconcile"
        inst = self._norm_quiet(self._instantiate(dst, sigma))
        if not self.equal_mod_irr(inst, self._norm_quiet(step.after)):
            return "target side does not match the replacement"
        return None

    def _validate_bridge_step(self, step: EqStep) -> str | None:
        ax = dict(self.th.sort_axioms).get(step.axiom)
        if ax is None:
            return f"no sort axiom at item {step.axiom}"
        left, right = _sides(ax, step.direction)
        bx = self._norm_quiet(step.before)
        by = self._norm_quiet(step.after)
        if not self._bridge_instance(ax, left, right, bx, by):
            return "sorts are not a joint instance of the axiom"
        return None


def _bounded(th: CheckedTheory, cfg: EqEngineConfig | None, body):
    cfg = cfg or EqEngineConfig()
    engine = _Engine(th, cfg)
    try:
        return body(engine)
    except _OutOfFuel:
        return NotProven(True, "rewrite fuel exhausted")
    except _SizeExceeded:
        return NotProven(True, "term size cap exceeded")
    finally:
        if _fuel_meter is not None:
            _fuel_meter[0] += cfg.fuel - max(engine.fuel, 0)


def eq_sort(th: CheckedTheory, psi: Telescope, a: Sort, b: Sort,
            cfg: EqEngineConfig | None = None):
    def body(engine: _Engine):
        if a == b:
            return _equal(th, EqTrace(a, b, (), psi))
        return engine.join(a, b, psi, "sorts do not join")
    return _bounded(th, cfg, body)


def eq_term(th: CheckedTheory, psi: Telescope, m: Term, n: Term, a: Sort,
            cfg: EqEngineConfig | None = None):
    def body(engine: _Engine):
        if isinstance(a, Cut) and a.head in th.irrelevant_heads:
            steps = () if m == n else (
                EqStep(IRRELEVANT_SORT, None, None, (), m, n, note=a),)
            return _equal(th, EqTrace(m, n, steps, psi))
        return engine.join(m, n, psi, "normal forms differ")
    return _bounded(th, cfg, body)


def eq_subst(th: CheckedTheory, phi: Telescope, p0: Subst, p1: Subst,
             target: Telescope):
    """Entry-wise term equality at the progressively instantiated sorts."""
    if len(p0) != len(p1) or len(p0) != len(target):
        return NotProven(False, "substitution lengths differ")
    entry_traces = []
    prefix: list[tuple[str, Term]] = []
    for (t0, v0), (t1, v1), (name, sort) in zip(
            p0.entries, p1.entries, target.bindings):
        if t0 != name or t1 != name:
            return NotProven(False, f"target names do not match {name!r}")
        inst = subst_apply_sort(Subst(tuple(prefix)), sort)
        verdict = eq_term(th, phi, v0, v1, inst)
        if not isinstance(verdict, Equal):
            return verdict
        entry_traces.append(verdict.trace)
        prefix.append((name, v0))
    return Equal(EqTrace(p0, p1, (), phi, tuple(entry_traces)))


def normalize_term(th: CheckedTheory, m: Term):
    """Normal form of `m` with the oriented axioms, plus the trace there."""
    engine = _Engine(th, EqEngineConfig())
    nf, steps = engine.normalize(m)
    return nf, EqTrace(m, nf, tuple(steps))


def replay_trace(th: CheckedTheory, start, trace: EqTrace):
    """Independently re-check a trace: each step must be an instance of the
    named axiom at the stated position, and the rewritten subterm must match
    the recorded one exactly."""
    engine = _Engine(th, EqEngineConfig())
    if trace.start != start:
        return ReplayError(-1, "trace start differs from the given object")
    current = start
    for i, step in enumerate(trace.steps):
        try:
            sub = subterm_at(current, step.path)
        except IndexError:
            return ReplayError(i, "path leads outside the term")
        if sub != step.before:
            return ReplayError(i, "recorded subterm differs from the current one")
        try:
            err = engine.validate_step(step)
        except (_OutOfFuel, _SizeExceeded):
            return ReplayError(i, "validation exceeded engine bounds")
        if err is not None:
            return ReplayError(i, err)
        if step.kind == IRRELEVANT_SORT and trace.tele is not None:
            # Imported here because gat.checker imports this module.
            from .checker import check_term

            for side in (step.before, step.after):
                if check_term(th, trace.tele, side, step.note) is not None:
                    return ReplayError(i, "term does not check at the stated sort")
        current = replace_at(current, step.path, step.after)
    if trace.end is not None and current != trace.end:
        return ReplayError(len(trace.steps), "trace end differs from the result")
    return current
