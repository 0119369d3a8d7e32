"""The benchmark's three workloads.

Each workload is a closed loop run from one thread: an op starts when the
previous one returns.  A round is a fixed list of ops made from the seed,
and a run repeats it.  A round that needs checked theories builds them from
source first, outside the timed ops, as a fresh `gat` process would, so
every repetition does the same work.  The `gat.library.load` memo is never
used, because it would carry the checker's caches from one round into the
next.

Each workload's `round(seed, op_span)` yields one `Op` per op: its latency, whether its verdict
matched the answer computed without the program under test, and one line
for the verdict digest.  Only calls into `gat` are timed; building inputs
and checking verdicts are not.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass

from gat import canonicity, checker, equality, library, surface
from gat.syntax import Cut, Subst, Telescope, Var

import reference

EMPTY = Telescope(())

# EXTENDS order of the bundled theories
ALL_THEORIES = ("monoid", "cat", "cwf", "mltt")


@dataclass(frozen=True)
class Op:
    latency: float
    ok: bool
    line: str


def build_theory(name: str, built: dict):
    """Parse and check one bundled theory from its source text, extending
    the already built theory it names in EXTENDS."""
    src = surface.parse_source(library.entry(name).source, path=f"{name}.gat")
    if src.extends is None:
        out = checker.check_theory(src.theory)
    else:
        out = checker.theory_extends(built[src.extends], src.theory)
    if isinstance(out, checker.CheckError):
        raise RuntimeError(f"bundled theory {name!r} does not check: {out}")
    return out


def build_theories(names) -> dict:
    built: dict = {}
    for name in names:
        built[name] = build_theory(name, built)
    return built


def _timed(op_span, call):
    """Run `call` inside an op span; return (seconds, result or exception)."""
    t0 = time.perf_counter()
    with op_span():
        try:
            out = call()
        except Exception as exc:  # the op failed; the loop must go on
            out = exc
    return time.perf_counter() - t0, out


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}"


# -- canonicity_sweep ------------------------------------------------------


class CanonicitySweep:
    """Criterion 6's loop over mltt: generate closed terms at depths 1-6,
    then evaluate, normalize, infer, prove and replay each one."""

    name = "canonicity_sweep"
    theories = ("cat", "mltt")

    def round(self, seed: int, op_span=nullcontext):
        th = build_theories(self.theories)["mltt"]
        # two generator seeds, 404 terms: enough that the round's median
        # term hardly moves from one seed to the next
        for gen_seed in (2 * seed, 2 * seed + 1):
            yield from self._batches(th, gen_seed, op_span)

    def _batches(self, th, gen_seed: int, op_span):
        for depth in range(1, 7):
            budget = canonicity.GenBudget(max_depth=depth, seed=gen_seed)
            gen_s, terms = _timed(op_span, lambda: (
                canonicity.generate_closed_obs_terms(th, budget)))
            if isinstance(terms, Exception):
                yield Op(gen_s, False, f"generate {_raised(terms)}")
                continue
            share = gen_s / len(terms)
            for term in terms:
                try:
                    expected = reference.closed_obs_value(term)
                except reference.ReferenceError:
                    expected = None  # a shape the reference cannot read
                secs, out = _timed(op_span, lambda: self._op(th, term))
                ok, line = self._verdict(out, expected)
                yield Op(share + secs, ok, line)

    @staticmethod
    def _op(th, term):
        value = canonicity.evaluate_closed(th, term)
        nf, _ = equality.normalize_term(th, term)
        sort = checker.infer_term(th, EMPTY, term)
        proof = equality.eq_term(th, EMPTY, term, nf, sort)
        replayed = None
        if isinstance(proof, equality.Equal):
            replayed = equality.replay_trace(th, term, proof.trace)
        return value, nf, proof, replayed

    @staticmethod
    def _verdict(out, expected: str):
        if isinstance(out, Exception):
            return False, _raised(out)
        value, nf, proof, replayed = out
        tag = getattr(value, "tag", "stuck")
        ok = (tag == expected and isinstance(nf, Cut) and nf.head == expected
              and isinstance(proof, equality.Equal) and replayed == nf)
        return ok, f"{tag} {surface.print_term(nf)} {type(proof).__name__}"


# -- open_equality ---------------------------------------------------------


@dataclass(frozen=True)
class Query:
    theory: str
    tele: Telescope
    lhs: object
    rhs: object
    sort: Cut
    equal: bool  # the answer, known from how the pair was built


_OB = Cut("ob", Subst(()))
_MONOID_VARS = 5


def _cut(head: str, *entries) -> Cut:
    return Cut(head, Subst(tuple(entries)))


def _bracket(rng: random.Random, items, join):
    """A random binary bracketing of a non-empty list, `join` combining two
    halves."""
    if len(items) == 1:
        return items[0]
    k = rng.randint(1, len(items) - 1)
    return join(_bracket(rng, items[:k], join), _bracket(rng, items[k:], join))


def monoid_query(rng: random.Random, equal: bool, length: int) -> Query:
    """Two bracketings of a word of `length` letters in five variables,
    each with units inserted; when not `equal`, one letter of the second
    word differs."""
    tele = Telescope(tuple((f"x{i}", _OB) for i in range(_MONOID_VARS)))
    word = [rng.randrange(_MONOID_VARS) for _ in range(length)]
    other = list(word)
    if not equal:
        j = rng.randrange(len(other))
        other[j] = (other[j] + rng.randint(1, _MONOID_VARS - 1)) % _MONOID_VARS

    def term(letters):
        items = [Var(f"x{i}") for i in letters]
        for _ in range(rng.randint(0, len(letters) // 3)):
            items.insert(rng.randint(0, len(items)), _cut("id"))
        return _bracket(rng, items,
                        lambda a, b: _cut("cmp", ("a", a), ("b", b)))

    return Query("monoid", tele, term(word), term(other), _OB, equal)


def _hom(d, c) -> Cut:
    return _cut("hom", ("d", d), ("c", c))


def cat_query(rng: random.Random, equal: bool, length: int) -> Query:
    """Two bracketings of a path o0 -> oL of `length` arrows over a
    telescope with two parallel arrows f_i, g_i : o_i -> o_i+1, each with
    identities inserted; when not `equal`, one arrow of the second path is
    swapped for its parallel one."""
    objs = [Var(f"o{i}") for i in range(length + 1)]
    bindings = [(f"o{i}", _OB) for i in range(length + 1)]
    for i in range(length):
        bindings += [(f"f{i}", _hom(objs[i], objs[i + 1])),
                     (f"g{i}", _hom(objs[i], objs[i + 1]))]
    choice = [rng.choice("fg") for _ in range(length)]
    other = list(choice)
    if not equal:
        j = rng.randrange(length)
        other[j] = "g" if other[j] == "f" else "f"

    def compose(p, q):
        # p: e -> d then q: d -> c, written homcmp{q/f, p/g}
        (pt, e, d), (qt, _, c) = p, q
        return (_cut("homcmp", ("e", e), ("d", d), ("c", c), ("f", qt),
                     ("g", pt)), e, c)

    def term(arrows):
        items = [(Var(f"{a}{i}"), objs[i], objs[i + 1])
                 for i, a in enumerate(arrows)]
        for _ in range(rng.randint(0, length // 3)):
            j = rng.randint(0, len(items))
            o = items[j - 1][2] if j else objs[0]
            items.insert(j, (_cut("homid", ("g", o)), o, o))
        return _bracket(rng, items, compose)[0]

    return Query("cat", Telescope(tuple(bindings)), term(choice),
                 term(other), _hom(objs[0], objs[-1]), equal)


class OpenEquality:
    """Seeded `eq_term` queries over open telescopes in monoid and cat;
    every Equal verdict's trace is replayed."""

    name = "open_equality"
    theories = ("monoid", "cat")
    # 100 size steps, 400 queries: enough that the costliest 5% of them,
    # the longest monoid words, hardly move from one seed to the next
    sizes = 100

    def queries(self, seed: int) -> list[Query]:
        """Each size step j gives four queries: monoid and cat, equal and
        not.  Every seed has the same sizes, evenly spread from 2 to 30
        letters and from 1 to 20 arrows, so that seeds differ in structure
        and not in how much work they ask for."""
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for j in range(self.sizes):
            letters = 2 + j * 28 // (self.sizes - 1)
            arrows = 1 + j * 19 // (self.sizes - 1)
            for equal in (True, False):
                out.append(monoid_query(rng, equal, letters))
                out.append(cat_query(rng, equal, arrows))
        return out

    def round(self, seed: int, op_span=nullcontext):
        built = build_theories(self.theories)
        for q in self.queries(seed):
            th = built[q.theory]
            secs, out = _timed(op_span, lambda: self._op(th, q))
            ok, line = self._verdict(out, q)
            yield Op(secs, ok, line)

    @staticmethod
    def _op(th, q: Query):
        verdict = equality.eq_term(th, q.tele, q.lhs, q.rhs, q.sort)
        replayed = None
        if isinstance(verdict, equality.Equal):
            replayed = equality.replay_trace(th, q.lhs, verdict.trace)
        return verdict, replayed

    @staticmethod
    def _verdict(out, q: Query):
        if isinstance(out, Exception):
            return False, _raised(out)
        verdict, replayed = out
        if isinstance(verdict, equality.Equal):
            return q.equal and replayed == q.rhs, "Equal"
        nfs = " ".join(surface.print_term(t)
                       for t in (verdict.lhs_nf, verdict.rhs_nf)
                       if t is not None)
        return not q.equal, f"NotProven {verdict.reason} {nfs}"


# -- theory_check ----------------------------------------------------------


class TheoryCheck:
    """One op parses and checks the four bundled theories from their text
    in EXTENDS order, as `gat check` does for each file."""

    name = "theory_check"
    theories = ALL_THEORIES
    ops_per_round = 40

    def round(self, seed: int, op_span=nullcontext):
        # the inputs are the bundled files, so the seed changes nothing
        for _ in range(self.ops_per_round):
            secs, out = _timed(op_span, lambda: build_theories(ALL_THEORIES))
            ok, line = self._verdict(out)
            yield Op(secs, ok, line)

    @staticmethod
    def _verdict(out):
        if isinstance(out, Exception):
            return False, _raised(out)
        ok = True
        parts = []
        for name, th in out.items():
            counts = tuple(th.counts().values())
            ok = ok and counts == library.entry(name).expected_counts
            parts.append(f"{name} {counts} {sorted(th.irrelevant_heads)}")
        return ok, "; ".join(parts)


WORKLOADS = {w.name: w for w in (CanonicitySweep(), OpenEquality(),
                                 TheoryCheck())}
