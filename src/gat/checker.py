"""Judgment checking for theories, telescopes, sorts, terms and substitutions.

The checker is syntax-directed: terms have their sort inferred bottom-up and
the conversion rule is applied exactly once, when a term is checked against
an expected sort.  Conversion is delegated to the bounded equality engine in
`gat.equality`; a query the engine gives up on surfaces as an
``EQUALITY_FUEL_EXHAUSTED`` error, distinct from a definite mismatch.

Theories are validated in declaration order; every item is checked against
the prefix of items before it, so a `CheckedTheory` can be extended
incrementally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .equality import Equal, answered, eq_sort, oriented, tally
from .kernel import SORT_AXIOM, TERM_AXIOM
from .syntax import (
    Cut,
    OpDecl,
    Sort,
    SortAxiom,
    SortDecl,
    Subst,
    Telescope,
    Term,
    TermAxiom,
    Theory,
    Var,
    is_valid_name,
    subst_apply_sort,
)


class ErrorKind(enum.Enum):
    DUPLICATE_SYMBOL = "DuplicateSymbol"
    DUPLICATE_VARIABLE = "DuplicateVariable"
    UNKNOWN_SYMBOL = "UnknownSymbol"
    UNKNOWN_VARIABLE = "UnknownVariable"
    ARITY_MISMATCH = "ArityMismatch"
    SORT_MISMATCH = "SortMismatch"
    NOT_A_SORT_SYMBOL = "NotASortSymbol"
    NOT_AN_OP_SYMBOL = "NotAnOpSymbol"
    PRESUPPOSITION_VIOLATION = "PresuppositionViolation"
    EQUALITY_FUEL_EXHAUSTED = "EqualityFuelExhausted"


@dataclass(frozen=True)
class CheckError:
    kind: ErrorKind
    item: int | None = None
    path: tuple = ()
    message: str = ""
    expected: object = None
    found: object = None

    def at_item(self, index: int) -> "CheckError":
        return replace(self, item=index)

    def at(self, *prefix) -> "CheckError":
        return replace(self, path=prefix + self.path)

    def __str__(self) -> str:
        where = "" if self.item is None else f" at item {self.item}"
        path = f" ({'/'.join(str(p) for p in self.path)})" if self.path else ""
        return f"{self.kind.value}{where}{path}: {self.message}"


class CheckedTheory:
    """A theory whose items have all been validated in declaration order.

    Its tables, all derived from `theory.items`, are built on one path:
    `__init__` starts them empty and `_add_item` extends them per item.
    They hold per-symbol telescopes and result sorts, the axiom lists with
    their item indices, the proof-irrelevant sort symbols, a rewrite rule
    per oriented axiom by the head of its source (none when the target has
    a variable the source lacks: it could never fire), and per-symbol
    match plans (see `_plan`).  What it keeps of its own work is never
    copied and lives by one rule: a judgment derived with no equation holds
    in every extension (Cartmell), so `_judged` keeps those for good (see
    `_judge`), and all else used an equation, so every item drops it
    (`_drop_caches`).  Like terms (see `gat.syntax`), a theory is used from
    one thread at a time.
    """

    def __init__(self) -> None:
        self.theory = Theory()
        self.sort_decls: dict[str, Telescope] = {}
        self.op_decls: dict[str, tuple[Telescope, Sort]] = {}
        self.term_axioms: list[tuple[int, TermAxiom]] = []
        self.sort_axioms: list[tuple[int, SortAxiom]] = []
        self.axiom_labels: dict[str, int] = {}
        self.irrelevant_heads: frozenset[str] = frozenset()
        # (kind, item index, source, target, direction) per oriented axiom
        # (see `gat.equality.oriented`), in item order, a tuple per head of
        # the source
        self.rules: dict[str, tuple] = {}
        self.plans: dict[str, tuple] = {}
        # the sorts of conversion-free judgments, which no item drops
        self._judged: dict = {}
        self._drop_caches()

    def _drop_caches(self) -> None:
        """The normal-form memo, the axiom instances replay validated and
        the kept answers, converted judgments among them, start empty."""
        self.nf_memo, self.instances, self.answers = {}, {}, {}

    def copy(self) -> "CheckedTheory":
        """A fresh theory with the same items, each registered again in
        order by `_add_item`: the same tables, and empty caches."""
        out = CheckedTheory()
        for item in self.theory.items:
            out._add_item(item)
        return out

    def counts(self) -> dict[str, int]:
        return {
            "sort_decls": len(self.sort_decls),
            "op_decls": len(self.op_decls),
            "sort_axioms": len(self.sort_axioms),
            "term_axioms": len(self.term_axioms),
        }

    # -- construction ------------------------------------------------------

    def _plan(self, params: Telescope) -> tuple:
        """A symbol's argument positions in the order `match` visits them,
        strict before loose, with the mask of loose ones and the mask of
        proof-irrelevant ones.  A position is loose when it is flex (its
        variable occurs in a later argument's sort, so normalization may
        have rewritten the annotation a pattern spells out) or of
        proof-irrelevant sort."""
        bindings = params.bindings
        irr = tuple(s.head in self.irrelevant_heads for _, s in bindings)
        loose = tuple(
            irr[i] or any(name in s.fv for _, s in bindings[i + 1:])
            for i, (name, _) in enumerate(bindings))
        order = tuple(sorted(range(len(loose)), key=loose.__getitem__))
        return order, loose, irr

    def _add_axiom(self, kind: str, index: int, ax) -> None:
        if ax.label:
            self.axiom_labels[ax.label] = index
        rule = oriented(ax)
        if rule is not None:
            head = rule[0].head
            self.rules[head] = self.rules.get(head, ()) + (
                (kind, index, *rule, ax.orientation),)

    def _add_item(self, item) -> None:
        self._drop_caches()
        index = len(self.theory.items)
        self.theory = self.theory.extended((item,))
        if isinstance(item, SortDecl):
            self.sort_decls[item.name] = item.params
            self.plans[item.name] = self._plan(item.params)
        elif isinstance(item, OpDecl):
            self.op_decls[item.name] = (item.params, item.result)
            self.plans[item.name] = self._plan(item.params)
        elif isinstance(item, SortAxiom):
            self.sort_axioms.append((index, item))
            self._add_axiom(SORT_AXIOM, index, item)
        elif isinstance(item, TermAxiom):
            self.term_axioms.append((index, item))
            self._add_axiom(TERM_AXIOM, index, item)
            # An axiom equating two distinct telescope variables makes its
            # sort proof-irrelevant; the engine then treats any two terms of
            # that sort as equal, and matches arguments of it loosely.
            head = item.sort.head
            if (isinstance(item.lhs, Var) and isinstance(item.rhs, Var)
                    and item.lhs != item.rhs
                    and head not in self.irrelevant_heads):
                self.irrelevant_heads = self.irrelevant_heads | {head}
                self.plans = {name: self._plan(params) for name, params in (
                    *self.sort_decls.items(),
                    *((n, p) for n, (p, _) in self.op_decls.items()))}


def check_theory(raw: Theory) -> CheckedTheory | CheckError:
    """Validate items left to right, returning the first failure."""
    th = CheckedTheory()
    err = _extend_checked(th, raw.items)
    return th if err is None else err


def theory_extends(base: CheckedTheory, ext: Theory):
    """Append `ext`'s items to a checked theory, rechecking incrementally."""
    th = base.copy()
    err = _extend_checked(th, ext.items)
    return th if err is None else err


def _extend_checked(th: CheckedTheory, items) -> CheckError | None:
    for item in items:
        index = len(th.theory.items)
        # `print_theory` writes a label as a string literal, on one line
        if (isinstance(item, (TermAxiom, SortAxiom))
                and "\n" in (item.label or "")):
            return CheckError(ErrorKind.UNKNOWN_SYMBOL, index, ("label",),
                              f"axiom label {item.label!r} holds a line break")
        # what the item asks beyond its telescope: (path, sort or term,
        # expected sort or None for a sort) per judgment, in order
        if isinstance(item, TermAxiom):
            asks = (("sort", item.sort, None), ("lhs", item.lhs, item.sort),
                    ("rhs", item.rhs, item.sort))
        elif isinstance(item, SortAxiom):
            asks = (("lhs", item.lhs, None), ("rhs", item.rhs, None))
        elif isinstance(item, (SortDecl, OpDecl)):
            if not is_valid_name(item.name):
                return CheckError(ErrorKind.UNKNOWN_SYMBOL, index,
                                  message=f"invalid symbol name {item.name!r}")
            if item.name in th.sort_decls or item.name in th.op_decls:
                return CheckError(ErrorKind.DUPLICATE_SYMBOL, index,
                                  message=f"symbol {item.name!r} already declared")
            asks = (("result", item.result, None),) if isinstance(
                item, OpDecl) else ()
        else:
            raise TypeError(f"not a theory item: {item!r}")
        err = check_telescope(th, item.params)
        if err is not None:
            return err.at_item(index)
        for path, x, sort in asks:
            err = (check_sort(th, item.params, x) if sort is None
                   else check_term(th, item.params, x, sort))
            if err is not None:
                return err.at(path).at_item(index)
        th._add_item(item)
    return None


def check_telescope(th: CheckedTheory, psi: Telescope) -> CheckError | None:
    """Names valid and distinct; each sort checks over the prefix before it."""
    seen: set[str] = set()
    for i, (name, sort) in enumerate(psi.bindings):
        if not is_valid_name(name):
            return CheckError(ErrorKind.UNKNOWN_VARIABLE, path=(i,),
                              message=f"invalid variable name {name!r}")
        if name in seen:
            return CheckError(ErrorKind.DUPLICATE_VARIABLE, path=(i,),
                              message=f"variable {name!r} already bound")
        prefix = Telescope(psi.bindings[:i])
        err = check_sort(th, prefix, sort)
        if err is not None:
            return err.at(i)
        seen.add(name)
    return None


def check_sort(th: CheckedTheory, psi: Telescope, a: Sort) -> CheckError | None:
    """`a.head` must be a declared sort symbol and its arguments a valid
    substitution from `psi` into the symbol's telescope."""
    if not isinstance(a, Cut):
        return CheckError(ErrorKind.PRESUPPOSITION_VIOLATION,
                          message=f"not a sort expression: {a!r}")
    if a.head in th.op_decls:
        return CheckError(ErrorKind.NOT_A_SORT_SYMBOL,
                          message=f"{a.head!r} is an operation symbol")
    params = th.sort_decls.get(a.head)
    if params is None:
        return CheckError(ErrorKind.UNKNOWN_SYMBOL,
                          message=f"unknown sort symbol {a.head!r}")
    return _judge(th, psi, a, params, None)


def infer_term(th: CheckedTheory, psi: Telescope, m: Term) -> Sort | CheckError:
    """The sort of `m` over `psi`, as written (no conversion applied)."""
    if isinstance(m, Var):
        sort = psi.lookup(m.name)
        if sort is None:
            return CheckError(ErrorKind.UNKNOWN_VARIABLE,
                              message=f"variable {m.name!r} not in telescope")
        return sort
    if isinstance(m, Cut):
        if m.head in th.sort_decls:
            return CheckError(
                ErrorKind.NOT_AN_OP_SYMBOL,
                message=f"{m.head!r} is a sort symbol, not an operation")
        decl = th.op_decls.get(m.head)
        if decl is None:
            return CheckError(ErrorKind.UNKNOWN_SYMBOL,
                              message=f"unknown operation symbol {m.head!r}")
        return _judge(th, psi, m, *decl)
    return CheckError(ErrorKind.PRESUPPOSITION_VIOLATION,
                      message=f"not a term expression: {m!r}")


_UNJUDGED = object()


def _judge(th: CheckedTheory, psi: Telescope, t: Cut, params: Telescope,
           result: Sort | None) -> Sort | CheckError | None:
    """`result` (None for a sort) under `t`'s arguments once they check
    against `params` over `psi`.  Successes only are kept (a later item may
    mend a failure), by what their derivation used.  Axioms enter only
    through conversion, which `tally.conversions` counts: each checker
    `eq_sort` call, even one an irrelevance axiom proves for no fuel, and
    each kept judgment that converted.  A derivation that ran none holds in
    every extension and metered no fuel: its sort goes to `th._judged`.
    One that converted is a kept answer, `(sort, fuel, None)` in
    `th.answers`, which the next item drops; a hit meters its fuel again.
    The key holds `psi.bindings`, not `psi`: a tuple hashes in C, where the
    frozen dataclass hashes in Python, and equal telescopes have equal
    bindings."""
    key = (psi.bindings, t)
    sort = th._judged.get(key, _UNJUDGED)
    if sort is not _UNJUDGED:
        return sort
    kept = th.answers.get(key)
    if kept is not None:
        tally.conversions += 1
        return answered(th, kept)
    conversions, start = tally.conversions, tally.fuel
    err = check_subst(th, psi, t.args, params)
    if err is not None:
        return err
    sort = None if result is None else subst_apply_sort(t.args, result)
    if tally.conversions == conversions:
        th._judged[key] = sort
    else:
        th.answers[key] = sort, tally.fuel - start, None
    return sort


def check_term(th: CheckedTheory, psi: Telescope, m: Term, a: Sort,
               cfg=None) -> CheckError | None:
    """Infer `m`'s sort and compare it with `a` up to provable equality.

    The expected sort is a presupposed parameter: if it is not itself a
    well-formed sort over `psi`, the judgment instance is meaningless and a
    PresuppositionViolation is reported rather than a mismatch.  `cfg`
    bounds only the conversion to `a`: nested judgments run under the
    default bounds, so nothing `cfg` decides is cached.
    """
    sort_err = check_sort(th, psi, a)
    if sort_err is not None:
        return CheckError(ErrorKind.PRESUPPOSITION_VIOLATION,
                          message=f"expected sort is not well-formed: {sort_err}",
                          found=a)
    return _convert(th, psi, m, a, cfg)


def _convert(th: CheckedTheory, psi: Telescope, m: Term, a: Sort,
             cfg=None) -> CheckError | None:
    """`check_term` once `a` is known to be a well-formed sort over `psi`:
    infer `m`'s sort, then convert it to `a`."""
    inferred = infer_term(th, psi, m)
    if isinstance(inferred, CheckError):
        return inferred
    if inferred == a:
        return None
    tally.conversions += 1
    verdict = eq_sort(th, psi, inferred, a, cfg)
    if isinstance(verdict, Equal):
        return None
    if verdict.fuel_exhausted:
        return CheckError(ErrorKind.EQUALITY_FUEL_EXHAUSTED,
                          message="conversion gave up within bounds",
                          expected=a, found=inferred)
    return CheckError(ErrorKind.SORT_MISMATCH,
                      message="inferred sort is not provably equal to expected",
                      expected=a, found=inferred)


def check_subst(th: CheckedTheory, phi: Telescope, psi: Subst,
                target: Telescope) -> CheckError | None:
    """`psi` maps `phi` into `target`: entry i checks against target sort
    i instantiated by the preceding entries; target names must match.

    `target` must be a checked telescope (one `check_telescope` accepts,
    as every declared symbol's is), for the instantiated target sorts are
    not checked again.  They need not be: target sort i is well formed over
    target's first i bindings, and entries 0..i-1 check, so they map `phi`
    into those bindings, and a well-formed sort instantiated by such a
    substitution is well formed over `phi` (Cartmell's presupposition)."""
    if len(psi) != len(target):
        return CheckError(ErrorKind.ARITY_MISMATCH,
                          message=f"expected {len(target)} entries, "
                                  f"found {len(psi)}",
                          expected=len(target), found=len(psi))
    for i, ((tname, value), (vname, vsort)) in enumerate(
            zip(psi.entries, target.bindings)):
        if tname != vname:
            return CheckError(ErrorKind.UNKNOWN_VARIABLE, path=(i,),
                              message=f"substitution target {tname!r} does not "
                                      f"match telescope variable {vname!r}",
                              expected=vname, found=tname)
        # Target sort i mentions only the distinct names bound before it,
        # and psi binds them first, in entries 0..i-1: so `psi` itself
        # instantiates the sort as those entries do.
        err = _convert(th, phi, value, subst_apply_sort(psi, vsort))
        if err is not None:
            return err.at(i)
    return None
