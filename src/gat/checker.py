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
from dataclasses import dataclass

from .equality import EqEngineConfig, Equal, eq_sort
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
    free_vars,
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
        return CheckError(self.kind, index, self.path, self.message,
                          self.expected, self.found)

    def at(self, *prefix) -> "CheckError":
        return CheckError(self.kind, self.item, tuple(prefix) + self.path,
                          self.message, self.expected, self.found)

    def __str__(self) -> str:
        where = "" if self.item is None else f" at item {self.item}"
        path = f" ({'/'.join(str(p) for p in self.path)})" if self.path else ""
        return f"{self.kind.value}{where}{path}: {self.message}"


class CheckedTheory:
    """A theory whose items have all been validated in declaration order.

    Carries the lookup tables the checker and the equality engine need:
    per-symbol telescopes and result sorts, the axiom lists with their item
    indices, the set of proof-irrelevant sort symbols, and per-symbol
    "flex" argument positions (positions whose value is forced by the sorts
    of later arguments, so a rewrite pattern may match them loosely).
    """

    def __init__(self) -> None:
        self.theory = Theory()
        self.sort_decls: dict[str, Telescope] = {}
        self.op_decls: dict[str, tuple[Telescope, Sort]] = {}
        self.term_axioms: list[tuple[int, TermAxiom]] = []
        self.sort_axioms: list[tuple[int, SortAxiom]] = []
        self.axiom_labels: dict[str, int] = {}
        self.irrelevant_heads: frozenset[str] = frozenset()
        self._flex: dict[str, tuple[bool, ...]] = {}
        self._arg_heads: dict[str, tuple[str, ...]] = {}
        # Memoized successes only: they stay valid when the theory is
        # extended (more axioms never invalidate a proof), while failures
        # could be fixed by later items and must not be cached.
        self._infer_cache: dict = {}
        self._accept_cache: set = set()

    def copy(self) -> "CheckedTheory":
        out = CheckedTheory()
        out.theory = self.theory
        out.sort_decls = dict(self.sort_decls)
        out.op_decls = dict(self.op_decls)
        out.term_axioms = list(self.term_axioms)
        out.sort_axioms = list(self.sort_axioms)
        out.axiom_labels = dict(self.axiom_labels)
        out.irrelevant_heads = self.irrelevant_heads
        out._flex = dict(self._flex)
        out._arg_heads = dict(self._arg_heads)
        out._infer_cache = dict(self._infer_cache)
        out._accept_cache = set(self._accept_cache)
        return out

    # -- lookups used by the equality engine -------------------------------

    def flex_of(self, head: str) -> tuple[bool, ...]:
        return self._flex.get(head, ())

    def arg_heads_of(self, head: str) -> tuple[str, ...]:
        return self._arg_heads.get(head, ())

    def counts(self) -> dict[str, int]:
        return {
            "sort_decls": len(self.sort_decls),
            "op_decls": len(self.op_decls),
            "sort_axioms": len(self.sort_axioms),
            "term_axioms": len(self.term_axioms),
        }

    # -- construction ------------------------------------------------------

    def _register_symbol(self, name: str, params: Telescope) -> None:
        names = params.names()
        flex = []
        for i, n in enumerate(names):
            later = set()
            for _, s in params.bindings[i + 1:]:
                later |= free_vars(s)
            flex.append(n in later)
        self._flex[name] = tuple(flex)
        self._arg_heads[name] = tuple(s.head for _, s in params.bindings)

    def _add_item(self, item) -> None:
        index = len(self.theory.items)
        self.theory = self.theory.extended((item,))
        if isinstance(item, SortDecl):
            self.sort_decls[item.name] = item.params
            self._register_symbol(item.name, item.params)
        elif isinstance(item, OpDecl):
            self.op_decls[item.name] = (item.params, item.result)
            self._register_symbol(item.name, item.params)
        elif isinstance(item, SortAxiom):
            self.sort_axioms.append((index, item))
            if item.label:
                self.axiom_labels[item.label] = index
        elif isinstance(item, TermAxiom):
            self.term_axioms.append((index, item))
            if item.label:
                self.axiom_labels[item.label] = index
            # An axiom equating two distinct telescope variables makes its
            # sort proof-irrelevant; the engine then treats any two terms of
            # that sort as equal.
            if (isinstance(item.lhs, Var) and isinstance(item.rhs, Var)
                    and item.lhs != item.rhs):
                self.irrelevant_heads = self.irrelevant_heads | {item.sort.head}


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
        if isinstance(item, (SortDecl, OpDecl)):
            if not is_valid_name(item.name):
                return CheckError(ErrorKind.UNKNOWN_SYMBOL, index,
                                  message=f"invalid symbol name {item.name!r}")
            if item.name in th.sort_decls or item.name in th.op_decls:
                return CheckError(ErrorKind.DUPLICATE_SYMBOL, index,
                                  message=f"symbol {item.name!r} already declared")
        err: CheckError | None = None
        if isinstance(item, SortDecl):
            err = check_telescope(th, item.params)
        elif isinstance(item, OpDecl):
            err = check_telescope(th, item.params)
            if err is None:
                e = check_sort(th, item.params, item.result)
                err = e.at("result") if e is not None else None
        elif isinstance(item, SortAxiom):
            err = check_telescope(th, item.params)
            if err is None:
                e = check_sort(th, item.params, item.lhs)
                err = e.at("lhs") if e is not None else None
            if err is None:
                e = check_sort(th, item.params, item.rhs)
                err = e.at("rhs") if e is not None else None
        elif isinstance(item, TermAxiom):
            err = check_telescope(th, item.params)
            if err is None:
                e = check_sort(th, item.params, item.sort)
                err = e.at("sort") if e is not None else None
            if err is None:
                e = check_term(th, item.params, item.lhs, item.sort)
                err = e.at("lhs") if e is not None else None
            if err is None:
                e = check_term(th, item.params, item.rhs, item.sort)
                err = e.at("rhs") if e is not None else None
        else:
            raise TypeError(f"not a theory item: {item!r}")
        if err is not None:
            return err.at_item(index)
        th._add_item(item)
    return None


def check_telescope(th: CheckedTheory, psi: Telescope) -> CheckError | None:
    """Each binding's sort checks over the preceding prefix; names distinct."""
    seen: set[str] = set()
    for i, (name, sort) in enumerate(psi.bindings):
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
    return check_subst(th, psi, a.args, params)


def infer_term(th: CheckedTheory, psi: Telescope, m: Term) -> Sort | CheckError:
    """The sort of `m` over `psi`, as written (no conversion applied)."""
    if isinstance(m, Var):
        sort = psi.lookup(m.name)
        if sort is None:
            return CheckError(ErrorKind.UNKNOWN_VARIABLE,
                              message=f"variable {m.name!r} not in telescope")
        return sort
    cached = th._infer_cache.get((psi, m))
    if cached is not None:
        return cached
    if m.head in th.sort_decls:
        return CheckError(ErrorKind.NOT_AN_OP_SYMBOL,
                          message=f"{m.head!r} is a sort symbol, not an operation")
    decl = th.op_decls.get(m.head)
    if decl is None:
        return CheckError(ErrorKind.UNKNOWN_SYMBOL,
                          message=f"unknown operation symbol {m.head!r}")
    params, result = decl
    err = check_subst(th, psi, m.args, params)
    if err is not None:
        return err
    sort = subst_apply_sort(m.args, result)
    th._infer_cache[(psi, m)] = sort
    return sort


def check_term(th: CheckedTheory, psi: Telescope, m: Term, a: Sort,
               cfg=None) -> CheckError | None:
    """Infer `m`'s sort and compare it with `a` up to provable equality.

    The expected sort is a presupposed parameter: if it is not itself a
    well-formed sort over `psi`, the judgment instance is meaningless and a
    PresuppositionViolation is reported rather than a mismatch.
    """
    cfg = cfg or EqEngineConfig()
    # keyed on the config: an accept under more fuel does not carry over
    # to a query with less
    key = (psi, m, a, cfg)
    if key in th._accept_cache:
        return None
    sort_err = check_sort(th, psi, a)
    if sort_err is not None:
        return CheckError(ErrorKind.PRESUPPOSITION_VIOLATION,
                          message=f"expected sort is not well-formed: {sort_err}",
                          found=a)
    inferred = infer_term(th, psi, m)
    if isinstance(inferred, CheckError):
        return inferred
    if inferred == a:
        th._accept_cache.add(key)
        return None
    verdict = eq_sort(th, psi, inferred, a, cfg)
    if isinstance(verdict, Equal):
        th._accept_cache.add(key)
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
    """`psi` maps `phi` into `target`: entry i checks against target sort i
    instantiated by the preceding entries; target names must match."""
    if len(psi) != len(target):
        return CheckError(ErrorKind.ARITY_MISMATCH,
                          message=f"expected {len(target)} entries, "
                                  f"found {len(psi)}",
                          expected=len(target), found=len(psi))
    prefix_entries: list[tuple[str, Term]] = []
    for i, ((tname, value), (vname, vsort)) in enumerate(
            zip(psi.entries, target.bindings)):
        if tname != vname:
            return CheckError(ErrorKind.UNKNOWN_VARIABLE, path=(i,),
                              message=f"substitution target {tname!r} does not "
                                      f"match telescope variable {vname!r}",
                              expected=vname, found=tname)
        inst_sort = subst_apply_sort(Subst(tuple(prefix_entries)), vsort)
        err = check_term(th, phi, value, inst_sort)
        if err is not None:
            return err.at(i)
        prefix_entries.append((tname, value))
    return None
