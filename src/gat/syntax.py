"""Raw abstract syntax for generalized algebraic theories.

Everything here is total on raw syntax: no well-formedness is assumed or
checked.  Sort- and term-level validation lives in `gat.checker`.

Terms are first-order: a term is either a variable or a symbol cut against
a substitution supplying the symbol's telescope.  Sorts are cuts that must
resolve to a sort declaration (checked later).  There are no binders inside
terms, so term equality is plain structural equality; telescopes carry all
binding structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

_NAME_RE = re.compile(r"^[^\W\d][\w-]*$", re.UNICODE)


def is_valid_name(text: str) -> bool:
    """Identifiers: unicode letters/digits/`-`/`_`, not starting with a digit."""
    return bool(_NAME_RE.match(text))


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Cut:
    """A declared symbol applied to a substitution for its telescope."""

    head: str
    args: "Subst"
    # terms nest deeply and are used as dict keys throughout the checker
    # and the equality engine, so the recursive hash is computed once
    _hash: int | None = field(default=None, compare=False, repr=False,
                              init=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.head, self.args))
            object.__setattr__(self, "_hash", h)
        return h


Term = Union[Var, Cut]
# A sort is a Cut whose head resolves to a sort declaration; the checker
# enforces the distinction, the raw representation is shared.
Sort = Cut


@dataclass(frozen=True, slots=True)
class Subst:
    """Ordered assignment of terms to target variables; targets distinct."""

    entries: tuple[tuple[str, Term], ...] = ()
    _hash: int | None = field(default=None, compare=False, repr=False,
                              init=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.entries)
            object.__setattr__(self, "_hash", h)
        return h

    def targets(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.entries)

    def values(self) -> tuple[Term, ...]:
        return tuple(v for _, v in self.entries)

    def lookup(self, name: str) -> Term | None:
        for t, v in self.entries:
            if t == name:
                return v
        return None

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Telescope:
    """Ordered typed context; each sort may mention earlier variables only."""

    bindings: tuple[tuple[str, Sort], ...] = ()

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.bindings)

    def lookup(self, name: str) -> Sort | None:
        for n, s in self.bindings:
            if n == name:
                return s
        return None

    def __len__(self) -> int:
        return len(self.bindings)


@dataclass(frozen=True)
class SortDecl:
    name: str
    params: Telescope


@dataclass(frozen=True)
class OpDecl:
    name: str
    params: Telescope
    result: Sort


# Axiom orientation tags, used by the equality engine's rewriter.
LR = "lr"
RL = "rl"
UNORIENTED = "unoriented"


@dataclass(frozen=True)
class SortAxiom:
    params: Telescope
    lhs: Sort
    rhs: Sort
    label: str | None = None
    orientation: str = LR


@dataclass(frozen=True)
class TermAxiom:
    params: Telescope
    lhs: Term
    rhs: Term
    sort: Sort
    label: str | None = None
    orientation: str = LR


Item = Union[SortDecl, OpDecl, SortAxiom, TermAxiom]


@dataclass(frozen=True)
class Theory:
    """Ordered list of declarations and axioms."""

    items: tuple[Item, ...] = ()

    def extended(self, items: tuple[Item, ...]) -> "Theory":
        return Theory(self.items + items)


# ---------------------------------------------------------------------------
# Substitution action and composition


def subst_apply_term(psi: Subst, m: Term) -> Term:
    """Rewrite term `m` by `psi`.

    Variables absent from psi's targets pass through unchanged; a matched
    variable is replaced by its assigned term; cuts compose their argument
    substitution with psi.
    """
    if isinstance(m, Var):
        v = psi.lookup(m.name)
        return m if v is None else v
    return Cut(m.head, subst_compose(m.args, psi))


def subst_apply_sort(psi: Subst, a: Sort) -> Sort:
    return Cut(a.head, subst_compose(a.args, psi))


def subst_compose(phi: Subst, psi: Subst) -> Subst:
    """Entry-wise rewrite of phi's values by psi; targets unchanged."""
    return Subst(tuple((t, subst_apply_term(psi, v)) for t, v in phi.entries))


def identity_subst(tele: Telescope) -> Subst:
    """Each telescope variable mapped to itself, in order."""
    return Subst(tuple((n, Var(n)) for n in tele.names()))


def free_vars(obj: Term | Subst | Telescope) -> set[str]:
    """Variables occurring in variable position, through cut arguments."""
    out: set[str] = set()
    _collect_free(obj, out)
    return out


def _collect_free(obj, out: set[str]) -> None:
    if isinstance(obj, Var):
        out.add(obj.name)
    elif isinstance(obj, Cut):
        _collect_free(obj.args, out)
    elif isinstance(obj, Subst):
        for _, v in obj.entries:
            _collect_free(v, out)
    elif isinstance(obj, Telescope):
        for _, s in obj.bindings:
            _collect_free(s, out)
    else:
        raise TypeError(f"free_vars: unsupported object {obj!r}")


def term_size(obj: Term | Subst) -> int:
    """Node count, used for the rewrite engine's size cap."""
    if isinstance(obj, Var):
        return 1
    if isinstance(obj, Cut):
        return 1 + term_size(obj.args)
    return sum(term_size(v) for _, v in obj.entries)


def subterm_at(obj: Term, path: tuple[int, ...]) -> Term:
    """The argument value reached by following entry indices."""
    for i in path:
        if not isinstance(obj, Cut) or i >= len(obj.args.entries):
            raise IndexError(f"no subterm at {path}")
        obj = obj.args.entries[i][1]
    return obj


def replace_at(obj: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    if not isinstance(obj, Cut):
        raise IndexError(f"no subterm at {path}")
    i = path[0]
    entries = list(obj.args.entries)
    t, v = entries[i]
    entries[i] = (t, replace_at(v, path[1:], new))
    return Cut(obj.head, Subst(tuple(entries)))
