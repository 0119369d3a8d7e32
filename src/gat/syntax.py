"""Raw abstract syntax for generalized algebraic theories.

Everything here is total on raw syntax: no well-formedness is assumed or
checked.  Sort- and term-level validation lives in `gat.checker`.

Terms are first-order: a term is either a variable or a symbol cut against
a substitution supplying the symbol's telescope.  Sorts are cuts that must
resolve to a sort declaration (checked later).  There are no binders inside
terms, so term equality is structural equality; telescopes carry all
binding structure.

`Var`, `Cut` and `Subst` are hash-consed: a constructor returns the live
node of that structure when there is one, so equal structures are one
object, and `==` and `hash` are object identity.  The table of live nodes
holds them weakly, and none of its keys holds a node, so it keeps no node
alive and forgets a node when it dies.  Each node carries its
node count in `size` and the frozenset of its free variables in `fv`, both
set when it is interned; closed nodes share one empty `fv`.  Nodes are
immutable, and copying or unpickling one returns the interned node.  Terms
are built from one thread at a time, as interning is not atomic; so is a
`CheckedTheory` used (see `gat.checker`).

Each `Subst` carries, in `applied`, a memo of the open cuts it has been
applied to and their results, so a subterm shared in a DAG is rewritten
once per substitution, not once per path to it.  The memo lives and dies
with its substitution: a result that holds the substitution itself makes
a cycle with it, which the collector frees.  Its keys are nodes, which
compare by identity, so no key goes stale.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Union

# The one name rule, the checker's and the `.gat` lexer's (`gat.surface`).
NAME_RE = re.compile(r"[^\W\d][\w-]*")


def is_valid_name(text: str) -> bool:
    """Identifiers: unicode letters/digits/`-`/`_`, not starting with a digit."""
    return NAME_RE.fullmatch(text) is not None


# ---------------------------------------------------------------------------
# Hash-consed terms

# The live nodes by structure, under keys that hold no node: a `Var` by its
# name, a `Cut` by its head and the id of its args, and a `Subst` by the hash
# of its entries.  A memo of applied terms can lead from a substitution to a
# node holding it, and a key holding that node would keep both alive for
# good.  An id names one node while its entry stands, as the node holds its
# children.  A substitution whose hash a live one with other entries holds
# is entered under its exact key, its (target, value id) pairs; `_spilled`
# counts the live ones entered so, and while there are any, a lookup that
# misses tries the exact key too.  The key shapes never compare equal.
_table: dict = {}
_spilled = 0


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _drop(ref: _Ref, table: dict = _table) -> None:
    # A newer node of the same structure may already own the key.
    if table.get(ref.key) is ref:
        del table[ref.key]


def _drop_spilled(ref: _Ref) -> None:
    global _spilled
    _spilled -= 1
    _drop(ref)


_init = object.__setattr__


def _new(cls, key, drop=_drop):
    """A new node of `cls`, entered in the table at `key`."""
    node = object.__new__(cls)
    ref = _table[key] = _Ref(node, drop)
    ref.key = key
    return node


class _Node:
    """Immutable, with `==` and `hash` by identity as `object` has them."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and unpickling rebuild through the constructor
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


# The `fv` of every closed node.
_CLOSED: frozenset = frozenset()


class Var(_Node):
    __slots__ = ("name", "size", "fv")
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        ref = _table.get(name)
        node = ref and ref()
        if node is None:
            node = _new(cls, name)
            _init(node, "name", name)
            _init(node, "size", 1)
            _init(node, "fv", frozenset((name,)))
        return node


class Cut(_Node):
    """A declared symbol applied to a substitution for its telescope."""

    __slots__ = ("head", "args", "size", "fv")
    __match_args__ = ("head", "args")

    def __new__(cls, head: str, args: Subst):
        key = (head, id(args))
        ref = _table.get(key)
        node = ref and ref()
        if node is None:
            node = _new(cls, key)
            _init(node, "head", head)
            _init(node, "args", args)
            _init(node, "size", 1 + args.size)
            _init(node, "fv", args.fv)
        return node


Term = Union[Var, Cut]
# A sort is a Cut whose head resolves to a sort declaration; the checker
# enforces the distinction, the raw representation is shared.
Sort = Cut


class Subst(_Node):
    """Ordered assignment of terms to target variables; targets distinct."""

    __slots__ = ("entries", "size", "fv", "applied")
    __match_args__ = ("entries",)

    def __new__(cls, entries: tuple[tuple[str, Term], ...] = ()):
        global _spilled
        key = hash(entries)
        ref = _table.get(key)
        node = ref and ref()
        if node is None or node.entries != entries:
            taken = node is not None
            if taken or _spilled:
                exact = (tuple([(t, id(v)) for t, v in entries]),)
                ref = _table.get(exact)
                node = ref and ref()
            if node is None:
                if taken:
                    key = exact
                    _spilled += 1
                node = _new(cls, key, _drop_spilled if taken else _drop)
                _init(node, "entries", entries)
                _init(node, "size", sum(v.size for _, v in entries))
                fv = _CLOSED
                for _, v in entries:
                    # keep an entry's set when it covers the others so far
                    if not v.fv <= fv:
                        fv = v.fv if fv <= v.fv else fv | v.fv
                _init(node, "fv", fv)
                # open cut -> its rewrite by this substitution
                _init(node, "applied", {})
        return node

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
        # made once, on first use, and kept beside the (frozen) fields
        names = self.__dict__.get("_names")
        if names is None:
            names = self.__dict__["_names"] = tuple(n for n, _ in self.bindings)
        return names

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
    substitution with psi.  A closed term is returned as it is.  An open
    cut's result is kept in `psi.applied` and given again from there, so
    the work is linear in the distinct subterms of `m`, and the memo goes
    when `psi` does.
    """
    if not m.fv:
        return m
    if isinstance(m, Var):
        v = psi.lookup(m.name)
        return m if v is None else v
    out = psi.applied.get(m)
    if out is None:
        out = psi.applied[m] = Cut(m.head, subst_compose(m.args, psi))
    return out


# A sort is a cut, and is rewritten as one.
subst_apply_sort = subst_apply_term


def subst_compose(phi: Subst, psi: Subst) -> Subst:
    """Entry-wise rewrite of phi's values by psi; targets unchanged.  A
    closed phi is returned as it is."""
    if not phi.fv:
        return phi
    return Subst(tuple((t, subst_apply_term(psi, v)) for t, v in phi.entries))


def subterm_at(obj: Term, path: tuple[int, ...]) -> Term:
    """The argument value reached by following entry indices."""
    for i in path:
        if not isinstance(obj, Cut) or not 0 <= i < len(obj.args.entries):
            raise IndexError(f"no subterm at {path}")
        obj = obj.args.entries[i][1]
    return obj


def replace_at(obj: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    i = path[0]
    if not isinstance(obj, Cut) or not 0 <= i < len(obj.args.entries):
        raise IndexError(f"no subterm at {path}")
    entries = list(obj.args.entries)
    t, v = entries[i]
    entries[i] = (t, replace_at(v, path[1:], new))
    return Cut(obj.head, Subst(tuple(entries)))
