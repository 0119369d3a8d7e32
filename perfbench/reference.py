"""Answers computed without the program under test.

Nothing here imports `gat.equality`, `gat.checker` or `gat.canonicity`: the
functions read terms only through their `head` and `args` attributes, so a
wrong verdict from the engine cannot also make its reference agree.
"""

from __future__ import annotations


class ReferenceError(Exception):
    """A term outside the shapes the reference understands."""


def _arg(term, name: str):
    value = term.args.lookup(name)
    if value is None:
        raise ReferenceError(f"{term.head} has no argument {name!r}")
    return value


def _is_var(term) -> bool:
    return not hasattr(term, "head")


def closed_obs_value(term) -> str:
    """`"red"` or `"green"`: the constant a generated closed term of the
    observable type denotes.

    The canonicity generator builds terms from five shapes only:
    the constants; `elact` of a closed constant-valued term along an
    endomorphism of the empty context (constants are stable under every
    substitution, so the value is that of `M`); and `app` of a `lam` whose
    body is either `vr` (the identity, so the value is that of `N`) or an
    `elact` along the projection (a weakened closed term, so the value is
    that of its `M`)."""
    while True:
        head = term.head
        if head in ("red", "green"):
            return head
        if head == "elact":
            term = _arg(term, "M")
        elif head == "app":
            fn = _arg(term, "M")
            if fn.head != "lam":
                raise ReferenceError(f"app of {fn.head}, not of lam")
            body = _arg(fn, "M")
            if body.head == "vr":
                term = _arg(term, "N")
            elif body.head == "elact" and _arg(body, "f").head == "proj":
                term = _arg(body, "M")
            else:
                raise ReferenceError(f"lam body {body.head} is neither vr "
                                     "nor weakened")
        else:
            raise ReferenceError(f"unexpected head {head!r}")


def monoid_word(term) -> tuple[str, ...]:
    """The variables of a monoid term in order, units dropped: its normal
    form in the free monoid."""
    if _is_var(term):
        return (term.name,)
    if term.head == "id":
        return ()
    if term.head == "cmp":
        return monoid_word(_arg(term, "a")) + monoid_word(_arg(term, "b"))
    raise ReferenceError(f"unexpected monoid head {term.head!r}")


def cat_path(term) -> tuple[str, ...]:
    """The arrow variables of a category term in diagrammatic order,
    identities dropped: its normal form in the free category."""
    if _is_var(term):
        return (term.name,)
    if term.head == "homid":
        return ()
    if term.head == "homcmp":
        # homcmp{f/f, g/g} is "f after g"
        return cat_path(_arg(term, "g")) + cat_path(_arg(term, "f"))
    raise ReferenceError(f"unexpected category head {term.head!r}")
