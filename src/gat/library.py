"""Bundled theories, loaded from the .gat files shipped with the package.

Each entry records the surface source and the expected declaration counts
(sort decls, op decls, sort axioms, term axioms) so tests can audit the
inventory. Loading parses, resolves EXTENDS headers, checks, and memoizes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from importlib import resources

from .checker import CheckedTheory, CheckError, check_theory, theory_extends
from .surface import parse_source

__all__ = [
    "LibraryEntry",
    "LibraryError",
    "entry",
    "library_names",
    "library_path",
    "load",
]

_NAMES = ("monoid", "cat", "cwf", "mltt")

# (sort decls, op decls, sort axioms, term axioms)
_EXPECTED_COUNTS = {
    "monoid": (1, 2, 0, 3),
    "cat": (2, 2, 0, 3),
    "cwf": (4, 10, 0, 13),
    "mltt": (6, 24, 2, 34),
}


class LibraryError(Exception):
    """Unknown library name, or a bundled theory failed to parse or check."""


@dataclass(frozen=True)
class LibraryEntry:
    name: str
    source: str
    expected_counts: tuple[int, int, int, int]


_lock = threading.Lock()
_cache: dict[str, CheckedTheory] = {}
_entries: dict[str, LibraryEntry] = {}


def library_names() -> tuple[str, ...]:
    return _NAMES


def library_path(name: str):
    """Filesystem path of a bundled .gat file."""
    if name not in _NAMES:
        raise LibraryError(f"unknown theory {name!r}")
    return resources.files("gat.theories").joinpath(f"{name}.gat")


def entry(name: str) -> LibraryEntry:
    if name not in _NAMES:
        raise LibraryError(f"unknown theory {name!r}")
    with _lock:
        if name not in _entries:
            source = library_path(name).read_text(encoding="utf-8")
            _entries[name] = LibraryEntry(name, source, _EXPECTED_COUNTS[name])
        return _entries[name]


def _build(name: str) -> CheckedTheory:
    src = parse_source(entry(name).source, path=f"{name}.gat")
    if src.extends is None:
        out = check_theory(src.theory)
    else:
        out = theory_extends(load(src.extends), src.theory)
    if isinstance(out, CheckError):
        raise LibraryError(f"bundled theory {name!r} failed to check: {out}")
    return out


def load(name: str) -> CheckedTheory:
    """Checked form of a bundled theory; memoized, for one thread at a time."""
    if name not in _NAMES:
        raise LibraryError(f"unknown theory {name!r}")
    with _lock:
        got = _cache.get(name)
    if got is not None:
        return got
    built = _build(name)
    with _lock:
        # first build wins; the lock guards only these dicts
        return _cache.setdefault(name, built)

