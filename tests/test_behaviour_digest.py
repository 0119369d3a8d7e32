"""A digest of what the checker, the equality engine and canonicity do.

The test writes one canonical text dump of verdicts, traces and fuel, and
compares its SHA-256 with a recorded constant.  A refactor that claims to
keep behaviour keeps the constant; a change that alters a verdict, a step
of a trace or a fuel figure must record the new digest and say why.

The dump covers:
  * the bundled theories built from source, as `gat check` builds them,
    with the fuel each build meters;
  * for each seed-0 canonicity depth from 1 to 6, `generate_closed_obs_terms`,
    and for each term it gives: `evaluate_closed` and its value,
    `normalize_term`, `infer_term`, `eq_term` to the normal form and the
    replay of its trace;
  * the open term queries on monoid and cat of `tests/test_equality.py`,
    normalized, compared and replayed.
Every call, replay included, is written with the fuel `record_fuel` saw it
meter.
"""

import hashlib

from test_equality import _open_queries
from gat.canonicity import (
    CanonicalValue,
    GenBudget,
    Stuck,
    evaluate_closed,
    generate_closed_obs_terms,
)
from gat.checker import CheckError, check_theory, infer_term, theory_extends
from gat.equality import (
    Equal,
    NotProven,
    ReplayError,
    eq_term,
    normalize_term,
    record_fuel,
    replay_trace,
)
from gat.library import entry, library_names
from gat.surface import parse_source, print_telescope, print_term
from gat.syntax import Subst, Telescope

DIGEST = "0884af0c4283a5bf26abf85f82038ae8cbaf3d0c7d2df07cafe76f932a1ff78c"


def _show(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, Subst):
        return "<" + ", ".join(f"{print_term(v)}/{t}"
                               for t, v in x.entries) + ">"
    if isinstance(x, Telescope):
        return "(" + print_telescope(x) + ")"
    if isinstance(x, CheckError):
        return f"{x}; expected {_show(x.expected)}; found {_show(x.found)}"
    if isinstance(x, ReplayError):
        return f"ReplayError({x.step}, {x.reason})"
    if isinstance(x, CanonicalValue):
        return x.tag
    if isinstance(x, Stuck):
        return f"Stuck({print_term(x.term)})"
    if isinstance(x, NotProven):
        return (f"NotProven({x.fuel_exhausted}, {x.reason}, "
                f"{_show(x.lhs_nf)}, {_show(x.rhs_nf)})")
    return print_term(x)


def _steps(out: list, steps, indent: str) -> None:
    for s in steps:
        out.append(f"{indent}{s.kind} {s.axiom} {s.direction} {s.path} "
                   f"{_show(s.before)} => {_show(s.after)} "
                   f"note {_show(s.note)} sigma {_show(s.sigma)}")
        out.append(f"{indent} pre")
        _steps(out, s.pre, indent + "  ")
        out.append(f"{indent} post")
        _steps(out, s.post, indent + "  ")


def _trace(out: list, th, trace) -> None:
    out.append(f" trace {_show(trace.start)} => {_show(trace.end)} "
               f"over {_show(trace.tele)}")
    _steps(out, trace.steps, "  ")
    replayed = _call(out, " replay_trace", replay_trace, th, trace.start, trace)
    out.append(f" replay {_show(replayed)}")


def _call(out: list, name: str, fn, *args):
    with record_fuel() as fuel:
        result = fn(*args)
    out.append(f"{name} fuel {fuel[0]}")
    return result


def _normalize(out: list, th, m, tele):
    got = _call(out, "normalize_term", normalize_term, th, m, tele)
    if isinstance(got, NotProven):
        out.append(f" {_show(got)}")
        return None
    nf, trace = got
    _trace(out, th, trace)
    return nf


def _eq_term(out: list, th, tele, m, n, sort) -> None:
    verdict = _call(out, "eq_term", eq_term, th, tele, m, n, sort)
    if isinstance(verdict, Equal):
        _trace(out, th, verdict.trace)
    else:
        out.append(f" {_show(verdict)}")


def _build(out: list) -> dict:
    built = {}
    for name in library_names():
        src = parse_source(entry(name).source)
        with record_fuel() as fuel:
            built[name] = (check_theory(src.theory) if src.extends is None
                           else theory_extends(built[src.extends], src.theory))
        out.append(f"build {name} fuel {fuel[0]}")
    return built


def _dump() -> str:
    out: list[str] = []
    built = _build(out)
    mltt, empty = built["mltt"], Telescope()
    for depth in range(1, 7):
        terms = _call(out, f"generate {depth}", generate_closed_obs_terms,
                      mltt, GenBudget(max_depth=depth, seed=0))
        for t in terms:
            out.append(f"term {depth} {_show(t)}")
            value = _call(out, "evaluate_closed", evaluate_closed, mltt, t)
            out.append(f" value {_show(value)}")
            nf = _normalize(out, mltt, t, empty)
            sort = _call(out, "infer_term", infer_term, mltt, empty, t)
            out.append(f" sort {_show(sort)}")
            if nf is not None and not isinstance(sort, CheckError):
                _eq_term(out, mltt, empty, t, nf, sort)
    for th, tele, m, n, sort in _open_queries(built["monoid"]):
        out.append(f"query {_show(tele)} {_show(m)} = {_show(n)} : "
                   f"{_show(sort)}")
        _normalize(out, th, m, tele)
        _normalize(out, th, n, tele)
        _eq_term(out, th, tele, m, n, sort)
    return "\n".join(out) + "\n"


def test_the_behaviour_digest_is_the_recorded_one():
    assert hashlib.sha256(_dump().encode()).hexdigest() == DIGEST
