"""Command-line entry points.

Subcommands: check, sort-of, eq, norm, lib, canonicity.  Exit codes: 0 on
success, 1 when a judgment fails (check error, NotProven, stuck term), 2 on
usage errors (bad flags, missing files).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .canonicity import GenBudget, Stuck, evaluate_closed, generate_closed_obs_terms
from .checker import (
    CheckedTheory,
    CheckError,
    check_telescope,
    check_theory,
    infer_term,
    theory_extends,
)
from .equality import (
    EqEngineConfig,
    Equal,
    eq_sort,
    eq_term,
    normalize_term,
    record_fuel,
)
from .library import library_names, library_path, load
from .surface import (
    ParseError,
    parse_source,
    parse_sort,
    parse_telescope,
    parse_term,
    print_sort,
    print_term,
)
from .syntax import Cut, Var

REPORT_SCHEMA_PATH = Path(__file__).parent / "data" / "report_schema.json"


class _UsageError(Exception):
    pass


def _read_file(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"no such file: {path}")
    return p.read_text(encoding="utf-8")


def _load_file(path: str):
    """Parse a .gat file and check it, resolving EXTENDS against the bundled
    library first and sibling files second.  Returns (result, source)."""
    src = parse_source(_read_file(path), path=path)
    if src.extends is None:
        return check_theory(src.theory), src
    if src.extends in library_names():
        base = load(src.extends)
    else:
        sibling = Path(path).parent / f"{src.extends}.gat"
        if not sibling.is_file():
            raise _UsageError(f"unknown base theory: {src.extends}")
        base, _ = _load_file(str(sibling))
        if isinstance(base, CheckError):
            return base, src
    return theory_extends(base, src.theory), src


def _require_checked(path: str) -> tuple[CheckedTheory, object]:
    result, src = _load_file(path)
    if isinstance(result, CheckError):
        raise _UsageError(f"theory does not check: {result}")
    return result, src


def _side_str(value) -> str | None:
    if value is None:
        return None
    if isinstance(value, (Cut, Var)):
        return print_term(value)
    return str(value)


def _error_json(err: CheckError) -> dict:
    return {
        "kind": err.kind.value,
        "item": err.item,
        "path": list(err.path),
        "expected": _side_str(err.expected),
        "found": _side_str(err.found),
    }


def _print_trace(trace, notations) -> None:
    for i, step in enumerate(trace.steps):
        path = "/".join(str(p) for p in step.path) or "."
        where = "" if step.axiom is None else f" item {step.axiom}"
        how = f" {step.direction}" if step.direction else ""
        print(f"  {i}: {step.kind}{where}{how} at {path}: "
              f"{print_term(step.before, notations)} => "
              f"{print_term(step.after, notations)}")


# -- subcommands -----------------------------------------------------------


def _cmd_check(args) -> int:
    fuel_used = 0
    try:
        with record_fuel() as meter:
            result, src = _load_file(args.file)
        fuel_used = meter[0]
        items = len(src.theory.items)
        err = result if isinstance(result, CheckError) else None
        errors = [] if err is None else [_error_json(err)]
    except ParseError as exc:
        if not args.json:
            print(f"parse error: {exc}", file=sys.stderr)
            return 1
        err = exc
        items = 0
        errors = [{"kind": "ParseError", "item": None, "path": [],
                   "expected": None, "found": None}]
    if args.json:
        report = {
            "status": "ok" if err is None else "error",
            "errors": errors,
            "stats": {"items": items, "fuel_used": fuel_used},
        }
        print(json.dumps(report, indent=2))
    elif err is not None:
        print(str(err), file=sys.stderr)
    return 0 if err is None else 1


def _cmd_sort_of(args) -> int:
    th, src = _require_checked(args.file)
    notations = src.notations if args.elide else ()
    tele = parse_telescope(args.telescope)
    err = check_telescope(th, tele)
    if err is not None:
        print(f"bad telescope: {err}", file=sys.stderr)
        return 1
    term = parse_term(args.term)
    sort = infer_term(th, tele, term)
    if isinstance(sort, CheckError):
        print(str(sort), file=sys.stderr)
        return 1
    print(print_sort(sort, notations))
    return 0


def _cmd_eq(args) -> int:
    th, src = _require_checked(args.file)
    notations = src.notations if args.elide else ()
    tele = parse_telescope(args.telescope)
    err = check_telescope(th, tele)
    if err is not None:
        print(f"bad telescope: {err}", file=sys.stderr)
        return 1
    cfg = EqEngineConfig(fuel=args.fuel) if args.fuel else EqEngineConfig()
    if args.sorts:
        a, b = (parse_sort(s) for s in args.sorts)
        verdict = eq_sort(th, tele, a, b, cfg)
    else:
        m, n = (parse_term(s) for s in args.terms)
        at = parse_sort(args.at)
        verdict = eq_term(th, tele, m, n, at, cfg)
    if isinstance(verdict, Equal):
        print("Equal")
        if args.trace:
            _print_trace(verdict.trace, notations)
        return 0
    print(f"NotProven: {verdict.reason}")
    return 1


def _cmd_norm(args) -> int:
    th, src = _require_checked(args.file)
    notations = src.notations if args.elide else ()
    tele = parse_telescope(args.telescope)
    err = check_telescope(th, tele)
    if err is not None:
        print(f"bad telescope: {err}", file=sys.stderr)
        return 1
    term = parse_term(args.term)
    sort = infer_term(th, tele, term)
    if isinstance(sort, CheckError):
        print(str(sort), file=sys.stderr)
        return 1
    nf, _ = normalize_term(th, term)
    print(print_term(nf, notations))
    return 0


def _cmd_lib(args) -> int:
    if args.action == "list":
        for name in library_names():
            print(name)
        return 0
    if args.name is None:
        raise _UsageError("lib path requires a theory name")
    if args.name not in library_names():
        raise _UsageError(f"unknown theory: {args.name}")
    print(library_path(args.name))
    return 0


def _cmd_canonicity(args) -> int:
    th = load("mltt")
    budget = GenBudget(max_depth=args.depth, seed=args.seed)
    red = green = stuck = total = max_steps = 0
    for term in generate_closed_obs_terms(th, budget):
        verdict = evaluate_closed(th, term)
        _, trace = normalize_term(th, term)
        max_steps = max(max_steps, len(trace.steps))
        total += 1
        if isinstance(verdict, Stuck):
            stuck += 1
            print(f"stuck: {print_term(verdict.term)}", file=sys.stderr)
        elif verdict.tag == "red":
            red += 1
        else:
            green += 1
    if args.report == "json":
        print(json.dumps({"terms": total, "red": red, "green": green,
                          "stuck": stuck, "max_steps": max_steps}))
    else:
        print(f"terms: {total}  red: {red}  green: {green}  stuck: {stuck}  "
              f"max rewrite steps: {max_steps}")
    return 0 if stuck == 0 else 1


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gat",
        description="Check and evaluate generalized algebraic theories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a theory file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("sort-of", help="infer the sort of a term")
    p.add_argument("file")
    p.add_argument("--telescope", default="")
    p.add_argument("--term", required=True)
    p.add_argument("--elide", action="store_true",
                   help="print with the file's notation table")
    p.set_defaults(fn=_cmd_sort_of)

    p = sub.add_parser("eq", help="decide an equality")
    p.add_argument("file")
    p.add_argument("--telescope", default="")
    p.add_argument("--sorts", nargs=2, metavar=("A", "B"))
    p.add_argument("--terms", nargs=2, metavar=("M", "N"))
    p.add_argument("--at", help="sort at which the terms are compared")
    p.add_argument("--fuel", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--elide", action="store_true")
    p.set_defaults(fn=_cmd_eq)

    p = sub.add_parser("norm", help="normalize a term")
    p.add_argument("file")
    p.add_argument("--telescope", default="")
    p.add_argument("--term", required=True)
    p.add_argument("--elide", action="store_true")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("lib", help="bundled theories")
    p.add_argument("action", choices=("list", "path"))
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=_cmd_lib)

    p = sub.add_parser("canonicity", help="evaluate generated closed terms")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=("json",))
    p.set_defaults(fn=_cmd_canonicity)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.fn is _cmd_eq:
        if bool(args.sorts) == bool(args.terms):
            parser.error("exactly one of --sorts or --terms is required")
        if args.terms and not args.at:
            parser.error("--terms requires --at SORT")
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
