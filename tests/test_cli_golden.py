"""The CLI's output, byte for byte, against a recorded golden file.

Each case runs `gat` in process and compares its exit code, stdout and
stderr with `cli_golden.json`.  An argument `@name` stands for the path of
the bundled theory `name`.  After a change meant to alter the output,
rewrite the file with `PYTHONPATH=src python tests/test_cli_golden.py` and
review its diff.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from gat.cli import main
from gat.library import library_path

GOLDEN = Path(__file__).parent / "cli_golden.json"

_OPEN_MONOID = (
    "--telescope", "x: ob{}, y: ob{}, z: ob{}", "--terms",
    "cmp{cmp{x/a, id{}/b}/a, cmp{y/a, cmp{id{}/a, z/b}/b}/b}",
    "cmp{cmp{x/a, y/b}/a, z/b}", "--at", "ob{}")
_CAT_TELE = ("--telescope",
             "a: ob{}, b: ob{}, c: ob{}, f: hom{a/d, b/c}, g: hom{b/d, c/c}")
_LVL_TELE = "a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}"
_PI_TELE = (_LVL_TELE + ", A: ty{a/l, g/g}, "
            "B: ty{a/l, ext{a/l, g/g, A/A}/g}")
# "pi lifting" pulls lift out of pi and "element lifting" drops it from the
# sort, so one step over each joins these two sorts
_PI_LOW = "el{a/l, g/g, pi{a/l, g/g, A/A, B/B}/A}"
_PI_HIGH = ("el{b/l, g/g, pi{b/l, g/g, lift{a/a, b/b, p/p, g/g, A/A}/A, "
            "lift{a/a, b/b, p/p, ext{a/l, g/g, A/A}/g, B/A}/B}/A}")
_CLOSED = ("elact{lz{}/l, emp{}/d, emp{}/g, homid{emp{}/g}/f, "
           "obs{lz{}/l, emp{}/g}/A, elact{lz{}/l, emp{}/d, emp{}/g, "
           "homid{emp{}/g}/f, obs{lz{}/l, emp{}/g}/A, "
           "red{lz{}/l, emp{}/g}/M}/M}")
_CLOSED_SORT = ("el{lz{}/l, emp{}/g, tyact{lz{}/l, emp{}/d, emp{}/g, "
                "homid{emp{}/g}/f, obs{lz{}/l, emp{}/g}/A}/A}")

CASES = [
    *(("check", f"@{name}") for name in ("monoid", "cat", "cwf", "mltt")),
    *(("check", f"@{name}", "--json")
      for name in ("monoid", "cat", "cwf", "mltt")),
    ("eq", "@monoid", *_OPEN_MONOID, "--trace"),
    ("eq", "@monoid", *_OPEN_MONOID, "--trace", "--fuel", "1"),
    ("eq", "@monoid", "--telescope", "x: ob{}, y: ob{}", "--terms", "x", "y",
     "--at", "ob{}", "--trace"),
    ("eq", "@cat", *_CAT_TELE, "--terms",
     "homcmp{a/e, b/d, c/c, g/f, homcmp{a/e, a/d, b/c, f/f, homid{a/g}/g}/g}",
     "homcmp{a/e, b/d, c/c, homcmp{b/e, c/d, c/c, homid{c/g}/f, g/g}/f, f/g}",
     "--at", "hom{a/d, c/c}", "--trace"),
    ("eq", "@mltt", "--telescope", _PI_TELE, "--sorts", _PI_LOW, _PI_HIGH,
     "--trace"),
    ("eq", "@mltt", "--telescope", _PI_TELE, "--sorts", _PI_HIGH, _PI_LOW,
     "--trace", "--elide"),
    ("eq", "@mltt", "--telescope", _LVL_TELE, "--sorts",
     "el{b/l, g/g, univ{a/a, b/b, p/p, g/g}/A}", "ty{a/l, g/g}", "--trace"),
    ("eq", "@mltt", "--telescope", "a: lvl{}, g: ob{}, A: ty{a/l, g/g}",
     "--sorts", "el{a/l, g/g, A/A}", "ty{a/l, g/g}", "--trace"),
    ("eq", "@mltt", "--terms", _CLOSED, "red{lz{}/l, emp{}/g}",
     "--at", _CLOSED_SORT, "--trace"),
    ("eq", "@monoid", "--telescope", "x: ob{}", "--terms", "foo{}", "x",
     "--at", "ob{}"),
    ("eq", "@monoid", "--telescope", "x: nope{}", "--sorts", "ob{}", "ob{}"),
    ("norm", "@monoid", "--telescope", "x: ob{}",
     "--term", "cmp{cmp{x/a, id{}/b}/a, id{}/b}"),
    ("norm", "@cat", *_CAT_TELE, "--term",
     "homcmp{a/e, b/d, c/c, g/f, homcmp{a/e, a/d, b/c, f/f, homid{a/g}/g}/g}"),
    ("norm", "@mltt", "--term", _CLOSED, "--elide"),
    ("norm", "@cat", "--term", "nope{}"),
    ("norm", "@cat", "--telescope", "x: nope{}", "--term", "x"),
    ("sort-of", "@cat", "--telescope", "x: ob{}", "--term", "homid{x/g}"),
    ("sort-of", "@cat", "--term", "nope{}"),
    ("sort-of", "@cat", "--telescope", "x: nope{}", "--term", "x"),
    *(("canonicity", "--depth", str(depth), "--report", "json")
      for depth in (1, 2, 3, 4)),
]


def _key(argv) -> str:
    return " ".join(argv)


def _run(argv) -> dict:
    args = [str(library_path(a[1:])) if a.startswith("@") else a
            for a in argv]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_exactly_the_cases(golden):
    assert list(golden) == [_key(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_cli_output_matches_the_golden_file(golden, argv):
    assert _run(argv) == golden[_key(argv)]


if __name__ == "__main__":
    record = {_key(argv): _run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
