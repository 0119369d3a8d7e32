"""Command-line interface, driven in process through main()."""

import json
import re

import jsonschema
import pytest

from conftest import replay_ok
from gat.cli import REPORT_SCHEMA_PATH, main
from gat.equality import record_verdicts
from gat.library import library_path
from gat.surface import parse_telescope, parse_term


MONOID = str(library_path("monoid"))
CAT = str(library_path("cat"))
MLTT = str(library_path("mltt"))


@pytest.fixture(scope="module")
def schema():
    return json.loads(REPORT_SCHEMA_PATH.read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_bundled_theories(capsys):
    for path in (MONOID, CAT, MLTT):
        code, _, _ = run(capsys, "check", path)
        assert code == 0


def test_check_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.gat")
    assert code == 2
    assert "no such file" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)],
                         ids=["text", "json"])
def test_a_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path,
                                                  json_flag):
    # directly, and as the sibling base another file extends
    bad = tmp_path / "bad.gat"
    bad.write_bytes(b"SORT ob()\n\xff\n")
    (tmp_path / "child.gat").write_text('EXTENDS "bad"\nOP pt() : ob{}\n')
    for name in ("bad.gat", "child.gat"):
        code, out, err = run(capsys, "check", str(tmp_path / name),
                             *json_flag)
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot read {bad}: ")
        assert "Traceback" not in err


def test_check_bad_theory_reports_kind(capsys, tmp_path):
    bad = tmp_path / "bad.gat"
    bad.write_text("SORT ob()\nSORT ob()\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "DuplicateSymbol" in err


def test_check_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.gat"
    bad.write_text("SORT ob(\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "parse error" in err


def test_check_json_report_ok(capsys, schema):
    code, out, _ = run(capsys, "check", MONOID, "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["status"] == "ok"
    assert report["errors"] == []
    assert report["stats"]["items"] == 6


def test_check_json_report_error(capsys, schema, tmp_path):
    bad = tmp_path / "bad.gat"
    bad.write_text("SORT ob()\nOP id() : ob{}\nTERMAX () y = id{} : ob{}\n")
    code, out, _ = run(capsys, "check", str(bad), "--json")
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["status"] == "error"
    assert report["errors"][0]["kind"] == "UnknownVariable"
    assert report["errors"][0]["item"] == 2


def test_check_json_report_parse_error(capsys, schema, tmp_path):
    bad = tmp_path / "bad.gat"
    bad.write_text("SORT ob(\n")
    code, out, _ = run(capsys, "check", str(bad), "--json")
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["status"] == "error"
    assert [e["kind"] for e in report["errors"]] == ["ParseError"]


def test_check_resolves_sibling_extends(capsys, tmp_path):
    (tmp_path / "base.gat").write_text("SORT ob()\n")
    child = tmp_path / "child.gat"
    child.write_text('EXTENDS "base"\nOP pt() : ob{}\n')
    code, _, _ = run(capsys, "check", str(child))
    assert code == 0


def test_a_failing_sibling_base_is_named(capsys, schema, tmp_path):
    # the error is at item 2 of base.gat, two files down from upper.gat;
    # the --json report counts the items of the file the error is in
    (tmp_path / "base.gat").write_text(
        "SORT ob()\nOP pt() : ob{}\nOP f() : nope{}\n")
    (tmp_path / "top.gat").write_text('EXTENDS "base"\nOP q() : ob{}\n')
    (tmp_path / "upper.gat").write_text('EXTENDS "top"\nOP r() : ob{}\n')
    message = ("UnknownSymbol at item 2 (result): in base.gat: "
               "unknown sort symbol 'nope'")
    for name in ("top.gat", "upper.gat"):
        path = str(tmp_path / name)
        assert run(capsys, "check", path) == (1, "", message + "\n")
        code, out, _ = run(capsys, "check", "--json", path)
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert code == 1 and report["stats"]["items"] == 3
        assert [(e["kind"], e["item"]) for e in report["errors"]] == [
            ("UnknownSymbol", 2)]
        assert run(capsys, "sort-of", path, "--term", "pt{}") == (
            2, "", f"theory does not check: {message}\n")
    # in base.gat itself, the error names no file
    assert run(capsys, "check", str(tmp_path / "base.gat"))[2] == (
        "UnknownSymbol at item 2 (result): unknown sort symbol 'nope'\n")


def test_a_sibling_base_that_does_not_parse_is_named(capsys, schema,
                                                     tmp_path):
    # the position is in pbase.gat, one or two files down from the one
    # named on the command line, and only the base's name says so
    (tmp_path / "pbase.gat").write_text("SORT ob(\n")
    (tmp_path / "ptop.gat").write_text('EXTENDS "pbase"\nOP q() : ob{}\n')
    (tmp_path / "pupper.gat").write_text('EXTENDS "ptop"\nOP r() : ob{}\n')
    message = ("parse error: in pbase.gat: 2:1: expected ')', "
               "found 'end of file'\n")
    for name in ("ptop.gat", "pupper.gat"):
        path = str(tmp_path / name)
        for command in (("check",), ("sort-of", "--term", "q{}"),
                        ("eq", "--sorts", "ob{}", "ob{}"),
                        ("norm", "--term", "q{}")):
            assert run(capsys, command[0], path, *command[1:]) == (
                1, "", message)
        code, out, _ = run(capsys, "check", "--json", path)
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert code == 1 and report["stats"]["items"] == 0
        assert [e["kind"] for e in report["errors"]] == ["ParseError"]
    # in pbase.gat itself, the error names no file
    assert run(capsys, "check", str(tmp_path / "pbase.gat"))[2] == (
        "parse error: 2:1: expected ')', found 'end of file'\n")


@pytest.mark.parametrize("command", [
    ("check",), ("check", "--json"), ("sort-of", "--term", "x"),
    ("eq", "--sorts", "ob{}", "ob{}"), ("norm", "--term", "x")])
def test_extends_cycle_is_a_usage_error(capsys, tmp_path, command):
    (tmp_path / "a.gat").write_text('EXTENDS "b"\nSORT ob()\n')
    (tmp_path / "b.gat").write_text('EXTENDS "a"\nOP pt() : ob{}\n')
    argv = (command[0], str(tmp_path / "a.gat"), *command[1:])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "EXTENDS cycle: a.gat -> b.gat -> a.gat\n"


def test_a_file_that_extends_itself_is_a_usage_error(capsys, tmp_path):
    (tmp_path / "self.gat").write_text('EXTENDS "self"\nSORT ob()\n')
    code, out, err = run(capsys, "check", str(tmp_path / "self.gat"))
    assert (code, out) == (2, "")
    assert err == "EXTENDS cycle: self.gat -> self.gat\n"


def test_sort_of(capsys):
    code, out, _ = run(capsys, "sort-of", CAT,
                       "--telescope", "x: ob{}", "--term", "homid{x/g}")
    assert code == 0
    assert out.strip() == "hom{x/d, x/c}"


def test_sort_of_rejects_ill_sorted_term(capsys):
    code, _, err = run(capsys, "sort-of", CAT, "--term", "nope{}")
    assert code == 1
    assert "UnknownSymbol" in err


def test_eq_terms(capsys):
    code, out, _ = run(capsys, "eq", MONOID, "--telescope", "x: ob{}",
                       "--terms", "cmp{x/a, id{}/b}", "x", "--at", "ob{}")
    assert code == 0
    assert out.splitlines()[0] == "Equal"


def test_eq_trace_names_the_axiom_item(capsys):
    code, out, _ = run(capsys, "eq", MONOID, "--telescope", "x: ob{}",
                       "--terms", "cmp{x/a, id{}/b}", "x", "--at", "ob{}",
                       "--trace")
    assert code == 0
    assert "item" in out


def test_eq_unprovable(capsys):
    code, out, _ = run(capsys, "eq", MONOID, "--telescope", "x: ob{}, y: ob{}",
                       "--terms", "x", "y", "--at", "ob{}")
    assert code == 1
    assert out.startswith("NotProven")


@pytest.mark.parametrize("argv, kind", [
    (("--telescope", "x: ob{}", "--terms", "foo{}", "foo{}", "--at", "ob{}"),
     "UnknownSymbol"),
    (("--terms", "x", "x", "--at", "ob{}"), "UnknownVariable"),
    (("--sorts", "bogus{}", "bogus{}"), "UnknownSymbol"),
])
def test_eq_rejects_ill_formed_inputs(capsys, argv, kind):
    code, out, err = run(capsys, "eq", MONOID, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(kind)


def test_eq_sorts(capsys):
    code, out, _ = run(
        capsys, "eq", MLTT,
        "--telescope", "a: lvl{}, b: lvl{}, p: lt{a/u, b/v}, g: ob{}",
        "--sorts", "el{b/l, g/g, univ{a/a, b/b, p/p, g/g}/A}", "ty{a/l, g/g}")
    assert code == 0
    assert out.splitlines()[0] == "Equal"


@pytest.mark.parametrize("fuel", ["0", "-3", "many"])
def test_eq_fuel_must_be_positive(capsys, fuel):
    with pytest.raises(SystemExit) as exc:
        main(["eq", MONOID, "--telescope", "x: ob{}", "--terms",
              "cmp{cmp{x/a, id{}/b}/a, id{}/b}", "x", "--at", "ob{}",
              "--fuel", fuel])
    assert exc.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


def test_eq_fuel_bounds_the_query(capsys):
    argv = ["eq", MONOID, "--telescope", "x: ob{}", "--terms",
            "cmp{cmp{x/a, id{}/b}/a, id{}/b}", "x", "--at", "ob{}"]
    assert run(capsys, *argv, "--fuel", "2")[:2] == (0, "Equal\n")
    assert run(capsys, *argv, "--fuel", "1")[:2] == (
        1, "NotProven: rewrite fuel exhausted\n")


def test_eq_requires_exactly_one_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eq", MONOID])
    assert exc.value.code == 2


def test_eq_terms_requires_a_sort(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eq", MONOID, "--terms", "id{}", "id{}"])
    assert exc.value.code == 2
    assert "--terms requires --at SORT" in capsys.readouterr().err


def test_norm(capsys):
    term = "cmp{cmp{x/a, id{}/b}/a, id{}/b}"
    with record_verdicts() as log:
        code, out, _ = run(capsys, "norm", MONOID, "--telescope", "x: ob{}",
                           "--term", term)
    assert code == 0
    assert out.strip() == "x"
    # the normalization trace is over the given telescope, and replays
    ((th, trace),) = [(th, t) for th, t in log if t.start == parse_term(term)]
    assert trace.tele == parse_telescope("x: ob{}") and replay_ok(th, trace)


def test_norm_that_gives_up_exits_1(capsys, tmp_path):
    comm = tmp_path / "comm.gat"
    comm.write_text('SORT ob()\nOP cmp(a: ob{}, b: ob{}) : ob{}\n'
                    'TERMAX "comm" (x: ob{}, y: ob{}) '
                    'cmp{x/a, y/b} = cmp{y/a, x/b} : ob{}\n')
    code, out, _ = run(capsys, "norm", str(comm), "--telescope",
                       "x: ob{}, y: ob{}", "--term", "cmp{x/a, y/b}")
    assert code == 1
    assert out.strip() == "NotProven: rewrite fuel exhausted"


@pytest.mark.parametrize("name, fuel", [
    ("monoid", 0), ("cat", 0), ("cwf", 5), ("mltt", 66)])
def test_check_json_reports_fuel_used(capsys, name, fuel):
    code, out, _ = run(capsys, "check", str(library_path(name)), "--json")
    assert code == 0
    assert json.loads(out)["stats"]["fuel_used"] == fuel


def test_lib_list(capsys):
    code, out, _ = run(capsys, "lib", "list")
    assert code == 0
    assert out.split() == ["monoid", "cat", "cwf", "mltt"]


def test_lib_path(capsys):
    code, out, _ = run(capsys, "lib", "path", "cwf")
    assert code == 0
    assert out.strip().endswith("cwf.gat")


def test_lib_path_needs_a_name(capsys):
    assert run(capsys, "lib", "path") == (
        2, "", "lib path requires a theory name\n")


def test_an_unknown_base_theory_is_a_usage_error(capsys, tmp_path):
    child = tmp_path / "child.gat"
    child.write_text('EXTENDS "nowhere"\nSORT ob()\n')
    assert run(capsys, "check", str(child)) == (
        2, "", "unknown base theory: nowhere\n")


def test_lib_path_unknown(capsys):
    code, _, err = run(capsys, "lib", "path", "nope")
    assert code == 2
    assert "unknown theory" in err


def test_canonicity_report(capsys):
    code, out, _ = run(capsys, "canonicity", "--depth", "2", "--seed", "0",
                       "--report", "json")
    assert code == 0
    report = json.loads(out)
    assert report["terms"] == 40
    assert report["stuck"] == 0
    assert report["red"] + report["green"] == report["terms"]


def test_canonicity_text_summary(capsys):
    code, out, _ = run(capsys, "canonicity", "--depth", "2")
    assert code == 0
    line = re.fullmatch(r"terms: 40  red: (\d+)  green: (\d+)  stuck: 0  "
                        r"max rewrite steps: \d+\n", out)
    assert line is not None
    assert int(line[1]) + int(line[2]) == 40


def test_canonicity_depth_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["canonicity", "--depth", "0"])
    assert exc.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err
