"""Command-line interface: determinism, exit codes, file-driven inputs."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smt_kit import caps, cli, involutions


def run(*argv):
    return subprocess.run([sys.executable, "-m", "smt_kit.cli", *argv],
                          capture_output=True, text=True)


def run_in_process(*argv):
    """(exit code, parsed stdout, stderr) of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue()), err.getvalue()


def test_deterministic_output():
    a = run("extend", "--restricted", "C", "--rank", "3")
    b = run("extend", "--restricted", "C", "--rank", "3")
    assert a.returncode == b.returncode == 0
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert da == db
    assert da["outputs"]["label"] == "C3^(1)"


def test_usage_error_exit_2():
    assert run("no-such-command").returncode == 2


def test_computational_error_exit_1():
    r = run("inv", "lookup", "unknown-family9")
    assert r.returncode == 1
    assert "error" in json.loads(r.stdout)


def test_inv_lookup_errors_print_the_message():
    """A refused parameter and an unknown name print the KeyError's message,
    not its repr."""
    assert run_in_process("inv", "lookup", "flip-sp7") == (
        1, {"error": "flip-sp needs even n >= 4"}, "")
    assert run_in_process("inv", "lookup", "nosuch") == (
        1, {"error": "unknown involution 'nosuch'"}, "")


def test_inv_lookup_refuses_a_number_after_a_parameterless_family():
    """A row without a parameter has its own restricted rank (2 for
    e6-so10, 3 for e7-e6), so a trailing number is an error, not a rank."""
    for name, family in (("e6-so10-3", "e6-so10"), ("e7-e6-5", "e7-e6"), ("f4-so94", "f4-so9")):
        assert run_in_process("inv", "lookup", name) == (
            1, {"error": f"{family} takes no parameter"}, ""), name


def test_inv_lookup_instantiates_the_fixed_algebra():
    """An implemented family prints its ambient and fixed algebras at its
    parameter, not the catalog templates."""
    for name, ambient, fixed in (("flip-sl3", "A2+A2", "sl(3)"), ("flip-sp4", "C2+C2", "sp(4)"),
                                 ("flip-so-odd5", "B2+B2", "so(5)"),
                                 ("sym-quadrics3", "A2", "so(3)")):
        code, out, _ = run_in_process("inv", "lookup", name)
        assert code == 0
        assert (out["outputs"]["ambient"], out["outputs"]["fixed_algebra"]) == (ambient, fixed)


def test_verify_oracles_refuses_negative_trials():
    """A negative trial count is an error, not a run of no random trial."""
    assert run_in_process("verify", "oracles", "--trials", "-1") == (
        1, {"error": "trials must be >= 0, got -1"}, "")


def test_verify_suite_exit_0():
    r = run("verify", "lemma34")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["checks"] and all(c["pass"] for c in rep["checks"])


def test_verify_tsv():
    r = run("verify", "remark23", "--tsv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("name\t")
    assert all("True" in ln for ln in lines[1:])


def test_quadlat_cli():
    r = run("quadlat", "classify", "--type", "C", "--rank", "3", "--bound", "18")
    assert r.returncode == 0
    rows = json.loads(r.stdout)["outputs"]
    verdicts = {row["lattice"]: row["quadratic"] for row in rows}
    assert verdicts == {"P": True, "Q": False}


def test_quadlat_cli_rejects_bound_below_one():
    for bound in ("-1", "-3"):
        r = run("quadlat", "classify", "--type", "A", "--rank", "2", "--bound", bound)
        assert r.returncode == 1
        assert json.loads(r.stdout) == {"error": f"height bound must be at least 1, got {bound}"}
        assert "Traceback" not in r.stderr


def test_quadlat_cli_rejects_bound_below_a_basis_height():
    r = run("quadlat", "classify", "--type", "B", "--rank", "2", "--bound", "1")
    assert r.returncode == 1
    assert "height bound 1 too small" in json.loads(r.stdout)["error"]
    assert "Traceback" not in r.stderr


def test_quadlat_cli_cap_exceeded():
    r = run("quadlat", "classify", "--type", "A", "--rank", "4", "--bound", "400")
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == (
        "monoid_basis cap exceeded: cap=200000, box of 1093567501 points at bound 400")
    assert "Traceback" not in r.stderr


def test_demazure_cli(tmp_path):
    from smt_kit import cartan
    gcm = cartan.build_cartan(cartan.FinTypeLabel("A", 2))
    f = tmp_path / "a2.json"
    f.write_text(json.dumps(gcm.to_json()))
    r = run("weyl", "demazure", "--gcm", str(f), "--word", "1,0",
            "--weight", "1,0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["outputs"]["total"] == 3


def test_missing_input_file_exit_1(tmp_path):
    r = run("weyl", "demazure", "--gcm", str(tmp_path / "missing.json"),
            "--weight", "1,0")
    assert r.returncode == 1
    assert "missing.json" in json.loads(r.stdout)["error"]
    assert "Traceback" not in r.stderr


def test_cartan_cli_bad_inputs_exit_1():
    """An empty type and a --dim whose length is not the rank print a JSON
    error; they used to end in a traceback or a wrong weyl_dim."""
    code, out, err = run_in_process("cartan", "")
    assert (code, out, err) == (1, {"error": "empty type label"}, "")
    for dim in ("1", "1,0,5"):
        code, out, err = run_in_process("cartan", "A2", "--dim", dim)
        assert code == 1 and "coordinates given, 2 expected" in out["error"]
    code, out, _ = run_in_process("cartan", "A2", "--dim", "1,1/0")
    assert code == 1 and "zero denominator" in out["error"]
    assert run_in_process("cartan", "A2", "--dim", "1,1")[1]["outputs"]["weyl_dim"] == 8


def test_demazure_cli_bad_inputs_exit_1(a2_gcm):
    """Letters outside 0..n-1 and a weight of the wrong length are refused;
    letter 5 used to raise IndexError and letter -1 reached the delta slot."""
    for word in ("5", "-1", "0,2"):
        code, out, err = run_in_process("weyl", "demazure", "--gcm", a2_gcm,
                                        "--word", word, "--weight", "1,0")
        assert code == 1 and "outside 0..1" in out["error"] and err == ""
    code, out, _ = run_in_process("weyl", "demazure", "--gcm", a2_gcm,
                                  "--word", "1,0", "--weight", "1,0,0")
    assert code == 1 and "coordinates given, 2 expected" in out["error"]


@pytest.mark.parametrize("data, field", [({"entries": 5}, "entries"),
                                         ({"entries": [[2, None], [None, 2]]}, "entries[0][1]"),
                                         ([1], "expected a JSON object"),
                                         ({"entries": [[2]], "nonreduced": "ab"}, "nonreduced")])
def test_demazure_cli_gcm_file_of_the_wrong_shape_exit_1(tmp_path, data, field):
    """A GCM file of the wrong shape is refused with a JSON error naming the
    field; these used to end in a TypeError traceback with empty stdout."""
    f = tmp_path / "gcm.json"
    f.write_text(json.dumps(data))
    code, out, err = run_in_process("weyl", "demazure", "--gcm", str(f), "--weight", "1")
    assert code == 1 and field in out["error"] and err == ""


def test_leading_minus_value_needs_equals(a2_gcm, capsys):
    """argparse takes `-1,2` after a space for an option and exits 2; in the
    `=` form it is the value and reaches the library."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["cartan", "A2", "--dim", "-1,2"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    code, out, _ = run_in_process("cartan", "A2", "--dim=-1,2")
    assert (code, out) == (1, {"error": "dominant integral weight required"})
    code, out, _ = run_in_process("weyl", "demazure", "--gcm", a2_gcm, "--word", "1,0",
                                  "--weight=-1,2")
    assert code == 0 and out["inputs"]["weight"] == "-1,2"


def test_lspath_cli():
    r = run("lspath", "enumerate", "--case", "flip-sl2", "--top", "tau1",
            "--degree", "1")
    assert r.returncode == 0
    out = json.loads(r.stdout)["outputs"]
    assert out["count"] == 5 and out["degree_split"] == {"0": 1, "1": 4}


def test_lspath_cli_paths_match_the_golden_file():
    """The paths below tau_2 of flip-sp4, in order, as the stdout bytes with
    the elapsed_ms value removed (as the installed-package CI step strips it)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["lspath", "enumerate", "--case", "flip-sp4", "--top", "tau2",
                         "--paths"]) == 0
    golden = Path(__file__).parent / "golden" / "lspath_enumerate_flip_sp4_tau2_paths.json"
    assert re.sub(r'"elapsed_ms":[0-9]*', "", out.getvalue()) == golden.read_text()


def test_lspath_cli_rejects_m_outside_0_to_rank():
    for case, top in (("flip-sl2", "tau-1"), ("flip-sl2", "tau9"),
                      ("flip-sp4", "tau3"), ("flip-sl2", "tau2")):
        r = run("lspath", "enumerate", "--case", case, "--top", top)
        assert r.returncode == 1
        assert json.loads(r.stdout)["error"].startswith("m out of range: ")
        assert "Traceback" not in r.stderr


def test_weyl_tau_hat_cli_names_the_range():
    for args, m in ((("--m", "3"), 3), (("--m=-1",), -1)):
        r = run("weyl", "tau-hat", "--restricted", "C", "--rank", "2", *args)
        assert r.returncode == 1
        assert json.loads(r.stdout)["error"] == f"m out of range: {m} not in 0..2"
        assert "Traceback" not in r.stderr


def test_lspath_cli_top_forms():
    for top in ("tau1", "TAU1", "tau_1", "Tau_1", "1"):
        code, out, _ = run_in_process("lspath", "enumerate", "--case", "flip-sl2",
                                      "--top", top)
        assert code == 0 and out["outputs"]["count"] == 5, top
    for top in ("at_1", "abc", "", "tau", "tau_", "t1", "u1", "tau 1", "1.0",
                "tau--1", "tau_1x", "_1"):
        code, out, err = run_in_process("lspath", "enumerate", "--case", "flip-sl2",
                                        "--top", top)
        assert code == 1, top
        assert out["error"] == (f"--top {top!r}: expected tau<m>, tau_<m> or <m>,"
                                " m an integer")
        assert "Traceback" not in err


def test_lspath_cli_rejects_negative_degree():
    code, out, _ = run_in_process("lspath", "enumerate", "--case", "flip-sl2",
                                  "--top", "tau1", "--degree", "-1")
    assert code == 1
    assert out == {"error": "degree -1 out of range: must be >= 0"}


def test_lspath_cli_degree_5():
    code, out, _ = run_in_process("lspath", "enumerate", "--case", "flip-sp4", "--top", "tau2",
                                  "--degree", "5", "--locus", "S")
    assert code == 0
    assert out["outputs"]["count"] == 111384


@pytest.mark.parametrize("case,top", [("flip-sl2", "tau1"), ("flip-sp4", "tau2")])
@pytest.mark.parametrize("locus", ["S", "R"])
@pytest.mark.parametrize("degree", range(7))
def test_lspath_cli_degrees(case, top, locus, degree):
    """Degrees 0..6 on both loci: one JSON object, exit 0, no traceback."""
    code, out, err = run_in_process("lspath", "enumerate", "--case", case, "--top", top,
                                    "--degree", str(degree), "--locus", locus)
    assert code == 0
    assert isinstance(out["outputs"]["count"], int)
    assert "Traceback" not in err


def minimal_argvs(gcm_file):
    """A minimal valid argv of every subcommand."""
    return [["cartan", "C3"], ["quadlat", "classify", "--type", "C", "--rank", "3"],
            ["extend", "--restricted", "C", "--rank", "3"],
            ["weyl", "tau-hat", "--restricted", "C", "--rank", "2", "--m", "1"],
            ["weyl", "demazure", "--gcm", gcm_file, "--weight", "1,0"],
            ["lspath", "enumerate", "--case", "flip-sl2", "--top", "tau1"],
            ["smt", "straighten", "--system", "e7", "--monomial", "x5,y5"],
            ["inv", "lookup", "flip-sp4"], ["verify", "remark23"]]


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_lspath_cli_rejects_bad_cap(value, a2_gcm, monkeypatch):
    """Every subcommand refuses an invalid SMT_KIT_CAP before it runs, not
    only those that walk a coset interval."""
    r = subprocess.run([sys.executable, "-m", "smt_kit.cli", "lspath", "enumerate",
                        "--case", "flip-sl2", "--top", "tau1"],
                       capture_output=True, text=True, env={**os.environ, "SMT_KIT_CAP": value})
    assert r.returncode == 1
    error = {"error": f"SMT_KIT_CAP={value!r}: expected a positive integer"}
    assert json.loads(r.stdout) == error
    assert "Traceback" not in r.stderr
    monkeypatch.setenv("SMT_KIT_CAP", value)
    for argv in minimal_argvs(a2_gcm):
        assert run_in_process(*argv) == (1, error, ""), argv


@pytest.mark.parametrize("argv", [
    ["--seed", "5", "verify", "oracles"], ["--tsv", "verify", "remark23"],
    ["weyl", "--seed", "3", "tau-hat", "--restricted", "C", "--rank", "2", "--m", "1"],
    ["weyl", "--tsv", "tau-hat", "--restricted", "C", "--rank", "2", "--m", "1"],
    ["weyl", "tau-hat", "--restricted", "C", "--rank", "2", "--m", "1", "--seed", "3"],
    ["cartan", "C3", "--tsv"], ["lspath", "enumerate", "--seed", "1"],
    ["smt", "straighten", "--system", "e7", "--monomial", "x5,y5", "--tsv"],
    ["quadlat", "classify", "--type", "C", "--rank", "3", "--json"],
    ["inv", "lookup", "flip-sp4", "--json"], ["verify", "remark23", "--json"],
])
def test_options_only_on_the_parser_that_reads_them(argv, capsys):
    """--seed and --tsv belong to `verify` alone and --json to no parser, so
    each of these is a usage error (exit 2); before, the top-level copies
    were overwritten by the subcommand's defaults and the others ignored."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: smt-kit")


def test_lspath_cli_cap_exceeded(monkeypatch):
    monkeypatch.setenv("SMT_KIT_CAP", "3")
    code, out, err = run_in_process("lspath", "enumerate", "--case", "flip-sl2", "--top", "tau1")
    assert code == 1
    assert out["error"].startswith("coset interval cap exceeded: cap=3, ")
    assert out["error"].endswith(" cosets reached")
    assert "Traceback" not in err


def test_straighten_cli_builtin_and_file(tmp_path):
    r = run("smt", "straighten", "--system", "e7", "--monomial", "x5,y5")
    assert r.returncode == 0
    out = json.loads(r.stdout)["outputs"]
    assert [t["mono"] for t in out] == [["x0", "y0"], ["x1", "y1"], ["x2", "y2"],
                                        ["x3", "y3"], ["x4", "y4"]]
    assert [t["coef"] for t in out] == ["1", "-1", "1", "-1", "1"]
    data = {
        "generators": [{"id": "a", "grade": 0}, {"id": "b", "grade": 1},
                       {"id": "c", "grade": 1}, {"id": "d", "grade": 2}],
        "order": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
        "relations": [{"pair": ["b", "c"], "rhs": [{"coef": "1", "mono": ["a", "d"]}]}],
    }
    f = tmp_path / "diamond.json"
    f.write_text(json.dumps(data))
    r = run("smt", "straighten", "--system", str(f), "--monomial", "b,c")
    assert r.returncode == 0
    assert json.loads(r.stdout)["outputs"] == [{"coef": "1", "mono": ["a", "d"]}]


def test_straighten_cli_relation_keyed_on_one_generator_twice(tmp_path):
    """A relation whose pair names one generator twice is refused as keyed
    on a comparable pair; it used to print Python's unpacking message."""
    data = {"generators": [{"id": "a"}, {"id": "b"}], "order": [],
            "relations": [{"pair": ["a", "a"], "rhs": []}]}
    f = tmp_path / "twice.json"
    f.write_text(json.dumps(data))
    r = run("smt", "straighten", "--system", str(f), "--monomial", "a,b")
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"error": "relation keyed on a comparable pair"}
    assert "Traceback" not in r.stderr


def test_straighten_cli_unknown_generator():
    r = run("smt", "straighten", "--system", "e7", "--monomial", "x9,y5")
    assert r.returncode == 1
    err = json.loads(r.stdout)["error"]
    assert "x9" in err and "x0..x5" in err and "y0..y5" in err


def test_straighten_cli_unknown_generator_in_file(tmp_path):
    data = {"generators": [{"id": "a"}, {"id": "b"}], "order": [["a", "b"]],
            "relations": []}
    f = tmp_path / "chain.json"
    f.write_text(json.dumps(data))
    r = run("smt", "straighten", "--system", str(f), "--monomial", "a,z,y")
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "unknown generator(s) z, y; valid: a, b"


@pytest.mark.parametrize("data, field", [
    ({"generators": 5}, "generators"),
    ([1, 2], "expected a JSON object"),
    ({"generators": [{"id": "a", "grade": "1"}], "order": [], "relations": []},
     "generators[0].grade"),
    ({"generators": [{"id": "a"}], "order": [["a", 1]], "relations": []}, "order[0][1]"),
    ({"generators": [{"id": "a"}], "order": [],
      "relations": [{"pair": ["a", "a"], "rhs": [{"coef": [1], "mono": []}]}]},
     "relations[0].rhs[0].coef"),
    ({"generators": [{"id": "a"}], "order": [],
      "relations": [{"pair": ["a", "a"], "rhs": [{"coef": "1/0", "mono": []}]}]},
     "zero denominator"),
    ({"generators": [{"id": "a"}, {"id": "b"}], "order": [["a"]], "relations": []},
     "field 'order[0]' must hold two generator ids, not 1"),
    ({"generators": [{"id": "a"}, {"id": "b"}], "order": [["a", "b"], ["a", "b", "a"]],
      "relations": []}, "field 'order[1]' must hold two generator ids, not 3"),
    ({"generators": [{"id": "a"}], "order": [["a", "zz"]], "relations": []},
     "field 'order[0]' names undeclared generator(s) zz"),
    ({"generators": [{"id": "a"}], "order": [], "relations": [{"pair": ["a"], "rhs": []}]},
     "field 'relations[0].pair' must hold two generator ids, not 1"),
    ({"generators": [{"id": "a"}], "order": [],
      "relations": [{"pair": ["a", "zz"], "rhs": []}]},
     "field 'relations[0].pair' names undeclared generator(s) zz"),
    ({"generators": [{"id": "a"}, {"id": "b"}], "order": [],
      "relations": [{"pair": ["a", "b"], "rhs": [{"coef": "1", "mono": ["a", "zz", "yy"]}]}]},
     "field 'relations[0].rhs[0].mono' names undeclared generator(s) zz, yy"),
])
def test_straighten_cli_system_file_of_the_wrong_shape_exit_1(tmp_path, data, field):
    """A system file of the wrong shape is refused with a JSON error naming
    the field; these used to end in a traceback with empty stdout, and a
    pair of the wrong length or an undeclared id in Python's unpacking
    message, the bare id, or (in `order`) no error at all."""
    f = tmp_path / "system.json"
    f.write_text(json.dumps(data))
    code, out, err = run_in_process("smt", "straighten", "--system", str(f), "--monomial", "a")
    assert code == 1 and field in out["error"] and err == ""


_GEN = [{"id": "a"}]


@pytest.mark.parametrize("data, field", [
    ({"gcm": {}}, "entries"),
    ({"gcm": {"nonreduced": [0]}}, "entries"),
    ({"system": {"order": [], "relations": []}}, "generators"),
    ({"system": {"generators": _GEN, "relations": []}}, "order"),
    ({"system": {"generators": _GEN, "order": []}}, "relations"),
    ({"system": {"generators": [{"grade": 1}], "order": [], "relations": []}},
     "generators[0].id"),
    ({"system": {"generators": _GEN, "order": [], "relations": [{"rhs": []}]}},
     "relations[0].pair"),
    ({"system": {"generators": _GEN, "order": [], "relations": [{"pair": ["a", "a"]}]}},
     "relations[0].rhs"),
    ({"system": {"generators": _GEN, "order": [],
                 "relations": [{"pair": ["a", "a"], "rhs": [{"coef": "1", "mono": []}]},
                               {"pair": ["a", "a"], "rhs": [{"mono": []}]}]}},
     "relations[1].rhs[0].coef"),
    ({"system": {"generators": _GEN, "order": [],
                 "relations": [{"pair": ["a", "a"], "rhs": [{"coef": "1"}]}]}},
     "relations[0].rhs[0].mono"),
])
def test_cli_file_missing_a_required_field_exit_1(tmp_path, data, field):
    """A GCM or system file without a required field is refused with a JSON
    error naming the field; this used to print the bare field name (the
    message of the reader's KeyError).  Files without the optional `grade`
    or `nonreduced` are read in `test_straighten_cli_unknown_generator_in_file`
    and `test_demazure_cli_cap_exceeded`."""
    (kind, content), = data.items()
    f = tmp_path / f"{kind}.json"
    f.write_text(json.dumps(content))
    argv = (["weyl", "demazure", "--gcm", str(f), "--weight", "1"] if kind == "gcm"
            else ["smt", "straighten", "--system", str(f), "--monomial", "a"])
    assert run_in_process(*argv) == (1, {"error": f"{f}: missing field {field!r}"}, "")


def test_demazure_cli_cap_exceeded(tmp_path):
    f = tmp_path / "hyp55.json"
    f.write_text(json.dumps({"entries": [[2, -5], [-5, 2]]}))
    r = run("weyl", "demazure", "--gcm", str(f), "--word", "0,1,0,1,0,1",
            "--weight", "1,1")
    assert r.returncode == 1
    err = json.loads(r.stdout)["error"]
    assert err.startswith("demazure_character cap exceeded: cap=100000, ")
    assert err.endswith(" at letter 6 of 6")
    assert "Traceback" not in r.stderr


def test_verify_prop5_rank_filter():
    names = lambda r: [c["name"] for c in json.loads(r.stdout)["checks"]]
    r = run("verify", "prop5", "--max-rank", "3")
    assert r.returncode == 0
    assert "prop5: G2" in names(r) and not any("F4" in n for n in names(r))
    r = run("verify", "prop5", "--max-rank", "4")
    assert r.returncode == 0
    assert {"prop5: G2", "prop5: F4", "prop5: D4"} <= set(names(r))
    # without the option the suite's own default (rank 6) applies
    r = run("verify", "prop5")
    assert r.returncode == 0
    assert "prop5: BC6" in names(r) and not any("7" in n for n in names(r))


def test_verify_suite_without_checks_exit_1():
    r = run("verify", "prop5", "--max-rank", "0")
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"error": "suite prop5 produced no checks"}


def test_seed_changes_sampling_not_result():
    r1 = run("verify", "oracles", "--trials", "5", "--seed", "1")
    r2 = run("verify", "oracles", "--trials", "5", "--seed", "2")
    assert r1.returncode == r2.returncode == 0
    trials = lambda r: [c for c in json.loads(r.stdout)["checks"] if "trial" in c["name"]]
    assert len(trials(r1)) == len(trials(r2)) == 5
    assert trials(r1) != trials(r2)


def test_verify_prop5_capped_label_is_one_failed_row(monkeypatch):
    """A label over the monoid box cap is one failed row with the cap error,
    and the labels below the cap still pass; a bound below 1 stays one error."""
    monkeypatch.setitem(caps.CAPS, "monoid_points", 1000)
    code, out, _ = run_in_process("verify", "prop5", "--max-rank", "4")
    assert code == 1
    # the box of C(12 + n, n) points at the default bound 12 is 455 at rank 3
    error = "monoid_basis cap exceeded: cap=1000, box of 1820 points at bound 12"
    assert {c["name"]: c["actual"] for c in out["checks"] if not c["pass"]} == {
        f"prop5: {label}": error for label in ("A4", "B4", "C4", "BC4", "D4", "F4")}
    assert [c["name"] for c in out["checks"] if c["pass"]] == [
        f"prop5: {label}" for label in ("A1", "A2", "A3", "B1", "B2", "B3", "C2", "C3",
                                        "BC1", "BC2", "BC3", "G2", "G2 negative certificates")]
    assert run_in_process("verify", "prop5", "--bound", "0") == (
        1, {"error": "height bound must be at least 1, got 0"}, "")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["A", "B", "C", "D", "E", "F", "G", "BC", "X", "", "a", "B C"]),
       st.integers(-2, 4), st.integers(-2, 8))
def test_quadlat_cli_fuzz(family, rank, bound):
    """Any family, rank and bound gives one JSON object and exit 0 or 1."""
    code, out, err = run_in_process("quadlat", "classify", "--type", family,
                                    "--rank", str(rank), "--bound", str(bound))
    assert code in (0, 1)
    assert isinstance(out, dict)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["flip-sl2", "flip-sl3", "flip-sp4", "sym-quadrics3", "nosuch"]),
       st.sampled_from(["tau-1", "tau0", "tau1", "tau2", "tau3", "tau4", "9", "", "abc"]),
       st.integers(-1, 2))
def test_lspath_cli_fuzz(case, top, degree):
    """Any case, top and degree gives one JSON object and exit 0 or 1."""
    code, out, err = run_in_process("lspath", "enumerate", "--case", case, "--top", top,
                                    "--degree", str(degree))
    assert code in (0, 1)
    assert isinstance(out, dict)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["A2", "B3", "C2", "G2", "E6", "BC2", "D4", "", " ", "_", "A", "A0",
                        "C1", "X3", "BC", "a2", "A-1", "F4x"]),
       st.one_of(st.none(), st.lists(st.sampled_from(["0", "1", "2", "-1", "1/2", "1/0",
                                                     "x", ""]), min_size=0, max_size=7)
                 .map(",".join)))
def test_cartan_cli_fuzz(type_text, dim):
    """Any type text and --dim gives one JSON object, exit 0 or 1, and a
    weyl_dim only for a dim of exactly rank coordinates."""
    argv = ["cartan", type_text] + ([] if dim is None else [f"--dim={dim}"])
    code, out, err = run_in_process(*argv)
    assert code in (0, 1)
    assert isinstance(out, dict) and ("error" in out) == (code == 1)
    assert "Traceback" not in err
    if code == 0 and dim:
        assert len(dim.split(",")) == out["outputs"]["gcm"]["rank"]


FAMILIES = ["A", "B", "C", "D", "BC", "G", "E", "X", "", "a", "B C"]


def _check_fuzz_run(*argv):
    """(exit code, report) of a run that printed one JSON object, exited 0
    or 1 and wrote no traceback."""
    code, out, err = run_in_process(*argv)
    assert code in (0, 1)
    assert isinstance(out, dict)
    assert "Traceback" not in err
    return code, out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(-2, 6))
def test_extend_cli_fuzz(family, rank):
    code, out = _check_fuzz_run("extend", "--restricted", family, "--rank", str(rank))
    assert ("error" in out) == (code == 1)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(-2, 5), st.integers(-2, 6))
def test_weyl_tau_hat_cli_fuzz(family, rank, m):
    code, out = _check_fuzz_run("weyl", "tau-hat", "--restricted", family, "--rank", str(rank),
                                f"--m={m}")
    assert ("error" in out) == (code == 1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["x0", "x5", "y3", "y5", "x6", "z", "", "x 1"]), min_size=1,
                max_size=4).map(",".join))
def test_straighten_e7_cli_fuzz(monomial):
    code, out = _check_fuzz_run("smt", "straighten", "--system", "e7", f"--monomial={monomial}")
    assert ("error" in out) == (code == 1)


def unset_or(lo, hi):
    return st.none() | st.integers(lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["prop5", "oracles", "remark23", "lemma34"]), unset_or(-1, 9),
       unset_or(-2, 14), unset_or(-2, 6), unset_or(-3, 3))
def test_verify_cli_options_fuzz(suite, max_rank, bound, trials, seed):
    """Any of the `verify` options on the suites that read them (and two
    that ignore them): exit 0 exactly when every check row passes."""
    argv = ["verify", suite]
    for option, value in (("--max-rank", max_rank), ("--bound", bound), ("--trials", trials),
                          ("--seed", seed)):
        if value is not None:
            argv.append(f"{option}={value}")
    code, out = _check_fuzz_run(*argv)
    if "error" not in out:
        assert out["checks"] and code == (0 if all(c["pass"] for c in out["checks"]) else 1)


@pytest.fixture(scope="module")
def a2_gcm(tmp_path_factory):
    from smt_kit import cartan
    f = tmp_path_factory.mktemp("gcm") / "a2.json"
    f.write_text(json.dumps(cartan.build_cartan(cartan.FinTypeLabel("A", 2)).to_json()))
    return str(f)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["0", "1", "2", "5", "-1", "x", ""]), max_size=4).map(",".join),
       st.lists(st.sampled_from(["0", "1", "2", "-1", "1/2", "1/0", "x"]), min_size=1,
                max_size=4).map(",".join))
def test_weyl_demazure_cli_fuzz(a2_gcm, word, weight):
    """Any --word and --weight on A2 gives one JSON object and exit 0 or 1;
    exit 0 only for letters in 0..1 and a weight of two coordinates."""
    code, out, err = run_in_process("weyl", "demazure", "--gcm", a2_gcm,
                                    f"--word={word}", f"--weight={weight}")
    assert code in (0, 1)
    assert isinstance(out, dict) and ("error" in out) == (code == 1)
    assert "Traceback" not in err
    if code == 0:
        assert all(x in ("0", "1") for x in word.split(",") if word)
        assert len(weight.split(",")) == 2


CATALOG_KEYS = [row["key"] for row in involutions._catalog()]
MALFORMED_NAMES = ("flip-sp5", "flip-", "sym-quadrics-1", "")


def _check_inv_lookup(name):
    code, out, err = run_in_process("inv", "lookup", name)
    assert code in (0, 1)
    assert isinstance(out, dict) and ("error" in out) == (code == 1)
    assert "Traceback" not in err


@pytest.mark.parametrize("name", [*CATALOG_KEYS, *MALFORMED_NAMES,
                                  *(k + str(n) for k in CATALOG_KEYS for n in range(-1, 6))])
def test_inv_lookup_cli_every_name(name):
    """Every catalog key, bare and with parameters -1..5, and malformed names:
    one JSON object, exit 0 or 1, no traceback."""
    _check_inv_lookup(name)


@pytest.mark.parametrize("name", [k + str(n) for k in CATALOG_KEYS for n in (6, 7)])
def test_inv_lookup_cli_rank_6_and_7(name):
    """Parameters 6 and 7 through the same CLI path, with the real bound-8
    quadratic verdict: a parameter its family accepts gives exit 0 and a
    quadratic lattice (each such row has restricted type A, C or BC with G
    simply connected, or B with G adjoint), one it refuses gives exit 1 with
    the lookup error."""
    code, out, err = run_in_process("inv", "lookup", name)
    assert "Traceback" not in err
    try:
        involutions.lookup(name)
    except KeyError:
        assert code == 1 and set(out) == {"error"}
    else:
        assert code == 0
        assert out["outputs"]["quadratic"] is True
