"""Command-line interface: exit codes, output formats, report schemas."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dantzigfig import cli
from dantzigfig.grlex_family import grlex_hrep, grlex_vertices, make_grlex
from referees import parse_ext, parse_ine

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------- construct


def test_construct_json(capsys):
    code, out, _ = run(
        capsys, "construct", "--family", "grlex", "--theta", "2,2,2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "construct"
    assert report["vertex_count"] == 7
    assert report["facet_count"] == 6
    assert report["edge_count"] == 11
    assert report["vertices"]["w"] == [0, 0, 5]
    assert len(report["hamiltonian_cycle"]) == 7


def test_construct_ine_parses_back(capsys):
    code, out, _ = run(
        capsys, "construct", "--family", "grlex", "--theta", "2,1,3",
        "--format", "ine",
    )
    assert code == 0
    assert parse_ine(out).same_polytope_rows(grlex_hrep(make_grlex((2, 1, 3))))


def test_construct_ext_parses_back(capsys):
    code, out, _ = run(
        capsys, "construct", "--family", "grevlex", "--theta", "2,2,2",
        "--format", "ext",
    )
    assert code == 0
    pts = parse_ext(out)
    assert len(pts) == 7 and (0, 0, 6) in set(pts)


def test_construct_dot(capsys):
    code, out, _ = run(
        capsys, "construct", "--family", "grevlex", "--theta", "2,2,2",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph G {") and out.count("--") == 11


def test_construct_out_file(tmp_path, capsys):
    target = tmp_path / "p.ine"
    code, out, _ = run(
        capsys, "construct", "--family", "grlex", "--theta", "2,2,2",
        "--format", "ine", "--out", str(target),
    )
    assert code == 0 and out == ""
    assert parse_ine(target.read_text()).same_polytope_rows(
        grlex_hrep(make_grlex((2, 2, 2)))
    )


@pytest.mark.parametrize("target", ["missing/p.json", "."])
def test_construct_out_to_an_unwritable_path_exits_2(tmp_path, capsys, target):
    # a missing directory, and a directory in place of a file
    code, out, err = run(
        capsys, "construct", "--family", "grlex", "--theta", "2,2,2",
        "--out", str(tmp_path / target),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out") and err.count("\n") == 1


def test_construct_deterministic(capsys):
    a = run(capsys, "construct", "--family", "grlex", "--theta", "1,2,3,1")
    b = run(capsys, "construct", "--family", "grlex", "--theta", "1,2,3,1")
    assert a == b


# ------------------------------------------------------------- verify


def test_verify_all_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "grlex", "--theta", "2,2,2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [s["suite"] for s in report["suites"]] == list(cli.SUITE_NAMES)
    assert all(s["passed"] and not s["skipped"] for s in report["suites"])
    assert all(isinstance(s["seconds"], float) for s in report["suites"])


def test_verify_merged_theta_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "grlex", "--theta", "2,1,1,2",
        "--suites", "vertices,graph,incidence",
    )
    assert code == 0 and json.loads(out)["passed"]


def test_verify_grevlex_all_ones(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "grevlex", "--theta", "1,1,1"
    )
    assert code == 0 and json.loads(out)["passed"]


def test_verify_subset_of_suites(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "grevlex", "--theta", "3,1,2",
        "--suites", "facets,dantzig",
    )
    assert code == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == [
        "facets",
        "dantzig",
    ]


def test_verify_runs_each_named_suite_once(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "grlex", "--theta", "2,2,2",
        "--suites", "graph,facets,graph,facets",
    )
    assert code == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == ["graph", "facets"]


def test_verify_all_mode_skips_over_budget(capsys):
    # the oracle no longer enumerates the segment, so only expansion is skipped
    code, out, _ = run(
        capsys, "verify", "--family", "grlex", "--theta", "4,4,4,4,4,4",
        "--expansion-max-n", "10",
    )
    assert code == 0
    report = json.loads(out)
    by_name = {s["suite"]: s for s in report["suites"]}
    assert by_name["oracle"]["skipped"] is False
    assert by_name["oracle"]["passed"] is True
    assert by_name["oracle"]["details"]["segment_points"] == 546991
    assert by_name["expansion"]["skipped"] is True
    assert by_name["vertices"]["skipped"] is False
    assert report["passed"] is True


def test_verify_explicit_expansion_too_large_exits_3(capsys):
    code, _, err = run(
        capsys, "verify", "--family", "grevlex", "--theta", "2,2,2",
        "--suites", "expansion", "--expansion-max-n", "5",
    )
    assert code == 3 and "budget" in err


def test_verify_failing_suite_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITES,
        "vertices",
        lambda family, inst, budget: {"passed": False, "details": {}},
    )
    code, out, _ = run(
        capsys, "verify", "--family", "grlex", "--theta", "2,2,2",
        "--suites", "vertices",
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_internal_check_failure_exits_1(capsys, monkeypatch):
    def boom(family, inst, budget):
        assert False, "synthetic failure"

    monkeypatch.setitem(cli._SUITES, "facets", boom)
    code, _, err = run(
        capsys, "verify", "--family", "grlex", "--theta", "2,2,2",
        "--suites", "facets",
    )
    assert code == 1 and "verification failed" in err


@pytest.mark.parametrize(
    "command",
    [("construct",)] + [("verify", "--suites", s) for s in ("incidence", "dantzig", "graph")],
)
def test_an_infeasible_closed_form_vertex_fails_verification(capsys, monkeypatch, command):
    from dantzigfig import grlex_family

    v_coords = grlex_family._v_coords

    def shifted(inst, j, k):  # v(1,3) one step past the grading facet
        x = v_coords(inst, j, k)
        return (x[0] + 1,) + x[1:] if (j, k) == (1, 3) else x

    monkeypatch.setattr(grlex_family, "_v_coords", shifted)
    code, _, err = run(capsys, command[0], "--family", "grlex", "--theta", "2,2,2", *command[1:])
    assert code == cli.EXIT_VERIFY
    assert err.startswith("verification failed: ") and err.count("\n") == 1
    assert "v(1,3)" in err


@pytest.mark.parametrize("family", ["grlex", "grevlex"])
def test_verify_computes_the_numeric_incidence_once(capsys, monkeypatch, family):
    from dantzigfig import family as family_module
    from dantzigfig import polytope_core

    calls = []
    original = polytope_core.incidence

    def counted(h, v):
        calls.append(len(v))
        return original(h, v)

    for module in (polytope_core, family_module):
        monkeypatch.setattr(module, "incidence", counted)
    code, out, _ = run(
        capsys, "verify", "--family", family, "--theta", "2,3,2,2",
        "--suites", "incidence,dantzig,graph",
    )
    assert code == 0 and json.loads(out)["passed"]
    assert len(calls) == 1


@pytest.mark.parametrize("family", ["grlex", "grevlex"])
def test_verify_all_runs_the_dd_once(capsys, monkeypatch, family):
    # the DD body calls adjugate once per run; a run kept on the HRep is not redone
    from dantzigfig import oracle

    runs = []
    adjugate = oracle.adjugate
    monkeypatch.setattr(oracle, "adjugate", lambda rows: runs.append(rows) or adjugate(rows))
    code, out, _ = run(
        capsys, "verify", "--family", family, "--theta", "2,3,2,2", "--suites", "all"
    )
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert not any(suite["skipped"] for suite in report["suites"])
    assert len(runs) == 1


@pytest.mark.parametrize("family", ["grlex", "grevlex"])
def test_oracle_reuses_the_vertex_certificates_of_incidence(capsys, monkeypatch, family):
    # check (d) ranks no system and eliminates none: every certificate it
    # reads was computed, and its reduced system eliminated, by incidence
    from dantzigfig import exactmath, oracle, polytope_core

    memo = exactmath._reduced_rank
    assert exactmath.RANK_MEMO_SIZE is not None
    assert memo.cache_info().maxsize == exactmath.RANK_MEMO_SIZE
    memo.cache_clear()
    ranked, seen = [], {}
    rank, original = polytope_core.rank_of_rows, oracle.verify_hull_equivalence

    def counted(*args):
        before = len(ranked), memo.cache_info().misses
        report = original(*args)
        seen["incidence eliminated"] = before[1]
        seen["oracle ranked"] = len(ranked) - before[0]
        seen["oracle eliminated"] = memo.cache_info().misses - before[1]
        return report

    monkeypatch.setattr(
        polytope_core, "rank_of_rows", lambda rows: ranked.append(rows) or rank(rows)
    )
    monkeypatch.setattr(oracle, "verify_hull_equivalence", counted)
    code, out, _ = run(
        capsys, "verify", "--family", family, "--theta", "3,3,3,2,2,2,2,2",
        "--suites", "incidence,oracle",
    )
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert report["suites"][1]["details"]["vertex_certificates"] is True
    assert seen["incidence eliminated"] > 0
    assert seen["oracle ranked"] == seen["oracle eliminated"] == 0


# ------------------------------------------------------------ compare


def test_compare_same_instance(capsys):
    code, out, _ = run(
        capsys, "compare",
        "--family-a", "grlex", "--theta-a", "2,2,2",
        "--family-b", "grlex", "--theta-b", "5,5,5",
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["a"]["edge_count"] == report["b"]["edge_count"] == 11


def test_compare_cross_family(capsys):
    code, out, _ = run(
        capsys, "compare",
        "--family-a", "grlex", "--theta-a", "2,2,2",
        "--family-b", "grevlex", "--theta-b", "2,2,2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is False
    # at d=3 both graphs are 7 vertices / 11 edges with equal degree
    # multisets; the facet-vertex counts are the discriminating invariant
    assert report["a"]["degree_multiset"] == report["b"]["degree_multiset"]
    assert (
        report["a"]["facet_vertex_counts"] != report["b"]["facet_vertex_counts"]
    )


def test_compare_unit_second_entry_is_still_equal(capsys):
    # theta_2 = 1 does not merge anything: only trailing unit entries
    # (k >= 3) collapse u(k) into v(k-1,k)
    code, out, _ = run(
        capsys, "compare",
        "--family-a", "grlex", "--theta-a", "2,1,2",
        "--family-b", "grlex", "--theta-b", "2,2,2",
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_compare_merged_vs_strict(capsys):
    code, out, _ = run(
        capsys, "compare",
        "--family-a", "grlex", "--theta-a", "2,2,1",
        "--family-b", "grlex", "--theta-b", "2,2,2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is False  # merged instance loses a vertex
    assert report["a"]["vertex_count"] == 6
    assert report["b"]["vertex_count"] == 7


def test_compare_dimension_mismatch_exits_2(capsys):
    code, _, err = run(
        capsys, "compare",
        "--family-a", "grlex", "--theta-a", "2,2,2",
        "--family-b", "grlex", "--theta-b", "2,2,2,2",
    )
    assert code == 2 and "dimension mismatch" in err


# -------------------------------------------------------------- graph


def test_graph_json(capsys):
    code, out, _ = run(
        capsys, "graph", "--family", "grevlex", "--theta", "2,2,2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["radius"] == 2 and report["diameter"] == 2
    assert report["colors"] == 3
    assert report["edge_expansion"] == "4/3"
    assert len(report["hamiltonian_cycle"]) == 7


def test_graph_json_skips_expansion_over_cap(capsys):
    code, out, _ = run(
        capsys, "graph", "--family", "grlex", "--theta", "2,2,2,2,2,2,2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["edge_expansion"] is None
    assert "expansion_note" in report


def test_graph_dot_default(capsys):
    code, out, _ = run(
        capsys, "graph", "--family", "grlex", "--theta", "2,2,2"
    )
    assert code == 0 and out.startswith("graph G {")


def test_graph_json_merged_uses_relaxed_coloring(capsys):
    code, out, _ = run(
        capsys, "graph", "--family", "grlex", "--theta", "2,1,2,1",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["colors"] >= 4


def test_graph_json_colors_a_merged_minor_deeper_than_the_recursion_limit(capsys):
    # d = 44 gives 990 vertices to the coloring search, past the default
    # recursion limit of 1000 frames once the CLI's own frames are counted
    theta = ",".join(["2", "2", "1"] + ["2"] * 41)
    code, out, err = run(capsys, "graph", "--family", "grlex", "--theta", theta, "--format", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["vertex_count"] == 990 and report["colors"] == 44


# -------------------------------------------------------- input errors


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--family", "grlex", "--theta", "2,x,2"),
        ("construct", "--family", "grlex", "--theta", "2,2"),
        ("construct", "--family", "grlex", "--theta", "2,0,2"),
        ("construct", "--family", "grlex", "--theta", ""),
        ("verify", "--family", "grlex", "--theta", "2,2,2", "--suites", "bogus"),
        ("construct", "--family", "nope", "--theta", "2,2,2"),
        ("construct",),
        (),
        ("verify", "--family", "grlex", "--theta", "2,2,2", "--suites", ","),
        ("verify", "--family", "grevlex", "--theta", "2,2,2", "--suites", ""),
        ("verify", "--family", "grlex", "--theta", "2,2,2", "--suites", "expansion",
         "--expansion-max-n", "-3"),
        ("graph", "--family", "grlex", "--theta", "2,2,2", "--expansion-max-n", "-1"),
        ("verify", "--family", "grlex", "--theta", "2,2,2", "--suites", "all,bogus"),
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err


@pytest.mark.parametrize("token", ["1_0", "+2", "٢", "²"])
def test_theta_takes_ascii_digits_only(capsys, token):
    # int() reads 1_0 as 10, +2 as 2 and the Arabic-Indic digit two as 2;
    # the superscript two passes str.isdigit() but is no ASCII digit
    code, out, err = run(capsys, "construct", "--family", "grlex", "--theta", f"{token},2,2")
    assert code == 2 and not out
    assert err.startswith("error: theta must be comma-separated integers")


@pytest.mark.parametrize("command", ["verify", "graph"])
@pytest.mark.parametrize("token", ["2_4", "+24", "٢٤"])
def test_expansion_max_n_takes_ascii_digits_only(capsys, command, token):
    code, out, err = run(
        capsys, command, "--family", "grlex", "--theta", "2,2,2",
        "--expansion-max-n", token,
    )
    assert code == 2 and not out
    assert "must be an integer >= 0" in err


def test_numbers_may_keep_surrounding_spaces(capsys):
    code, out, _ = run(
        capsys, "graph", "--family", "grlex", "--theta", " 2, 2 ,2 ",
        "--format", "json", "--expansion-max-n", " 7 ",
    )
    report = json.loads(out)
    assert code == 0 and report["theta"] == [2, 2, 2]
    assert report["edge_expansion"] is not None


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "construct" in out


# ------------------------------------------------------- process entry


def checkout_env():
    # as the benchmark runs the CLI: the checkout's sources on PYTHONPATH
    # and no other PYTHON* setting
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_python(*args):
    done = subprocess.run(
        [sys.executable, *args], env=checkout_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done


def test_console_entry_point_is_run():
    text = (ROOT / "pyproject.toml").read_text()
    assert 'dantzigfig = "dantzigfig.cli:run"' in text


def test_run_freezes_then_exits_with_the_code_of_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or cli.EXIT_BUDGET)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == cli.EXIT_BUDGET
    assert calls == ["freeze", "main"]


def test_import_and_main_leave_the_collector_alone(capsys):
    script = (
        "import gc; before = gc.get_freeze_count(), gc.isenabled(); "
        "import dantzigfig.cli; print(before == (gc.get_freeze_count(), gc.isenabled()))"
    )
    assert run_python("-c", script).stdout == "True\n"
    before = gc.get_freeze_count(), gc.isenabled()
    code, _, _ = run(capsys, "verify", "--family", "grlex", "--theta", "2,2,2")
    assert code == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_module_run_as_main_freezes_the_heap():
    script = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr)); "
        "sys.argv = ['dantzigfig', 'construct', '--family', 'grlex', '--theta', '2,2,2']; "
        "runpy.run_module('dantzigfig.cli', run_name='__main__')"
    )
    frozen = run_python("-c", script).stderr.split()
    assert frozen[0] == "frozen" and int(frozen[1]) > 0


SECONDS_LINE = re.compile(r'^ *"seconds": .*\n', re.MULTILINE)


@pytest.mark.parametrize(
    "options",
    [
        ("construct", "--format", "json"),
        ("graph", "--format", "json"),
        ("verify", "--suites", "all"),
    ],
)
@pytest.mark.parametrize("family,theta", [("grlex", "2,3,1,2,1"), ("grevlex", "2,2,2,2")])
def test_module_output_matches_in_process_main(capsys, family, theta, options):
    command, *rest = options
    argv = (command, "--family", family, "--theta", theta, *rest)
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    out = run_python("-m", "dantzigfig.cli", *argv).stdout
    assert SECONDS_LINE.sub("", out) == SECONDS_LINE.sub("", expected)


def test_import_pulls_in_no_introspection_modules():
    # Every CLI call pays for its imports; dataclasses alone would bring
    # inspect, ast, dis and tokenize.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    script = f"import sys, dantzigfig.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert run_python("-c", script).stdout.strip() == "[]"
