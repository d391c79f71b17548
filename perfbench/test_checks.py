"""Tests of the benchmark's own correctness checks.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_checks.py

The checks must accept real program output and reject it once corrupted.
"""

from __future__ import annotations

import copy
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def program(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "dantzigfig.cli", *args],
        cwd=ROOT, env=run.program_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def brute_segment(family, theta):
    d, b = len(theta), sum(theta)
    return sum(
        1
        for x in itertools.product(range(b + 1), repeat=d)
        if sum(x) <= b and checks.graded_leq(family, x, theta)
    )


@pytest.mark.parametrize("family", ["grlex", "grevlex"])
@pytest.mark.parametrize(
    "theta", [(1, 1, 1), (2, 1, 3), (3, 1, 2), (1, 4, 1), (2, 2, 2, 1), (1, 3, 1, 2), (2, 1, 1, 1, 2)]
)
def test_segment_size_matches_brute_force(family, theta):
    assert checks.segment_size(family, theta) == brute_segment(family, theta)


def test_graded_leq_degree_then_last_coordinate():
    assert checks.graded_leq("grlex", (5, 0, 0), (0, 0, 6))
    assert checks.graded_leq("grlex", (3, 0, 1), (0, 2, 2))
    assert not checks.graded_leq("grevlex", (3, 0, 1), (0, 2, 2))
    assert checks.graded_leq("grevlex", (0, 2, 2), (0, 2, 2))


CUBE = {
    "".join(map(str, x)): list(x) for x in itertools.product((0, 1), repeat=3)
}
CUBE_FACETS = [
    {"normal": [(-1 if i == c else 0) for i in range(3)], "rhs": 0} for c in range(3)
] + [{"normal": [(1 if i == c else 0) for i in range(3)], "rhs": 1} for c in range(3)]


def test_adjacency_on_a_cube():
    adj = checks.adjacency(checks.tight_masks(CUBE, CUBE_FACETS))
    assert sum(len(s) for s in adj.values()) == 2 * 12
    for a, nbrs in adj.items():
        assert nbrs == {b for b in CUBE if sum(x != y for x, y in zip(a, b)) == 1}
    checks.check_cycle(adj, ["000", "100", "110", "010", "011", "111", "101", "001"])
    with pytest.raises(checks.CheckFailed):
        checks.check_cycle(adj, ["000", "110", "100", "010", "011", "111", "101", "001"])


def test_a_point_outside_the_cube_is_rejected():
    moved = dict(CUBE, **{"111": [1, 1, 2]})
    with pytest.raises(checks.CheckFailed, match="violates"):
        checks.tight_masks(moved, CUBE_FACETS)


@pytest.fixture(scope="module")
def grlex_reports():
    theta = (2, 1, 3, 1, 2)
    args = ("--family", "grlex", "--theta", ",".join(map(str, theta)))
    return theta, program("construct", *args, "--format", "json"), program("graph", *args, "--format", "json")


@pytest.fixture(scope="module")
def grevlex_construct():
    theta = (2, 3, 2, 2)
    return theta, program("construct", "--family", "grevlex", "--theta", "2,3,2,2", "--format", "json")


def test_real_construct_and_graph_pass(grlex_reports, grevlex_construct):
    theta, construct, graph = grlex_reports
    adj = checks.check_construct(construct, "grlex", theta)
    checks.check_graph(graph, "grlex", theta, adj)
    theta, construct = grevlex_construct
    checks.check_construct(construct, "grevlex", theta)


def corrupted(report, change):
    bad = copy.deepcopy(report)
    change(bad)
    return bad


def move_vertex(report):
    report["vertices"]["ubar(3)"][0] += 1


def swap_cycle(report):
    cycle = report["hamiltonian_cycle"]
    half = len(cycle) // 2
    cycle[1], cycle[half] = cycle[half], cycle[1]


def drop_edge(report):
    report["edge_count"] -= 1


def shift_row(report):
    report["facets"][-1]["rhs"] += 1


@pytest.mark.parametrize("change", [move_vertex, swap_cycle, drop_edge, shift_row])
def test_corrupted_construct_is_rejected(grevlex_construct, change):
    theta, report = grevlex_construct
    with pytest.raises(checks.CheckFailed):
        checks.check_construct(corrupted(report, change), "grevlex", theta)


def recolor(report):
    a, b = report["hamiltonian_cycle"][:2]
    report["coloring"][b] = report["coloring"][a]


def wrong_degree(report):
    report["degrees"]["0"] += 1


def wrong_diameter(report):
    report["diameter"] += 1


@pytest.mark.parametrize("change", [recolor, wrong_degree, wrong_diameter, swap_cycle])
def test_corrupted_graph_is_rejected(grlex_reports, change):
    theta, construct, graph = grlex_reports
    adj = checks.check_construct(construct, "grlex", theta)
    with pytest.raises(checks.CheckFailed):
        checks.check_graph(corrupted(graph, change), "grlex", theta, adj)


@pytest.fixture(scope="module")
def verify_report():
    theta = (2, 3, 2, 2)
    return theta, program("verify", "--family", "grlex", "--theta", "2,3,2,2", "--suites", "all")


def suite(report, name):
    return next(s for s in report["suites"] if s["suite"] == name)


def segment_off_by_one(report):
    suite(report, "oracle")["details"]["segment_points"] += 1


def extra_pair(report):
    suite(report, "dantzig")["details"]["antipodal_pairs"].append(["w", "theta"])


def expansion_two(report):
    suite(report, "expansion")["details"]["h"] = 2


def diameter_two(report):
    suite(report, "graph")["details"]["diameter"] = 2


def one_vertex_less(report):
    suite(report, "vertices")["details"]["count"] -= 1


def skipped(report):
    suite(report, "oracle")["skipped"] = True


def test_real_verify_passes(verify_report):
    theta, report = verify_report
    checks.check_verify(report, "grlex", theta, run.SUITES_ALL)


@pytest.mark.parametrize(
    "change", [segment_off_by_one, extra_pair, expansion_two, diameter_two, one_vertex_less, skipped]
)
def test_corrupted_verify_is_rejected(verify_report, change):
    theta, report = verify_report
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(corrupted(report, change), "grlex", theta, run.SUITES_ALL)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.e2e_metrics([[run.Outcome(None, 1.0, 1.0, 1.0, 0, "")]], [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
