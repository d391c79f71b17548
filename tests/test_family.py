"""The family registry and the checks of the shared construction recipe."""

import gc
import json
import os
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from pathlib import Path

import pytest

from dantzigfig import FAMILIES, cli, family
from dantzigfig import grevlex_family as gv
from dantzigfig import grlex_family as gl
from dantzigfig import polytope_graph as pg
from dantzigfig.orders import OrderKind
from dantzigfig.polytope_core import CheckFailed, HRep, adjacency_from_incidence

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", ["grlex", "grevlex"])
@pytest.mark.parametrize("theta", [(2, 2, 2), (3, 1, 4, 1), (3, 3, 2, 2, 2)])
def test_hrep_rhs_entries_are_ints(name, theta):
    fam = FAMILIES[name]
    h = fam.hrep(fam.make(theta))
    assert all(type(beta) is int for beta in h.rhs)


def test_registry_names_kinds_and_cli_choices(capsys):
    assert list(FAMILIES) == ["grlex", "grevlex"]
    assert FAMILIES["grlex"].kind is OrderKind.GRLEX
    assert FAMILIES["grevlex"].kind is OrderKind.GREVLEX
    assert cli.main(["construct", "--help"]) == cli.EXIT_OK
    assert "--family {grlex,grevlex}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "module,name,part",
    [
        (gl, "grlex", "vertices"),
        (gl, "grlex", "hrep"),
        (gl, "grlex", "incidence"),
        (gl, "grlex", "hamiltonian_cycle"),
        (gv, "grevlex", "vertices"),
        (gv, "grevlex", "graph"),
        (gv, "grevlex", "coloring"),
    ],
)
def test_registry_calls_module_functions_by_name(monkeypatch, module, name, part):
    # a rebinding of the module-level name (a tracer, a test double) is seen
    calls = []
    original = getattr(module, f"{name}_{part}")

    def spy(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(module, f"{name}_{part}", spy)
    fam = FAMILIES[name]
    inst = fam.make((2, 2, 2))
    getattr(fam, part)(inst)
    assert calls == [inst]


BUILT_PARTS = (
    "vertices", "facet_matrix", "facet_matrix_inverse", "hrep", "incidence", "edges",
    "graph", "hamiltonian_cycle",
)


def _spy_on_parts(monkeypatch, module, name):
    """Rebind each part builder of module to one that records (part, inst)."""
    built = []
    for part in BUILT_PARTS:
        build = getattr(module, f"{name}_{part}")
        monkeypatch.setattr(
            module, f"{name}_{part}",
            lambda inst, part=part, build=build: built.append((part, inst)) or build(inst),
        )
    return built


@pytest.mark.parametrize("module,name", [(gl, "grlex"), (gv, "grevlex")])
def test_each_part_is_built_once_per_instance(capsys, monkeypatch, module, name):
    # asked for by the family or by another part, a part is built on the
    # first request and read from its instance after; a second instance of
    # the same theta builds its own, and nothing outlives a CLI call
    built = _spy_on_parts(monkeypatch, module, name)
    fam = FAMILIES[name]
    first, second = fam.make((2, 3, 2, 2)), fam.make((2, 3, 2, 2))
    for inst in (first, second, first):
        fam.vertices(inst), fam.hrep(inst), fam.incidence(inst), fam.graph(inst)
        fam.hamiltonian_cycle(inst), fam.coloring(inst), fam.expansion_witness(inst)
    assert sorted(part for part, _ in built) == sorted(BUILT_PARTS * 2)
    assert Counter(inst for _, inst in built) == {first: len(BUILT_PARTS), second: len(BUILT_PARTS)}
    for _ in range(2):
        built.clear()
        code = cli.main(["verify", "--family", name, "--theta", "2,3,2,2", "--suites", "all"])
        assert code == cli.EXIT_OK and json.loads(capsys.readouterr().out)["passed"]
        assert sorted(part for part, _ in built) == sorted(BUILT_PARTS)


@pytest.mark.parametrize("module,name", [(gl, "grlex"), (gv, "grevlex")])
def test_the_hrep_and_its_dd_run_go_with_their_instance(monkeypatch, module, name):
    class TrackedHRep(HRep):  # HRep itself takes no weak reference
        __slots__ = ("__weakref__",)

    build = getattr(module, f"{name}_hrep")

    def tracked(inst):
        h = build(inst)
        return TrackedHRep(h.rows(), h.ids)

    monkeypatch.setattr(module, f"{name}_hrep", tracked)
    fam = FAMILIES[name]
    inst = fam.make((2, 3, 2, 2))
    fam.incidence(inst)  # runs the DD, which stays on the HRep
    ref = weakref.ref(fam.hrep(inst))
    assert type(ref()) is TrackedHRep and ref()._rays is not None
    del inst
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", ["grlex", "grevlex"])
def test_checked_edges_rejects_a_missing_or_an_extra_pair(name):
    # the derived pairs come back in vertex order, and only for the closed-form set
    fam = FAMILIES[name]
    inst = fam.make((2, 3, 2, 2))
    inc = fam.incidence(inst)
    derived = adjacency_from_incidence(inc, inst.d)
    pairs = set(map(frozenset, derived))
    assert family.checked_edges(pairs, inc, inst.d) == tuple(derived)
    non_edge = frozenset(fam.apexes(inst))
    assert non_edge not in pairs
    for wrong in (pairs - {frozenset(derived[0])}, pairs | {non_edge}):
        with pytest.raises(CheckFailed, match="edge list"):
            family.checked_edges(wrong, inc, inst.d)


@pytest.mark.parametrize("name", ["grlex", "grevlex"])
def test_coloring_returns_d_colors(name):
    fam = FAMILIES[name]
    for theta in [(2, 2, 2, 2), (2, 1, 3, 1)]:
        inst = fam.make(theta)
        coloring, colors = fam.coloring(inst)
        assert colors == 4 and set(coloring) == set(fam.graph(inst).labels)


@pytest.mark.parametrize("module,name", [(gl, "grlex"), (gv, "grevlex")])
def test_broken_cycle_recipe_raises_without_search(monkeypatch, module, name):
    # a recipe that misses a vertex fails its check; no search stands in
    check = family.checked_cycle
    monkeypatch.setattr(module, "checked_cycle", lambda graph, recipe: check(graph, recipe[:-1]))
    with pytest.raises(CheckFailed, match="recipe"):
        FAMILIES[name].hamiltonian_cycle(FAMILIES[name].make((2, 3, 2, 2)))


def test_corrupted_incidence_fails_under_optimize(tmp_path):
    # python -O strips assert statements; the build-time checks must stay
    script = textwrap.dedent(
        """
        import sys
        from dantzigfig import cli, grlex_family
        from dantzigfig.polytope_core import CheckFailed, VertexLabel

        good = grlex_family._symbolic_psi

        def corrupted(inst):
            # theta is not on the plane x_1 = 0; the suites' own bit
            # counts cannot see one extra tight facet
            psi = dict(good(inst))
            psi[VertexLabel.theta()] = psi[VertexLabel.theta()] | {0}
            return psi

        grlex_family._symbolic_psi = corrupted
        try:
            grlex_family.grlex_incidence(grlex_family.make_grlex((2, 2, 2)))
        except CheckFailed:
            print("build: CheckFailed")
        code = cli.main(["verify", "--family", "grlex", "--theta", "3,2,2",
                         "--suites", "incidence"])
        print(f"verify: exit {code}")
        """
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:2] == ["build: CheckFailed", "verify: exit 1"]


def test_check_failed_is_an_assertion_error():
    assert issubclass(CheckFailed, AssertionError)
