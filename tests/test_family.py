"""The family registry and the checks of the shared construction recipe."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dantzigfig import FAMILIES, cli
from dantzigfig import grevlex_family as gv
from dantzigfig import grlex_family as gl
from dantzigfig.orders import OrderKind
from dantzigfig.polytope_core import CheckFailed

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
        (gv, "grevlex", "edges"),
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


@pytest.mark.parametrize("name", ["grlex", "grevlex"])
def test_coloring_returns_d_colors(name):
    fam = FAMILIES[name]
    for theta in [(2, 2, 2, 2), (2, 1, 3, 1)]:
        inst = fam.make(theta)
        coloring, colors = fam.coloring(inst)
        assert colors == 4 and set(coloring) == set(fam.graph(inst).labels)


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
    assert gv.ImproperColoring is CheckFailed
