"""Smoke tests of the scripts: each runs in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_family_census():
    assert run_script("family_census.py", "--max-d", "4").splitlines() == [
        " family  d  b  verts  facets  edges  degmin  degmax  avgdeg  rad  diam  chi  ham",
        "  grlex  3  6      7       6     11       3       4    22/7    2     2    3  yes",
        "grevlex  3  6      7       6     11       3       4    22/7    2     2    3  yes",
        "  grlex  4  8     11       8     24       4       7   48/11    2     3    4  yes",
        "grevlex  4  8     11       8     24       4       6   48/11    2     2    4  yes",
        "",
        "closed-form checks: verts == (d^2+d+2)/2, edges == (d^3+2d)/3",
        "hold for d = 3..4",
    ]


def test_expansion_scan():
    out = run_script("expansion_scan.py", "--exhaustive-to", "3", "--witness-to", "4")
    timing = re.compile(r" \(\d+\.\d\ds\)")
    assert [timing.sub("", line) for line in out.splitlines()] == [
        "d=3 grlex    n= 7 h=1     |S|= 3 |bd|= 3  S={0,v(1,3),v(2,3)}",
        "d=3 grevlex  n= 7 h=4/3   |S|= 3 |bd|= 4  S={0,vbar(1,4),vbar(2,4)}",
        "d=4 grlex    witness-only: ratio 4/4 = 1  S = 0 + last column",
    ]
