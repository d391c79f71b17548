"""Golden outputs: CLI reports stay byte-identical on fixed instances.

Each case renders construct (json, ine, ext, dot), graph json and
`verify --suites all` json (with the per-suite "seconds" lines removed,
since timings vary) and compares the text with a file in tests/golden/.
After an intended output change, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import re
from pathlib import Path

import pytest

from dantzigfig import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = (
    ("grlex", "2,3,1,2,1"),
    ("grlex", "2,2,2,2"),
    ("grlex", "3,1,4,1"),
    ("grevlex", "2,2,2,2"),
    ("grevlex", "1,1,1,1,1"),
    ("grevlex", "3,1,2"),
)

OUTPUTS = {
    "construct.json": ("construct", "--format", "json"),
    "construct.ine": ("construct", "--format", "ine"),
    "construct.ext": ("construct", "--format", "ext"),
    "construct.dot": ("construct", "--format", "dot"),
    "graph.json": ("graph", "--format", "json"),
    "verify.json": ("verify", "--suites", "all"),
}

SECONDS_LINE = re.compile(r'^ *"seconds": .*\n', re.MULTILINE)


def golden_path(family: str, theta: str, output: str) -> Path:
    return GOLDEN / f"{family}_{theta.replace(',', '-')}.{output}"


def render(family: str, theta: str, output: str, out: Path) -> str:
    command, *options = OUTPUTS[output]
    argv = [command, "--family", family, "--theta", theta, *options, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    return SECONDS_LINE.sub("", out.read_text())


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("family,theta", CASES)
def test_golden_output(family, theta, output, tmp_path):
    expected = golden_path(family, theta, output).read_text()
    assert render(family, theta, output, tmp_path / "out") == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for family, theta in CASES:
            for output in OUTPUTS:
                text = render(family, theta, output, Path(tmp) / "out")
                golden_path(family, theta, output).write_text(text)
