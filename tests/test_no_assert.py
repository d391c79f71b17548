"""No check in the package or the scripts is an `assert` statement.

`python -O` strips assert statements, so a check written as one would be
silently disabled; every check raises `CheckFailed` (or another error)
explicitly instead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dantzigfig").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py")
)


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"oracle.py", "family.py", "family_census.py", "expansion_scan.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"
