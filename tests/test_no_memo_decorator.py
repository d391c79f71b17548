"""No function in the package is memoized by a decorator, but the rank memo.

What is built from an object is kept on that object: a family keeps the
parts of a theta instance in the instance (`family.Family`), and an `HRep`
keeps the ranks of its tight row sets and its double-description run. A
memo decorator (`functools.lru_cache`, `cache`, `cached_property`) would
instead keep a second copy, keyed by value or by identity, for the life of
the process. ALLOWED names each exception with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dantzigfig"
SOURCES = sorted(PACKAGE.glob("*.py"))
MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}

ALLOWED = {
    "exactmath._reduced_rank": "keyed by the value of a reduced system and "
    "bounded (RANK_MEMO_SIZE): the vertex certificates of one H-representation "
    "repeat reduced systems, and without it a grlex construct call at d = 16 "
    "took about 4.5 ms more",
}


def _name(decorator):
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _memoized(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.stem}.{node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_name(d) in MEMO_DECORATORS for d in node.decorator_list)
    ]


def test_sources_are_found():
    assert {"family.py", "grlex_family.py", "grevlex_family.py", "oracle.py"} <= {
        path.name for path in SOURCES
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_memo_decorator(path):
    unexplained = [name for name in _memoized(path) if name not in ALLOWED]
    assert unexplained == [], f"memoized without a reason in ALLOWED: {unexplained}"


def test_every_allowed_memo_is_still_there():
    found = {name for path in SOURCES for name in _memoized(path)}
    assert set(ALLOWED) <= found
