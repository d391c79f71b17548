"""Every function defined in `src/dantzigfig` is run by some CLI call.

The calls below run in-process under `sys.setprofile`, after the rank memo
(the package's one cache that outlives a call) is emptied, so that a rank
another test left there does not hide the code that computes it. Every function and method defined in the package
(found by parsing its modules, nested functions included) must be entered,
except the names in ALLOWED, each with the reason it stays. A function that
no call reaches and that no reason covers is dead code: delete it, or give
the reason here. An allowed name must still exist and still go unreached,
so the list shrinks when the code does.

Likewise every name in a class's `__slots__` must be read: some attribute
load in the package (`x.name`, found by parsing) names it. A slot that is
only stored is a field that no code consults.

The same calls also check what `formats.dump_report` is given: it converts
only Fractions, so a label, facet id, set or non-str key in a report is a
fault of the command that built it.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import dantzigfig
from dantzigfig import cli, exactmath, formats
from dantzigfig.polytope_core import FacetId, VertexLabel

PACKAGE = Path(dantzigfig.__file__).resolve().parent

ALLOWED = {
    "cli.run": "the process entry: it freezes the heap and exits the "
    "interpreter, so test_cli runs it in a subprocess or with main() stubbed",
    "family.ThetaInstance.__repr__": "a repr, for debugging",
    "polytope_core.VertexLabel.__repr__": "a repr, for debugging",
    "polytope_core.FacetId.__repr__": "a repr, for debugging",
    "polytope_core.HRep.__repr__": "a repr, for debugging",
    "polytope_core.VRep.__repr__": "a repr, for debugging",
    "polytope_core.VertexLabel.__getnewargs__": "the copy and pickle hook of a "
    "tuple subclass",
    "polytope_core.FacetId.__getnewargs__": "the copy and pickle hook of a "
    "tuple subclass",
    "exactmath.invert": "perfbench/traced_call.py wraps it, and it is the "
    "tests' inverse referee",
    "oracle.enumerate_segment": "the tests' segment referee, which "
    "perfbench/traced_call.py wraps",
    "oracle.LatticeSegment.__init__": "the result of enumerate_segment",
    "oracle.LatticeSegment.__len__": "the result of enumerate_segment",
    "oracle._lines": "the simplex walk of enumerate_segment",
    "oracle._simplex_points": "the simplex walk of enumerate_segment",
}

THETAS = {
    "grlex": ("2,2,2,2", "2,3,1,2,1", "1,1,1,1", "2,2,2"),
    "grevlex": ("2,2,2,2", "3,1,2", "2,2,2"),
}


def _calls():
    for family, thetas in THETAS.items():
        for theta in thetas:
            common = ("--family", family, "--theta", theta)
            for fmt in ("json", "ine", "ext", "dot"):
                yield ("construct", *common, "--format", fmt)
            for fmt in ("json", "dot"):
                yield ("graph", *common, "--format", fmt)
            yield ("verify", *common, "--suites", "all")
    # a graph past the cap: the expansion suite is skipped
    yield ("verify", "--family", "grlex", "--theta", "2,2,2", "--suites", "all",
           "--expansion-max-n", "4")
    for other in ("grlex", "grevlex"):  # equal, then labels that differ
        yield ("compare", "--family-a", "grlex", "--theta-a", "2,2,2,2",
               "--family-b", other, "--theta-b", "2,2,2,2")


def _defined_functions():
    """(path, first line of the code object) -> module.qualname, for every
    def in the package; a decorated function's code starts at its first
    decorator."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[str(path), first] = f"{path.stem}.{prefix}{child.name}"
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return out


def _entered_code():
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    exactmath._reduced_rank.cache_clear()
    codes = []
    sys.setprofile(profile)
    try:
        for argv in _calls():
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(list(argv)))
    finally:
        sys.setprofile(None)
    assert codes == [cli.EXIT_OK] * len(codes)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}


def test_every_function_is_reached_or_allowed():
    defined = _defined_functions()
    entered = _entered_code()
    reached = {name for key, name in defined.items() if key in entered}
    names = set(defined.values())
    assert len(names) == len(defined), "two defs share a qualified name"
    assert all(reason.strip() for reason in ALLOWED.values())
    assert sorted(set(ALLOWED) - names) == [], "allowed names that no longer exist"
    assert sorted(set(ALLOWED) & reached) == [], "allowed names that a call now reaches"
    assert sorted(names - reached - set(ALLOWED)) == [], "functions no call reaches"


def _json_faults(value, path="report"):
    """Where value holds what formats.dump_report must not get: a label or
    facet id (a tuple, which json would silently write as an array), a set,
    or a dict key that is not a str."""
    if isinstance(value, (VertexLabel, FacetId, set, frozenset)):
        return [f"{path}: {type(value).__name__} {value!r}"]
    if isinstance(value, dict):
        faults = [f"{path}: key {k!r}" for k in value if type(k) is not str]
        for k, v in value.items():
            faults += _json_faults(v, f"{path}[{k!r}]")
        return faults
    if isinstance(value, (list, tuple)):
        return [f for i, v in enumerate(value) for f in _json_faults(v, f"{path}[{i}]")]
    return []


def test_reports_hold_only_json_values(monkeypatch):
    reports = []
    dump_report = formats.dump_report

    def recorded(report):
        reports.append(report)
        return dump_report(report)

    monkeypatch.setattr(formats, "dump_report", recorded)
    for argv in _calls():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == cli.EXIT_OK, argv
    assert len(reports) > 20  # the json calls of every command
    assert [f for report in reports for f in _json_faults(report)] == []


def _slot_names():
    """module.Class.slot for every string in a class's __slots__ tuple."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["__slots__"]
                ):
                    for slot in ast.literal_eval(stmt.value):
                        out[f"{path.stem}.{node.name}.{slot}"] = slot
    return out


def _loaded_attributes():
    return {
        node.attr
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_slot_is_read():
    slots = _slot_names()
    assert "polytope_core.HRep.normals" in slots  # the scan finds the slots
    loaded = _loaded_attributes()
    assert sorted(name for name, slot in slots.items() if slot not in loaded) == []
