"""Serialization: cdd-style .ine/.ext text, Graphviz DOT, and JSON helpers.

The .ine convention is the usual one: a row "b -a1 ... -ad" encodes the
inequality a.x <= b. Numbers are integers or p/q rationals. Labels do not
survive an .ext round trip (the format carries coordinates only).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .polytope_core import FacetId, HRep, VertexLabel


class FormatError(ValueError):
    """Malformed .ine/.ext input."""


def _num(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def write_ine(h: HRep) -> str:
    lines = ["H-representation", "begin", f" {len(h.normals)} {h.dim + 1} rational"]
    for normal, beta in h.rows():
        entries = [_num(beta)] + [_num(-a) for a in normal]
        lines.append(" " + " ".join(entries))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _token_blocks(text: str, expected_header: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("*")]
    if not lines or lines[0] != expected_header:
        raise FormatError(f"missing {expected_header!r} header")
    try:
        begin = lines.index("begin")
        end = lines.index("end")
    except ValueError as exc:
        raise FormatError("missing begin/end") from exc
    if end < begin:
        raise FormatError("end before begin")
    try:
        m, cols = map(int, lines[begin + 1].split()[:2])
    except ValueError as exc:  # also fewer than two entries
        raise FormatError(f"malformed size line {lines[begin + 1]!r}") from exc
    rows = []
    for ln in lines[begin + 2 : end]:
        toks = ln.split()
        if len(toks) != cols:
            raise FormatError(f"expected {cols} entries per row, got {len(toks)}")
        try:
            rows.append([Fraction(t) for t in toks])
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a number in row {ln!r}") from exc
    if len(rows) != m:
        raise FormatError(f"expected {m} rows, got {len(rows)}")
    return rows


def parse_ine(text: str) -> HRep:
    rows = _token_blocks(text, "H-representation")
    pairs = [([-a for a in row[1:]], row[0]) for row in rows]
    return HRep(pairs)


def write_ext(v) -> str:
    entries = list(v)
    dim = len(entries[0][1]) if entries else 0
    lines = ["V-representation", "begin", f" {len(entries)} {dim + 1} rational"]
    for _, coords in entries:
        lines.append(" " + " ".join(["1"] + [_num(c) for c in coords]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_ext(text: str) -> list[tuple]:
    rows = _token_blocks(text, "V-representation")
    points = []
    for row in rows:
        if row[0] != 1:
            raise FormatError("rays are not supported, leading entry must be 1")
        points.append(tuple(int(c) if c.denominator == 1 else c for c in row[1:]))
    return points


def write_dot(graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for label in graph.labels:
        lines.append(f'  "{label}";')
    seen = set()
    for i, label in enumerate(graph.labels):
        for other in graph.neighbors(label):
            j = graph.index[other]
            if (min(i, j), max(i, j)) in seen:
                continue
            seen.add((min(i, j), max(i, j)))
            lines.append(f'  "{label}" -- "{other}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def jsonable(obj):
    """Recursively convert report values to plain JSON types.

    Fractions become ints when integral, else "p/q" strings; labels and
    facet ids use their str form; sets are sorted.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return obj.numerator if obj.denominator == 1 else _num(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (VertexLabel, FacetId)):  # tuples, but printed as names
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(x) for x in obj)
    return str(obj)


def dump_report(report: dict) -> str:
    return json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"
