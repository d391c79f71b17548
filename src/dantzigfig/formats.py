"""Serialization: cdd-style .ine/.ext output, Graphviz DOT, and JSON helpers.

The .ine convention is the usual one: a row "b -a1 ... -ad" encodes the
inequality a.x <= b. Numbers are integers or p/q rationals. Labels do not
survive an .ext round trip (the format carries coordinates only).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .polytope_core import FacetId, HRep, VertexLabel


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


def write_ext(v) -> str:
    entries = list(v)
    dim = len(entries[0][1]) if entries else 0
    lines = ["V-representation", "begin", f" {len(entries)} {dim + 1} rational"]
    for _, coords in entries:
        lines.append(" " + " ".join(["1"] + [_num(c) for c in coords]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_dot(graph) -> str:
    lines = ["graph G {"]
    for label in graph.labels:
        lines.append(f'  "{label}";')
    for i, label in enumerate(graph.labels):  # each edge once, from its lower end
        mask = graph.adj[i]
        for j in range(i + 1, mask.bit_length()):
            if mask >> j & 1:
                lines.append(f'  "{label}" -- "{graph.labels[j]}";')
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
