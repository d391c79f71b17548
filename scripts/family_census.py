#!/usr/bin/env python3
"""Tabulate combinatorial invariants of both polytope families by dimension.

Prints one row per (d, family): vertex/facet/edge counts, degree range,
radius, diameter, chromatic number, and whether the closed-form
Hamiltonian cycle verifies. Everything is computed exactly; the table is
plain text so it can be pasted into notes.

Usage:
    python3 scripts/family_census.py --max-d 8
    python3 scripts/family_census.py --max-d 6 --theta-entry 3
"""

import argparse

from dantzigfig import FAMILIES, CheckFailed
from dantzigfig.polytope_graph import (
    radius_and_diameter,
    verify_coloring,
    verify_hamiltonian,
)

COLUMNS = (
    "family", "d", "b", "verts", "facets", "edges",
    "degmin", "degmax", "avgdeg", "rad", "diam", "chi", "ham",
)


def census_row(family, d, entry):
    fam = FAMILIES[family]
    inst = fam.make((entry,) * d)
    graph = fam.graph(inst)
    hrep = fam.hrep(inst)
    cycle = fam.hamiltonian_cycle(inst)
    coloring, _ = fam.coloring(inst)
    degrees = graph.degree_multiset()
    radius, diameter = radius_and_diameter(graph)
    proper, ncolors = verify_coloring(graph, coloring)
    if not proper:
        raise CheckFailed(f"{family} d={d}: coloring is not proper")
    return {
        "family": family,
        "d": d,
        "b": inst.b,
        "verts": len(graph),
        "facets": len(hrep.normals),
        "edges": graph.edge_count(),
        "degmin": min(degrees),
        "degmax": max(degrees),
        "avgdeg": str(graph.average_degree()),
        "rad": radius,
        "diam": diameter,
        "chi": ncolors,
        "ham": "yes" if verify_hamiltonian(graph, cycle) else "NO",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-d", type=int, default=8)
    parser.add_argument("--theta-entry", type=int, default=2,
                        help="every theta coordinate gets this value")
    args = parser.parse_args()

    rows = [
        census_row(family, d, args.theta_entry)
        for d in range(3, args.max_d + 1)
        for family in FAMILIES
    ]
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) for c in COLUMNS
    }
    print("  ".join(c.rjust(widths[c]) for c in COLUMNS))
    for r in rows:
        print("  ".join(str(r[c]).rjust(widths[c]) for c in COLUMNS))

    d_values = sorted({r["d"] for r in rows})
    print()
    print("closed-form checks: verts == (d^2+d+2)/2, edges == (d^3+2d)/3")
    for d in d_values:
        sample = [r for r in rows if r["d"] == d]
        if any(r["verts"] != (d * d + d + 2) // 2 for r in sample):
            raise CheckFailed(f"d={d}: vertex count is not (d^2+d+2)/2")
        if any(r["edges"] != (d**3 + 2 * d) // 3 for r in sample):
            raise CheckFailed(f"d={d}: edge count is not (d^3+2d)/3")
    print(f"hold for d = {d_values[0]}..{d_values[-1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
