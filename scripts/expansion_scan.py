#!/usr/bin/env python3
"""Exact edge-expansion scan over both polytope families.

For each d up to --exhaustive-to (default 7, n = 29 vertices) this finds
the exact minimum of |bd(S)|/|S| over all vertex subsets, by the branch
and bound of `edge_expansion_exact` with its vertex cap lifted, and
reports it with a witness set. d = 8 (n = 37) is reachable on request:
`--exhaustive-to 8` gives grevlex h = 17/6 in about 25 s on a 2-vCPU
Xeon VM, so no test runs it. Past --exhaustive-to the scan checks the
closed-form witness of each family that has one (grlex, whose ratio is
always exactly 1).

Usage:
    python3 scripts/expansion_scan.py --exhaustive-to 7 --witness-to 9
"""

import argparse
import time

from dantzigfig import FAMILIES, CheckFailed
from dantzigfig.polytope_graph import cut_edges, edge_expansion_exact


def scan_exhaustive(d):
    for family, fam in FAMILIES.items():
        graph = fam.graph(fam.make((2,) * d))
        started = time.perf_counter()
        result = edge_expansion_exact(graph, max_vertices=len(graph))
        elapsed = time.perf_counter() - started
        witness = ",".join(sorted(str(x) for x in result.witness))
        print(
            f"d={d} {family:8s} n={len(graph):2d} h={str(result.value):5s}"
            f" |S|={len(result.witness):2d} |bd|={result.boundary:2d}"
            f" ({elapsed:.2f}s)  S={{{witness}}}"
        )


def scan_witness(d):
    for family, fam in FAMILIES.items():
        inst = fam.make((2,) * d)
        found = fam.expansion_witness(inst)
        if found is None:
            continue
        witness, boundary = found
        cut = cut_edges(fam.graph(inst), witness)
        if not len(cut) == boundary == len(witness) == d:
            raise CheckFailed(f"d={d} {family}: the witness cut ratio is not 1")
        print(
            f"d={d} {family:8s} witness-only: ratio {boundary}/{len(witness)} = 1"
            f"  S = 0 + last column"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exhaustive-to", type=int, default=7,
                        help="largest d for the exact expansion")
    parser.add_argument("--witness-to", type=int, default=9,
                        help="largest d for the witness-only check")
    args = parser.parse_args()

    for d in range(3, args.exhaustive_to + 1):
        scan_exhaustive(d)
    for d in range(args.exhaustive_to + 1, args.witness_to + 1):
        scan_witness(d)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
