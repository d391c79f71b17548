"""Command line driver: construct | verify | compare | graph.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 budget
exceeded. `verify --suites all` skips over-budget suites with a note;
naming an over-budget suite explicitly exits 3 instead.

One call spends its time on interpreter start-up (mostly `site`), this
module's imports, the parser, the work, and exit, where CPython's full
collections walk every container the imports created. run(), the process
entry, calls gc.freeze() once the imports are done, so those collections
skip the import-time heap, which lives until exit anyway. main() and the
import leave the collector alone: tests and library callers run main()
in-process, where a freeze would pin their garbage.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from . import FAMILIES
from . import formats
from . import oracle
from . import polytope_graph as pg
from .polytope_core import (
    InvalidTheta,
    UnsupportedDimension,
    cone_cover_test,
    dantzig_hrep,
    facet_spans_ridge,
    list_antipodal_pairs,
    tangent_cone,
)

EXIT_OK, EXIT_VERIFY, EXIT_INPUT, EXIT_BUDGET = 0, 1, 2, 3


class CLIError(ValueError):
    """Bad command line input."""


def _ascii_int(text: str) -> int:
    """The int that text spells in ASCII digits, surrounding whitespace
    allowed; ValueError otherwise. int() alone also takes 1_0, +2 and
    non-ASCII digits."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(digits)


def _parse_theta(text: str) -> tuple[int, ...]:
    """Parse the integers; the family's make() validates them."""
    try:
        return tuple(_ascii_int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise CLIError(f"theta must be comma-separated integers: {text!r}") from exc


def _nonnegative_int(text: str) -> int:
    """The --expansion-max-n value: a vertex count, so an int >= 0."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0: {text!r}") from None


def _write_out(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write --out {out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- suites


def _suite_vertices(fam, inst, budget) -> dict:
    v = fam.vertices(inst)
    expected = fam.vertex_count(inst)
    basis_match = oracle.hull_vertices_by_basis(fam.hrep(inst)) == v.coordinate_set()
    return {
        "passed": len(v) == expected and basis_match,
        "details": {
            "count": len(v),
            "expected": expected,
            "basis_match": basis_match,
        },
    }


def _suite_facets(fam, inst, budget) -> dict:
    h = fam.hrep(inst)
    d = inst.d
    rows_ok = len(h.normals) == 2 * d
    grading_ok = h.normals[-1] == (1,) * d and h.rhs[-1] == inst.b
    monotone = all(fam.normal_ok(h.normals[d + r], r) for r in range(d))
    irredundant = all(oracle.facet_irredundancy(h))
    return {
        "passed": rows_ok and grading_ok and monotone and irredundant,
        "details": {
            "rows": len(h.normals),
            "grading_row": grading_ok,
            "monotone_normals": monotone,
            "irredundant": irredundant,
        },
    }


def _suite_incidence(fam, inst, budget) -> dict:
    # construction checks symbolic == numeric on a certified-complete list
    inc = fam.incidence(inst)
    d = inst.d
    vertex_bits_ok = all(m.bit_count() >= d for m in inc.vertex_masks)
    facet_bits_ok = all(m.bit_count() >= d for m in inc.facet_masks)
    ridge_ok = all(facet_spans_ridge(inc, f) for f in range(len(inc.facet_ids)))
    return {
        "passed": vertex_bits_ok and facet_bits_ok and ridge_ok,
        "details": {
            "facet_vertex_counts": sorted(inc.facet_vertex_counts(), reverse=True),
            "vertex_bits_ok": vertex_bits_ok,
            "facets_span_ridges": ridge_ok,
        },
    }


def _suite_dantzig(fam, inst, budget) -> dict:
    v = fam.vertices(inst)
    inc = fam.incidence(inst)
    a, b = fam.apexes(inst)
    cover_pair = cone_cover_test(inc, {a, b})
    cover_zero_only = cone_cover_test(inc, {a})
    pairs = list_antipodal_pairs(inc)
    pairs_ok = {frozenset(p) for p in pairs} == fam.antipodal_pairs(inst)
    rebuilt = dantzig_hrep(tangent_cone(v, a, inc), tangent_cone(v, b, inc))
    hrep_match = rebuilt.same_polytope_rows(fam.hrep(inst))
    return {
        "passed": cover_pair and not cover_zero_only and pairs_ok and hrep_match,
        "details": {
            "cover_with_both_apexes": cover_pair,
            "cover_with_zero_only": cover_zero_only,
            "antipodal_pairs": [tuple(str(x) for x in p) for p in pairs],
            "dantzig_hrep_matches": hrep_match,
        },
    }


def _suite_graph(fam, inst, budget) -> dict:
    graph = fam.graph(inst)
    edges_expected = fam.edge_count(inst)
    edge_ok = edges_expected is None or graph.edge_count() == edges_expected
    radius, diameter = pg.radius_and_diameter(graph)
    metric = fam.radius_diameter(inst)
    metric_ok = metric is None or (radius, diameter) == metric
    cycle = fam.hamiltonian_cycle(inst)
    ham_ok = pg.verify_hamiltonian(graph, cycle)
    coloring, colors = fam.coloring(inst)
    color_ok = pg.verify_coloring(graph, coloring) == (True, inst.d)
    return {
        "passed": edge_ok and metric_ok and ham_ok and color_ok,
        "details": {
            "edges": graph.edge_count(),
            "edges_expected": edges_expected,
            "radius": radius,
            "diameter": diameter,
            "hamiltonian": ham_ok,
            "colors": colors,
            "average_degree": graph.average_degree(),
        },
    }


def _exact_expansion(graph, cap: int) -> pg.ExpansionResult:
    """The exact expansion of graph; TooLarge past cap (--expansion-max-n)."""
    if len(graph) > cap:
        raise pg.TooLarge(f"{len(graph)} vertices exceeds --expansion-max-n {cap}")
    return pg.edge_expansion_exact(graph)


def _suite_expansion(fam, inst, budget) -> dict:
    result = _exact_expansion(fam.graph(inst), budget["expansion_max_n"])
    details = {
        "h": result.value,
        "witness": [str(x) for x in result.witness],
        "boundary": result.boundary,
    }
    witness = fam.expansion_witness(inst)
    if witness is None:
        passed = True  # reported, no closed-form claim
    else:
        s, cut = witness
        passed = result.value == 1
        details["closed_form_witness"] = sorted(str(x) for x in s)
        details["closed_form_ratio_one"] = cut == len(s)
    return {"passed": passed, "details": details}


def _suite_oracle(fam, inst, budget) -> dict:
    report = oracle.verify_hull_equivalence(
        fam.kind, inst.theta, fam.hrep(inst), fam.vertices(inst)
    )
    return {"passed": report["pass"], "details": report}


_SUITES = {
    "vertices": _suite_vertices,
    "facets": _suite_facets,
    "incidence": _suite_incidence,
    "dantzig": _suite_dantzig,
    "graph": _suite_graph,
    "expansion": _suite_expansion,
    "oracle": _suite_oracle,
}
SUITE_NAMES = tuple(_SUITES)


# -------------------------------------------------------------- commands


def cmd_construct(args) -> int:
    fam = FAMILIES[args.family]
    inst = fam.make(_parse_theta(args.theta))
    if args.format == "ine":
        text = formats.write_ine(fam.hrep(inst))
    elif args.format == "ext":
        text = formats.write_ext(fam.vertices(inst))
    elif args.format == "dot":
        text = formats.write_dot(fam.graph(inst))
    else:
        v = fam.vertices(inst)
        h = fam.hrep(inst)
        report = {
            "schema": 1,
            "command": "construct",
            "family": args.family,
            "theta": list(inst.theta),
            "d": inst.d,
            "b": inst.b,
            "vertex_count": len(v),
            "facet_count": len(h.normals),
            "edge_count": fam.graph(inst).edge_count(),
            "vertices": {str(lab): list(coords) for lab, coords in v},
            "facets": [
                {"id": str(fid), "normal": list(normal), "rhs": beta}
                for fid, (normal, beta) in zip(h.ids, h.rows())
            ],
            "hamiltonian_cycle": [str(x) for x in fam.hamiltonian_cycle(inst)],
        }
        text = formats.dump_report(report)
    _write_out(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    fam = FAMILIES[args.family]
    inst = fam.make(_parse_theta(args.theta))
    requested = [s.strip() for s in args.suites.split(",") if s.strip()]
    if not requested:
        raise CLIError(f"no suite named in --suites {args.suites!r}")
    asked = list(dict.fromkeys(requested))
    bad = [s for s in asked if s != "all" and s not in _SUITES]
    if bad:
        raise CLIError(f"unknown suites: {bad}; valid: {SUITE_NAMES} or all")
    all_mode = "all" in asked
    names = list(SUITE_NAMES) if all_mode else asked
    budget = {"expansion_max_n": args.expansion_max_n}
    results = []
    failed = False
    for name in names:
        started = time.perf_counter()
        try:
            outcome = _SUITES[name](fam, inst, budget)
            outcome["suite"] = name
            outcome["skipped"] = False
        except pg.TooLarge as exc:
            if not all_mode:
                raise
            outcome = {
                "suite": name,
                "passed": True,
                "skipped": True,
                "details": {"note": f"over budget: {exc}"},
            }
        outcome["seconds"] = round(time.perf_counter() - started, 3)
        failed = failed or not outcome["passed"]
        results.append(outcome)
    report = {
        "schema": 1,
        "command": "verify",
        "family": args.family,
        "theta": list(inst.theta),
        "d": inst.d,
        "b": inst.b,
        "suites": results,
        "passed": not failed,
    }
    _write_out(formats.dump_report(report), args.out)
    return EXIT_VERIFY if failed else EXIT_OK


def _graph_invariants(fam, inst) -> dict:
    graph = fam.graph(inst)
    return {
        "vertex_count": len(graph),
        "edge_count": graph.edge_count(),
        "degree_multiset": list(graph.degree_multiset()),
        "max_degree": max(graph.degree_multiset()),
        "facet_vertex_counts": sorted(
            fam.incidence(inst).facet_vertex_counts(), reverse=True
        ),
    }


def cmd_compare(args) -> int:
    theta_a = _parse_theta(args.theta_a)
    theta_b = _parse_theta(args.theta_b)
    if len(theta_a) != len(theta_b):
        raise CLIError(
            f"dimension mismatch: {len(theta_a)} vs {len(theta_b)}"
        )
    fam_a, fam_b = FAMILIES[args.family_a], FAMILIES[args.family_b]
    inst_a, inst_b = fam_a.make(theta_a), fam_b.make(theta_b)
    inc_a = fam_a.incidence(inst_a)
    inc_b = fam_b.incidence(inst_b)
    try:
        equal = pg.combinatorially_equal(inc_a, inc_b)
        reason = "incidence bits match" if equal else "incidence bits differ"
    except pg.LabelMismatch as exc:
        equal = False
        reason = str(exc)
    report = {
        "schema": 1,
        "command": "compare",
        "a": {
            "family": args.family_a,
            "theta": list(theta_a),
            **_graph_invariants(fam_a, inst_a),
        },
        "b": {
            "family": args.family_b,
            "theta": list(theta_b),
            **_graph_invariants(fam_b, inst_b),
        },
        "equal": equal,
        "reason": reason,
    }
    _write_out(formats.dump_report(report), args.out)
    return EXIT_OK


def cmd_graph(args) -> int:
    fam = FAMILIES[args.family]
    inst = fam.make(_parse_theta(args.theta))
    graph = fam.graph(inst)
    if args.format == "dot":
        _write_out(formats.write_dot(graph), args.out)
        return EXIT_OK
    radius, diameter = pg.radius_and_diameter(graph)
    coloring, colors = fam.coloring(inst)
    report = {
        "schema": 1,
        "command": "graph",
        "family": args.family,
        "theta": list(inst.theta),
        "vertex_count": len(graph),
        "edge_count": graph.edge_count(),
        "degrees": {str(lab): graph.degree(lab) for lab in graph.labels},
        "average_degree": graph.average_degree(),
        "radius": radius,
        "diameter": diameter,
        "hamiltonian_cycle": [str(x) for x in fam.hamiltonian_cycle(inst)],
        "coloring": {str(lab): c for lab, c in coloring.items()},
        "colors": colors,
    }
    try:
        result = _exact_expansion(graph, args.expansion_max_n)
        report["edge_expansion"] = result.value
        report["expansion_witness"] = [str(x) for x in result.witness]
    except pg.TooLarge as exc:
        report["edge_expansion"] = None
        report["expansion_note"] = str(exc)
    _write_out(formats.dump_report(report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dantzigfig",
        description="Construct and verify graded-order initial-segment polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", required=True, choices=tuple(FAMILIES))
        p.add_argument("--theta", required=True, help="comma-separated, e.g. 2,2,2")
        p.add_argument("--out", default=None, help="write output to file")

    p = sub.add_parser("construct", help="emit V/H-representation or graph")
    common(p)
    p.add_argument("--format", default="json", choices=("ine", "ext", "dot", "json"))
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument(
        "--suites",
        default="all",
        help=f"comma-separated from {', '.join(SUITE_NAMES)}, or all",
    )
    p.add_argument("--expansion-max-n", type=_nonnegative_int, default=24)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="compare two instances combinatorially")
    p.add_argument("--family-a", required=True, choices=tuple(FAMILIES))
    p.add_argument("--theta-a", required=True)
    p.add_argument("--family-b", required=True, choices=tuple(FAMILIES))
    p.add_argument("--theta-b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("graph", help="emit the polytope graph and its analytics")
    common(p)
    p.add_argument("--format", default="dot", choices=("dot", "json"))
    p.add_argument("--expansion-max-n", type=_nonnegative_int, default=24)
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except (CLIError, InvalidTheta, UnsupportedDimension) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except pg.TooLarge as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def run() -> None:
    """Process entry (console script and `python -m dantzigfig.cli`): freeze
    the import-time heap, then exit with main()'s code."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
