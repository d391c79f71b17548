"""Run one dantzigfig CLI call with timing wrappers around its layers.

Usage: python3 perfbench/traced_call.py TRACE_JSON CLI_ARG...

The wrappers come from this file, not from the program: each public
function or method named in LAYERS is replaced, in its own module and in
every dantzigfig module that imported it by name, by a wrapper that adds
its self time (its time minus that of wrapped callees) and its call count.
Names marked COUNT_ONLY get a counter and no timer, because they are called
too often for a timer not to distort them. The CLI output goes to stdout as
usual; the trace goes to TRACE_JSON.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# metric prefix -> (module, attribute path) of each wrapped callable
LAYERS = {
    "orders.is_initial_segment_member": ("orders", "is_initial_segment_member"),
    "oracle.enumerate_segment": ("oracle", "enumerate_segment"),
    "oracle.verify_hull_equivalence": ("oracle", "verify_hull_equivalence"),
    "oracle.hull_vertices_by_basis": ("oracle", "hull_vertices_by_basis"),
    "oracle.facet_irredundancy": ("oracle", "facet_irredundancy"),
    "polytope_core.HRep.contains": ("polytope_core", "HRep.contains"),
    "polytope_core.incidence": ("polytope_core", "incidence"),
    "polytope_core.facet_spans_ridge": ("polytope_core", "facet_spans_ridge"),
    "polytope_core.tangent_cone": ("polytope_core", "tangent_cone"),
    "polytope_core.list_antipodal_pairs": ("polytope_core", "list_antipodal_pairs"),
    "polytope_core.dantzig_hrep": ("polytope_core", "dantzig_hrep"),
    "polytope_core.adjacency_from_incidence": ("polytope_core", "adjacency_from_incidence"),
    "exactmath.rank_of_rows": ("exactmath", "rank_of_rows"),
    "exactmath.invert": ("exactmath", "invert"),
    **{
        f"{fam}_family.{part}": (f"{fam}_family", f"{fam}_{part}")
        for fam in ("grlex", "grevlex")
        for part in ("vertices", "facet_matrix_inverse", "hrep", "incidence", "edges", "hamiltonian_cycle", "coloring")
    },
    # The relaxed coloring of a merged grlex theta counts as grlex coloring.
    "grlex_family.coloring_relaxed": ("grlex_family", "grlex_coloring_relaxed"),
    "polytope_graph.edge_expansion_exact": ("polytope_graph", "edge_expansion_exact"),
    "polytope_graph.radius_and_diameter": ("polytope_graph", "radius_and_diameter"),
    "polytope_graph.verify_coloring": ("polytope_graph", "verify_coloring"),
    "formats.dump_report": ("formats", "dump_report"),
}
METRIC_ALIAS = {"grlex_family.coloring_relaxed": "grlex_family.coloring"}

COUNT_ONLY = {"orders.is_initial_segment_member"}


class Recorder:
    """Self time and call count per layer; a stack holds callee time."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.stack = [0.0]

    def timed(self, name, fn):
        clock, stack, self_s, calls = time.perf_counter, self.stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                self_s[name] += spent - stack.pop()
                stack[-1] += spent

        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(rec: Recorder) -> None:
    """Wrap every layer, and rebind each name that refers to an original."""
    import dantzigfig

    modules = [m for n, m in sys.modules.items() if n == "dantzigfig" or n.startswith("dantzigfig.")]
    replaced = {}
    for key, (mod_name, path) in LAYERS.items():
        owner = getattr(dantzigfig, mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        name = METRIC_ALIAS.get(key, key)
        wrap = rec.counted if key in COUNT_ONLY else rec.timed
        wrapper = wrap(name, original)
        setattr(owner, attr, wrapper)
        replaced[id(original)] = wrapper
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import dantzigfig.cli

    import_s = time.perf_counter() - start
    rec = Recorder()
    install(rec)
    code = dantzigfig.cli.main(cli_args)
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump({"import_s": import_s, "self_s": rec.self_s, "calls": rec.calls}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
