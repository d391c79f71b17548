"""Correctness checks on dantzigfig CLI output, made apart from the program.

Nothing here imports dantzigfig: the expected counts come from the paper's
formulas, the segment size from a digit-by-digit count, the order test from
a graded comparator written here, and adjacency from the combinatorial test
on the vertex-facet incidence that the benchmark computes itself in exact
rational arithmetic. Every check raises CheckFailed with a reason.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import comb

# The antipodal pair the paper gives for each family (d >= 4).
APEXES = {"grlex": ("0", "theta"), "grevlex": ("0", "ubar(2)")}


class CheckFailed(Exception):
    """An output of the program contradicts an independent check."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ------------------------------------------------------------ formulas


def merged_count(family: str, theta) -> int:
    """Grlex merges u(k) into v(k-1,k) for each 1-based k >= 3 with theta_k = 1."""
    if family != "grlex":
        return 0
    return sum(1 for k in range(3, len(theta) + 1) if theta[k - 1] == 1)


def expected_vertices(family: str, theta) -> int:
    d = len(theta)
    return (d * d + d + 2) // 2 - merged_count(family, theta)


def expected_edges(family: str, theta):
    """(d^3+2d)/3 for grevlex and strict grlex; None where the paper gives no count."""
    d = len(theta)
    if family == "grevlex" or min(theta) >= 2:
        return (d**3 + 2 * d) // 3
    return None


def graded_leq(family: str, x, theta) -> bool:
    """x <= theta in the graded order; the last coordinate is most significant."""
    sx, st = sum(x), sum(theta)
    if sx != st:
        return sx < st
    for a, t in zip(reversed(x), reversed(theta)):
        if a != t:
            return a < t if family == "grlex" else a > t
    return True


def _compositions(total: int, parts: int) -> int:
    """Points of Z^parts_{>=0} with coordinate sum equal to total."""
    if parts == 0:
        return 1 if total == 0 else 0
    return comb(total + parts - 1, parts - 1)


def segment_size(family: str, theta) -> int:
    """Lattice points x >= 0 with x <= theta in the family's graded order.

    All C(b-1+d, d) points of degree below b are in. Degree-b points are
    counted digit by digit from the most significant (last) coordinate:
    while the higher coordinates equal theta's, a smaller value (grlex) or
    a larger one (grevlex) at coordinate i leaves the i lower coordinates
    free to share what remains of b.
    """
    d, b = len(theta), sum(theta)
    count = comb(b - 1 + d, d) + 1  # the +1 is theta itself
    rem = b
    for i in range(d - 1, 0, -1):
        side = range(theta[i]) if family == "grlex" else range(theta[i] + 1, rem + 1)
        count += sum(_compositions(rem - v, i) for v in side)
        rem -= theta[i]
    return count


# ------------------------------------------------------------ polytope


def _rational(value) -> Fraction:
    """A number as the program's JSON writes it: an int or a "p/q" string."""
    expect(isinstance(value, (int, str)) and not isinstance(value, bool), f"not a rational: {value!r}")
    return Fraction(value)


def tight_masks(vertices: dict, facets: list) -> dict:
    """Bit f of mask[label] is set iff the vertex is tight on row f.

    Fails if a vertex violates a row or is tight on fewer than d rows.
    """
    rows = [([int(a) for a in f["normal"]], _rational(f["rhs"])) for f in facets]
    masks = {}
    for label, x in vertices.items():
        mask = 0
        for f, (normal, rhs) in enumerate(rows):
            expect(len(normal) == len(x), f"row {f} and vertex {label} differ in length")
            lhs = sum(a * xi for a, xi in zip(normal, x))
            expect(lhs <= rhs, f"vertex {label} violates row {f}")
            if lhs == rhs:
                mask |= 1 << f
        expect(mask.bit_count() >= len(x), f"vertex {label} is tight on fewer than d rows")
        masks[label] = mask
    return masks


def adjacency(masks: dict) -> dict:
    """Combinatorial adjacency: i ~ j iff no third vertex is tight on every
    row common to i and j, that is the face they span holds only them.

    Exact when the list holds every vertex of the polytope.
    """
    labels = list(masks)
    n_rows = max(masks.values()).bit_length()
    on_row = [0] * n_rows  # vertex bitmask of each row
    for i, label in enumerate(labels):
        for f in range(n_rows):
            if masks[label] >> f & 1:
                on_row[f] |= 1 << i
    everyone = (1 << len(labels)) - 1
    adj = {label: set() for label in labels}
    for i, a in enumerate(labels):
        for j in range(i + 1, len(labels)):
            common = masks[a] & masks[labels[j]]
            face = everyone
            f = 0
            while common:
                if common & 1:
                    face &= on_row[f]
                common >>= 1
                f += 1
            if face.bit_count() == 2:
                adj[a].add(labels[j])
                adj[labels[j]].add(a)
    return adj


def check_cycle(adj: dict, cycle) -> None:
    expect(sorted(cycle) == sorted(adj), "Hamiltonian cycle does not visit each vertex once")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        expect(b in adj[a], f"cycle step {a} -> {b} is not an edge")


def eccentricities(adj: dict) -> dict:
    out = {}
    for start in adj:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        expect(len(dist) == len(adj), "graph is disconnected")
        out[start] = max(dist.values())
    return out


# ------------------------------------------------------------ reports


def _check_header(report: dict, command: str, family: str, theta) -> None:
    expect(report.get("command") == command, f"command is {report.get('command')!r}")
    expect(report.get("family") == family, f"family is {report.get('family')!r}")
    expect(report.get("theta") == list(theta), f"theta is {report.get('theta')!r}")


def check_construct(report: dict, family: str, theta) -> dict:
    """Checks `construct --format json`; returns the adjacency it derived."""
    d = len(theta)
    _check_header(report, "construct", family, theta)
    vertices = {label: [int(c) for c in x] for label, x in report["vertices"].items()}
    facets = report["facets"]
    n = expected_vertices(family, theta)
    expect(report["vertex_count"] == len(vertices) == n, f"vertex count {len(vertices)}, expected {n}")
    expect(report["facet_count"] == len(facets) == 2 * d, f"facet count {len(facets)}, expected {2 * d}")
    for label, x in vertices.items():
        expect(min(x) >= 0 and graded_leq(family, x, theta), f"vertex {label} is outside the segment")
    masks = tight_masks(vertices, facets)
    u, v = APEXES[family]
    expect(u in masks and v in masks, f"antipodal pair {u}, {v} missing")
    for f in range(len(facets)):
        expect((masks[u] >> f & 1) != (masks[v] >> f & 1), f"row {f} does not hold exactly one of {u}, {v}")
    adj = adjacency(masks)
    edges = sum(len(s) for s in adj.values()) // 2
    expect(report["edge_count"] == edges, f"edge count {report['edge_count']}, adjacency test gives {edges}")
    formula = expected_edges(family, theta)
    expect(formula is None or edges == formula, f"edge count {edges}, formula gives {formula}")
    check_cycle(adj, report["hamiltonian_cycle"])
    return adj


def check_graph(report: dict, family: str, theta, adj: dict) -> None:
    """Checks `graph --format json` against the adjacency of the same instance."""
    _check_header(report, "graph", family, theta)
    expect(sorted(report["degrees"]) == sorted(adj), "graph labels differ from the construct vertices")
    expect(report["vertex_count"] == len(adj), "vertex count differs from construct")
    expect(report["edge_count"] == sum(len(s) for s in adj.values()) // 2, "edge count differs")
    for label, deg in report["degrees"].items():
        expect(deg == len(adj[label]), f"degree of {label} is {deg}, adjacency test gives {len(adj[label])}")
    check_cycle(adj, report["hamiltonian_cycle"])
    coloring = report["coloring"]
    expect(sorted(coloring) == sorted(adj), "coloring does not cover every vertex once")
    for a in adj:
        for b in adj[a]:
            expect(coloring[a] != coloring[b], f"edge {a} -- {b} is monochromatic")
    expect(report["colors"] == len(set(coloring.values())), "color count differs from the coloring")
    expect(report["colors"] >= len(theta), "fewer than d colors, yet 0 and the last column form a d-clique")
    ecc = eccentricities(adj)
    expect(
        (report["radius"], report["diameter"]) == (min(ecc.values()), max(ecc.values())),
        "radius or diameter differs from breadth-first search",
    )


def check_verify(report: dict, family: str, theta, suites) -> None:
    """Checks `verify` against the paper's counts and the segment size."""
    d = len(theta)
    strict = min(theta) >= 2
    _check_header(report, "verify", family, theta)
    got = {s["suite"]: s for s in report["suites"]}
    expect([s["suite"] for s in report["suites"]] == list(suites), f"suites run: {list(got)}")
    for s in report["suites"]:
        expect(s["passed"] and not s["skipped"], f"suite {s['suite']} did not pass")
    expect(report["passed"] is True, "report does not pass")
    if "vertices" in got:
        count = got["vertices"]["details"]["count"]
        expect(count == expected_vertices(family, theta), f"vertex count {count}")
    if "facets" in got:
        expect(got["facets"]["details"]["rows"] == 2 * d, "facet count is not 2d")
    known = family == "grevlex" or strict  # the paper's graph claims hold here
    if "dantzig" in got and d >= 4:
        pairs = {frozenset(p) for p in got["dantzig"]["details"]["antipodal_pairs"]}
        expect(pairs == {frozenset(APEXES[family])}, f"antipodal pairs {pairs}")
    if "graph" in got:
        g = got["graph"]["details"]
        formula = expected_edges(family, theta)
        expect(formula is None or g["edges"] == formula, f"edge count {g['edges']}, formula {formula}")
        if known and d >= 4:
            want = (2, 2) if family == "grevlex" else (2, 3)
            expect((g["radius"], g["diameter"]) == want, f"radius, diameter {g['radius']}, {g['diameter']}")
            expect(g["colors"] == d, f"{g['colors']} colors, expected {d}")
    if "expansion" in got:
        h = _rational(got["expansion"]["details"]["h"])
        expect(0 < h <= d, f"expansion {h} outside (0, d]")
        if family == "grlex" and strict:
            expect(h == 1, f"strict grlex expansion {h}, expected 1")
    if "oracle" in got:
        points = got["oracle"]["details"]["segment_points"]
        expect(points == segment_size(family, theta), f"segment has {points} points, count gives {segment_size(family, theta)}")
