"""Referees that only the tests read: the cdd text parsers, which read back
what `formats.write_ine` / `write_ext` print; the pairwise facet-mask
adjacency test, which `polytope_core.adjacency_from_incidence` and
`tangent_cone` answer vertex by vertex, and the same test with a rank on
every pair the masks leave, which they do without on a certified-complete
vertex list; the all-pairs antipodal scan; the double-description run in
the given row order, which `oracle._extreme_rays` runs in lexmin order;
and one BFS per source, which `polytope_graph.eccentricities` replaces by
growing every ball at once."""

from fractions import Fraction

from dantzigfig.exactmath import adjugate, bareiss_echelon, primitive, rank_of_rows
from dantzigfig.oracle import UnboundedSuspected
from dantzigfig.polytope_core import HRep, IncidenceMatrix
from dantzigfig.polytope_graph import Disconnected, PolytopeGraph


class FormatError(ValueError):
    """Malformed .ine/.ext input."""


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
    """The HRep of a cdd .ine text: a row "b -a1 ... -ad" is a.x <= b."""
    rows = _token_blocks(text, "H-representation")
    pairs = [([-a for a in row[1:]], row[0]) for row in rows]
    return HRep(pairs)


def parse_ext(text: str) -> list[tuple]:
    """The points of a cdd .ext text, ints where integral; rays raise."""
    rows = _token_blocks(text, "V-representation")
    points = []
    for row in rows:
        if row[0] != 1:
            raise FormatError("rays are not supported, leading entry must be 1")
        points.append(tuple(int(c) if c.denominator == 1 else c for c in row[1:]))
    return points


def adjacent_by_masks(inc: IncidenceMatrix, d: int, i: int, j: int) -> bool:
    """The pair test that `polytope_core._neighbours` answers vertex by
    vertex: at least d-1 rows tight at both i and j, and no third vertex on
    all of them (the AND of their facet masks is {i, j})."""
    common = inc.vertex_masks[i] & inc.vertex_masks[j]
    if common.bit_count() < d - 1:
        return False
    shared = (1 << len(inc.labels)) - 1
    for f, fm in enumerate(inc.facet_masks):
        if common >> f & 1:
            shared &= fm
    return shared == 1 << i | 1 << j


def adjacency_by_masks(inc: IncidenceMatrix, d: int) -> list[tuple]:
    """`adjacency_from_incidence` over all n^2/2 pairs, in its order."""
    n = len(inc.labels)
    return [
        (inc.labels[i], inc.labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if adjacent_by_masks(inc, d, i, j)
    ]


def tangent_generators_by_masks(v, label, inc: IncidenceMatrix) -> list[tuple]:
    """`tangent_cone(v, label, inc).generators` by the pairwise mask test:
    neighbour minus apex, in vertex order; d is the apex's length."""
    apex, i = v.coords(label), inc.labels.index(label)
    return [
        tuple(x - y for x, y in zip(v.coords(other), apex))
        for j, other in enumerate(inc.labels)
        if j != i and adjacent_by_masks(inc, len(apex), min(i, j), max(i, j))
    ]


def adjacent_by_rank(h: HRep, inc: IncidenceMatrix, i: int, j: int) -> bool:
    """Vertices i and j span an edge iff at least d-1 rows are tight at
    both, no third vertex is on all of them, and their normals have rank
    d-1: the rank is taken on every pair the masks leave."""
    if not adjacent_by_masks(inc, h.dim, i, j):
        return False
    common = inc.vertex_masks[i] & inc.vertex_masks[j]
    return rank_of_rows([n for f, n in enumerate(h.normals) if common >> f & 1]) == h.dim - 1


def adjacency_by_rank(h: HRep, inc: IncidenceMatrix) -> list[tuple]:
    """`adjacency_from_incidence` with `adjacent_by_rank` as its pair test."""
    n = len(inc.labels)
    return [
        (inc.labels[i], inc.labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if adjacent_by_rank(h, inc, i, j)
    ]


def antipodal_pairs_by_xor(inc: IncidenceMatrix) -> list[tuple]:
    """`list_antipodal_pairs` over all n^2/2 pairs: the masks of i and j
    XOR to every facet."""
    n, masks = len(inc.labels), inc.vertex_masks
    full = (1 << len(inc.facet_ids)) - 1
    return [
        (inc.labels[i], inc.labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if masks[i] ^ masks[j] == full
    ]


def extreme_rays_in_row_order(h: HRep) -> tuple[tuple[tuple[int, ...], int], ...]:
    """`oracle._extreme_rays` before the lexmin order: the rows after the
    start basis are cut in the order h gives them, and the pair loop runs
    over (+) x all rays. The same (ray, mask) set in another order; not
    cached."""
    d = h.dim
    rows = [(0,) * d + (-1,)] + [normal + (-beta,) for normal, beta in h.rows()]
    start = bareiss_echelon(list(zip(*rows)))[1]
    if len(start) < d + 1:
        raise UnboundedSuspected("the polyhedron contains a line")
    adj, det = adjugate([rows[i] for i in start])
    sign = -1 if det > 0 else 1
    every = sum(1 << i for i in start)
    rays = [
        (primitive([sign * a for a in col]), every & ~(1 << i))
        for col, i in zip(zip(*adj), start)
    ]
    for k in range(len(rows)):
        if k in start:
            continue
        bit = 1 << k
        side = [sum(a * y for a, y in zip(rows[k], ray)) for ray, _ in rays]
        masks = [z for _, z in rays]
        kept = [
            (ray, z | bit if s == 0 else z) for (ray, z), s in zip(rays, side) if s <= 0
        ]
        for (rp, zp), sp in zip(rays, side):
            if sp <= 0:
                continue
            for (rn, zn), sn in zip(rays, side):
                if sn >= 0:
                    continue
                common = zp & zn
                if common.bit_count() < d - 1:
                    continue
                if sum(z & common == common for z in masks) > 2:
                    continue
                new = primitive([sp * yn - sn * yp for yp, yn in zip(rp, rn)])
                kept.append((new, common | bit))
        rays = kept
    for ray, _ in rays:
        if ray[d] == 0:
            raise UnboundedSuspected(f"recession ray {ray[:d]}")
    return tuple(rays)


def eccentricities_by_bfs(graph: PolytopeGraph) -> dict:
    """`eccentricities` by one bitmask BFS per source; raises Disconnected."""
    full = (1 << len(graph)) - 1
    out = {}
    for start, label in enumerate(graph.labels):
        seen = frontier = 1 << start
        dist = 0
        while seen != full:
            nxt = 0
            for i in range(len(graph)):
                if frontier >> i & 1:
                    nxt |= graph.adj[i]
            nxt &= ~seen
            if not nxt:
                raise Disconnected(f"no path out of component of {label}")
            seen |= nxt
            frontier = nxt
            dist += 1
        out[label] = dist
    return out
