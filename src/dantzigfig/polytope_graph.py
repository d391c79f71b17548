"""Small exact graph toolkit for polytope graphs.

Vertices are arbitrary hashable labels; adjacency is kept as per-vertex
bitmasks so BFS, cut counting, and the expansion search stay cheap at the
sizes we care about (a few dozen vertices). Edge expansion is exact: a
branch and bound over all cuts, compared in integers, with a
Fraction-valued result.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import or_


class Disconnected(ValueError):
    """Distance queries need a connected graph."""


class TooLarge(ValueError):
    """The exact expansion search refused past the CLI's vertex cap."""


class LabelMismatch(ValueError):
    """Comparison requires identically labeled objects."""


class PolytopeGraph:
    """Undirected simple graph over labeled vertices."""

    __slots__ = ("labels", "index", "adj")

    def __init__(self, labels, adj_masks):
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("duplicate labels")
        self.adj = list(adj_masks)
        for i, mask in enumerate(self.adj):
            if mask >> len(self.labels):
                raise ValueError("adjacency bit out of range")
            if mask & (1 << i):
                raise ValueError("self loop")

    @classmethod
    def from_edges(cls, labels, edges) -> "PolytopeGraph":
        labels = list(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        adj = [0] * len(labels)
        for a, b in edges:
            i, j = index[a], index[b]
            if i == j:
                raise ValueError(f"self loop at {a}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(labels, adj)

    def __len__(self) -> int:
        return len(self.labels)

    def degree(self, label) -> int:
        return self.adj[self.index[label]].bit_count()

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def has_edge(self, a, b) -> bool:
        return bool(self.adj[self.index[a]] >> self.index[b] & 1)

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(sorted((m.bit_count() for m in self.adj), reverse=True))

    def average_degree(self) -> Fraction:
        return Fraction(2 * self.edge_count(), len(self.labels))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def eccentricities(graph: PolytopeGraph) -> dict:
    """Per-label eccentricity of graph, which must be connected: raises
    Disconnected otherwise.

    Grows every vertex's ball one step at a time, for all vertices at once:
    the ball of radius r + 1 around v is its ball of radius r joined with
    those of its neighbours. A level costs at most 2E ORs, where one BFS
    per source costs up to n per source. A vertex's eccentricity is the
    radius at which its ball first holds every vertex; a ball short of
    that which stops growing has reached its whole component.
    """
    n = len(graph)
    full = (1 << n) - 1
    neighbours = [list(_bits(mask)) for mask in graph.adj]
    balls = [1 << v | mask for v, mask in enumerate(graph.adj)]  # radius 1
    ecc = [int(n > 1)] * n
    radius, todo = 1, [v for v in range(n) if balls[v] != full]
    while todo:
        radius += 1
        grown = [reduce(or_, map(balls.__getitem__, neighbours[v]), balls[v]) for v in todo]
        for v, ball in zip(todo, grown):
            if ball == balls[v]:
                raise Disconnected(f"no path out of component of {graph.labels[v]}")
            balls[v] = ball
            ecc[v] = radius
        todo = [v for v in todo if balls[v] != full]
    return dict(zip(graph.labels, ecc))


def radius_and_diameter(graph: PolytopeGraph) -> tuple[int, int]:
    ecc = eccentricities(graph)
    return min(ecc.values()), max(ecc.values())


def verify_hamiltonian(graph: PolytopeGraph, cycle) -> bool:
    """True iff cycle visits every vertex exactly once along edges."""
    cycle = list(cycle)
    if len(cycle) != len(graph) or len(set(cycle)) != len(graph):
        return False
    if any(lab not in graph.index for lab in cycle):
        return False
    return all(
        graph.has_edge(cycle[i], cycle[(i + 1) % len(cycle)])
        for i in range(len(cycle))
    )


def verify_coloring(graph: PolytopeGraph, coloring) -> tuple[bool, int]:
    """(proper, number of distinct colors); requires all vertices colored."""
    missing = [lab for lab in graph.labels if lab not in coloring]
    if missing:
        raise KeyError(f"uncolored vertices: {missing}")
    for i, lab in enumerate(graph.labels):
        for j in _bits(graph.adj[i]):
            if j > i and coloring[lab] == coloring[graph.labels[j]]:
                return False, len(set(coloring[v] for v in graph.labels))
    return True, len(set(coloring[v] for v in graph.labels))


def proper_coloring_search(graph: PolytopeGraph, max_colors: int):
    """Backtracking proper coloring with at most max_colors colors, or None.

    Vertices are colored in descending-degree order with simple forward
    checking; exact enough for graphs with a few dozen vertices. The search
    keeps an explicit stack, one entry per colored position, so its depth
    is not bounded by the interpreter's recursion limit, and the highest
    color before each position, so a step does not rescan the positions
    before it.
    """
    n = len(graph)
    order = sorted(range(n), key=lambda i: -graph.adj[i].bit_count())
    colors = [0] * n  # 0 = uncolored; colors are 1..max_colors
    highest = [0] * (n + 1)  # per position, the highest color before it

    def candidates(pos: int):
        v = order[pos]
        banned = {colors[j] for j in _bits(graph.adj[v]) if colors[j]}
        cap = min(max_colors, highest[pos] + 1)  # symmetry break: at most one fresh color
        return iter([c for c in range(1, cap + 1) if c not in banned])

    untried = []  # per position so far, the colors it has not yet taken
    pos = 0
    while pos < n:
        if len(untried) == pos:
            untried.append(candidates(pos))
        c = next(untried[pos], 0)
        colors[order[pos]] = c
        if c:
            highest[pos + 1] = max(highest[pos], c)
            pos += 1
        else:  # no color left here: back to the previous position
            untried.pop()
            pos -= 1
            if pos < 0:
                return None
    return {graph.labels[i]: colors[i] for i in range(n)}


ExpansionResult = namedtuple("ExpansionResult", "value witness boundary")
ExpansionResult.__doc__ = """Exact edge expansion h(G) with an achieving cut.

value = |boundary(S)| / |S| minimized over 0 < |S| <= n/2; witness is
the achieving subset (sorted labels) and boundary its outgoing edge
count. No subset of size <= n/2 does better.
"""


def edge_expansion_exact(graph: PolytopeGraph) -> ExpansionResult:
    """Exact edge expansion by branch and bound over anchored cuts.

    Every unordered bipartition is the subset S holding vertex 0; the
    search decides the other vertices in or out in greedy connectivity
    order, trying first the side that adds fewer cut edges. A node is
    pruned by the cut between its decided sides plus, for each undecided
    vertex, the smaller of its edge counts to the two sides, compared in
    integers against the best ratio times the largest min(|S|, n - |S|)
    it can still reach; a node that only ties the best ratio is kept while
    a tying cut below it could still have an equal or smaller one.

    The first incumbent is greedy: from each vertex, grow a cut by the
    vertex that adds the fewest cut edges, and keep the best ratio seen
    with |S| <= n/2. It is offered exactly as a leaf is, so the tie rule
    still reaches every cut of least ratio and least min(|S|, n - |S|),
    and the witness does not depend on it.

    Among the cuts of least ratio, the witness is the one with the least
    min(|S|, n - |S|), then the lexicographically smallest sorted tuple
    of str(label), vertex index breaking ties between equal strings. Both
    are read from the smaller side, and from the side holding vertex 0 when
    |S| = n/2. The search is exponential in n, so callers cap n (the CLI
    by --expansion-max-n).
    """
    n = len(graph)
    if n < 2:
        raise ValueError("expansion needs at least 2 vertices")
    adj = graph.adj
    label_keys = [str(lab) for lab in graph.labels]
    full = (1 << n) - 1

    def side_key(m: int):
        side = m if 2 * m.bit_count() <= n else full & ~m
        return tuple(sorted((label_keys[i], i) for i in _bits(side)))

    # decision order: each next vertex has the most edges into those before
    order, placed = [0], 1
    while len(order) < n:
        v = max(
            (i for i in range(n) if not placed >> i & 1),
            key=lambda i: ((adj[i] & placed).bit_count(), -i),
        )
        order.append(v)
        placed |= 1 << v
    rank = {v: pos for pos, v in enumerate(order)}
    later = [[u for u in _bits(adj[v]) if rank[u] > rank[v]] for v in range(n)]

    best = [adj[0].bit_count(), 1, side_key(1)]  # cut, eff, key; S = {0}

    def offer(inside: int, cut: int) -> None:
        # inside holds vertex 0; keep it if it beats the best cut
        best_cut, best_eff, best_key = best
        size = inside.bit_count()
        eff = min(size, n - size)
        if eff == 0:
            return
        lhs, rhs = cut * best_eff, best_cut * eff
        if lhs < rhs or (lhs == rhs and eff <= best_eff):
            key = side_key(inside)
            if lhs < rhs or eff < best_eff or key < best_key:
                best[:] = cut, eff, key

    degrees = [m.bit_count() for m in adj]
    taken = n * n  # above any gain of a vertex outside S
    for start in range(n):
        gain = degrees.copy()  # the change of the cut if the vertex joins S
        s, cut, v = 0, 0, start
        for _ in range(n // 2):
            s, cut, gain[v] = s | 1 << v, cut + gain[v], taken
            offer(s if s & 1 else full & ~s, cut)  # anchored, as at a leaf
            for u in _bits(adj[v]):
                gain[u] -= 2
            v = min(range(n), key=gain.__getitem__)

    to_in = [adj[v] & 1 for v in range(n)]  # edges into the decided in-side
    to_out = [0] * n  # edges into the decided out-side

    def search(pos: int, inside: int, cut: int, slack: int) -> None:
        # cut joins the decided sides; slack is what the undecided add at least
        if pos == n:
            offer(inside, cut)
            return
        best_cut, best_eff, _ = best
        low = inside.bit_count()
        high = min(low + n - pos, n - 1)  # |S| = n leaves no cut
        near = min(max(n // 2, low), high)
        eff_max = min(near, n - near)
        bound = cut + slack
        lhs, rhs = bound * best_eff, best_cut * eff_max
        if lhs > rhs:
            return
        if lhs == rhs:
            # a leaf tying the best ratio has eff = eff_max, or any
            # reachable eff when the bound and the best cut are both 0
            eff_tie = min(low, n - high) if bound == 0 else eff_max
            if eff_tie > best_eff:
                return
        v = order[pos]
        a, b = to_in[v], to_out[v]
        slack -= min(a, b)
        for go_in in (True, False) if b <= a else (False, True):
            mine, other = (to_in, to_out) if go_in else (to_out, to_in)
            grow = 0
            for u in later[v]:
                grow += mine[u] < other[u]
                mine[u] += 1
            if go_in:
                search(pos + 1, inside | 1 << v, cut + b, slack + grow)
            else:
                search(pos + 1, inside, cut + a, slack + grow)
            for u in later[v]:
                mine[u] -= 1

    search(1, 1, 0, 0)
    best_cut, best_eff, best_key = best
    return ExpansionResult(
        value=Fraction(best_cut, best_eff),
        witness=tuple(graph.labels[i] for _, i in best_key),
        boundary=best_cut,
    )


def cut_edges(graph: PolytopeGraph, subset) -> list[tuple]:
    """Edges with exactly one endpoint in subset, as sorted label pairs."""
    s = {graph.index[lab] for lab in subset}
    out = []
    for i in sorted(s):
        for j in _bits(graph.adj[i]):
            if j not in s:
                out.append((graph.labels[i], graph.labels[j]))
    return out


def combinatorially_equal(a, b) -> bool:
    """Bit-for-bit equality of two incidences under canonical alignment:
    vertices in str(label) order, facets in str(facet id) order. Raises
    LabelMismatch when the two are not over the same label and facet-id
    names."""
    if sorted(map(str, a.labels)) != sorted(map(str, b.labels)):
        raise LabelMismatch("vertex label sets differ")
    if sorted(map(str, a.facet_ids)) != sorted(map(str, b.facet_ids)):
        raise LabelMismatch("facet id sets differ")

    def canon(inc):
        vorder = sorted(range(len(inc.labels)), key=lambda i: str(inc.labels[i]))
        forder = sorted(range(len(inc.facet_ids)), key=lambda f: str(inc.facet_ids[f]))
        return [tuple(inc.vertex_masks[i] >> f & 1 for f in forder) for i in vorder]

    return canon(a) == canon(b)
