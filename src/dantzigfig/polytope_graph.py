"""Small exact graph toolkit for polytope graphs.

Vertices are arbitrary hashable labels; adjacency is kept as per-vertex
bitmasks so BFS, cut counting, and subset enumeration stay cheap at the
sizes we care about (a few dozen vertices). Edge expansion is computed
exactly over all subsets, with Fraction-valued ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class Disconnected(ValueError):
    """Distance queries need a connected graph."""


class TooLarge(ValueError):
    """Exhaustive subset enumeration refused beyond the vertex cap."""


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

    def neighbors(self, label):
        mask = self.adj[self.index[label]]
        return [self.labels[i] for i in _bits(mask)]

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
    """Per-label eccentricity via bitmask BFS; raises Disconnected."""
    n = len(graph)
    full = (1 << n) - 1
    out = {}
    for start, label in enumerate(graph.labels):
        seen = 1 << start
        frontier = seen
        dist = 0
        while seen != full:
            nxt = 0
            for i in _bits(frontier):
                nxt |= graph.adj[i]
            nxt &= ~seen
            if not nxt:
                raise Disconnected(f"no path out of component of {label}")
            seen |= nxt
            frontier = nxt
            dist += 1
        out[label] = dist
    return out


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


def find_hamiltonian_cycle(graph: PolytopeGraph):
    """Backtracking search; returns a label cycle or None."""
    n = len(graph)
    if n < 3:
        return None
    adj = graph.adj
    path = [0]
    used = [1]  # visited-vertex bitmask, boxed for the closure

    def extend() -> bool:
        if len(path) == n:
            return bool(adj[path[-1]] >> path[0] & 1)
        for i in _bits(adj[path[-1]] & ~used[0]):
            path.append(i)
            used[0] |= 1 << i
            if extend():
                return True
            used[0] &= ~(1 << i)
            path.pop()
        return False

    if extend():
        return [graph.labels[i] for i in path]
    return None


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
    checking; exact enough for graphs with a few dozen vertices.
    """
    n = len(graph)
    order = sorted(range(n), key=lambda i: -graph.adj[i].bit_count())
    colors = [0] * n  # 0 = uncolored; colors are 1..max_colors

    def assign(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        banned = {colors[j] for j in _bits(graph.adj[v]) if colors[j]}
        cap = min(max_colors, max((colors[order[q]] for q in range(pos)), default=0) + 1)
        for c in range(1, cap + 1):  # symmetry break: at most one fresh color
            if c in banned:
                continue
            colors[v] = c
            if assign(pos + 1):
                return True
            colors[v] = 0
        return False

    if not assign(0):
        return None
    return {graph.labels[i]: colors[i] for i in range(n)}


@dataclass(frozen=True)
class ExpansionResult:
    """Exact edge expansion h(G) with an achieving cut.

    value = |boundary(S)| / |S| minimized over 0 < |S| <= n/2; witness is
    the achieving subset (sorted labels) and boundary its outgoing edge
    count. No subset of size <= n/2 does better.
    """

    value: Fraction
    witness: tuple
    boundary: int


def edge_expansion_exact(graph: PolytopeGraph, max_vertices: int = 24) -> ExpansionResult:
    """Exhaustive exact edge expansion via anchored Gray-code enumeration.

    Every unordered bipartition is visited once as the subset containing
    vertex 0; the cut size is updated incrementally per single-vertex flip.
    Ties prefer smaller witnesses, then lexicographically smaller label
    tuples. Raises TooLarge past max_vertices (default 24).
    """
    n = len(graph)
    if n > max_vertices:
        raise TooLarge(f"{n} vertices exceeds cap {max_vertices}")
    if n < 2:
        raise ValueError("expansion needs at least 2 vertices")
    adj = graph.adj
    deg = [m.bit_count() for m in adj]
    label_keys = [str(lab) for lab in graph.labels]
    full = (1 << n) - 1

    def side_key(m: int):
        side = m if 2 * m.bit_count() <= n else full & ~m
        return tuple(sorted(label_keys[i] for i in _bits(side)))

    mask = 1  # S = {vertex 0}, the anchor
    size = 1
    cut = deg[0]
    best_cut, best_size = cut, 1
    best_key = side_key(mask)

    for step in range(1, 1 << (n - 1)):
        v = (step & -step).bit_length()  # flipped non-anchor vertex index
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            size -= 1
            cut -= deg[v] - 2 * (adj[v] & mask).bit_count()
        else:
            cut += deg[v] - 2 * (adj[v] & mask).bit_count()
            mask ^= bit
            size += 1
        eff = min(size, n - size)
        if eff == 0:
            continue
        # compare cut/eff against best_cut/best_size with integers only
        lhs, rhs = cut * best_size, best_cut * eff
        if lhs > rhs or (lhs == rhs and eff > best_size):
            continue
        if lhs < rhs or eff < best_size:
            best_cut, best_size = cut, eff
            best_key = side_key(mask)
        else:  # exact tie: keep the lexicographically smaller witness
            best_key = min(best_key, side_key(mask))

    order = {key: i for i, key in enumerate(label_keys)}
    witness = tuple(
        graph.labels[order[k]] for k in best_key
    )
    return ExpansionResult(
        value=Fraction(best_cut, best_size),
        witness=witness,
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
    """Identical labeled incidence bits; raises LabelMismatch when the two
    objects are not over the same label and facet-id names."""
    if sorted(str(l) for l in a.labels) != sorted(str(l) for l in b.labels):
        raise LabelMismatch("vertex label sets differ")
    if sorted(str(f) for f in a.facet_ids) != sorted(str(f) for f in b.facet_ids):
        raise LabelMismatch("facet id sets differ")
    return a.same_bits(b)
