"""Closed-form construction of the graded-lex initial-segment polytope P.

Everything is derived from the bound vector theta: vertices, the facet
matrix M (columns are edge directions at theta), its inverse N by an exact
recursion, the 2d-row inequality system, symbolic vertex-facet incidence,
the graph edge list, a Hamiltonian cycle, a proper d-coloring, and the
expansion witness set. Each closed form is checked against the generic
numeric machinery at construction time (by the shared builders of
`family`), so a constructed instance is a verified one.

When theta_k = 1 for some k >= 3 the points u(k) and v(k-1,k) coincide; the
vertex keeps the v(k-1,k) label and the graph is the edge-contracted minor.
"""

from __future__ import annotations

from itertools import accumulate
from math import prod

from . import polytope_graph as pg
from .family import (
    Family,
    IntRows,
    ThetaInstance,
    check_inverse,
    checked_coloring,
    checked_cycle,
    checked_edges,
    checked_incidence,
    hrep_from_inverse,
)
from .orders import OrderKind
from .polytope_core import (
    CheckFailed,
    HRep,
    IncidenceMatrix,
    VRep,
    VertexLabel,
)


class RequiresStrictTheta(ValueError):
    """Operation is only defined when every theta_i >= 2."""


class GrlexInstance(ThetaInstance):
    """A bound vector theta >= 1 with d >= 3, plus derived quantities."""

    __slots__ = ()

    @property
    def merged_ks(self) -> tuple[int, ...]:
        """Indices k >= 3 whose u(k) coincides with v(k-1,k)."""
        return tuple(k for k in range(3, self.d + 1) if self.theta[k - 1] == 1)


def make_grlex(theta) -> GrlexInstance:
    return GrlexInstance(tuple(theta))


def u_label(inst: GrlexInstance, k: int) -> VertexLabel:
    """Canonical label of the point u(k): v(k-1,k) when theta_k = 1."""
    if inst.theta[k - 1] == 1:
        return VertexLabel.v(k - 1, k)
    return VertexLabel.u(k)


def _u_coords(inst: GrlexInstance, k: int) -> tuple[int, ...]:
    d, th = inst.d, inst.theta
    x = [0] * d
    x[k - 2] = inst.bt(k - 1) + 1
    x[k - 1] = th[k - 1] - 1
    for i in range(k + 1, d + 1):
        x[i - 1] = th[i - 1]
    return tuple(x)


def _v_coords(inst: GrlexInstance, j: int, k: int) -> tuple[int, ...]:
    d, th = inst.d, inst.theta
    x = [0] * d
    x[j - 1] = inst.bt(k)
    for i in range(k + 1, d + 1):
        x[i - 1] = th[i - 1]
    return tuple(x)


def grlex_vertices(inst: GrlexInstance) -> VRep:
    """Labeled vertex list of P, with theta_k = 1 merges deduplicated."""
    d, th = inst.d, inst.theta
    entries: list[tuple[VertexLabel, tuple[int, ...]]] = [
        (VertexLabel.zero(), (0,) * d),
        (VertexLabel.theta(), th),
        (VertexLabel.w(), (0,) * (d - 1) + (inst.b - 1,)),
    ]
    merged = set(inst.merged_ks)
    for k in range(3, d + 1):
        if k not in merged:
            entries.append((VertexLabel.u(k), _u_coords(inst, k)))
    for k in range(2, d + 1):
        for j in range(1, k):
            entries.append((VertexLabel.v(j, k), _v_coords(inst, j, k)))
    vrep = VRep(entries)
    if len(vrep) != GRLEX.vertex_count(inst):
        raise CheckFailed("vertex count mismatch")
    if any(_u_coords(inst, k) != _v_coords(inst, k - 1, k) for k in merged):
        raise CheckFailed("a merged u(k) differs from v(k-1,k)")
    return vrep


def grlex_facet_matrix(inst: GrlexInstance) -> IntRows:
    """M = [v(1,2)-theta, u(3)-theta, ..., u(d)-theta, w-theta], by columns."""
    d, th = inst.d, inst.theta
    cols = [_v_coords(inst, 1, 2)]
    cols += [_u_coords(inst, k) for k in range(3, d + 1)]
    cols.append((0,) * (d - 1) + (inst.b - 1,))
    cols = [tuple(c - t for c, t in zip(col, th)) for col in cols]
    return tuple(zip(*cols))


def _p(inst: GrlexInstance, i: int, j: int) -> int:
    # p(i,j) = btilde_i * prod_{k=i+1..j} (btilde_k + 1) for j >= i, else 1
    if j < i:
        return 1
    return inst.bt(i) * prod(inst.bt(k) + 1 for k in range(i + 1, j + 1))


def grlex_facet_matrix_inverse(inst: GrlexInstance) -> tuple[IntRows, int]:
    """N = M^-1 by closed-form recursion, as (theta_2·N, theta_2): row 1 is
    the only row of N with a denominator, theta_2. N·M = I is checked.

    Read from column d down, row i of N starts at -p(i,d-1) and steps by
    p(i,j-1) at each column j = d-1, ..., i, except that row 1 takes these
    over theta_2; each row is the suffix sums of its steps.
    """
    d, th2 = inst.d, inst.theta[1]

    def step(i: int, j: int) -> int:
        if j == d:
            term = -_p(inst, i, d - 1)
        else:
            term = _p(inst, i, j - 1) if j >= i else 0
        return term if i == 1 else th2 * term

    rows = tuple(
        tuple(accumulate(step(i, j) for j in range(d, 0, -1)))[::-1]
        for i in range(1, d + 1)
    )
    return check_inverse(rows, th2, grlex_facet_matrix(inst))


def grlex_hrep(inst: GrlexInstance) -> HRep:
    """The 2d facet rows: x_i >= 0 and the d rows of -N x <= -N theta.

    The last nontrivial row is the grading inequality sum(x) <= b exactly.
    """
    missed = [VertexLabel.v(1, 2)] + [u_label(inst, k) for k in range(3, inst.d + 1)]
    return hrep_from_inverse(inst, grlex_facet_matrix_inverse(inst)[0], missed)


def _symbolic_psi(inst: GrlexInstance) -> dict[VertexLabel, frozenset[int]]:
    """Facet-index sets per vertex; indices 0..d-1 are coordinate planes,
    d..2d-1 are the nontrivial rows in N-row order."""
    d = inst.d
    merged = set(inst.merged_ks)
    coord = lambda i: i - 1
    row = lambda r: d + r - 1
    psi: dict[VertexLabel, frozenset[int]] = {
        VertexLabel.zero(): frozenset(coord(i) for i in range(1, d + 1)),
        VertexLabel.theta(): frozenset(row(r) for r in range(1, d + 1)),
        VertexLabel.w(): frozenset(row(r) for r in range(1, d))
        | frozenset(coord(i) for i in range(1, d)),
    }
    for k in range(3, d + 1):
        if k not in merged:
            psi[VertexLabel.u(k)] = frozenset(
                row(r) for r in range(1, d + 1) if r != k - 1
            ) | frozenset(coord(i) for i in range(1, k - 1))
    for k in range(2, d + 1):
        for j in range(1, k):
            if j == k - 1 and k in merged:
                # merged vertex keeps the u-type tight set plus its own plane
                psi[VertexLabel.v(j, k)] = (
                    frozenset(row(r) for r in range(1, d + 1) if r != k - 1)
                    | frozenset(coord(i) for i in range(1, k - 1))
                    | {coord(k)}
                )
            else:
                psi[VertexLabel.v(j, k)] = frozenset(
                    row(r) for r in range(k, d + 1)
                ) | frozenset(coord(i) for i in range(1, k + 1) if i != j)
    return psi


def grlex_incidence(inst: GrlexInstance) -> IncidenceMatrix:
    """Symbolic incidence from the closed formulas, checked against the
    numeric slack computation bit for bit."""
    return checked_incidence(GRLEX.hrep(inst), GRLEX.vertices(inst), _symbolic_psi(inst))


def _strict_edge_pairs(inst: GrlexInstance) -> set[frozenset[VertexLabel]]:
    d = inst.d
    zero, theta, w = VertexLabel.zero(), VertexLabel.theta(), VertexLabel.w()
    U, V = VertexLabel.u, VertexLabel.v
    edges: set[frozenset[VertexLabel]] = set()
    add = lambda a, b: edges.add(frozenset((a, b)))
    # neighbors of theta and of 0
    add(theta, w)
    add(theta, V(1, 2))
    for k in range(3, d + 1):
        add(theta, U(k))
    add(zero, w)
    for j in range(1, d):
        add(zero, V(j, d))
    # w's neighborhood: everything except the last column, with v(2,3)
    # present only for d >= 4
    if d >= 4:
        add(w, V(2, 3))
    for k in range(2, d):
        for j in range(1, k):
            if (j, k) != (2, 3):
                add(w, V(j, k))
    for k in range(3, d + 1):
        add(w, U(k))
    # u-clique and u-v edges
    for k1 in range(3, d + 1):
        for k2 in range(k1 + 1, d + 1):
            add(U(k1), U(k2))
    for k in range(3, d + 1):
        add(V(k - 1, k), U(k))
    for k2 in range(4, d + 1):
        for k1 in range(2, k2 - 1):
            for j in range(1, k1):
                add(V(j, k1), U(k2))
    # column cliques and same-row chains
    for k in range(2, d + 1):
        for j1 in range(1, k):
            for j2 in range(j1 + 1, k):
                add(V(j1, k), V(j2, k))
    for j in range(1, d):
        for k in range(j + 1, d):
            add(V(j, k), V(j, k + 1))
    return edges


def grlex_edges(inst: GrlexInstance) -> tuple[tuple[VertexLabel, VertexLabel], ...]:
    """The incidence-derived adjacency, in vertex order, checked equal to
    the closed-form edge set (contracted minor when theta has ones)."""
    relabel = {VertexLabel.u(k): VertexLabel.v(k - 1, k) for k in inst.merged_ks}
    pairs = set()
    for edge in _strict_edge_pairs(inst):
        a, b = tuple(edge)
        a, b = relabel.get(a, a), relabel.get(b, b)
        if a != b:
            pairs.add(frozenset((a, b)))
    return checked_edges(pairs, GRLEX.incidence(inst), inst.d)


def grlex_graph(inst: GrlexInstance) -> pg.PolytopeGraph:
    return pg.PolytopeGraph.from_edges(GRLEX.vertices(inst).labels(), grlex_edges(inst))


def grlex_hamiltonian_cycle(inst: GrlexInstance) -> tuple[VertexLabel, ...]:
    """Hamiltonian cycle: 0, last column ascending, u-run descending, theta,
    v(1,2), then columns 3..d-1 (entering at the previous column's exit row),
    and w. Machine-verified: a recipe that fails raises CheckFailed.
    """
    d = inst.d
    merged = set(inst.merged_ks)
    V = VertexLabel.v
    cycle: list[VertexLabel] = [VertexLabel.zero()]
    cycle += [V(j, d) for j in range(1, d)]
    u_run = [u_label(inst, k) for k in range(d, 2, -1)]
    if u_run and u_run[0] == cycle[-1]:  # theta_d = 1 merges into v(d-1,d)
        u_run = u_run[1:]
    cycle += u_run
    cycle.append(VertexLabel.theta())
    cycle.append(V(1, 2))
    entry = 1
    for k in range(3, d):
        col = [j for j in range(1, k) if not (j == k - 1 and k in merged)]
        rest = [j for j in col if j != entry]
        if not rest:
            cycle.append(V(entry, k))
            continue
        exit_j = k - 1 if k - 1 in rest else max(rest)
        middle = sorted((j for j in rest if j != exit_j), reverse=True)
        cycle += [V(entry, k)] + [V(j, k) for j in middle] + [V(exit_j, k)]
        entry = exit_j
    cycle.append(VertexLabel.w())
    return checked_cycle(GRLEX.graph(inst), cycle)


def _coloring_scheme(d: int) -> dict[VertexLabel, int]:
    """The strict d-coloring scheme of grlex_coloring; it depends on d alone.

      d = 3:  0->2, theta->1, w->3, u(3)->2, v(1,2)->2, v(1,3)->1, v(2,3)->3
      d >= 4: 0->1, theta->1, w->d, u(k)->k-1,
              columns k <= d-1: v(1,k)->k, v(j,k)->k-j for j >= 2,
              column d: v(1,d)->d, v(j,d)->d+1-j for j >= 2.
    """
    if d == 3:
        return {
            VertexLabel.zero(): 2,
            VertexLabel.theta(): 1,
            VertexLabel.w(): 3,
            VertexLabel.u(3): 2,
            VertexLabel.v(1, 2): 2,
            VertexLabel.v(1, 3): 1,
            VertexLabel.v(2, 3): 3,
        }
    coloring = {
        VertexLabel.zero(): 1,
        VertexLabel.theta(): 1,
        VertexLabel.w(): d,
    }
    for k in range(3, d + 1):
        coloring[VertexLabel.u(k)] = k - 1
    for k in range(2, d):
        coloring[VertexLabel.v(1, k)] = k
        for j in range(2, k):
            coloring[VertexLabel.v(j, k)] = k - j
    coloring[VertexLabel.v(1, d)] = d
    for j in range(2, d):
        coloring[VertexLabel.v(j, d)] = d + 1 - j
    return coloring


def grlex_coloring(inst: GrlexInstance) -> dict[VertexLabel, int]:
    """A proper d-coloring of the polytope graph, for strict theta.

    The labels theta, w, u(3)..u(d) form a d-clique, as does the last column
    with 0, so d colors are necessary; the scheme of _coloring_scheme
    attains them. Properness is checked against the edge list before
    returning.
    """
    if not inst.strict:
        raise RequiresStrictTheta("coloring formula needs every theta_i >= 2")
    return checked_coloring(GRLEX.graph(inst), _coloring_scheme(inst.d), inst.d)


def grlex_coloring_relaxed(inst: GrlexInstance) -> tuple[dict[VertexLabel, int], int]:
    """Checked d-coloring for any theta >= 1 (merged minors included).

    Without merges the graph is the strict one and takes the strict scheme.
    A merged minor is colored by the backtracking search with d colors, the
    method for merged theta, not a fallback. Returns (coloring, colors used),
    always d: a d-clique survives contraction, so fewer is impossible, and a
    minor that needs more raises CheckFailed.
    """
    d = inst.d
    graph = GRLEX.graph(inst)
    coloring = pg.proper_coloring_search(graph, d) if inst.merged_ks else _coloring_scheme(d)
    if coloring is None:
        raise CheckFailed(f"merged minor needs more than d = {d} colors")
    return checked_coloring(graph, coloring, d), d


def grlex_expansion_witness(
    inst: GrlexInstance,
) -> tuple[frozenset[VertexLabel], int]:
    """The ratio-1 cut witness: S = last column plus 0, with |bd(S)| = d."""
    if not inst.strict:
        raise RequiresStrictTheta("witness set needs every theta_i >= 2")
    d = inst.d
    s = frozenset({VertexLabel.zero()} | {VertexLabel.v(j, d) for j in range(1, d)})
    boundary = len(pg.cut_edges(GRLEX.graph(inst), s))
    if not boundary == len(s) == d:
        raise CheckFailed("witness ratio is not 1")
    return s, boundary


class GrlexFamily(Family):
    """The grlex polytopes P, through this module's public functions."""

    name = "grlex"
    kind = OrderKind.GRLEX

    def coloring(self, inst: GrlexInstance):
        """The strict scheme for strict theta, else the relaxed coloring."""
        if inst.strict:
            return super().coloring(inst)
        return grlex_coloring_relaxed(inst)

    def apexes(self, inst: GrlexInstance):
        return VertexLabel.zero(), VertexLabel.theta()

    def vertex_count(self, inst: GrlexInstance) -> int:
        """One vertex fewer per merged u(k)."""
        return super().vertex_count(inst) - len(inst.merged_ks)

    def normal_ok(self, normal, r: int) -> bool:
        """Nontrivial facet normals are nonnegative and nondecreasing."""
        return all(a >= 0 for a in normal) and all(
            normal[i] <= normal[i + 1] for i in range(len(normal) - 1)
        )

    def edge_count(self, inst: GrlexInstance):
        """(d^3+2d)/3 for strict theta; merged minors claim no count."""
        return super().edge_count(inst) if inst.strict else None

    def radius_diameter(self, inst: GrlexInstance):
        """Radius 2 and diameter 3 (2 at d = 3) for strict theta."""
        if not inst.strict:
            return None
        return 2, 2 if inst.d == 3 else 3

    def expansion_witness(self, inst: GrlexInstance):
        return grlex_expansion_witness(inst) if inst.strict else None


GRLEX = GrlexFamily()
