"""Closed-form construction of the graded-reverse-lex polytope Q.

The closed forms of Q: vertices ubar(2..d+1) and vbar(j,k), the facet
matrix Mbar (columns are edge directions at theta) with its inverse Nbar
by recursion, the tight sets of the 2d facet rows, the edge families, a
serpentine Hamiltonian cycle, a residue d-coloring, and the antipodal
pairs. The shared builders of `family` check the others against the
generic numeric machinery, and the verify `dantzig` suite checks the
pairs. Unlike P there are no vertex merges — the count is (d^2+d+2)/2 for
every theta >= 1.
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


class GrevlexInstance(ThetaInstance):
    """A bound vector theta >= 1 with d >= 3, plus derived quantities."""

    __slots__ = ()


def make_grevlex(theta) -> GrevlexInstance:
    return GrevlexInstance(tuple(theta))


def _ubar_coords(inst: GrevlexInstance, k: int) -> tuple[int, ...]:
    # ubar(2) = theta, ubar(d+1) = b*e_d
    d, th = inst.d, inst.theta
    x = [0] * d
    x[k - 2] = inst.bt(k - 1)
    for i in range(k, d + 1):
        x[i - 1] = th[i - 1]
    return tuple(x)


def _vbar_coords(inst: GrevlexInstance, j: int, k: int) -> tuple[int, ...]:
    d, th = inst.d, inst.theta
    x = [0] * d
    x[j - 1] = inst.bt(k - 1) - 1
    if k <= d:
        x[k - 1] = th[k - 1] + 1
        for i in range(k + 1, d + 1):
            x[i - 1] = th[i - 1]
    return tuple(x)


def _vbar_range(d: int):
    """All (j, k) with 1 <= j <= k-2, 3 <= k <= d+1."""
    for k in range(3, d + 2):
        for j in range(1, k - 1):
            yield j, k


def grevlex_vertices(inst: GrevlexInstance) -> VRep:
    """Labeled vertex list of Q; always (d^2+d+2)/2 vertices."""
    d = inst.d
    entries: list[tuple[VertexLabel, tuple[int, ...]]] = [
        (VertexLabel.zero(), (0,) * d)
    ]
    for k in range(2, d + 2):
        entries.append((VertexLabel.ubar(k), _ubar_coords(inst, k)))
    for j, k in _vbar_range(d):
        entries.append((VertexLabel.vbar(j, k), _vbar_coords(inst, j, k)))
    vrep = VRep(entries)
    if len(vrep) != GREVLEX.vertex_count(inst):
        raise CheckFailed("vertex count mismatch")
    return vrep


def grevlex_facet_matrix(inst: GrevlexInstance) -> IntRows:
    """Mbar = [ubar(3)-theta, vbar(1,3)-theta, ..., vbar(1,d+1)-theta]."""
    d, th = inst.d, inst.theta
    cols = [_ubar_coords(inst, 3)]
    cols += [_vbar_coords(inst, 1, k) for k in range(3, d + 2)]
    cols = [tuple(c - t for c, t in zip(col, th)) for col in cols]
    return tuple(zip(*cols))


def _q(inst: GrevlexInstance, i: int, j: int) -> int:
    # q(i,j) = theta_i * theta_j * prod_{k=i+1..j-1} (theta_k + 1), j > i
    th = inst.theta
    if j < i:
        return 1
    if j == i:
        return th[i - 1]
    return th[i - 1] * th[j - 1] * prod(th[k - 1] + 1 for k in range(i + 1, j))


def grevlex_facet_matrix_inverse(inst: GrevlexInstance) -> tuple[IntRows, int]:
    """Nbar = Mbar^-1 by closed-form recursion, as (theta_1·Nbar, theta_1):
    row 1 is the only row of Nbar with a denominator, theta_1. Nbar·Mbar = I
    is checked.

    Read from column d down, row i of Nbar steps by -q(i+1,j) at each
    column j > i+1, by -(theta_{i+1} - 1) at column i+1 and by -1 at column
    i, except that row 1 takes these over theta_1; each row is the suffix
    sums of its steps.
    """
    d, th = inst.d, inst.theta
    th1 = th[0]

    def step(i: int, j: int) -> int:
        if j < i:
            return 0
        term = 1 if j == i else th[i] - 1 if j == i + 1 else _q(inst, i + 1, j)
        return -term if i == 1 else -th1 * term

    rows = tuple(
        tuple(accumulate(step(i, j) for j in range(d, 0, -1)))[::-1]
        for i in range(1, d + 1)
    )
    return check_inverse(rows, th1, grevlex_facet_matrix(inst))


def grevlex_hrep(inst: GrevlexInstance) -> HRep:
    """The 2d facet rows: x_i >= 0 and the d rows of -Nbar x <= -Nbar theta.

    Row r of -Nbar has entries a_1 = ... = a_{r} > a_{r+1} >= ... >= a_d >= 0
    after clearing denominators; the last row is sum(x) <= b exactly.
    """
    missed = [VertexLabel.ubar(3)]
    missed += [VertexLabel.vbar(1, k) for k in range(3, inst.d + 1)]
    return hrep_from_inverse(inst, grevlex_facet_matrix_inverse(inst)[0], missed)


def _symbolic_psi(inst: GrevlexInstance) -> dict[VertexLabel, frozenset[int]]:
    """Facet-index sets per vertex; indices 0..d-1 are coordinate planes,
    d..2d-1 are the nontrivial rows in Nbar-row order."""
    d = inst.d
    coord = lambda i: i - 1
    row = lambda r: d + r - 1
    psi: dict[VertexLabel, frozenset[int]] = {
        VertexLabel.zero(): frozenset(coord(i) for i in range(1, d + 1)),
        VertexLabel.ubar(2): frozenset(row(r) for r in range(1, d + 1)),
    }
    for k in range(3, d + 2):
        psi[VertexLabel.ubar(k)] = frozenset(
            row(r) for r in range(k - 1, d + 1)
        ) | frozenset(coord(i) for i in range(1, k - 1))
    for j, k in _vbar_range(d):
        psi[VertexLabel.vbar(j, k)] = frozenset(
            row(r) for r in range(j, d + 1) if r != k - 1
        ) | frozenset(coord(i) for i in range(1, k) if i != j)
    return psi


def grevlex_incidence(inst: GrevlexInstance) -> IncidenceMatrix:
    """Symbolic incidence from the closed formulas, checked against the
    numeric slack computation bit for bit."""
    return checked_incidence(GREVLEX.hrep(inst), GREVLEX.vertices(inst), _symbolic_psi(inst))


def grevlex_edges(inst: GrevlexInstance) -> tuple[tuple[VertexLabel, VertexLabel], ...]:
    """The incidence-derived adjacency, in vertex order, checked equal to
    the closed-form edge set.

    Families: 0 to ubar(d+1) and every vbar(.,d+1); the ubar chain; ubar(k)
    to short-row vbar(j,k-1); ubar(j) to vbar(j-1,.); same-j row cliques;
    same-k column cliques. Valid verbatim for every theta >= 1.
    """
    d = inst.d
    zero = VertexLabel.zero()
    UB, VB = VertexLabel.ubar, VertexLabel.vbar
    edges: set[frozenset[VertexLabel]] = set()
    add = lambda a, b: edges.add(frozenset((a, b)))
    add(zero, UB(d + 1))
    for j in range(1, d):
        add(zero, VB(j, d + 1))
    for k in range(2, d + 1):
        add(UB(k), UB(k + 1))
    for k in range(4, d + 2):
        for j in range(1, k - 2):
            add(UB(k), VB(j, k - 1))
    for j in range(2, d + 1):
        for k in range(j + 1, d + 2):
            add(UB(j), VB(j - 1, k))
    for j in range(1, d):
        for k1 in range(j + 2, d + 2):
            for k2 in range(k1 + 1, d + 2):
                add(VB(j, k1), VB(j, k2))
    for k in range(3, d + 2):
        for j1 in range(1, k - 1):
            for j2 in range(j1 + 1, k - 1):
                add(VB(j1, k), VB(j2, k))
    return checked_edges(edges, GREVLEX.incidence(inst), inst.d)


def grevlex_graph(inst: GrevlexInstance) -> pg.PolytopeGraph:
    return pg.PolytopeGraph.from_edges(GREVLEX.vertices(inst).labels(), grevlex_edges(inst))


def grevlex_hamiltonian_cycle(inst: GrevlexInstance) -> tuple[VertexLabel, ...]:
    """Serpentine Hamiltonian cycle: 0, the ubar chain from d+1 down to 2,
    then columns k = 3..d+1 each entered on the previous exit row, closing
    through 0. Machine-verified: a recipe that fails raises CheckFailed.
    """
    d = inst.d
    VB = VertexLabel.vbar
    cycle: list[VertexLabel] = [VertexLabel.zero()]
    cycle += [VertexLabel.ubar(k) for k in range(d + 1, 1, -1)]
    entry = 1  # (ubar(2), vbar(1,3)) is an edge
    for k in range(3, d + 2):
        rest = [j for j in range(1, k - 1) if j != entry]
        exit_j = max(rest) if rest else entry
        cycle += [VB(entry, k)] + [VB(j, k) for j in sorted(rest)]
        entry = exit_j
    return checked_cycle(GREVLEX.graph(inst), cycle)


def grevlex_coloring(inst: GrevlexInstance) -> dict[VertexLabel, int]:
    """A proper d-coloring by residues mod d, for every theta >= 1.

    0 -> 1, vbar(j,k) -> (k+j) mod d, ubar(k) -> (2k-1) mod d for k <= d,
    and ubar(d+1) -> 0. The column {vbar(.,d+1)} with 0 is a d-clique, so
    d colors are necessary. Properness is checked before returning.
    """
    d = inst.d
    coloring: dict[VertexLabel, int] = {VertexLabel.zero(): 1}
    for k in range(2, d + 1):
        coloring[VertexLabel.ubar(k)] = (2 * k - 1) % d
    coloring[VertexLabel.ubar(d + 1)] = 0
    for j, k in _vbar_range(d):
        coloring[VertexLabel.vbar(j, k)] = (k + j) % d
    return checked_coloring(GREVLEX.graph(inst), coloring, d)


class GrevlexFamily(Family):
    """The grevlex polytopes Q, through this module's public functions."""

    name = "grevlex"
    kind = OrderKind.GREVLEX

    def apexes(self, inst: GrevlexInstance):
        return VertexLabel.zero(), VertexLabel.ubar(2)

    def antipodal_pairs(self, inst: GrevlexInstance) -> set[frozenset]:
        """The apexes; d = 3 adds (vbar(1,3), vbar(2,4))."""
        pairs = super().antipodal_pairs(inst)
        if inst.d == 3:
            pairs.add(frozenset((VertexLabel.vbar(1, 3), VertexLabel.vbar(2, 4))))
        return pairs

    def normal_ok(self, normal, r: int) -> bool:
        """Nontrivial row r (0-based) has a_1 = ... = a_{r+1} > a_{r+2} >=
        ... >= a_d >= 0."""
        a = list(normal)
        d = len(a)
        r += 1  # 1-based nontrivial row number
        if any(x < 0 for x in a):
            return False
        head_equal = all(a[i] == a[0] for i in range(r))
        drop = a[r - 1] > a[r] if r < d else True
        tail = all(a[i] >= a[i + 1] for i in range(r, d - 1))
        return head_equal and drop and tail and a[d - 1] >= 0

    def radius_diameter(self, inst: GrevlexInstance):
        """Radius and diameter 2 for every theta."""
        return 2, 2


GREVLEX = GrevlexFamily()
