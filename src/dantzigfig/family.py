"""The construction recipe both polytope families share.

A family module supplies closed forms: vertex formulas, the facet matrix M
and a recursion for its inverse N (integer rows over one denominator),
facet ids, the tight sets psi, the edge families, a Hamiltonian-cycle
recipe and a coloring scheme. The builders
here turn them into checked objects: each closed form is compared with the
generic numeric route, and a mismatch raises CheckFailed. `Family` is what
the CLI, the scripts and the tests know of a family.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from operator import mul
from typing import Optional

from . import polytope_graph as pg
from .orders import OrderKind
from .polytope_core import (
    CheckFailed,
    FacetId,
    HRep,
    IncidenceMatrix,
    VRep,
    VertexLabel,
    adjacency_from_incidence,
    check_theta,
    incidence,
)


class ThetaInstance:
    """A bound vector theta >= 1 with d >= 3, plus derived quantities.

    Immutable; equal, with equal hashes, to an instance of the same class
    and theta, so it keys the families' caches.
    """

    __slots__ = ("_theta",)

    def __init__(self, theta: tuple[int, ...]):
        check_theta(theta)
        self._theta = theta

    @property
    def theta(self) -> tuple[int, ...]:
        return self._theta

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._theta == other._theta

    def __hash__(self) -> int:
        return hash(self._theta)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(theta={self._theta!r})"

    @property
    def d(self) -> int:
        return len(self.theta)

    @property
    def b(self) -> int:
        return sum(self.theta)

    @property
    def btilde(self) -> tuple[int, ...]:
        """Prefix sums of theta."""
        return tuple(accumulate(self.theta))

    @property
    def strict(self) -> bool:
        return all(t >= 2 for t in self.theta)

    def bt(self, k: int) -> int:
        """btilde_k with 1-based k; bt(0) = 0."""
        return self.btilde[k - 1] if k >= 1 else 0


IntRows = tuple[tuple[int, ...], ...]


def check_inverse(n: IntRows, den: int, m: IntRows) -> tuple[IntRows, int]:
    """Return the closed-form inverse (n, den), M^-1 = n/den, after checking
    in integers that den > 0 and all of n·m = den·I."""
    d = len(m)
    cols = list(zip(*m))
    product = [[sum(map(mul, row, col)) for col in cols] for row in n]
    scaled_identity = [[den if i == j else 0 for j in range(d)] for i in range(d)]
    if den <= 0 or any(len(row) != d for row in n) or product != scaled_identity:
        raise CheckFailed("closed-form inverse mismatch")
    return n, den


def hrep_from_inverse(inst: ThetaInstance, n: IntRows, missed: list[VertexLabel]) -> HRep:
    """The 2d facet rows: x_i >= 0 and the d rows of -N x <= -N theta.

    n holds the rows of den·N for some den > 0; HRep scales each row to
    primitive integers, so the factor den drops out. The facets are
    coord(1..d), then one per label in missed (the neighbor of theta that
    nontrivial row r misses, for r < d), then grading: the last row must
    come out as the grading inequality sum(x) <= b.
    """
    d = inst.d
    rows = [([-int(i == c) for c in range(d)], 0) for i in range(d)]
    rows += [([-a for a in row], -sum(map(mul, row, inst.theta))) for row in n]
    ids = [FacetId.coord(i) for i in range(1, d + 1)]
    ids += [FacetId.nontrivial(label) for label in missed] + [FacetId.grading()]
    h = HRep(rows, ids)
    if h.normals[-1] != (1,) * d or h.rhs[-1] != inst.b:
        raise CheckFailed("last facet row is not the grading inequality")
    return h


def checked_incidence(
    h: HRep, v: VRep, psi: dict[VertexLabel, frozenset[int]]
) -> IncidenceMatrix:
    """Symbolic incidence from the tight row indices psi of each vertex,
    checked bit for bit against the numeric slack computation."""
    masks = [sum(1 << f for f in psi[label]) for label in v.labels()]
    symbolic = IncidenceMatrix(v.labels(), list(h.ids), masks)
    if symbolic.vertex_masks != incidence(h, v).vertex_masks:
        raise CheckFailed("incidence formula mismatch")
    return symbolic


def _sorted_pairs(pairs) -> list[tuple[VertexLabel, VertexLabel]]:
    return sorted(tuple(sorted(p)) for p in pairs)


def checked_edges(
    pairs, h: HRep, inc: IncidenceMatrix
) -> tuple[tuple[VertexLabel, VertexLabel], ...]:
    """The closed-form edge pairs, sorted, checked equal to the adjacency
    derived from the incidence."""
    closed = _sorted_pairs(pairs)
    if closed != _sorted_pairs(adjacency_from_incidence(h, inc)):
        raise CheckFailed("edge list disagrees with incidence adjacency")
    return tuple(closed)


def checked_cycle(graph: pg.PolytopeGraph, recipe: list) -> tuple:
    """The recipe's cycle after checking that it is Hamiltonian."""
    if not pg.verify_hamiltonian(graph, recipe):
        raise CheckFailed("Hamiltonian-cycle recipe is not a Hamiltonian cycle")
    return tuple(recipe)


def checked_coloring(graph: pg.PolytopeGraph, coloring: dict, colors: int) -> dict:
    """The coloring after checking it is proper with exactly `colors` colors."""
    if pg.verify_coloring(graph, coloring) != (True, colors):
        raise CheckFailed(f"coloring is not a proper {colors}-coloring")
    return coloring


class Family:
    """A polytope family as the CLI, the scripts and the tests see it.

    The constructions are the public functions make_<name>, <name>_vertices,
    ... of the module that defines the subclass, looked up there at each
    call, so a rebinding of those module-level names is seen. A subclass
    sets name and kind, supplies apexes, normal_ok and radius_diameter, and
    states its other claims where they differ from the defaults below.
    """

    name: str
    kind: OrderKind

    def _public(self, function: str):
        return getattr(sys.modules[type(self).__module__], function)

    def make(self, theta) -> ThetaInstance:
        return self._public(f"make_{self.name}")(theta)

    def vertices(self, inst: ThetaInstance) -> VRep:
        return self._public(f"{self.name}_vertices")(inst)

    def hrep(self, inst: ThetaInstance) -> HRep:
        return self._public(f"{self.name}_hrep")(inst)

    def incidence(self, inst: ThetaInstance) -> IncidenceMatrix:
        return self._public(f"{self.name}_incidence")(inst)

    def edges(self, inst: ThetaInstance) -> tuple[tuple[VertexLabel, VertexLabel], ...]:
        return self._public(f"{self.name}_edges")(inst)

    def graph(self, inst: ThetaInstance) -> pg.PolytopeGraph:
        return self._public(f"{self.name}_graph")(inst)

    def hamiltonian_cycle(self, inst: ThetaInstance) -> tuple[VertexLabel, ...]:
        return self._public(f"{self.name}_hamiltonian_cycle")(inst)

    def coloring(self, inst: ThetaInstance) -> tuple[dict[VertexLabel, int], int]:
        """A checked coloring and its number of colors."""
        coloring = self._public(f"{self.name}_coloring")(inst)
        return coloring, len(set(coloring.values()))

    def vertex_count(self, inst: ThetaInstance) -> int:
        """The claimed number of vertices."""
        return (inst.d * inst.d + inst.d + 2) // 2

    def edge_count(self, inst: ThetaInstance) -> Optional[int]:
        """The claimed number of edges, or None where no count is claimed."""
        return (inst.d**3 + 2 * inst.d) // 3

    def antipodal_pairs(self, inst: ThetaInstance) -> set[frozenset]:
        """The claimed antipodal vertex pairs: the two apexes."""
        return {frozenset(self.apexes(inst))}

    def expansion_witness(self, inst: ThetaInstance):
        """A closed-form ratio-1 cut (set, boundary size), or None."""
        return None
