"""Generic exact polytope machinery.

H-representations stored as primitive integer rows, V-representations of
integer vertices, vertex-facet incidence, adjacency, tangent cones, the
cone-coverage criterion, antipodal pair listing, and the two-cone
H-representation builder used for Dantzig-figure certification, plus the
theta check and the CheckFailed error both families share. Everything
here is dimension-agnostic; the construction recipe the families share
lives in `family`, their closed forms in the grlex/grevlex modules. The
functions that read the incidence of (h, v) take it as `inc`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence

from .exactmath import SingularError, adjugate, primitive, rank_of_rows
from .polytope_graph import _bits


class InfeasibleVertex(ValueError):
    """A supposed vertex violates a facet inequality."""


class UnknownLabel(KeyError):
    """Label not present in the vertex list."""


class EmptySet(ValueError):
    """An operation requiring a nonempty vertex subset got an empty one."""


class NonSimplicialCone(ValueError):
    """Tangent cone is not simplicial (generator count != d or singular)."""


class UnsupportedDimension(ValueError):
    """Both families require dimension >= 3."""


class InvalidTheta(ValueError):
    """theta must be a vector of positive integers."""


class CheckFailed(AssertionError):
    """A closed form disagreed with the independent route that checks it.

    Raised explicitly, so the checks also run under ``python -O``.
    """


def check_theta_entries(theta: tuple) -> None:
    """Raise InvalidTheta unless each entry is an int (not a bool) >= 1."""
    if any(isinstance(t, bool) or not isinstance(t, int) or t < 1 for t in theta):
        raise InvalidTheta(f"theta entries must be integers >= 1: {theta}")


def check_theta(theta: tuple) -> None:
    """Raise unless theta has d >= 3 entries, each an int (not a bool) >= 1."""
    if len(theta) < 3:
        raise UnsupportedDimension(f"d = {len(theta)} < 3")
    check_theta_entries(theta)


class VertexLabel(tuple):
    """Symbolic vertex identity, decoupled from coordinates.

    kind is one of "zero", "theta", "w", "u", "v", "ubar", "vbar"; the index
    fields are used by the indexed kinds only. A label is the immutable tuple
    (rank of kind, k, j, kind), so labels sort by kind rank, then k, then j;
    ==, hash and sorting run as tuple operations, and the kind string keeps
    a label unequal to any coordinate tuple and to any FacetId.
    """

    __slots__ = ()
    _RANK = {"zero": 0, "theta": 1, "w": 2, "u": 3, "ubar": 4, "v": 5, "vbar": 6}

    def __new__(cls, kind: str, j: int = 0, k: int = 0) -> "VertexLabel":
        return tuple.__new__(cls, (cls._RANK[kind], k, j, kind))

    def __getnewargs__(self) -> tuple[str, int, int]:
        return self.kind, self.j, self.k

    kind = property(itemgetter(3))
    j = property(itemgetter(2))
    k = property(itemgetter(1))

    @staticmethod
    def zero() -> "VertexLabel":
        return VertexLabel("zero")

    @staticmethod
    def theta() -> "VertexLabel":
        return VertexLabel("theta")

    @staticmethod
    def w() -> "VertexLabel":
        return VertexLabel("w")

    @staticmethod
    def u(k: int) -> "VertexLabel":
        if k < 3:
            raise ValueError("u(k) needs k >= 3")
        return VertexLabel("u", k=k)

    @staticmethod
    def v(j: int, k: int) -> "VertexLabel":
        if not 1 <= j < k:
            raise ValueError("v(j,k) needs 1 <= j < k")
        return VertexLabel("v", j=j, k=k)

    @staticmethod
    def ubar(k: int) -> "VertexLabel":
        if k < 2:
            raise ValueError("ubar(k) needs k >= 2")
        return VertexLabel("ubar", k=k)

    @staticmethod
    def vbar(j: int, k: int) -> "VertexLabel":
        if not 1 <= j < k - 1:
            raise ValueError("vbar(j,k) needs 1 <= j < k-1")
        return VertexLabel("vbar", j=j, k=k)

    def __str__(self) -> str:
        _, k, j, kind = self
        if kind == "zero":
            return "0"
        if kind in ("theta", "w"):
            return kind
        if kind in ("u", "ubar"):
            return f"{kind}({k})"
        return f"{kind}({j},{k})"

    def __repr__(self) -> str:
        return f"<{self}>"


class FacetId(tuple):
    """Identity of a facet: a coordinate plane, the grading plane, or the
    nontrivial facet named after the unique theta-neighbor it misses.

    The immutable tuple (kind, i, label), kind one of "coord", "grading",
    "nontrivial"; its leading string keeps it unequal to any VertexLabel.
    """

    __slots__ = ()

    def __new__(cls, kind: str, i: int = 0, label: Optional[VertexLabel] = None) -> "FacetId":
        return tuple.__new__(cls, (kind, i, label))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    kind = property(itemgetter(0))
    i = property(itemgetter(1))
    label = property(itemgetter(2))

    @staticmethod
    def coord(i: int) -> "FacetId":
        return FacetId("coord", i=i)

    @staticmethod
    def grading() -> "FacetId":
        return FacetId("grading")

    @staticmethod
    def nontrivial(label: VertexLabel) -> "FacetId":
        return FacetId("nontrivial", label=label)

    def __str__(self) -> str:
        if self.kind == "coord":
            return f"coord({self.i})"
        if self.kind == "grading":
            return "grading"
        return f"missing[{self.label}]"

    def __repr__(self) -> str:
        return f"<{self}>"


class HRep:
    """Inequality system A·x <= beta in primitive integer rows.

    Rows are stored as (normal tuple, rhs), all ints: construction puts each
    row (normal, beta) of ints and Fractions over a common denominator and
    divides it by the gcd of its entries, rhs included, so 2x <= 3 stays
    (2, 0) <= 3. Raises TypeError on any other entry (a float or a bool) and
    ValueError on a zero normal. ``ids`` optionally names each facet.
    """

    __slots__ = ("normals", "rhs", "ids", "dim", "_ranks")

    def __init__(
        self,
        rows: Iterable[tuple[Sequence, object]],
        ids: Optional[Sequence[FacetId]] = None,
    ):
        normals: list[tuple[int, ...]] = []
        rhs: list[int] = []
        for normal, beta in rows:
            row = (*normal, beta)
            if any(isinstance(x, bool) or not isinstance(x, (int, Fraction)) for x in row):
                raise TypeError(f"row entries must be ints or Fractions: {row}")
            if not any(row[:-1]):
                raise ValueError("zero row has no primitive form")
            den = lcm(*(x.denominator for x in row))
            *a, b = primitive([x.numerator * (den // x.denominator) for x in row])
            normals.append(tuple(a))
            rhs.append(b)
        self.normals = tuple(normals)
        self.rhs = tuple(rhs)
        if not normals:
            raise ValueError("empty system")
        self.dim = len(normals[0])
        if any(len(n) != self.dim for n in normals):
            raise ValueError("ragged normals")
        self.ids = tuple(ids) if ids is not None else None
        if self.ids is not None and len(self.ids) != len(self.normals):
            raise ValueError("ids length mismatch")
        self._ranks: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.normals)

    def rows(self) -> list[tuple[tuple[int, ...], int]]:
        return list(zip(self.normals, self.rhs))

    def tight_rank(self, mask: int) -> int:
        """Rank of the normals of the rows in mask (bit f is row f), computed
        once per mask: the vertex certificates of `incidence` and of the
        oracle's check (d) read the same entry."""
        rank = self._ranks.get(mask)
        if rank is None:
            rows = [n for f, n in enumerate(self.normals) if mask >> f & 1]
            rank = self._ranks[mask] = rank_of_rows(rows)
        return rank

    def contains(self, point: Sequence) -> bool:
        return all(sum(map(mul, n, point)) <= b for n, b in zip(self.normals, self.rhs))

    def slacks(self, point: Sequence) -> tuple[int | Fraction, ...]:
        """beta - a·x per row: ints for an integer point, exact on a rational one."""
        return tuple(b - sum(map(mul, n, point)) for n, b in zip(self.normals, self.rhs))

    def same_polytope_rows(self, other: "HRep") -> bool:
        """Equality of the two systems up to row order (rows are canonical)."""
        return sorted(self.rows()) == sorted(other.rows())

    def __repr__(self) -> str:
        return f"HRep({len(self.normals)} rows, dim {self.dim})"


class VRep:
    """Ordered list of labeled integer vertices. Raises TypeError on a
    coordinate that is not an int (a bool, a float or a Fraction)."""

    __slots__ = ("entries", "_by_label")

    def __init__(self, entries: Iterable[tuple[object, Sequence[int]]]):
        ordered = [(label, tuple(coords)) for label, coords in entries]
        for label, coords in ordered:
            if any(isinstance(c, bool) or not isinstance(c, int) for c in coords):
                raise TypeError(f"{label}: coordinates must be ints: {coords}")
        labels = [label for label, _ in ordered]
        coords = [c for _, c in ordered]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        if len(set(coords)) != len(coords):
            raise ValueError("duplicate coordinates")
        self.entries = ordered
        self._by_label = dict(ordered)

    def labels(self) -> list:
        return [label for label, _ in self.entries]

    def coords(self, label) -> tuple[int, ...]:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def coordinate_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(c for _, c in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"VRep({len(self.entries)} vertices)"


class IncidenceMatrix:
    """Vertex x facet tightness bits, the combinatorial-type carrier.

    vertex_masks[i] has bit f set iff vertex i is tight on facet column f;
    facet_masks[f] is the transpose view.
    """

    __slots__ = ("labels", "facet_ids", "vertex_masks", "facet_masks")

    def __init__(self, labels: list, facet_ids: list, vertex_masks: list[int]):
        self.labels = labels
        self.facet_ids = facet_ids
        self.vertex_masks = vertex_masks
        self.facet_masks = [
            sum(1 << i for i, vm in enumerate(vertex_masks) if vm >> f & 1)
            for f in range(len(facet_ids))
        ]

    def facet_vertex_counts(self) -> list[int]:
        return [fm.bit_count() for fm in self.facet_masks]

    def same_bits(self, other: "IncidenceMatrix") -> bool:
        """Bit-for-bit equality under canonical (label, facet-id) alignment."""
        if sorted(map(str, self.labels)) != sorted(map(str, other.labels)):
            return False
        if sorted(map(str, self.facet_ids)) != sorted(map(str, other.facet_ids)):
            return False
        def canon(inc):
            vorder = sorted(range(len(inc.labels)), key=lambda i: str(inc.labels[i]))
            forder = sorted(range(len(inc.facet_ids)), key=lambda f: str(inc.facet_ids[f]))
            return [
                tuple(inc.vertex_masks[i] >> f & 1 for f in forder) for i in vorder
            ]
        return canon(self) == canon(other)


def incidence(h: HRep, v: VRep) -> IncidenceMatrix:
    """Numeric vertex-facet incidence from exact slack vectors.

    Raises InfeasibleVertex if any vertex violates any row, and asserts the
    vertex certificate (>= d tight rows of rank d) for every vertex.
    """
    labels = v.labels()
    masks = []
    d = h.dim
    for label, coords in v:
        slacks = h.slacks(coords)
        if any(s < 0 for s in slacks):
            raise InfeasibleVertex(f"{label} violates a facet row")
        mask = sum(1 << f for f, s in enumerate(slacks) if s == 0)
        if mask.bit_count() < d or h.tight_rank(mask) < d:
            raise InfeasibleVertex(f"{label} lacks a rank-{d} tight system")
        masks.append(mask)
    ids = list(h.ids) if h.ids is not None else list(range(len(h)))
    return IncidenceMatrix(labels, ids, masks)


def _neighbours(inc: IncidenceMatrix, d: int, i: int, among: int) -> int:
    """The neighbours of vertex i among the vertices in the bitmask among, as
    a bitmask: the j that pass the pairwise test of adjacency_from_incidence
    in R^d, on any incidence inc. They are i's neighbours on the polytope
    when inc's vertex list is complete.

    With C_j = vm[i] & vm[j], j passes iff |C_j| >= d-1 and no third vertex
    lies on every row of C_j. When no other vertex lies on all of i's rows,
    take the faces "all of i's rows but f" (prefix and suffix ANDs of the
    facet masks). A vertex k of such a face has C_k = vm[i] minus f: it is
    a neighbour iff the face is {i, k} (and i has >= d rows), and it rejects
    every j off facet f, since then C_j lies inside vm[k]. So for a simple
    vertex (exactly d rows) the faces are the whole answer. Every other
    candidate must lie on each such f and pass the count; it is then tested
    most shared rows first. A tested k rejects every j on no facet of
    vm[i] & ~vm[k] in the same way, and the test ANDs the facet masks of
    C_k, smallest facets first, stopping at {i, k}. On a polytope a
    non-edge spans a face of dimension >= 2, which holds a neighbour of i,
    so neighbours reject every non-edge not tested before them.
    """
    vm, fm = inc.vertex_masks, inc.facet_masks
    vmi, rows = vm[i], list(_bits(vm[i]))
    me, full = 1 << i, (1 << len(vm)) - 1
    remaining, found = among & ~me, 0
    prefix = [full]
    for f in rows:
        prefix.append(prefix[-1] & fm[f])
    if prefix[-1] == me:
        if len(rows) < d:  # every C_j has at most len(rows) - 1 rows
            return 0
        suffix, members = full, 0
        for t in range(len(rows) - 1, -1, -1):
            face = (prefix[t] & suffix) ^ me
            if face:
                members |= face
                remaining &= fm[rows[t]]
                if face & (face - 1) == 0:
                    found |= face
            suffix &= fm[rows[t]]
        found &= among
        if len(rows) == d:  # every other C_j has at most d - 2 rows
            return found
        remaining &= ~members
    shares = [((vmi & vm[j]).bit_count(), j) for j in _bits(remaining)]
    candidates = sorted((s for s in shares if s[0] >= d - 1), reverse=True)
    remaining = sum(1 << j for _, j in candidates)
    rows.sort(key=lambda f: fm[f].bit_count())
    for _, k in candidates:
        if not remaining >> k & 1:
            continue
        low = 1 << k
        remaining ^= low
        common, pair, shared = vmi & vm[k], me | low, full
        for f in rows:
            if common >> f & 1:
                shared &= fm[f]
                if shared == pair:
                    break
        if shared == pair:
            found |= low
        if not remaining:
            break
        hit = 0
        for f in _bits(vmi & ~vm[k]):
            hit |= fm[f]
        remaining &= hit
    return found


def adjacency_from_incidence(inc: IncidenceMatrix, d: int) -> list[tuple]:
    """Vertex adjacency of a polytope in R^d, from its incidence alone.

    Args:
        inc: the incidence of the polytope's vertex list on its rows. The
            list must be complete, as family.checked_incidence certifies:
            a missing vertex can leave a non-edge with no third vertex.
        d: the dimension of the space.

    Two vertices i and j are adjacent iff at least d-1 rows are tight at
    both (an edge's rows have rank d-1) and no third vertex lies on all of
    them: those rows cut out the smallest face that holds both (Ziegler,
    Lectures on Polytopes, ch. 2). The neighbours are found vertex by
    vertex (_neighbours) instead of over all n^2/2 pairs: first all of
    each simple vertex's (exactly d rows), then each other vertex's among
    the other vertices after it.

    Returns:
        Unordered label pairs (i, j), i before j in inc's vertex order,
        sorted by i, then j; on any incidence, those of the pairwise test.
    """
    n = len(inc.labels)
    adj, rest = [0] * n, 0
    for i, mask in enumerate(inc.vertex_masks):
        if mask.bit_count() == d:
            adj[i] = _neighbours(inc, d, i, (1 << n) - 1)
        else:
            rest |= 1 << i
    for i in range(n):
        if rest >> i & 1:
            adj[i] |= _neighbours(inc, d, i, rest & -2 << i)  # those after i
    for i in range(n):
        for j in _bits(adj[i]):
            adj[j] |= 1 << i
    return [(inc.labels[i], inc.labels[j]) for i in range(n) for j in _bits(adj[i] & -2 << i)]


class TangentCone:
    """Vertex cone: apex plus edge-direction generators."""

    __slots__ = ("apex", "generators")

    def __init__(self, apex: tuple[int, ...], generators: list[tuple[int, ...]]):
        self.apex = apex
        self.generators = generators


def tangent_cone(v: VRep, label, inc: IncidenceMatrix) -> TangentCone:
    """Cone of the polytope at one vertex.

    Args:
        v: its labeled vertex list, which must be complete.
        label: which vertex; UnknownLabel if absent.
        inc: the incidence of v on the polytope's rows.

    Returns:
        TangentCone with generators (neighbor - vertex) for every neighbor in
        the polytope graph, in vertex order. The neighbours are those of
        adjacency_from_incidence, found for this vertex alone (_neighbours).
        Raises ValueError when there are none.
    """
    apex = v.coords(label)
    i = inc.labels.index(label)
    found = _neighbours(inc, len(apex), i, (1 << len(inc.labels)) - 1)
    generators = [
        tuple(x - y for x, y in zip(v.coords(inc.labels[j]), apex)) for j in _bits(found)
    ]
    if not generators:
        raise ValueError("vertex has no neighbors")
    return TangentCone(apex, generators)


def cone_cover_test(inc: IncidenceMatrix, s: Iterable) -> bool:
    """Coverage criterion: the polytope equals the intersection of its vertex
    cones at S iff every facet contains some vertex of S."""
    members = list(s)
    if not members:
        raise EmptySet("need at least one vertex label")
    s_mask = 0
    for label in members:
        if label not in inc.labels:
            raise UnknownLabel(label)
        s_mask |= 1 << inc.labels.index(label)
    return all(fm & s_mask for fm in inc.facet_masks)


def dantzig_hrep(cone_u: TangentCone, cone_v: TangentCone) -> HRep:
    """Minimal H-representation of a Dantzig figure from its two vertex cones.

    Each cone must be simplicial: exactly d generators forming an invertible
    matrix G. The cone at apex p is {x : -G^-1 x <= -G^-1 p}; stacking both
    gives the 2d facet rows. The rows are read from the integer adjugate,
    G^-1 = adj(G) / det(G), scaled by |det(G)|.
    """
    rows: list[tuple[list[int], int]] = []
    for cone in (cone_u, cone_v):
        d = len(cone.apex)
        if len(cone.generators) != d:
            raise NonSimplicialCone(f"{len(cone.generators)} generators, need {d}")
        try:
            adj, det = adjugate(list(zip(*cone.generators)))  # generators as columns
        except SingularError as exc:
            raise NonSimplicialCone("generator matrix singular") from exc
        sign = -1 if det > 0 else 1
        for row in adj:
            normal = [sign * a for a in row]
            rows.append((normal, sum(map(mul, normal, cone.apex))))
    return HRep(rows)


def list_antipodal_pairs(inc: IncidenceMatrix) -> list[tuple]:
    """All unordered pairs of inc's vertices whose incidences partition the
    facet set (every facet contains exactly one of the two), as label pairs
    (i, j), i before j in inc's vertex order, sorted by i, then j; any
    incidence will do, complete or not. Each vertex looks up the vertices
    whose mask is the complement of its own."""
    full = (1 << len(inc.facet_ids)) - 1
    by_mask: dict[int, list[int]] = {}
    for j, mask in enumerate(inc.vertex_masks):
        by_mask.setdefault(mask, []).append(j)
    return [
        (inc.labels[i], inc.labels[j])
        for i, mask in enumerate(inc.vertex_masks)
        for j in by_mask.get(full ^ mask, ())
        if j > i
    ]


def facet_spans_ridge(inc: IncidenceMatrix, f: int) -> bool:
    """Whether row f is a facet, from tight sets; inc's vertex list must be
    complete. Then a row is a facet iff its tight vertex set is nonempty and
    no other row's set equals or contains it (Ziegler, Lectures on
    Polytopes, ch. 2). False when some row is tight at every vertex: the
    vertices then lie in a hyperplane, so the polytope is not
    full-dimensional."""
    masks = inc.facet_masks
    if (1 << len(inc.labels)) - 1 in masks:
        return False
    fm = masks[f]
    return fm != 0 and all(m & fm != fm for g, m in enumerate(masks) if g != f)
