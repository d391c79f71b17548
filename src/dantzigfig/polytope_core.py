"""Generic exact polytope machinery.

H- and V-representations with integer normals and exact (integer where
integral, else rational) right-hand sides, vertex-facet incidence,
adjacency, tangent cones, the cone-coverage criterion, antipodal pair
listing, and the two-cone H-representation builder used for Dantzig-figure
certification, plus the theta check and the CheckFailed error both families
share. Everything here is dimension-agnostic; the construction recipe the
families share lives in `family`, their closed forms in the grlex/grevlex
modules. The functions that read the incidence of (h, v) take it as `inc`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import islice
from math import floor, lcm
from operator import itemgetter, mul
from typing import Iterable, Optional, Sequence

from .exactmath import SingularError, adjugate, primitive_row, rank_of_rows


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
    (rank of kind, k, j, kind): its tuple order is sort_key(), so ==, hash
    and sorting run as tuple operations, and the kind string keeps a label
    unequal to any coordinate tuple and to any FacetId.
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

    def sort_key(self) -> tuple[int, int, int]:
        return self[:3]

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


def _over_common_denominator(point: Sequence) -> tuple[Sequence[int], int]:
    """Integer numerators of a rational point and their common denominator."""
    if all(type(x) is int for x in point):
        return point, 1
    den = lcm(*(Fraction(x).denominator for x in point))
    return [int(x * den) for x in point], den


class HRep:
    """Inequality system A·x <= beta with primitive integer normals.

    Rows are stored as (normal tuple, rhs); construction rescales each row
    by a positive rational so the normal is integral with gcd 1. The rhs is
    then an int when integral, else a Fraction. ``ids`` optionally names
    each facet.
    """

    __slots__ = ("normals", "rhs", "ids", "dim")
    CONTAINS_CHUNK = 1024  # points per packed test in contains_all

    def __init__(
        self,
        rows: Iterable[tuple[Sequence, object]],
        ids: Optional[Sequence[FacetId]] = None,
    ):
        normals: list[tuple[int, ...]] = []
        rhs: list[int | Fraction] = []
        for normal, beta in rows:
            prim = primitive_row(normal)  # ValueError for a zero normal
            # the factor is positive because primitive_row only rescales
            factor = next(Fraction(p) / a for p, a in zip(prim, normal) if a)
            beta = Fraction(beta) * factor
            normals.append(prim)
            rhs.append(beta.numerator if beta.denominator == 1 else beta)
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

    def __len__(self) -> int:
        return len(self.normals)

    def rows(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        return list(zip(self.normals, self.rhs))

    def contains(self, point: Sequence) -> bool:
        p, den = _over_common_denominator(point)
        return all(
            sum(map(mul, n, p)) <= b * den for n, b in zip(self.normals, self.rhs)
        )

    def contains_all(self, points: Iterable[Sequence]) -> bool:
        """all(map(self.contains, points)), decided CONTAINS_CHUNK points at a time.

        Coordinate j of a chunk is packed into C_j = sum_k x_kj 2^(wk). For a row
        (a, beta), T = (floor(beta) + 2^(w-1)) sum_k 2^(wk) - sum_j a_j C_j holds
        f_k = floor(beta) - a·x_k + 2^(w-1) in field k, as w makes 2^(w-1) exceed
        |floor(beta)| + sum_j |a_j| max_k x_kj: f_k is in (0, 2^w), and no borrow
        or carry crosses a field. As a·x_k is an integer, x_k meets the row iff the
        top bit of field k is set; one & over the rows tests the chunk. A chunk with
        a point that is not a length-dim vector of ints in [0, 2^64) uses contains.
        """
        from array import array  # a shared library, kept off `import dantzigfig`

        it = iter(points)
        while chunk := list(islice(it, self.CONTAINS_CHUNK)):
            try:
                if set(map(len, chunk)) != {self.dim}:
                    raise TypeError("ragged points")
                cols = [array("Q", col) for col in zip(*chunk)]
            except (TypeError, OverflowError):
                if all(map(self.contains, chunk)):
                    continue
                return False
            floors, tops = [floor(b) for b in self.rhs], [max(col) for col in cols]
            bound = max(
                abs(f) + sum(map(mul, map(abs, a), tops))
                for a, f in zip(self.normals, floors)
            )
            n, w = len(chunk), 64 * (bound.bit_length() // 64 + 1)  # 2^(w-1) > bound
            packed = []
            for col in cols:
                wide = array("Q", bytes(w // 8 * n))
                memoryview(wide)[:: w // 64] = col
                if sys.byteorder == "big":
                    wide.byteswap()
                packed.append(int.from_bytes(wide.tobytes(), "little"))
            half, ones = 1 << (w - 1), ((1 << w * n) - 1) // ((1 << w) - 1)
            acc = top_bits = half * ones
            for normal, f in zip(self.normals, floors):
                acc &= (f + half) * ones - sum(a * c for a, c in zip(normal, packed) if a)
            if acc != top_bits:
                return False
        return True

    def slacks(self, point: Sequence) -> tuple[int | Fraction, ...]:
        """beta - a·x per row: ints for an integral point and rhs."""
        p, den = _over_common_denominator(point)
        dots = (sum(map(mul, n, p)) for n in self.normals)
        if den > 1:
            dots = (Fraction(dot, den) for dot in dots)
        return tuple(b - dot for b, dot in zip(self.rhs, dots))

    def same_polytope_rows(self, other: "HRep") -> bool:
        """Equality of the two systems up to row order (rows are canonical)."""
        return sorted(self.rows()) == sorted(other.rows())

    def __repr__(self) -> str:
        return f"HRep({len(self.normals)} rows, dim {self.dim})"


class VRep:
    """Ordered list of labeled integer vertices."""

    __slots__ = ("entries", "_by_label")

    def __init__(self, entries: Iterable[tuple[object, Sequence[int]]]):
        ordered = [(label, tuple(int(c) for c in coords)) for label, coords in entries]
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

    def tight_facets(self, label) -> list:
        i = self.labels.index(label)
        vm = self.vertex_masks[i]
        return [fid for f, fid in enumerate(self.facet_ids) if vm >> f & 1]

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
        tight_normals = [h.normals[f] for f in range(len(h)) if mask >> f & 1]
        if mask.bit_count() < d or rank_of_rows(tight_normals) < d:
            raise InfeasibleVertex(f"{label} lacks a rank-{d} tight system")
        masks.append(mask)
    ids = list(h.ids) if h.ids is not None else list(range(len(h)))
    return IncidenceMatrix(labels, ids, masks)


def _adjacent(h: HRep, inc: IncidenceMatrix, i: int, j: int) -> bool:
    """Whether vertices i and j span an edge: the normals tight at both
    have rank d-1. A cheap test runs before the rank: the AND of those
    facets' masks must be {i, j}, since a third vertex on all of them means
    no edge. For grevlex at d = 16 it rejects 2,730 of the 4,106 pairs
    with d-1 common facets."""
    common = inc.vertex_masks[i] & inc.vertex_masks[j]
    if common.bit_count() < h.dim - 1:
        return False
    tight = [f for f in range(len(h)) if common >> f & 1]
    shared = (1 << len(inc.labels)) - 1
    for f in tight:
        shared &= inc.facet_masks[f]
    if shared != 1 << i | 1 << j:
        return False
    return rank_of_rows([h.normals[f] for f in tight]) == h.dim - 1


def adjacency_from_incidence(h: HRep, inc: IncidenceMatrix) -> list[tuple]:
    """Vertex adjacency (see _adjacent) over all pairs. Returns unordered
    label pairs, deterministic order."""
    n = len(inc.labels)
    return [
        (inc.labels[i], inc.labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if _adjacent(h, inc, i, j)
    ]


class TangentCone:
    """Vertex cone: apex plus edge-direction generators and tight rows."""

    __slots__ = ("apex", "generators", "tight_rows")

    def __init__(
        self,
        apex: tuple[int, ...],
        generators: list[tuple[int, ...]],
        tight_rows: list[tuple[tuple[int, ...], int | Fraction]],
    ):
        self.apex = apex
        self.generators = generators
        self.tight_rows = tight_rows

    def hrep(self) -> HRep:
        """The cone as inequalities; the apex is tight on every row."""
        return HRep([(n, sum(a * x for a, x in zip(n, self.apex))) for n, _ in self.tight_rows])


def tangent_cone(h: HRep, v: VRep, label, inc: IncidenceMatrix) -> TangentCone:
    """Cone of the polytope at one vertex.

    Args:
        h: facet system of the polytope.
        v: its labeled vertex list.
        label: which vertex; UnknownLabel if absent.
        inc: the incidence of (h, v).

    Returns:
        TangentCone with generators (neighbor - vertex) for every neighbor in
        the polytope graph, in vertex order, and the tight inequality rows at
        the vertex.
    """
    apex = v.coords(label)
    i = inc.labels.index(label)
    vm = inc.vertex_masks[i]
    tight = [(h.normals[f], h.rhs[f]) for f in range(len(h)) if vm >> f & 1]
    generators = [
        tuple(x - y for x, y in zip(v.coords(other), apex))
        for j, other in enumerate(inc.labels)
        if j != i and _adjacent(h, inc, i, j)
    ]
    if not generators:
        raise ValueError("vertex has no neighbors")
    return TangentCone(apex, generators, tight)


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
    """All unordered vertex pairs whose incidences partition the facet set
    (every facet contains exactly one of the two)."""
    n, masks = len(inc.labels), inc.vertex_masks
    full = (1 << len(inc.facet_ids)) - 1
    return [
        (inc.labels[i], inc.labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if masks[i] ^ masks[j] == full
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
