"""Ground truth independent of the closed-form constructions.

Two oracles: (1) direct enumeration of the lattice initial segment inside
the simplex sum(x) <= b, with membership decided by two separate routes
that are cross-checked point by point; (2) vertex enumeration of an HRep
by double description (Motzkin et al. 1953; Fukuda & Prodon 1996) in exact
integer arithmetic. Both read only theta or the numeric rows, never a
closed form, so they catch errors in the clever code.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd

from .exactmath import adjugate, bareiss_echelon, primitive_row, rank_of_rows
from .orders import OrderKind, is_initial_segment_member
from .polytope_core import CheckFailed, HRep, IncidenceMatrix, VRep, check_theta_entries
from .polytope_core import facet_spans_ridge


class BudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured point budget."""


class UnboundedSuspected(RuntimeError):
    """A recession direction was detected; vertex enumeration refused."""


class NotFullDimensional(RuntimeError):
    """The vertices span less than the full dimension; facets undecided."""


DEFAULT_POINT_CAP = 2_000_000


class LatticeSegment:
    """All lattice points x >= 0 with x <= theta in the given graded order."""

    __slots__ = ("kind", "theta", "points")

    def __init__(
        self, kind: OrderKind, theta: tuple[int, ...], points: tuple[tuple[int, ...], ...]
    ):
        self.kind = kind
        self.theta = theta
        self.points = points  # colex order

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, x) -> bool:
        # bisect on the colex order: the reversed coordinates ascend
        i = bisect_left(self.points, tuple(x)[::-1], key=lambda p: p[::-1])
        return self.points[i : i + 1] == (tuple(x),)


def _lines(k: int, budget: int):
    # (x_1..x_k, budget - their sum) for sums <= budget, x_k slowest
    if k == 0:
        yield (), budget
        return
    for last in range(budget + 1):
        for tail, rest in _lines(k - 1, budget - last):
            yield tail + (last,), rest


def _simplex_points(d: int, budget: int):
    # colex order: the first coordinate varies fastest; one list per line
    if d == 0:
        return iter([()])
    return chain.from_iterable(
        [(x0,) + tail for x0 in range(rest + 1)] for tail, rest in _lines(d - 1, budget)
    )


def enumerate_segment(
    kind: OrderKind, theta, point_cap: int = DEFAULT_POINT_CAP
) -> LatticeSegment:
    """Enumerate the initial segment up to theta, in colex point order.

    Membership is decided twice per candidate: once by the graded
    comparator and once by the degree/lex decomposition (sum < b, or
    sum = b with the lex tiebreak in the direction the order dictates).
    The two verdicts must agree, else CheckFailed. Raises InvalidTheta
    unless every entry is an int >= 1 (any d is enumerated), and
    BudgetExceeded when the enclosing simplex holds more than point_cap
    lattice points.
    """
    theta = tuple(theta)
    check_theta_entries(theta)
    d, b = len(theta), sum(theta)
    simplex_size = comb(b + d, d)
    if simplex_size > point_cap:
        raise BudgetExceeded(
            f"simplex holds {simplex_size} points, cap is {point_cap}"
        )
    grlex, rtheta = kind is OrderKind.GRLEX, theta[::-1]
    keep = []
    for x in _simplex_points(d, b):
        direct = is_initial_segment_member(kind, x, theta)
        # at s == b the lex tiebreak: grlex keeps x <= theta, grevlex x >= theta
        split = sum(x) < b or (x[::-1] <= rtheta if grlex else x[::-1] >= rtheta)
        if direct != split:
            raise CheckFailed(f"membership routes disagree at {x}")
        if direct:
            keep.append(x)
    return LatticeSegment(kind=kind, theta=theta, points=tuple(keep))


class BasisVertexSet:
    """Vertices of an HRep in sorted order, with their tight row indices."""

    __slots__ = ("coords", "tight_rows")

    def __init__(
        self,
        coords: tuple[tuple[int | Fraction, ...], ...],
        tight_rows: tuple[tuple[int, ...], ...],
    ):
        self.coords = coords
        self.tight_rows = tight_rows

    def __len__(self) -> int:
        return len(self.coords)

    def coordinate_set(self) -> frozenset:
        return frozenset(self.coords)


@lru_cache(maxsize=1)
def _extreme_rays(h: HRep) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Extreme rays of the cone {(x,t) : a·x - beta·t <= 0 per row, t >= 0}.

    Incremental double description: start from the simplicial cone of d+1
    linearly independent rows (t >= 0 first), then cut with the remaining
    rows one at a time. Rays are primitive integer vectors; each carries the
    bitmask of processed rows it is tight on (bit 0 is t >= 0, bit i+1 is
    row i of h). A (+,-) pair makes a new ray only if it passes the
    combinatorial adjacency test: no third ray is tight on every row on
    which both rays of the pair are tight. Raises UnboundedSuspected when
    the rows have rank below d+1 (the polyhedron contains a line) or a ray
    has t = 0 (a recession direction), so each ray (x, t) is a vertex x/t.
    The last run is cached by HRep identity (HRep has no __eq__) as a tuple
    no caller can change, so the checks of one verify call share one run.
    """
    d = h.dim
    rows = [(0,) * d + (-1,)] + [
        tuple(a * beta.denominator for a in normal) + (-beta.numerator,)
        for normal, beta in h.rows()
    ]
    start = bareiss_echelon(list(zip(*rows)))[1]  # first independent rows
    if len(start) < d + 1:
        raise UnboundedSuspected("the polyhedron contains a line")
    # column j of -B^-1 = -adj(B) / det(B) is tight on every start row
    # except start[j]
    adj, det = adjugate([rows[i] for i in start])
    sign = -1 if det > 0 else 1
    every = sum(1 << i for i in start)
    rays = [
        (primitive_row([sign * a for a in col]), every & ~(1 << i))
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
                # a 2-face of the (d+1)-space cone is cut out by >= d-1 rows
                if common.bit_count() < d - 1:
                    continue
                if sum(z & common == common for z in masks) > 2:
                    continue
                new = [sp * yn - sn * yp for yp, yn in zip(rp, rn)]
                g = gcd(*new)
                kept.append((tuple(y // g for y in new), common | bit))
        rays = kept
    for ray, _ in rays:
        if ray[d] == 0:
            raise UnboundedSuspected(f"recession ray {ray[:d]}")
    return tuple(rays)


def hull_vertices_by_basis(h: HRep) -> BasisVertexSet:
    """All vertices of {x : Ax <= beta}, with the rows tight at each.

    Vertex enumeration by double description of the homogenized cone (see
    _extreme_rays): each extreme ray (x, t) is the vertex x/t, whose
    coordinates are ints where t divides them and Fractions elsewhere.
    Raises UnboundedSuspected on a recession ray. Only the numeric rows are
    read.
    """
    d = h.dim
    found = []
    for ray, mask in _extreme_rays(h):
        t = ray[d]
        tight = tuple(i for i in range(len(h.normals)) if mask >> (i + 1) & 1)
        coords = tuple(y // t if y % t == 0 else Fraction(y, t) for y in ray[:d])
        found.append((coords, tight))
    found.sort()
    return BasisVertexSet(
        coords=tuple(x for x, _ in found), tight_rows=tuple(r for _, r in found)
    )


def verify_hull_equivalence(segment: LatticeSegment, h: HRep, v: VRep) -> dict:
    """Cross-checks tying the lattice segment, the HRep, and the VRep.

    (a) every segment point satisfies the inequalities; (b) vertex
    enumeration of the HRep yields exactly the VRep coordinates; (c) every
    VRep coordinate is a segment point; (d) every vertex has a rank-d
    tight subsystem. Returns per-check booleans plus overall "pass".
    """
    basis = hull_vertices_by_basis(h)
    report = {
        "segment_in_hrep": h.contains_all(segment.points),
        "basis_equals_closed_form": basis.coordinate_set() == v.coordinate_set(),
        "vertices_in_segment": all(coords in segment for _, coords in v),
        "vertex_certificates": all(
            rank_of_rows([h.normals[i] for i in rows]) == h.dim
            for rows in basis.tight_rows
        ),
    }
    report["pass"] = all(report.values())
    return report


def facet_irredundancy(h: HRep) -> list[dict]:
    """Per-row evidence that dropping the row changes the polytope.

    One double-description run gives the complete vertex list with the tight
    rows of each, so a row is needed iff facet_spans_ridge holds: its tight
    set is nonempty and no other row's equals or contains it. Raises
    UnboundedSuspected on a recession ray, and NotFullDimensional when there
    is no vertex or a row is tight at every vertex (such rows cut out the
    affine hull; Schrijver, Theory of Linear and Integer Programming, 8.2).
    """
    rays = _extreme_rays(h)
    inc = IncidenceMatrix(range(len(rays)), range(len(h)), [z >> 1 for _, z in rays])
    if not rays or (1 << len(rays)) - 1 in inc.facet_masks:
        raise NotFullDimensional(f"{len(rays)} vertices, not full-dimensional")
    copies = Counter(h.rows())
    out = []
    for i, row in enumerate(h.rows()):
        changed = facet_spans_ridge(inc, i)
        tight = inc.facet_masks[i].bit_count()
        evidence = f"{tight} tight vertices, {'' if changed else 'not '}a facet"
        if copies[row] > 1:
            evidence = f"one of {copies[row]} equal rows"
        out.append({"row": i, "changed": changed, "evidence": evidence})
    return out
