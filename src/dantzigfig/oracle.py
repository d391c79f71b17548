"""Ground truth independent of the closed-form constructions.

Two oracles: (1) the lattice initial segment as O(d) lattice polytopes
whose O(d^2) vertices are read off theta and the order alone, each vertex
a segment member by two separate membership routes that are cross-checked,
and checked against the inequalities one by one with HRep.contains;
(2) vertex enumeration of an HRep by double description (Motzkin et al.
1953; Fukuda & Prodon 1996) in integers: the stored integer rows are
homogenized as they are, and a Fraction appears only in a vertex that is
not a lattice point. Both read only
theta or the numeric rows, never a closed form, so they catch errors in the
clever code. Direct enumeration of the segment (enumerate_segment) is the
tests' referee for the pieces.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb
from operator import mul

from .exactmath import adjugate, bareiss_echelon, primitive
from .orders import OrderKind, is_initial_segment_member
from .polytope_core import CheckFailed, HRep, IncidenceMatrix, VRep, check_theta_entries
from .polytope_core import UnsupportedDimension, facet_spans_ridge


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


def _member(kind: OrderKind, x: tuple[int, ...], theta: tuple[int, ...]) -> bool:
    """Whether the nonnegative integer vector x (of theta's length) is in the
    segment, decided twice: once by the graded comparator and once by the
    degree/lex decomposition (sum < b, or sum = b with the lex tiebreak in
    the direction the order dictates). Raises CheckFailed unless the two
    verdicts agree."""
    direct = is_initial_segment_member(kind, x, theta)
    s, b = sum(x), sum(theta)
    # at s == b the lex tiebreak: grlex keeps x <= theta, grevlex x >= theta
    tie = x[::-1] <= theta[::-1] if kind is OrderKind.GRLEX else x[::-1] >= theta[::-1]
    if direct != (s < b or s == b and tie):
        raise CheckFailed(f"membership routes disagree at {x}")
    return direct


def enumerate_segment(
    kind: OrderKind, theta, point_cap: int = DEFAULT_POINT_CAP
) -> LatticeSegment:
    """Enumerate the initial segment up to theta, in colex point order.

    Every lattice point of the simplex sum(x) <= b is a candidate, decided by
    both membership routes (_member). This walk is the tests' referee for
    segment_pieces; the verify path never enumerates. Raises InvalidTheta
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
    keep = [x for x in _simplex_points(d, b) if _member(kind, x, theta)]
    return LatticeSegment(kind=kind, theta=theta, points=tuple(keep))


def _slice_corners(k: int, total: int, tail: tuple[int, ...]) -> list[tuple[int, ...]]:
    # the vertices total·e_i (i < k) of {y in Z^k : y >= 0, sum(y) = total}, then tail
    return [(0,) * i + (total,) + (0,) * (k - 1 - i) + tail for i in range(k)]


def segment_pieces(
    kind: OrderKind, theta
) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], int]:
    """The initial segment as lattice polytopes: (the vertices of each, size).

    Coordinates are 1-indexed, the last is most significant, and
    s_k = theta_1 + ... + theta_k. A point of degree below b = s_d is in the
    segment, and a point of degree b other than theta first differs from
    theta at some coordinate k >= 2, counted from the top. So the segment is
    the disjoint union of the lattice points of
      - (b-1)Δ, with vertices 0 and (b-1)e_i;
      - theta itself;
      - for k = 2..d, Q_k = {x >= 0 : x_j = theta_j for j > k,
        x_1 + ... + x_k = s_k, lo <= x_k <= hi}, with lo, hi = 0, theta_k - 1
        for grlex and theta_k + 1, s_k for grevlex. Its vertices are the
        points with x_k at lo or hi and s_k - x_k on one of x_1..x_{k-1}.
    Every piece vertex is an integer point of its piece, so the hull of the
    segment is the hull of the piece vertices. The size counts the points:
    C(b-1+d, d) + 1 + sum over k and x_k = lo..hi of C(s_k-x_k+k-2, k-2).
    Reads only theta and the order. Raises ValueError for an order that is
    not graded, InvalidTheta unless every entry is an int >= 1, and
    UnsupportedDimension for d = 0.
    """
    theta = tuple(theta)
    check_theta_entries(theta)
    if kind not in (OrderKind.GRLEX, OrderKind.GREVLEX):
        raise ValueError(f"not a graded order: {kind}")
    if not theta:
        raise UnsupportedDimension("d = 0: the segment is the single point ()")
    d, b = len(theta), sum(theta)
    pieces = [
        tuple(dict.fromkeys([(0,) * d] + _slice_corners(d, b - 1, ()))),
        (theta,),
    ]
    size = comb(b - 1 + d, d) + 1
    s = theta[0]
    for k in range(2, d + 1):
        t = theta[k - 1]
        s += t
        lo, hi = (0, t - 1) if kind is OrderKind.GRLEX else (t + 1, s)
        corners = [
            x for xk in (lo, hi) for x in _slice_corners(k - 1, s - xk, (xk,) + theta[k:])
        ]
        pieces.append(tuple(dict.fromkeys(corners)))
        size += sum(comb(s - xk + k - 2, k - 2) for xk in range(lo, hi + 1))
    return tuple(pieces), size


def _extreme_rays(h: HRep) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Extreme rays of the cone {(x,t) : a·x - beta·t <= 0 per row, t >= 0}
    over the rows (a, beta) of any HRep h; no vertex list is read.

    Incremental double description over the rows (normal, -beta) of h:
    start from the simplicial cone of d+1 linearly independent rows (t >= 0
    first), then cut with the remaining rows one at a time in lexmin order,
    i.e. sorted as integer tuples (cdd's default; Fukuda & Prodon 1996).
    The order reads only the numeric rows, so every HRep gets the same rule.
    Rays are primitive integer vectors (exactmath.primitive); each carries
    the bitmask of processed rows it is tight on (bit 0 is t >= 0, bit i+1
    is row i of h). Each row splits the rays once into (+), (-) and 0, and
    a (+,-) pair makes a new ray only if it passes the combinatorial
    adjacency test: no third ray is tight on every row on which both rays
    of the pair are tight. The ray set does not depend on the order; the
    order of the returned tuple does. Raises UnboundedSuspected when the
    rows have rank below d+1 (the polyhedron contains a line) or a ray has
    t = 0 (a recession direction), so each ray (x, t) is a vertex x/t.
    The run is kept on h as a tuple no caller can change, so the checks of
    one verify call share one run.
    """
    if h._rays is not None:
        return h._rays
    d = h.dim
    rows = [(0,) * d + (-1,)] + [normal + (-beta,) for normal, beta in h.rows()]
    start = bareiss_echelon(list(zip(*rows)))[1]  # first independent rows
    if len(start) < d + 1:
        raise UnboundedSuspected("the polyhedron contains a line")
    # column j of -B^-1 = -adj(B) / det(B) is tight on every start row
    # except start[j]
    adj, det = adjugate([rows[i] for i in start])
    sign = -1 if det > 0 else 1
    every = sum(1 << i for i in start)
    rays = [
        (primitive([sign * a for a in col]), every & ~(1 << i))
        for col, i in zip(zip(*adj), start)
    ]
    rest = sorted(set(range(len(rows))).difference(start), key=rows.__getitem__)
    for k in rest:
        bit, row = 1 << k, rows[k]
        plus, minus, kept = [], [], []
        for ray, z in rays:
            s = sum(map(mul, row, ray))
            if s > 0:
                plus.append((ray, z, s))
            elif s < 0:
                minus.append((ray, z, s))
                kept.append((ray, z))
            else:
                kept.append((ray, z | bit))
        masks = [z for _, z in rays]
        for rp, zp, sp in plus:
            for rn, zn, sn in minus:
                common = zp & zn
                # a 2-face of the (d+1)-space cone is cut out by >= d-1 rows
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
    h._rays = tuple(rays)
    return h._rays


def hull_vertices_by_basis(h: HRep) -> frozenset:
    """The vertices of {x : Ax <= beta}, as a frozenset of coordinate tuples.

    Vertex enumeration by double description of the homogenized cone (see
    _extreme_rays): each extreme ray (x, t) is the vertex x/t, whose
    coordinates are ints where t divides them and Fractions elsewhere.
    Raises UnboundedSuspected on a recession ray. Only the numeric rows are
    read; the rows tight at each vertex are the masks of _extreme_rays.
    """
    d = h.dim
    found = set()
    for ray, _ in _extreme_rays(h):
        t = ray[d]
        found.add(tuple(y // t if y % t == 0 else Fraction(y, t) for y in ray[:d]))
    return frozenset(found)


def verify_hull_equivalence(kind: OrderKind, theta, h: HRep, v: VRep) -> dict:
    """Cross-checks tying the initial segment of theta, the HRep, and the VRep.

    (a) every piece vertex of segment_pieces is a segment member by both
    routes and satisfies the inequalities, so by convexity every segment
    point does; (b) vertex enumeration of the HRep yields exactly the VRep
    coordinates; (c) every VRep coordinate is a piece vertex and a segment
    member by both routes; (d) every vertex has a rank-d tight subsystem,
    read through HRep.tight_rank, so a certificate that incidence already
    computed on h is not computed again.
    Returns per-check booleans, overall "pass" and "segment_points", the
    size of the segment.
    """
    theta = tuple(theta)
    pieces, size = segment_pieces(kind, theta)
    corners = {x for piece in pieces for x in piece}
    report = {
        "segment_in_hrep": all(_member(kind, x, theta) for x in corners)
        and all(map(h.contains, corners)),
        "basis_equals_closed_form": hull_vertices_by_basis(h) == v.coordinate_set(),
        "vertices_in_segment": all(
            coords in corners and _member(kind, coords, theta) for _, coords in v
        ),
        "vertex_certificates": all(
            h.tight_rank(z >> 1) == h.dim for _, z in _extreme_rays(h)
        ),
    }
    report["pass"] = all(report.values())
    report["segment_points"] = size
    return report


def facet_irredundancy(h: HRep) -> list[bool]:
    """Per row, whether dropping it changes the polytope.

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
    return [facet_spans_ridge(inc, i) for i in range(len(h))]
