"""Independent oracles: lattice segments, their pieces and the vertex oracle.

Segment sizes below were frozen from runs of this module and are kept as
regression pins. enumerate_segment decides every candidate twice, by the
order's sort key and by the degree/lex split, and raises CheckFailed when
the two disagree; a test flips one verdict of the first route to keep that
check live, and the recursive generator the line-at-a-time simplex walk
replaced is kept as its referee. The enumerated segment is in turn the
referee of segment_pieces, which the verify path uses: the lattice points
of the pieces, read off their vertices, must equal it point for point.
Check (a) tests the piece vertices with HRep.contains, which
test_polytope_core_random.py checks against the slacks. The
double-description vertex oracle is refereed by a naive basis scan, which
is only fast enough for d <= 7. Facet irredundancy, decided from one double-description run, is
refereed by the row-drop rerun: drop each row and compare the vertex sets.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dantzigfig import oracle
from dantzigfig.exactmath import rank_of_rows
from dantzigfig.oracle import (
    DEFAULT_POINT_CAP,
    BudgetExceeded,
    NotFullDimensional,
    UnboundedSuspected,
    _simplex_points,
    enumerate_segment,
    facet_irredundancy,
    hull_vertices_by_basis,
    segment_pieces,
    verify_hull_equivalence,
)
from dantzigfig.orders import OrderKind
from dantzigfig.polytope_core import (
    CheckFailed,
    HRep,
    InvalidTheta,
    UnsupportedDimension,
    VRep,
)
from dantzigfig.grlex_family import grlex_hrep, grlex_vertices, make_grlex
from dantzigfig.grevlex_family import (
    grevlex_hrep,
    grevlex_vertices,
    make_grevlex,
)
from referees import extreme_rays_in_row_order

F = Fraction

SEGMENT_SIZES = {
    # theta -> (grlex size, grevlex size)
    (2, 2, 2): (72, 69),
    (3, 1, 2): (71, 70),
    (1, 1, 1): (16, 15),
    (2, 3, 2, 1): (394, 432),
    (1, 1, 1, 1): (56, 50),
    (5, 5, 5): (756, 741),
    (2, 2, 2, 2, 2): (2605, 2401),
}


# ----------------------------------------------------------- segments


def test_simplex_points_colex_head():
    pts = list(_simplex_points(2, 2))
    assert pts[:4] == [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert len(pts) == 6  # C(4,2)


def test_simplex_points_cover_and_order():
    pts = list(_simplex_points(3, 3))
    assert len(pts) == len(set(pts)) == 20  # C(6,3)
    assert all(sum(p) <= 3 for p in pts)
    # colex: last coordinate is the slowest index
    lasts = [p[-1] for p in pts]
    assert lasts == sorted(lasts)


def recursive_simplex_points(d, budget):
    """The recursive generator that _simplex_points replaced: colex order,
    one generator frame per coordinate for every point."""
    if d == 1:
        for x in range(budget + 1):
            yield (x,)
        return
    for last in range(budget + 1):
        for rest in recursive_simplex_points(d - 1, budget - last):
            yield rest + (last,)


@pytest.mark.parametrize("d", range(1, 7))
def test_simplex_points_match_recursive_generator(d):
    for budget in range(9):
        assert list(_simplex_points(d, budget)) == list(
            recursive_simplex_points(d, budget)
        )


@pytest.mark.parametrize("kind", [OrderKind.GRLEX, OrderKind.GREVLEX])
@pytest.mark.parametrize("theta", [(2, 2, 2), (3, 1, 2, 1), (1, 4)])
def test_route_one_runs_on_every_candidate(monkeypatch, kind, theta):
    seen = []
    member = oracle.is_initial_segment_member

    def counted(kind, x, theta):
        seen.append(x)
        return member(kind, x, theta)

    monkeypatch.setattr(oracle, "is_initial_segment_member", counted)
    enumerate_segment(kind, theta)
    b, d = sum(theta), len(theta)
    assert len(seen) == len(set(seen)) == comb(b + d, d)


@pytest.mark.parametrize("kind", [OrderKind.GRLEX, OrderKind.GREVLEX])
@pytest.mark.parametrize("flip", [(0, 0, 0), (1, 0, 2), (2, 2, 2), (0, 0, 6), (6, 0, 0)])
def test_route_disagreement_raises(monkeypatch, kind, flip):
    member = oracle.is_initial_segment_member

    def flipped(kind, x, theta):
        return member(kind, x, theta) != (x == flip)

    monkeypatch.setattr(oracle, "is_initial_segment_member", flipped)
    with pytest.raises(CheckFailed, match=rf"disagree at \({', '.join(map(str, flip))}\)$"):
        enumerate_segment(kind, (2, 2, 2))


@pytest.mark.parametrize(
    "kind,theta,points",
    [
        (OrderKind.GRLEX, (), ((),)),
        (OrderKind.GREVLEX, (), ((),)),
        (OrderKind.GRLEX, (2,), ((0,), (1,), (2,))),
        (OrderKind.GREVLEX, (2,), ((0,), (1,), (2,))),
        # degree 2 ties: grlex keeps (2,0), grevlex keeps (0,2)
        (OrderKind.GRLEX, (1, 1), ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1))),
        (OrderKind.GREVLEX, (1, 1), ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))),
    ],
)
def test_segment_in_dimensions_0_to_2(kind, theta, points):
    seg = enumerate_segment(kind, theta)
    assert seg.points == points
    members = set(seg.points)
    assert all(x in members for x in points)


def test_vertices_in_segment_rejects_negative_and_wrong_length():
    inst = make_grlex((2, 2, 2))
    h = grlex_hrep(inst)
    for bad in [(-1, 0, 0), (0, 0), (0, 0, 0, 0), (0, 0, 7), (1, 1, 1)]:
        v = VRep(list(grlex_vertices(inst)) + [("bad", bad)])
        report = verify_hull_equivalence(OrderKind.GRLEX, (2, 2, 2), h, v)
        assert report["vertices_in_segment"] is False
        assert report["pass"] is False


@pytest.mark.parametrize("theta,sizes", sorted(SEGMENT_SIZES.items()))
def test_segment_sizes_frozen(theta, sizes):
    p = enumerate_segment(OrderKind.GRLEX, theta)
    q = enumerate_segment(OrderKind.GREVLEX, theta)
    assert (len(p), len(q)) == sizes


def test_segment_membership_protocol():
    seg = enumerate_segment(OrderKind.GRLEX, (2, 2, 2))
    members = set(seg.points)
    assert len(members) == len(seg)
    assert (0, 0, 0) in members
    assert (2, 2, 2) in members
    assert (0, 0, 6) not in members  # degree 6 but lex-greater than theta
    assert (6, 0, 0) in members  # degree 6 and lex-smaller
    assert (0, 0, 7) not in members
    assert (1, 0, 6) not in members  # degree 7, above b


def test_segment_top_levels_partition():
    # at top degree b, grlex keeps the lex-smaller points and grevlex the
    # rest plus theta itself: sizes add up to one full level plus 1
    theta = (2, 2, 2)
    b, d = sum(theta), len(theta)
    level = [x for x in _simplex_points(d, b) if sum(x) == b]
    p = enumerate_segment(OrderKind.GRLEX, theta)
    q = enumerate_segment(OrderKind.GREVLEX, theta)
    p_top = sum(1 for x in p.points if sum(x) == b)
    q_top = sum(1 for x in q.points if sum(x) == b)
    assert p_top + q_top == len(level) + 1


def test_segment_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_segment(OrderKind.GRLEX, (50, 50, 50, 50, 50), point_cap=1000)
    assert DEFAULT_POINT_CAP == 2_000_000


@pytest.mark.parametrize("theta", [(2.9, 2, 2), (True, 2, 2), (0, 2, 2), (2, -1)])
def test_segment_rejects_invalid_theta(theta):
    # coercing these would enumerate the segment of another theta
    with pytest.raises(InvalidTheta):
        enumerate_segment(OrderKind.GRLEX, theta)
    with pytest.raises(InvalidTheta):
        segment_pieces(OrderKind.GRLEX, theta)


# ----------------------------------------------------- segment pieces


def slice_vertices(tail, m, total, lo, hi):
    """Vertices of {x >= 0 : x_j = tail for j > m, x_1 + ... + x_m = total,
    lo <= x_m <= hi}: x_m at lo or hi and the rest of total on one of
    x_1..x_{m-1} (1-indexed)."""
    return {
        tuple((total - xm) * (i == c) for c in range(m - 1)) + (xm,) + tail
        for xm in (lo, hi)
        for i in range(m - 1)
    }


def piece_points(piece):
    """The lattice points of conv(piece), read off its vertices alone.

    A piece with vertex sums that differ must be a simplex conv{0, r e_i};
    its points are all x >= 0 with sum(x) <= r. Otherwise the vertices share
    the coordinates above the last one m at which they differ, share the sum
    of x_1..x_m, and must be exactly the vertices of the slice where x_m
    runs over their range; its points are enumerated.
    """
    d = len(piece[0])
    if len({sum(x) for x in piece}) > 1:
        r = max(map(sum, piece))
        corners = {tuple(r * (i == c) for c in range(d)) for i in range(d)}
        assert set(piece) == {(0,) * d} | corners
        return list(_simplex_points(d, r))
    varying = [c for c in range(d) if len({x[c] for x in piece}) > 1]
    if not varying:
        assert len(piece) == 1
        return list(piece)
    m = varying[-1] + 1
    tail, total = piece[0][m:], sum(piece[0][:m])
    lo, hi = min(x[m - 1] for x in piece), max(x[m - 1] for x in piece)
    assert set(piece) == slice_vertices(tail, m, total, lo, hi)
    return [
        head + (xm,) + tail
        for xm in range(lo, hi + 1)
        for head in _simplex_points(m - 1, total - xm)
        if sum(head) == total - xm
    ]


def assert_pieces_match_enumeration(kind, theta):
    pieces, size = segment_pieces(kind, theta)
    points = sorted(x for piece in pieces for x in piece_points(piece))
    expected = sorted(enumerate_segment(kind, theta).points)
    assert points == expected, (kind, theta)  # disjoint pieces, no point missed
    assert size == len(expected), (kind, theta)
    assert all(oracle._member(kind, x, theta) for piece in pieces for x in piece)


# every theta in {1,2,3}^d for d = 1..5, and seeded draws at d = 6, 7
PIECE_THETAS = [t for d in range(1, 6) for t in product((1, 2, 3), repeat=d)]
PIECE_DRAWS = [
    tuple(random.Random(600 + i).randint(1, hi) for _ in range(d))
    for d, hi in ((6, 3), (7, 2))
    for i in range(4)
]


CONSTRUCTIONS = {
    OrderKind.GRLEX: (make_grlex, grlex_hrep, grlex_vertices),
    OrderKind.GREVLEX: (make_grevlex, grevlex_hrep, grevlex_vertices),
}


@pytest.mark.parametrize("kind", [OrderKind.GRLEX, OrderKind.GREVLEX])
def test_segment_pieces_match_enumeration(kind):
    make, _, vertices = CONSTRUCTIONS[kind]
    for theta in PIECE_THETAS + PIECE_DRAWS:
        assert_pieces_match_enumeration(kind, theta)
        if len(theta) >= 3:
            corners = {x for piece in segment_pieces(kind, theta)[0] for x in piece}
            assert vertices(make(theta)).coordinate_set() <= corners, theta


def test_segment_pieces_grevlex_example():
    pieces, size = segment_pieces(OrderKind.GREVLEX, (2, 1, 3))
    assert pieces == (
        ((0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5)),  # 5Δ
        ((2, 1, 3),),  # theta
        ((1, 2, 3), (0, 3, 3)),  # Q_2: x_2 from 2 to s_2 = 3
        ((2, 0, 4), (0, 2, 4), (0, 0, 6)),  # Q_3: x_3 from 4 to s_3 = 6
    )
    assert size == 56 + 1 + 2 + (3 + 2 + 1)


def test_segment_pieces_refuse_d0_and_lex():
    with pytest.raises(UnsupportedDimension):
        segment_pieces(OrderKind.GRLEX, ())
    with pytest.raises(ValueError, match="not a graded order"):
        segment_pieces("lex", (1, 2))


@pytest.mark.parametrize("kind", [OrderKind.GRLEX, OrderKind.GREVLEX])
def test_verify_hull_equivalence_never_enumerates(monkeypatch, kind):
    def refuse(*args):
        raise AssertionError("the verify path enumerated lattice points")

    monkeypatch.setattr(oracle, "_simplex_points", refuse)
    monkeypatch.setattr(oracle, "enumerate_segment", refuse)
    theta = (3, 3, 3) + (2,) * 17
    make, hrep, vertices = CONSTRUCTIONS[kind]
    inst = make(theta)
    report = verify_hull_equivalence(kind, theta, hrep(inst), vertices(inst))
    assert report["pass"], report
    assert report["segment_points"] > 10**12


@pytest.mark.parametrize("kind", [OrderKind.GRLEX, OrderKind.GREVLEX])
def test_verify_hull_equivalence_runs_both_routes(monkeypatch, kind):
    # a flipped verdict of the comparator at any piece vertex raises
    member = oracle.is_initial_segment_member
    make, hrep, vertices = CONSTRUCTIONS[kind]
    inst = make((2, 2, 2))
    for flip in {x for piece in segment_pieces(kind, (2, 2, 2))[0] for x in piece}:
        monkeypatch.setattr(
            oracle,
            "is_initial_segment_member",
            lambda kind, x, theta: member(kind, x, theta) != (x == flip),
        )
        with pytest.raises(CheckFailed, match="disagree"):
            verify_hull_equivalence(kind, (2, 2, 2), hrep(inst), vertices(inst))


# ------------------------------------------------------ vertex oracle


def unit_square_h():
    return HRep([((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])


def dd_tight_masks(h):
    """Each DD vertex with the mask of the rows tight at it (bit i is row i),
    as oracle check (d) and facet_irredundancy read them."""
    d = h.dim
    return {
        tuple(F(y, ray[d]) for y in ray[:d]): z >> 1 for ray, z in oracle._extreme_rays(h)
    }


def test_basis_scan_square():
    h = unit_square_h()
    out = hull_vertices_by_basis(h)
    assert out == {
        (0, 0),
        (1, 0),
        (0, 1),
        (1, 1),
    }
    masks = dd_tight_masks(h)
    assert masks.keys() == out
    assert all(mask.bit_count() >= 2 for mask in masks.values())


def test_basis_scan_cube():
    rows = []
    for i in range(3):
        lo, hi = [0, 0, 0], [0, 0, 0]
        lo[i], hi[i] = -1, 1
        rows.append((tuple(lo), 0))
        rows.append((tuple(hi), 1))
    out = hull_vertices_by_basis(HRep(rows))
    assert len(out) == 8
    assert all(set(c) <= {0, 1} for c in out)


def test_basis_scan_degenerate_apex():
    # square pyramid: apex (0,0,2) lies on 4 facets, so many bases hit it
    rows = [
        ((0, 0, -1), 0),
        ((2, 0, 1), 2),
        ((-2, 0, 1), 2),
        ((0, 2, 1), 2),
        ((0, -2, 1), 2),
    ]
    h = HRep(rows)
    out = hull_vertices_by_basis(h)
    assert len(out) == 5
    assert (0, 0, 2) in out
    assert dd_tight_masks(h)[0, 0, 2] == 0b11110  # all four slanted facets tight


def test_basis_scan_unbounded():
    with pytest.raises(UnboundedSuspected):
        hull_vertices_by_basis(HRep([((-1, 0), 0), ((0, -1), 0)]))


def test_basis_scan_without_structural_certificate():
    # no row is all-positive: boundedness comes from the opposite pairs
    rows = []
    for i in range(2):
        lo, hi = [0, 0], [0, 0]
        lo[i], hi[i] = -1, 1
        rows.append((tuple(lo), 0))
        rows.append((tuple(hi), 1))
    out = hull_vertices_by_basis(HRep(rows))
    assert len(out) == 4


def test_basis_scan_family_smoke():
    inst = make_grlex((2, 2, 2))
    out = hull_vertices_by_basis(grlex_hrep(inst))
    assert out == grlex_vertices(inst).coordinate_set()


def test_basis_scan_unbounded_without_axis_ray():
    # {x >= 0, y >= 0, |x - y| <= 1} recedes along (1, 1) only
    h = HRep([((-1, 0), 0), ((0, -1), 0), ((1, -1), 1), ((-1, 1), 1)])
    with pytest.raises(UnboundedSuspected):
        hull_vertices_by_basis(h)


def test_basis_scan_line():
    with pytest.raises(UnboundedSuspected):
        hull_vertices_by_basis(HRep([((1, 0), 1), ((-1, 0), 1)]))


# ------------------------------------------------ basis-scan referee


def _solve(aug):
    """The unique x with a·x = beta for every row (a | beta) of aug, or None."""
    m = [list(row) for row in aug]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        piv = m[c]
        for r in range(n):
            f = m[r][c]
            if r != c and f:
                m[r] = [piv[c] * a - f * b for a, b in zip(m[r], piv)]
    return tuple(Fraction(m[r][n], m[r][r]) for r in range(n))


def _scan(aug, equations=()):
    """Sorted feasible points of {x : a·x <= beta for (a | beta) in aug} that
    solve some d - len(equations) rows of aug plus the equations exactly."""
    d = len(aug[0]) - 1
    verdict = {}
    for rows in combinations(aug, d - len(equations)):
        x = _solve(rows + tuple(equations))
        if x is not None and x not in verdict:
            den = lcm(*(v.denominator for v in x))
            nums = [int(v * den) for v in x]
            verdict[x] = all(
                sum(a * v for a, v in zip(row, nums)) <= row[d] * den for row in aug
            )
    return sorted(x for x, ok in verdict.items() if ok)


def referee_vertices(h):
    """The sorted vertices of h, or None when Ay <= 0 has a solution y != 0.

    Every vertex solves some d rows with equality. When A has rank d, every
    such y has c·y > 0 for c = -(sum of the rows), so it exists iff the
    polytope {Ay <= 0, c·y = 1} has a vertex.
    """
    d = h.dim
    if rank_of_rows(h.normals) < d:
        return None
    c = tuple(-sum(col) for col in zip(*h.normals)) + (1,)
    if _scan([normal + (0,) for normal in h.normals], [c]):
        return None
    return _scan(
        [
            tuple(a * beta.denominator for a in normal) + (beta.numerator,)
            for normal, beta in h.rows()
        ]
    )


def without_row(h, index):
    return HRep([row for i, row in enumerate(h.rows()) if i != index])


def dd_vertices(h):
    try:
        return sorted(hull_vertices_by_basis(h))
    except UnboundedSuspected:
        return None


def test_referee_on_known_systems():
    assert referee_vertices(unit_square_h()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert referee_vertices(HRep([((-1, 0), 0), ((0, -1), 0), ((1, -1), 1)])) is None
    assert referee_vertices(HRep([((1, 0), 1), ((-1, 0), 1)])) is None


_row = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(2, 4),
    extra=st.lists(st.tuples(_row, st.integers(-2, 8)), min_size=1, max_size=6),
)
def test_dd_matches_referee_random(d, extra):
    planes = [(tuple(-int(i == c) for i in range(d)), 0) for c in range(d)]
    rows = [(a[:d], beta) for a, beta in extra if any(a[:d])]
    h = HRep(planes + rows)
    assert dd_vertices(h) == referee_vertices(h)


def test_dd_needs_the_adjacency_test():
    # here some (+,-) pairs share d-1 tight rows without being adjacent;
    # combining them anyway yields 16 points: the 13 vertices, a duplicate
    # and two points that are not vertices
    planes = [(tuple(-int(i == c) for i in range(4)), 0) for c in range(4)]
    rows = [
        ((3, 3, -2, -3), 8),
        ((3, 3, -1, -3), 8),
        ((2, -2, -2, 3), 2),
        ((-2, 3, 3, -1), 4),
    ]
    h = HRep(planes + rows)
    assert dd_vertices(h) == referee_vertices(h)
    assert len(dd_vertices(h)) == 13


def test_dd_family_coordinates_are_ints():
    for make, hrep in ((make_grlex, grlex_hrep), (make_grevlex, grevlex_hrep)):
        for d in range(3, 9):
            out = hull_vertices_by_basis(hrep(make((3,) + (2,) * (d - 1))))
            assert all(type(x) is int for c in out for x in c)


def test_dd_rational_vertex_keeps_fraction():
    # 2x <= 1 and 2y <= 1 over the positive quadrant: x, y in {0, 1/2}
    h = HRep([((-1, 0), 0), ((0, -1), 0), ((2, 0), 1), ((0, 2), 1)])
    coords = sorted(hull_vertices_by_basis(h))
    assert coords == [(0, 0), (0, F(1, 2)), (F(1, 2), 0), (F(1, 2), F(1, 2))]
    assert [[type(x) for x in c] for c in coords[:2]] == [[int, int], [int, F]]


@pytest.mark.parametrize("d", range(3, 8))
def test_dd_matches_referee_family_sweep(d):
    rng = random.Random(d)
    for make, hrep in ((make_grlex, grlex_hrep), (make_grevlex, grevlex_hrep)):
        h = hrep(make(tuple(rng.randint(1, 4) for _ in range(d))))
        for variant in [h] + [without_row(h, i) for i in range(len(h))]:
            assert dd_vertices(variant) == referee_vertices(variant)


# ------------------------------------------------------ equivalence


@pytest.mark.parametrize("theta", [(2, 2, 2), (1, 2, 3), (3, 1, 2)])
def test_hull_equivalence_grlex(theta):
    inst = make_grlex(theta)
    report = verify_hull_equivalence(
        OrderKind.GRLEX, theta, grlex_hrep(inst), grlex_vertices(inst)
    )
    assert report["pass"], report
    assert report["segment_points"] == len(enumerate_segment(OrderKind.GRLEX, theta))


@pytest.mark.parametrize("theta", [(2, 2, 2), (1, 1, 1), (2, 1, 3, 1)])
def test_hull_equivalence_grevlex(theta):
    inst = make_grevlex(theta)
    report = verify_hull_equivalence(
        OrderKind.GREVLEX, theta, grevlex_hrep(inst), grevlex_vertices(inst)
    )
    assert report["pass"], report
    assert report["segment_points"] == len(enumerate_segment(OrderKind.GREVLEX, theta))


def test_hull_equivalence_detects_mismatch():
    # feeding the grevlex segment to the grlex hull must fail check (a)
    inst = make_grlex((2, 2, 2))
    report = verify_hull_equivalence(
        OrderKind.GREVLEX, (2, 2, 2), grlex_hrep(inst), grlex_vertices(inst)
    )
    assert not report["segment_in_hrep"]
    assert not report["pass"]


def test_hull_equivalence_detects_wrong_vrep():
    h = unit_square_h()
    bad_v = VRep([("a", (0, 0)), ("b", (1, 0)), ("c", (0, 1)), ("d", (2, 2))])
    report = verify_hull_equivalence(OrderKind.GRLEX, (1, 1), h, bad_v)
    assert not report["basis_equals_closed_form"]
    assert not report["pass"]


def test_hull_equivalence_detects_a_rank_deficient_certificate(monkeypatch):
    # check (d) reads HRep.tight_rank; a fresh HRep has no rank memoized yet
    from dantzigfig import polytope_core

    inst = make_grlex((2, 2, 2))
    h, v = grlex_hrep(inst), grlex_vertices(inst)
    assert verify_hull_equivalence(OrderKind.GRLEX, (2, 2, 2), HRep(h.rows()), v)["pass"]
    monkeypatch.setattr(polytope_core, "rank_of_rows", lambda rows: 2)
    report = verify_hull_equivalence(OrderKind.GRLEX, (2, 2, 2), HRep(h.rows()), v)
    assert report["basis_equals_closed_form"] and not report["vertex_certificates"]
    assert not report["pass"]


# --------------------------------------------------- irredundancy


def rerun_irredundancy(h):
    """The changed flags of the row-drop rerun: a row is needed iff
    dropping it makes the system unbounded or changes its vertex set."""
    base = hull_vertices_by_basis(h)
    out = []
    for i in range(len(h)):
        try:
            dropped = hull_vertices_by_basis(without_row(h, i))
            out.append(dropped != base)
        except UnboundedSuspected:
            out.append(True)
    return out


def test_facet_irredundancy_family_hreps():
    for make, hrep in (
        (make_grlex, grlex_hrep),
        (make_grevlex, grevlex_hrep),
    ):
        assert facet_irredundancy(hrep(make((2, 2, 2)))) == [True] * 6


def test_facet_irredundancy_flags_redundant_row():
    h = HRep(
        [
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 0), 1),
            ((0, 1), 1),
            ((1, 1), 5),  # slack everywhere
        ]
    )
    assert facet_irredundancy(h) == [True, True, True, True, False]


def test_facet_irredundancy_duplicates_and_lower_faces():
    # unit square, its right edge twice (once scaled), and x + y <= 2,
    # which touches the square at the vertex (1, 1) only
    h = HRep(
        [
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 0), 1),
            ((0, 1), 1),
            ((2, 0), 2),
            ((1, 1), 2),
        ]
    )
    assert facet_irredundancy(h) == [True, True, False, True, False, False]
    assert facet_irredundancy(h) == rerun_irredundancy(h)


@pytest.mark.parametrize(
    "rows",
    [
        # the segment x = 0, 0 <= y <= 1 in the plane
        [((-1, 0), 0), ((1, 0), 0), ((0, -1), 0), ((0, 1), 1)],
        # a triangle in the plane z = 0 of 3-space
        [
            ((-1, 0, 0), 0),
            ((0, -1, 0), 0),
            ((0, 0, -1), 0),
            ((0, 0, 1), 0),
            ((1, 1, 0), 1),
        ],
        # a single point
        [((-1, 0), 0), ((0, -1), 0), ((1, 1), 0)],
        # empty: x >= 0, y >= 0, x + y <= -1
        [((-1, 0), 0), ((0, -1), 0), ((1, 1), -1)],
    ],
)
def test_facet_irredundancy_rejects_lower_dimensional(rows):
    with pytest.raises(NotFullDimensional):
        facet_irredundancy(HRep(rows))


def test_facet_irredundancy_unbounded():
    with pytest.raises(UnboundedSuspected):
        facet_irredundancy(HRep([((-1, 0), 0), ((0, -1), 0), ((1, -1), 1)]))


def test_facet_irredundancy_runs_dd_once(monkeypatch):
    runs = []
    extreme_rays = oracle._extreme_rays

    def counted(h):
        runs.append(h)
        return extreme_rays(h)

    monkeypatch.setattr(oracle, "_extreme_rays", counted)
    for make, hrep in ((make_grlex, grlex_hrep), (make_grevlex, grevlex_hrep)):
        for theta in ((2, 2, 2), (3, 1, 2, 2, 3)):
            runs.clear()
            facet_irredundancy(hrep(make(theta)))
            assert len(runs) == 1


@pytest.mark.parametrize("d", range(3, 8))
def test_facet_irredundancy_matches_rerun_family_sweep(d):
    rng = random.Random(100 + d)
    for make, hrep in ((make_grlex, grlex_hrep), (make_grevlex, grevlex_hrep)):
        h = hrep(make(tuple(rng.randint(1, 4) for _ in range(d))))
        bounded = 0
        for variant in [h] + [without_row(h, i) for i in range(len(h))]:
            try:
                expected = rerun_irredundancy(variant)
            except UnboundedSuspected:
                continue
            bounded += 1
            assert facet_irredundancy(variant) == expected
        assert bounded > 1


def _full_dimension(vertices, d):
    """Whether the vertices affinely span dimension d."""
    rows = []
    for c in vertices:
        row = [F(a) for a in c + (1,)]
        scale = lcm(*(a.denominator for a in row))  # integer rows, same rank
        rows.append([int(a * scale) for a in row])
    return bool(rows) and rank_of_rows(rows) == d + 1


@st.composite
def bounded_systems(draw):
    """x >= 0 and sum(x) <= b, then random rows (some with a rational rhs,
    which can empty the set or flatten it), rows touching the result at a
    vertex-maximizing face, and scaled copies of some rows, shuffled."""
    d = draw(st.integers(2, 4))
    rows = [(tuple(-int(i == c) for i in range(d)), F(0)) for c in range(d)]
    rows.append(((1,) * d, F(draw(st.integers(1, 5)))))
    normal = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple)
    normal = normal.filter(any)
    rhs = st.builds(F, st.integers(-2, 12), st.sampled_from([1, 1, 2, 3]))
    rows += draw(st.lists(st.tuples(normal, rhs), max_size=4))
    vertices = referee_vertices(HRep(rows))
    if vertices:
        for a in draw(st.lists(normal, max_size=3)):
            top = max(sum(x * y for x, y in zip(a, v)) for v in vertices)
            rows.append((a, top))
    copies = st.tuples(st.integers(0, len(rows) - 1), st.integers(1, 3))
    for i, k in draw(st.lists(copies, max_size=2)):
        a, beta = rows[i]
        rows.append((tuple(k * x for x in a), k * beta))
    return d, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(bounded_systems())
def test_facet_irredundancy_matches_rerun_random(system):
    d, rows = system
    h = HRep(rows)
    if not _full_dimension(referee_vertices(h), d):
        with pytest.raises(NotFullDimensional):
            facet_irredundancy(h)
        return
    assert facet_irredundancy(h) == rerun_irredundancy(h)


# ------------------------------------ DD row order against the row-order run


def dd_outcome(route, h):
    """The (ray, mask) set of a DD route, or the error type it raises."""
    try:
        return set(route(h))
    except (UnboundedSuspected, NotFullDimensional) as exc:
        return type(exc)


def assert_lexmin_matches_row_order(h):
    ours = dd_outcome(oracle._extreme_rays, h)
    assert ours == dd_outcome(extreme_rays_in_row_order, h)
    return ours


def test_dd_lexmin_matches_the_row_order_run_on_the_dd_ladder():
    # the instances of acceptance check C11: d = 12, 16, 20, both families
    rng = random.Random(111)
    for d in (12, 16, 20):
        theta = tuple(rng.randint(2, 4) for _ in range(d))
        for make, hrep in ((make_grlex, grlex_hrep), (make_grevlex, grevlex_hrep)):
            rays = assert_lexmin_matches_row_order(hrep(make(theta)))
            assert len(rays) == (d * d + d + 2) // 2


@pytest.mark.parametrize("d", range(3, 8))
def test_dd_lexmin_matches_the_row_order_run_on_every_merged_grlex_pattern(d):
    for tail in product((1, 2), repeat=d - 2):
        inst = make_grlex((2, 2) + tail)
        rays = assert_lexmin_matches_row_order(grlex_hrep(inst))
        assert len(rays) == (d * d + d + 2) // 2 - len(inst.merged_ks)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(2, 4),
    extra=st.lists(st.tuples(_row, st.integers(-2, 8)), min_size=1, max_size=6),
)
def test_dd_lexmin_matches_the_row_order_run_random(d, extra):
    planes = [(tuple(-int(i == c) for i in range(d)), 0) for c in range(d)]
    rows = [(a[:d], beta) for a, beta in extra if any(a[:d])]
    assert_lexmin_matches_row_order(HRep(planes + rows))


@settings(max_examples=200, deadline=None)
@given(bounded_systems())
def test_dd_lexmin_matches_the_row_order_run_on_bounded_systems(system):
    _, rows = system
    assert_lexmin_matches_row_order(HRep(rows))


@pytest.mark.parametrize(
    "rows, error",
    [
        ([((-1, 0), 0), ((0, -1), 0), ((1, -1), 1)], UnboundedSuspected),  # a ray
        ([((1, 0), 1), ((-1, 0), 1)], UnboundedSuspected),  # a line
        ([((-1, 0), 0), ((0, -1), 0), ((1, 1), 0)], NotFullDimensional),  # a point
        ([((-1, 0), 0), ((0, -1), 0), ((1, 1), 4), ((1, -1), 0), ((-1, 1), 0)],
         NotFullDimensional),  # a segment
    ],
)
def test_dd_lexmin_refuses_what_the_row_order_run_refuses(rows, error, monkeypatch):
    for route in (oracle._extreme_rays, extreme_rays_in_row_order):
        monkeypatch.setattr(oracle, "_extreme_rays", route)
        with pytest.raises(error):
            facet_irredundancy(HRep(rows))
