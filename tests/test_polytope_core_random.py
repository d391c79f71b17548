"""The generic layer on random small polytopes, against a naive referee.

Each example is a bounded integer system (x >= 0, sum(x) <= b, and a few
random rows, some with a rational rhs), scaled so that its vertices,
enumerated by double description, are lattice points; a rational rhs
survives on the rows that no vertex is tight on. The referee below uses
only Fraction arithmetic, `exactmath.rank_of_rows` and every vertex
pair, which is how the integer routines in `polytope_core` are checked
on inputs that come from neither family. `facet_spans_ridge` is checked
against the rank of each row's vertex differences, on these polytopes,
on lower-dimensional ones and on both families. `dantzig_hrep` is
checked on the tangent cones of two simplicial vertices against rows
solved by Cramer's rule with Leibniz determinants. The packed batch test
`HRep.contains_all` is checked against `contains` point by point.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dantzigfig import FAMILIES
from dantzigfig.exactmath import rank_of_rows
from dantzigfig.oracle import hull_vertices_by_basis
from dantzigfig.polytope_core import (
    HRep,
    NonSimplicialCone,
    VRep,
    adjacency_from_incidence,
    cone_cover_test,
    dantzig_hrep,
    facet_spans_ridge,
    incidence,
    list_antipodal_pairs,
    tangent_cone,
)

_rhs = st.one_of(
    st.integers(0, 9),
    st.builds(Fraction, st.integers(0, 19), st.sampled_from([2, 3])),
)


@st.composite
def lattice_polytopes(draw):
    d = draw(st.integers(2, 4))
    rows = [(tuple(-int(i == c) for i in range(d)), 0) for c in range(d)]
    rows.append(((1,) * d, draw(st.integers(1, 6))))
    normal = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    for a, beta in draw(st.lists(st.tuples(normal, _rhs), max_size=4)):
        if any(a):
            rows.append((a, beta))  # beta >= 0, so the origin stays feasible
    return lattice_system(rows)


def lattice_system(rows):
    """The system, scaled so that its vertices are lattice points, with them."""
    h = HRep(rows)
    coords = hull_vertices_by_basis(h).coords
    scale = lcm(*(x.denominator for c in coords for x in c))
    h = HRep([(a, beta * scale) for a, beta in h.rows()])
    v = VRep([(f"p{k}", [int(x * scale) for x in c]) for k, c in enumerate(coords)])
    return h, v


# ---------------------------------------------------------------- referee


def ref_slacks(h, point):
    return tuple(
        Fraction(b) - sum(Fraction(a) * Fraction(x) for a, x in zip(n, point))
        for n, b in h.rows()
    )


def ref_tight(h, point) -> list[int]:
    return [f for f, s in enumerate(ref_slacks(h, point)) if s == 0]


def ref_adjacent(h, v, i, j) -> bool:
    points = [c for _, c in v]
    common = set(ref_tight(h, points[i])) & set(ref_tight(h, points[j]))
    if rank_of_rows([h.normals[f] for f in sorted(common)]) != h.dim - 1:
        return False
    return not any(
        common <= set(ref_tight(h, p))
        for t, p in enumerate(points)
        if t not in (i, j)
    )


def ref_edges(h, v) -> list[tuple]:
    labels = v.labels()
    n = len(labels)
    return [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if ref_adjacent(h, v, i, j)
    ]


def ref_generators(h, v, i) -> list[tuple]:
    points = [c for _, c in v]
    return [
        tuple(x - y for x, y in zip(p, points[i]))
        for j, p in enumerate(points)
        if j != i and ref_adjacent(h, v, min(i, j), max(i, j))
    ]


def ref_facet(h, v, f) -> bool:
    """The rank route: on a full-dimensional polytope, row f is a facet iff
    no other row equals it and the differences of its vertices have rank
    d - 1."""
    points = [c for _, c in v]
    if rank_of_rows([c + (1,) for c in points]) < h.dim + 1:
        return False
    on = [p for p in points if f in ref_tight(h, p)]
    if not on:
        return False
    diffs = [tuple(x - y for x, y in zip(p, on[0])) for p in on[1:]]
    return rank_of_rows(diffs) == h.dim - 1 and h.rows().count(h.rows()[f]) == 1


def ref_cover(h, v, members) -> bool:
    tight = [set(ref_tight(h, v.coords(label))) for label in members]
    return all(any(f in t for t in tight) for f in range(len(h)))


def ref_antipodal(h, v) -> list[tuple]:
    labels = v.labels()
    tight = [set(ref_tight(h, c)) for _, c in v]
    everything = set(range(len(h)))
    return [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if not tight[i] & tight[j] and tight[i] | tight[j] == everything
    ]


def ref_det(m) -> int:
    d = len(m)
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(d) for j in range(i + 1, d))
        * prod(m[i][p[i]] for i in range(d))
        for p in permutations(range(d))
    )


def ref_cone_rows(cone):
    """Rows n·x <= n·apex with n·g_j = -[j == r] for generator j, one per
    r; None unless the cone is simplicial."""
    gens, d = cone.generators, len(cone.apex)
    det = ref_det(gens) if len(gens) == d else 0
    if det == 0:
        return None
    rows = []
    for r in range(d):
        # Cramer: column c of the generator matrix replaced by -e_r
        normal = [
            Fraction(
                ref_det([[-int(j == r) if k == c else g[k] for k in range(d)]
                         for j, g in enumerate(gens)]),
                det,
            )
            for c in range(d)
        ]
        rows.append((normal, sum(n * x for n, x in zip(normal, cone.apex))))
    return rows


# ------------------------------------------------------------------ tests


def test_referee_on_the_unit_square():
    h = HRep([((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
    v = VRep([("00", (0, 0)), ("10", (1, 0)), ("01", (0, 1)), ("11", (1, 1))])
    assert len(ref_edges(h, v)) == 4
    assert ref_antipodal(h, v) == [("00", "11"), ("10", "01")]
    assert ref_generators(h, v, 0) == [(1, 0), (0, 1)]


@settings(max_examples=60, deadline=None)
@given(
    hv=lattice_polytopes(),
    points=st.lists(
        st.lists(
            st.builds(Fraction, st.integers(-4, 30), st.integers(1, 4)),
            min_size=4,
            max_size=4,
        ),
        max_size=6,
    ),
)
def test_contains_and_slacks_match_referee(hv, points):
    h, v = hv
    for p in [list(c) for _, c in v] + [q[: h.dim] for q in points]:
        for point in (p, [int(x) for x in p]):
            slacks = ref_slacks(h, point)
            assert h.slacks(point) == slacks
            assert h.contains(point) == all(s >= 0 for s in slacks)
    assert all(type(b) is int for b in h.rhs if Fraction(b).denominator == 1)


@settings(max_examples=60, deadline=None)
@given(hv=lattice_polytopes())
def test_incidence_and_adjacency_match_referee(hv):
    h, v = hv
    inc = incidence(h, v)
    assert inc.vertex_masks == [
        sum(1 << f for f in ref_tight(h, c)) for _, c in v
    ]
    assert adjacency_from_incidence(h, inc) == ref_edges(h, v)
    for i, label in enumerate(v.labels()):
        expected = ref_generators(h, v, i)
        if expected:
            assert tangent_cone(h, v, label, inc).generators == expected
        else:
            with pytest.raises(ValueError):
                tangent_cone(h, v, label, inc)


_LOWER_DIMENSIONAL = [
    # a point, the diagonal segment of a square, a triangle in z = 0 of 3-space
    [((-1, 0), 0), ((0, -1), 0), ((1, 1), 0)],
    [((-1, 0), 0), ((0, -1), 0), ((1, 1), 4), ((1, -1), 0), ((-1, 1), 0)],
    [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 2), ((0, 0, 1), 0)],
]


def check_facets_against_rank_referee(h, v):
    inc = incidence(h, v)
    expected = [ref_facet(h, v, f) for f in range(len(h))]
    assert [facet_spans_ridge(inc, f) for f in range(len(h))] == expected
    return expected


@settings(max_examples=100, deadline=None)
@given(hv=lattice_polytopes())
def test_facet_spans_ridge_matches_rank_referee(hv):
    check_facets_against_rank_referee(*hv)


@pytest.mark.parametrize("rows", _LOWER_DIMENSIONAL)
def test_facet_spans_ridge_matches_rank_referee_lower_dimensional(rows):
    assert not any(check_facets_against_rank_referee(*lattice_system(rows)))


@pytest.mark.parametrize("d", range(3, 9))
def test_facet_spans_ridge_matches_rank_referee_on_the_families(d):
    merged = ((2, 3) + (1, 2) * d)[:d]  # theta_3 = 1: grlex merges u(3)
    assert FAMILIES["grlex"].make(merged).merged_ks
    for fam in FAMILIES.values():
        for theta in ((2,) * d, merged):
            inst = fam.make(theta)
            h, v = fam.hrep(inst), fam.vertices(inst)
            assert all(check_facets_against_rank_referee(h, v))


@settings(max_examples=60, deadline=None)
@given(hv=lattice_polytopes(), data=st.data())
def test_cover_and_antipodal_pairs_match_referee(hv, data):
    h, v = hv
    inc = incidence(h, v)
    members = data.draw(
        st.sets(st.sampled_from(v.labels()), min_size=1, max_size=len(v))
    )
    assert cone_cover_test(inc, members) == ref_cover(h, v, members)
    assert list_antipodal_pairs(inc) == ref_antipodal(h, v)


@settings(max_examples=60, deadline=None)
@given(hv=lattice_polytopes(), data=st.data())
def test_dantzig_hrep_matches_referee(hv, data):
    h, v = hv
    inc = incidence(h, v)
    cones = [
        tangent_cone(h, v, label, inc)
        for i, label in enumerate(v.labels())
        if ref_generators(h, v, i)
    ]
    simplicial = [c for c in cones if ref_cone_rows(c) is not None]
    assume(len(simplicial) >= 2)
    cu, cv = data.draw(st.permutations(simplicial))[:2]
    rebuilt = dantzig_hrep(cu, cv)
    assert rebuilt.rows() == HRep(ref_cone_rows(cu) + ref_cone_rows(cv)).rows()
    assert all(rebuilt.contains(c) for _, c in v)  # each cone holds P
    for cone in cones:
        if ref_cone_rows(cone) is None:
            with pytest.raises(NonSimplicialCone):
                dantzig_hrep(cu, cone)


# ------------------------------------------------------- packed containment


CONTAINS_CHUNK = HRep.CONTAINS_CHUNK


def _dot(a, p):
    return sum(x * y for x, y in zip(a, p))


@st.composite
def point_batches(draw):
    """Random points and rows whose rhs puts the points that maximize the
    row exactly on it, one unit outside it, or a fraction either side;
    coefficients up to 10^25 and coordinates up to 2^64 - 1 (2^70 falls
    back), counts around CONTAINS_CHUNK, and at times one point with a
    negative or a Fraction coordinate."""
    d = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 5, CONTAINS_CHUNK - 1, CONTAINS_CHUNK, CONTAINS_CHUNK + 1]))
    top = draw(st.sampled_from([1, 12, 10**6, 2**64 - 1, 2**70]))
    points = [tuple(rng.randint(0, top) for _ in range(d)) for _ in range(n)]
    scale = draw(st.sampled_from([3, 10**6, 10**25]))
    offset = st.sampled_from([0, 0, -1, 1, Fraction(1, 2), Fraction(-1, 3), -(10**30)])
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        a = [rng.randint(-scale, scale) for _ in range(d - 1)] + [rng.choice([-1, 1]) * scale]
        rng.shuffle(a)
        rows.append((a, max((_dot(a, p) for p in points), default=0) + draw(offset)))
    odd = draw(st.sampled_from([None, None, -1, Fraction(1, 2)]))
    if odd is not None and points:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))
        points[i] = points[i][:j] + (odd,) + points[i][j + 1 :]
    return HRep(rows), points


@settings(max_examples=150, deadline=None)
@given(point_batches())
def test_contains_all_matches_contains(case):
    h, points = case
    expected = all(h.contains(x) for x in points)
    assert h.contains_all(points) == expected
    assert h.contains_all(iter(points)) == expected


@pytest.mark.parametrize("n", [CONTAINS_CHUNK - 1, CONTAINS_CHUNK, CONTAINS_CHUNK + 1])
@pytest.mark.parametrize("where", [0, "middle", "last"])
def test_contains_all_finds_one_point_outside(n, where):
    # 0 <= x_j <= 3 and x_0 + 2 x_1 - x_2 <= 6; one point one unit over
    rows = [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 2, -1), 6)]
    h = HRep(rows + [(tuple(int(i == j) for i in range(3)), 3) for j in range(3)])
    rng = random.Random(n)
    points = []
    while len(points) < n:
        p = tuple(rng.randint(0, 3) for _ in range(3))
        if h.contains(p):
            points.append(p)
    points[-1] = (2, 2, 0)  # on the row x_0 + 2 x_1 - x_2 <= 6
    assert h.contains_all(points)
    k = {0: 0, "middle": n // 2, "last": n - 1}[where]
    points[k] = (3, 2, 0)  # one unit outside
    assert not h.contains_all(points)


def test_contains_all_packs_int_points_and_falls_back_otherwise(monkeypatch):
    h = HRep([((-1, 0), 0), ((0, -1), 0), ((1, 1), Fraction(7, 2))])
    calls = []
    contains = HRep.contains

    def counted(self, point):
        calls.append(point)
        return contains(self, point)

    monkeypatch.setattr(HRep, "contains", counted)
    inside = [(x, y) for x in range(4) for y in range(4) if x + y <= 3]
    assert h.contains_all(inside * 200) and calls == []
    assert h.contains_all([]) and calls == []
    assert not h.contains_all(inside + [(-1, 0)]) and calls
    calls.clear()
    assert h.contains_all(inside + [(Fraction(1, 2), 3)]) and len(calls) == len(inside) + 1
    calls.clear()
    assert not h.contains_all([(1, 3)] + inside + [(Fraction(1, 2), 3)])
    # a short point reads as padded with zeros, as in contains
    calls.clear()
    assert h.contains_all(inside + [(3,)]) and len(calls) == len(inside) + 1
    assert not h.contains_all([(3, 1)] + inside + [(3,)])


def test_contains_all_wide_fields():
    # |beta| + sum |a_j| max x_j needs more than 64 bits per point
    big, top = 10**25, 2**64 - 1
    h = HRep([((big, -big), 0), ((-1, 0), 0), ((0, -1), 0), ((1, 0), top)])
    diagonal = [(x, x) for x in (0, 1, 2**40, top)]
    assert h.contains_all(diagonal)
    assert not h.contains_all(diagonal + [(top, top - 1)])
    assert h.contains_all(diagonal + [(top - 1, top)])
