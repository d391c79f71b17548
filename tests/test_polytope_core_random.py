"""The generic layer on random small polytopes, against a naive referee.

Each example is a bounded integer system (x >= 0, sum(x) <= b, and a few
random rows, some with a rational rhs), scaled so that its vertices,
enumerated by double description, are lattice points; a rational rhs
survives on the rows that no vertex is tight on. The referee below uses
only Fraction arithmetic, `exactmath.rank(Matrix(...))` and every vertex
pair, which is how the integer routines in `polytope_core` are checked
on inputs that come from neither family. `dantzig_hrep` is checked on the
tangent cones of two simplicial vertices against rows solved by Cramer's
rule with Leibniz determinants.
"""

from fractions import Fraction
from itertools import permutations
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dantzigfig.exactmath import Matrix, rank
from dantzigfig.oracle import hull_vertices_by_basis
from dantzigfig.polytope_core import (
    HRep,
    NonSimplicialCone,
    VRep,
    adjacency_from_incidence,
    cone_cover_test,
    dantzig_hrep,
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
    if rank(Matrix([h.normals[f] for f in sorted(common)])) != h.dim - 1:
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
