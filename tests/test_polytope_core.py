"""Generic H/V machinery on hand-built fixtures.

The pentagonal pyramid is the workhorse: an apex over an irregular
pentagon gives simple degenerate structure (a 5-valent apex in R^3) and,
usefully, no antipodal vertex pair at all.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

import dantzigfig
from dantzigfig.family import checked_incidence
from dantzigfig.grevlex_family import make_grevlex
from dantzigfig.grlex_family import make_grlex
from dantzigfig.polytope_core import (
    CheckFailed,
    EmptySet,
    FacetId,
    HRep,
    IncidenceMatrix,
    InfeasibleVertex,
    NonSimplicialCone,
    UnknownLabel,
    VRep,
    VertexLabel,
    adjacency_from_incidence,
    cone_cover_test,
    dantzig_hrep,
    facet_spans_ridge,
    incidence,
    list_antipodal_pairs,
    tangent_cone,
)
from referees import adjacency_by_masks, adjacency_by_rank, antipodal_pairs_by_xor
from referees import tangent_generators_by_masks

F = Fraction


# ------------------------------------------------------------- fixtures


def unit_square():
    h = HRep([((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
    v = VRep([("00", (0, 0)), ("10", (1, 0)), ("01", (0, 1)), ("11", (1, 1))])
    return h, v


def unit_cube():
    rows = []
    for i in range(3):
        lo = [0, 0, 0]
        lo[i] = -1
        hi = [0, 0, 0]
        hi[i] = 1
        rows.append((lo, 0))
        rows.append((hi, 1))
    verts = [
        (f"{x}{y}{z}", (x, y, z))
        for x in (0, 1)
        for y in (0, 1)
        for z in (0, 1)
    ]
    return HRep(rows), VRep(verts)


BASE = [(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]
APEX = (2, 2, 3)


def pentagonal_pyramid():
    rows = [((0, 0, -1), 0)]  # base plane z >= 0
    for i in range(5):
        p = (*BASE[i], 0)
        q = (*BASE[(i + 1) % 5], 0)
        u = tuple(b - a for a, b in zip(p, q))
        w = tuple(b - a for a, b in zip(p, APEX))
        n = (
            u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0],
        )
        beta = sum(a * x for a, x in zip(n, p))
        # orient outward: the base centroid must satisfy the inequality
        if sum(a * c for a, c in zip(n, (2, 2, 0))) > beta:
            n, beta = tuple(-a for a in n), -beta
        rows.append((n, beta))
    v = VRep(
        [("apex", APEX)] + [(f"b{i}", (*BASE[i], 0)) for i in range(5)]
    )
    return HRep(rows), v


# ---------------------------------------------------------------- labels


LABEL_RANK = {"zero": 0, "theta": 1, "w": 2, "u": 3, "ubar": 4, "v": 5, "vbar": 6}


def test_vertex_label_str_and_order():
    labels = [
        VertexLabel.v(1, 3),
        VertexLabel.zero(),
        VertexLabel.u(3),
        VertexLabel.w(),
        VertexLabel.theta(),
        VertexLabel.vbar(2, 4),
        VertexLabel.ubar(2),
    ]
    ordered = sorted(labels)
    assert ordered == sorted(labels, key=lambda x: (LABEL_RANK[x.kind], x.k, x.j))
    assert [str(x) for x in ordered] == [
        "0",
        "theta",
        "w",
        "u(3)",
        "ubar(2)",
        "v(1,3)",
        "vbar(2,4)",
    ]


def test_vertex_label_validation():
    with pytest.raises(ValueError):
        VertexLabel.u(2)
    with pytest.raises(ValueError):
        VertexLabel.v(3, 3)
    with pytest.raises(ValueError):
        VertexLabel.vbar(2, 3)
    with pytest.raises(ValueError):
        VertexLabel.ubar(1)


def test_facet_id_str():
    assert str(FacetId.coord(2)) == "coord(2)"
    assert str(FacetId.grading()) == "grading"
    assert str(FacetId.nontrivial(VertexLabel.v(1, 2))) == "missing[v(1,2)]"


def _family_instances():
    """Both families at d = 3..8: grevlex and strict grlex at (2,...,2),
    grlex also with theta_k = 1 merges (every third entry, and all ones)."""
    for d in range(3, 9):
        yield make_grevlex((2,) * d)
        yield make_grlex((2,) * d)
        yield make_grlex(tuple(1 if k % 3 == 2 else 2 for k in range(d)))
        yield make_grlex((1,) * d)


def _reference_str(kind, j, k):
    """How a label printed as a record of (kind, j, k)."""
    if kind == "zero":
        return "0"
    if kind in ("theta", "w"):
        return kind
    if kind in ("u", "ubar"):
        return f"{kind}({k})"
    return f"{kind}({j},{k})"


def test_label_value_semantics():
    for inst in _family_instances():
        grlex = isinstance(inst, dantzigfig.GrlexInstance)
        fam = dantzigfig.FAMILIES["grlex" if grlex else "grevlex"]
        v, ids = fam.vertices(inst), fam.hrep(inst).ids
        labels = v.labels()
        assert sorted(labels[::-1]) == sorted(labels, key=lambda x: (LABEL_RANK[x.kind], x.k, x.j))
        for label, coords in v:
            again = VertexLabel(label.kind, label.j, label.k)
            assert again == label and hash(again) == hash(label) and again is not label
            assert str(label) == _reference_str(label.kind, label.j, label.k)
            assert repr(label) == f"<{_reference_str(label.kind, label.j, label.k)}>"
            assert label[:3] == (LABEL_RANK[label.kind], label.k, label.j)
            assert label != coords and label != tuple(coords)
            assert all(label != fid for fid in ids)
        for fid in ids:
            assert FacetId(fid.kind, fid.i, fid.label) == fid
            assert hash(FacetId(fid.kind, fid.i, fid.label)) == hash(fid)
            assert repr(fid) == f"<{fid}>"
    assert VertexLabel.zero() != (0, 0, 0)
    assert VertexLabel.zero() != FacetId.grading()


def test_labels_and_instances_are_immutable_values():
    label, fid = VertexLabel.vbar(1, 3), FacetId.nontrivial(VertexLabel.u(4))
    inst = make_grlex((2, 2, 2))
    for obj, name in ((label, "k"), (label, "extra"), (fid, "i"), (inst, "theta"), (inst, "d")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 5)
    for obj in (label, fid):
        assert copy.copy(obj) == obj and pickle.loads(pickle.dumps(obj)) == obj
    for again in (copy.copy(inst), pickle.loads(pickle.dumps(inst))):
        assert type(again) is type(inst) and again.theta == inst.theta
    # an instance keys nothing: it compares by identity and keeps its own parts
    assert make_grlex((2, 2, 2)) != inst
    assert type(make_grlex((2, 2, 2))) is not type(make_grevlex((2, 2, 2)))


# ------------------------------------------------------------------ HRep


def test_hrep_rescales_to_primitive():
    h = HRep([((F(2, 3), F(4, 3)), F(2)), ((2, 0), 3), ((F(1, 2), 1), F(1, 3))])
    # the gcd runs over the rhs too: 2x <= 3 has no integer form with normal (1, 0)
    assert h.rows() == [((1, 2), 3), ((2, 0), 3), ((3, 6), 2)]
    assert all(type(a) is int for n, b in h.rows() for a in (*n, b))


@pytest.mark.parametrize(
    "row", [((1.0, 0), 1), ((1, 0), 0.5), ((True, 0), 1), ((1, 0), False), ((1, "0"), 1)]
)
def test_hrep_rejects_floats_and_bools(row):
    with pytest.raises(TypeError):
        HRep([row])


@pytest.mark.parametrize("coords", [(F(1, 2), 0), (F(2), 0), (1.9, 0), (1.0, 0), (True, 0)])
def test_vrep_rejects_coordinates_that_are_not_ints(coords):
    with pytest.raises(TypeError):
        VRep([("origin", (0, 0)), ("bad", coords)])


def test_hrep_contains_and_slacks():
    h, _ = unit_square()
    assert h.contains((F(1, 2), F(1, 2)))
    assert not h.contains((2, 0))
    assert h.slacks((0, 0)) == (0, 0, 1, 1)


def test_hrep_tight_rank_is_computed_once_per_mask(monkeypatch):
    from dantzigfig import polytope_core

    h, _ = unit_cube()  # rows -x, x, -y, y, -z, z
    calls = []
    rank = polytope_core.rank_of_rows
    monkeypatch.setattr(
        polytope_core, "rank_of_rows", lambda rows: calls.append(rows) or rank(rows)
    )
    assert [h.tight_rank(m) for m in (0b010101, 0b010101, 0b000011, 0)] == [3, 3, 1, 0]
    assert len(calls) == 3


def test_hrep_rejects_zero_normal():
    with pytest.raises(ValueError):
        HRep([((0, 0), 1)])


def test_same_polytope_rows_up_to_order_and_scaling():
    h1 = HRep([((1, 1), 2), ((-1, 0), 0)])
    h2 = HRep([((-2, 0), 0), ((3, 3), 6)])
    assert h1.same_polytope_rows(h2)
    assert not h1.same_polytope_rows(HRep([((1, 1), 2), ((-1, 0), 1)]))


def test_vrep_duplicate_checks():
    with pytest.raises(ValueError):
        VRep([("a", (0, 0)), ("a", (1, 1))])
    with pytest.raises(ValueError):
        VRep([("a", (0, 0)), ("b", (0, 0))])
    v = VRep([("a", (0, 1))])
    with pytest.raises(UnknownLabel):
        v.coords("zzz")


# ------------------------------------------------------------- incidence


def test_incidence_unit_square():
    h, v = unit_square()
    inc = incidence(h, v)
    assert inc.vertex_masks[v.labels().index("00")] == 0b0011
    assert inc.vertex_masks[v.labels().index("11")] == 0b1100
    assert inc.facet_vertex_counts() == [2, 2, 2, 2]


def test_incidence_rejects_outside_point():
    h, _ = unit_square()
    bad = VRep([("x", (2, 2))])
    with pytest.raises(InfeasibleVertex):
        incidence(h, bad)


def test_incidence_rejects_non_vertex():
    # an edge midpoint of the side-2 square is tight on one row only
    h = HRep([((-1, 0), 0), ((0, -1), 0), ((1, 0), 2), ((0, 1), 2)])
    with pytest.raises(InfeasibleVertex):
        incidence(h, VRep([("corner", (0, 0)), ("edge-mid", (1, 0))]))


def test_adjacency_unit_cube():
    h, v = unit_cube()
    inc = incidence(h, v)
    edges = adjacency_from_incidence(inc, h.dim)
    assert len(edges) == 12
    deg = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert set(deg.values()) == {3}
    assert ("000", "001") in [tuple(sorted(e)) for e in edges]
    assert ("000", "111") not in [tuple(sorted(e)) for e in edges]


def test_pyramid_incidence_and_apex_degeneracy():
    h, v = pentagonal_pyramid()
    inc = incidence(h, v)
    apex_mask = inc.vertex_masks[v.labels().index("apex")]
    assert apex_mask.bit_count() == 5  # all side facets, not the base
    assert not apex_mask & 1
    edges = adjacency_from_incidence(inc, h.dim)
    assert len(edges) == 10  # 5 base edges + 5 slant edges


def test_pyramid_has_no_antipodal_pair():
    h, v = pentagonal_pyramid()
    assert list_antipodal_pairs(incidence(h, v)) == []


def test_facet_spans_ridge():
    h, v = pentagonal_pyramid()
    inc = incidence(h, v)
    for f in range(len(h.normals)):
        assert facet_spans_ridge(inc, f)
    hs, vs = unit_square()
    assert facet_spans_ridge(incidence(hs, vs), 0)
    # the right edge twice (once scaled) and x + y <= 2, tight at (1, 1)
    # only: equal tight sets and a set inside another are no facets
    h = HRep(hs.rows() + [((2, 0), 2), ((1, 1), 2)])
    inc = incidence(h, vs)
    assert [facet_spans_ridge(inc, f) for f in range(len(h))] == [
        True, True, False, True, False, False
    ]
    # the bottom edge alone: y >= 0 is tight at both vertices, so they span
    # no full-dimensional polytope and no row is a facet
    inc = incidence(hs, VRep([("00", (0, 0)), ("10", (1, 0))]))
    assert inc.facet_masks[1] == 0b11
    assert not any(facet_spans_ridge(inc, f) for f in range(len(hs)))


# ---------------------------------------------------------- cones, pairs


def test_cone_cover_unit_square():
    inc = incidence(*unit_square())
    assert cone_cover_test(inc, {"00", "11"})
    assert not cone_cover_test(inc, {"00"})
    assert cone_cover_test(inc, {"00", "10", "01", "11"})
    with pytest.raises(EmptySet):
        cone_cover_test(inc, set())
    with pytest.raises(UnknownLabel):
        cone_cover_test(inc, {"nope"})


def test_tangent_cone_square_corner():
    h, v = unit_square()
    cone = tangent_cone(v, "00", incidence(h, v))
    assert sorted(cone.generators) == [(0, 1), (1, 0)]
    assert cone.apex == (0, 0)


def test_dantzig_hrep_square():
    h, v = unit_square()
    inc = incidence(h, v)
    cu = tangent_cone(v, "00", inc)
    cv = tangent_cone(v, "11", inc)
    rebuilt = dantzig_hrep(cu, cv)
    assert rebuilt.same_polytope_rows(h)


def test_dantzig_hrep_rejects_non_simplicial():
    h, v = pentagonal_pyramid()
    inc = incidence(h, v)
    apex_cone = tangent_cone(v, "apex", inc)  # 5 generators in R^3
    base_cone = tangent_cone(v, "b0", inc)
    with pytest.raises(NonSimplicialCone):
        dantzig_hrep(apex_cone, base_cone)


def test_incidence_same_bits_alignment():
    ids = ["left", "bottom", "right", "top"]
    rows = [((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)]
    v = VRep([("00", (0, 0)), ("10", (1, 0)), ("01", (0, 1)), ("11", (1, 1))])
    inc = incidence(HRep(rows, ids), v)
    # identical square, but rows and vertices listed in another order
    perm = (2, 0, 3, 1)
    h2 = HRep([rows[i] for i in perm], [ids[i] for i in perm])
    v2 = VRep([v.entries[i] for i in (3, 1, 0, 2)])
    inc2 = incidence(h2, v2)
    assert inc.same_bits(inc2)
    # flipping one bit must break equality
    broken = IncidenceMatrix(
        inc2.labels, inc2.facet_ids, [inc2.vertex_masks[0] ^ 1] + inc2.vertex_masks[1:]
    )
    assert not inc.same_bits(broken)


@pytest.mark.parametrize("make", [make_grlex, make_grevlex])
def test_exported_theta_errors_catch_both_families(make):
    with pytest.raises(dantzigfig.InvalidTheta):
        make((0, 1, 1))
    with pytest.raises(dantzigfig.UnsupportedDimension):
        make((1, 1))


# ------------------------------------- masks on a certified-complete list


def cube_missing_two_vertices():
    """The unit cube with z <= 1 also given as 2z <= 2, listed without
    (1,0,1) and (0,1,1). The pair (0,0,1), (1,1,1) then passes the
    facet-mask test, but its common rows (the two copies of z <= 1) have
    rank 1: on an incomplete list the masks alone take a non-edge."""
    h, v = unit_cube()
    h = HRep(h.rows() + [((0, 0, 2), 2)], ids=list(range(len(h) + 1)))
    v = VRep([(label, c) for label, c in v if label not in ("101", "011")])
    return h, v


def tight_rows(inc):
    """Label -> the row indices tight there, the psi of checked_incidence."""
    return {
        label: frozenset(f for f in range(len(inc.facet_ids)) if m >> f & 1)
        for label, m in zip(inc.labels, inc.vertex_masks)
    }


def test_checked_incidence_rejects_an_incomplete_vertex_list():
    h, v = cube_missing_two_vertices()
    inc = incidence(h, v)
    assert ("001", "111") in adjacency_from_incidence(inc, h.dim)
    # every listed point is a vertex with the right tight rows, so only
    # the double-description run sees the two that are missing
    with pytest.raises(CheckFailed, match="vertex list"):
        checked_incidence(h, v, tight_rows(inc))
    full = unit_cube()[1]
    inc = incidence(h, full)
    assert checked_incidence(h, full, tight_rows(inc)).vertex_masks == inc.vertex_masks
    assert len(adjacency_from_incidence(inc, h.dim)) == 12


# The cube's rows: 0: -x <= 0, 1: x <= 1, 2: -y <= 0, 3: y <= 1, 4: -z <= 0,
# 5: z <= 1. In each hand-built incidence below, a has exactly d tight rows
# and shares at least d-1 of them with b, but (a, b) is no edge.
HAND_BUILT = {
    # a third vertex on the rows -y, -z that a and b share
    "third-vertex-on-common-rows": [0b010101, 0b010110, 0b011100],
    # c and d repeat a's mask: a has d rows but is not alone on them, so
    # its faces do not decide its neighbours
    "repeated-masks-on-the-rows-of-a": [0b010101, 0b010110, 0b010101, 0b010101],
    # b and c are degenerate (four rows each), and both lie on all of a's
    "degenerate-vertices-on-the-rows-of-a": [0b010101, 0b011101, 0b110101],
    # (a, d) is an edge, on the rows -x, -z that no third vertex shares
    "an-edge-beside-the-non-edge": [0b010101, 0b010110, 0b110100, 0b011001],
}


@pytest.mark.parametrize("masks", HAND_BUILT.values(), ids=HAND_BUILT)
def test_hand_built_incidence_matches_the_rank_referee(masks):
    h, _ = unit_cube()
    labels = list("abcd")[: len(masks)]
    inc = IncidenceMatrix(labels, list(range(len(h))), masks)
    assert masks[0].bit_count() == h.dim <= (masks[0] & masks[1]).bit_count() + 1
    assert adjacency_from_incidence(inc, h.dim) == adjacency_by_rank(h, inc)
    assert ("a", "b") not in adjacency_from_incidence(inc, h.dim)


def _referee_thetas(seed):
    """A seeded theta per family and d = 3..20, and a merged grlex theta
    (theta_k = 1 for some k >= 3) per d."""
    rng = random.Random(seed)
    for d in range(3, 21):
        yield "grevlex", tuple(rng.randint(1, 3) for _ in range(d))
        yield "grlex", tuple(rng.randint(2, 3) for _ in range(d))
        theta = [rng.randint(2, 3) for _ in range(d)]
        for k in rng.sample(range(2, d), rng.randint(1, d - 2)):
            theta[k] = 1
        yield "grlex", tuple(theta)


def test_adjacency_matches_the_rank_referee_on_the_families():
    for name, theta in _referee_thetas(21):
        fam = dantzigfig.FAMILIES[name]
        inst = fam.make(theta)
        h, inc = fam.hrep(inst), fam.incidence(inst)
        assert adjacency_from_incidence(inc, h.dim) == adjacency_by_rank(h, inc), (name, theta)


def permuted(inc, order):
    """inc with its vertices listed in the given order."""
    return IncidenceMatrix(
        [inc.labels[k] for k in order], inc.facet_ids, [inc.vertex_masks[k] for k in order]
    )


def assert_edges_match_the_mask_referee(inc, d, v, at=None):
    """adjacency_from_incidence, and the tangent_cone generators at the
    vertices at (all by default), equal the pairwise mask test's, in order."""
    assert adjacency_from_incidence(inc, d) == adjacency_by_masks(inc, d)
    for i in range(len(inc.labels)) if at is None else at:
        expected = tangent_generators_by_masks(v, inc.labels[i], inc)
        if expected:
            assert tangent_cone(v, inc.labels[i], inc).generators == expected
        else:
            with pytest.raises(ValueError, match="no neighbors"):
                tangent_cone(v, inc.labels[i], inc)


@pytest.mark.parametrize("masks", HAND_BUILT.values(), ids=HAND_BUILT)
def test_hand_built_incidence_matches_the_mask_referee_in_every_order(masks):
    labels = list("abcd")[: len(masks)]
    inc = IncidenceMatrix(labels, list(range(6)), masks)
    v = VRep([(label, (k, 0, 0)) for k, label in enumerate(labels)])
    for order in itertools.permutations(range(len(labels))):
        assert_edges_match_the_mask_referee(permuted(inc, order), 3, v)


def test_edges_match_the_mask_referee_on_the_families():
    rng = random.Random(23)
    for name, theta in _referee_thetas(21):
        fam = dantzigfig.FAMILIES[name]
        inst = fam.make(theta)
        inc, v, d = fam.incidence(inst), fam.vertices(inst), len(theta)
        n = len(inc.labels)
        apexes = [inc.labels.index(label) for label in fam.apexes(inst)]
        assert_edges_match_the_mask_referee(inc, d, v, apexes + rng.sample(range(n), 3))
        # the same vertices in another order: the witnesses come in another order
        shuffled = permuted(inc, rng.sample(range(n), n))
        assert_edges_match_the_mask_referee(shuffled, d, v, rng.sample(range(n), 3))


def test_random_incidences_match_the_mask_referee():
    # not polytopes: both routes must still give the pairs of the pairwise test
    rng = random.Random(24)
    for _ in range(400):
        n, rows, d = rng.randint(1, 8), rng.randint(1, 7), rng.randint(1, 5)
        masks = [rng.getrandbits(rows) for _ in range(n)]
        inc = IncidenceMatrix(list(range(n)), list(range(rows)), masks)
        v = VRep([(k, (k,) + (0,) * (d - 1)) for k in range(n)])  # tangent_cone's d
        assert_edges_match_the_mask_referee(inc, d, v)


# ------------------------------------------------------- antipodal pairs


def test_antipodal_pairs_match_the_xor_referee_on_the_families():
    for name, theta in _referee_thetas(25):
        inc = dantzigfig.FAMILIES[name].incidence(dantzigfig.FAMILIES[name].make(theta))
        assert list_antipodal_pairs(inc) == antipodal_pairs_by_xor(inc), (name, theta)


@pytest.mark.parametrize(
    "facets, masks",
    [
        (4, [0b0011, 0b1100, 0b1100, 0b0011, 0b1100]),  # repeated masks on both sides
        (3, [0b111, 0b000, 0b000, 0b101, 0b010, 0b111]),  # full and empty masks
        (0, [0, 0, 0]),  # no facets: every pair partitions the empty set
        (2, [0b01, 0b01]),  # equal masks, no complement
    ],
)
def test_antipodal_pairs_match_the_xor_referee_on_repeated_masks(facets, masks):
    inc = IncidenceMatrix(list(range(len(masks))), list(range(facets)), masks)
    assert list_antipodal_pairs(inc) == antipodal_pairs_by_xor(inc)
    rng = random.Random(26)
    for _ in range(20):
        shuffled = rng.sample(masks, len(masks))
        inc = IncidenceMatrix(list(range(len(masks))), list(range(facets)), shuffled)
        assert list_antipodal_pairs(inc) == antipodal_pairs_by_xor(inc)
