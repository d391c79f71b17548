"""The grevlex polytope Q: closed forms against frozen values and oracles."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dantzigfig.exactmath import adjugate, invert
from dantzigfig.grevlex_family import (
    GrevlexInstance,
    ImproperColoring,
    grevlex_antipodal,
    grevlex_coloring,
    grevlex_edges,
    grevlex_facet_matrix,
    grevlex_facet_matrix_inverse,
    grevlex_graph,
    grevlex_hamiltonian_cycle,
    grevlex_hrep,
    grevlex_incidence,
    grevlex_vertices,
    make_grevlex,
)
from dantzigfig import polytope_graph as pg
from dantzigfig.polytope_core import (
    CheckFailed,
    InvalidTheta,
    UnsupportedDimension,
    VertexLabel,
)

UB, VB, ZERO = VertexLabel.ubar, VertexLabel.vbar, VertexLabel.zero()

BASE = make_grevlex((2, 2, 2))


def test_instance_validation():
    with pytest.raises(UnsupportedDimension):
        make_grevlex((4, 4))
    with pytest.raises(InvalidTheta):
        GrevlexInstance((2, 2, 0))
    inst = make_grevlex((3, 1, 2))
    assert inst.b == 6 and inst.btilde == (3, 4, 6)


def test_base_vertices():
    got = {str(l): c for l, c in grevlex_vertices(BASE)}
    assert got == {
        "0": (0, 0, 0),
        "ubar(2)": (2, 2, 2),
        "ubar(3)": (0, 4, 2),
        "ubar(4)": (0, 0, 6),
        "vbar(1,3)": (3, 0, 3),
        "vbar(1,4)": (5, 0, 0),
        "vbar(2,4)": (0, 5, 0),
    }


@pytest.mark.parametrize(
    "theta", [(2, 2, 2), (1, 1, 1), (3, 1, 2), (1, 1, 1, 1), (2, 3, 1, 4, 1)]
)
def test_vertex_count_always_formula(theta):
    # unlike P there are no merges, ones included
    d = len(theta)
    assert len(grevlex_vertices(make_grevlex(theta))) == (d * d + d + 2) // 2


def test_ubar_endpoints():
    inst = make_grevlex((3, 1, 2, 2))
    v = grevlex_vertices(inst)
    assert v.coords(UB(2)) == (3, 1, 2, 2)  # ubar(2) is theta itself
    assert v.coords(UB(5)) == (0, 0, 0, 8)  # ubar(d+1) is b.e_d
    assert v.coords(VB(1, 5)) == (7, 0, 0, 0)


def test_facet_matrix_base():
    m = grevlex_facet_matrix(BASE)
    # columns: ubar(3)-theta, vbar(1,3)-theta, vbar(1,4)-theta
    assert m == ((-2, 1, 3), (2, -2, -2), (0, 1, -2))


def test_facet_matrix_inverse_base():
    # N = n/den with den = theta_1 = 2: row 1 of N is (-3, -5/2, -2)
    assert grevlex_facet_matrix_inverse(BASE) == (((-6, -5, -4), (-4, -4, -2), (-2, -2, -2)), 2)


theta_vectors = st.lists(
    st.integers(min_value=1, max_value=4), min_size=3, max_size=7
).map(tuple)


@given(theta_vectors)
@settings(max_examples=40, deadline=None)
def test_inverse_recursion_matches_generic_inversion(theta):
    inst = make_grevlex(theta)
    n, den = grevlex_facet_matrix_inverse(inst)
    m = grevlex_facet_matrix(inst)
    adj, det = adjugate(m)
    # n/den = adj/det, cross-multiplied in integers
    assert [[a * det for a in row] for row in n] == [[a * den for a in row] for row in adj]
    assert [[Fraction(a, den) for a in row] for row in n] == invert(m)


def test_inverse_check_sees_every_row_at_d16():
    from dantzigfig.family import check_inverse

    inst = make_grevlex((2,) * 16)
    n, den = grevlex_facet_matrix_inverse(inst)
    m = grevlex_facet_matrix(inst)
    mutated = [list(row) for row in n]
    mutated[5][3] += 1
    with pytest.raises(CheckFailed):
        check_inverse(mutated, den, m)
    # -n/-den is the same inverse, but the facet rows need den > 0
    negated = [[-a for a in row] for row in n]
    for rows, wrong_den in ((n, den + 1), (negated, -den)):
        with pytest.raises(CheckFailed):
            check_inverse(rows, wrong_den, m)


@pytest.mark.parametrize("theta", [(2.9, 2, 2), (True, 2, 2)])
def test_make_rejects_non_integer_entries(theta):
    with pytest.raises(InvalidTheta):
        make_grevlex(theta)


def test_hrep_base_rows():
    h = grevlex_hrep(BASE)
    assert h.rows() == [
        ((-1, 0, 0), 0),
        ((0, -1, 0), 0),
        ((0, 0, -1), 0),
        ((6, 5, 4), 30),
        ((2, 2, 1), 10),
        ((1, 1, 1), 6),
    ]
    assert [str(f) for f in h.ids] == [
        "coord(1)",
        "coord(2)",
        "coord(3)",
        "missing[ubar(3)]",
        "missing[vbar(1,3)]",
        "grading",
    ]


@pytest.mark.parametrize(
    "theta",
    [(2, 2, 2), (3, 4, 5), (1, 1, 1), (2, 1, 2, 1), (5, 1, 1, 2, 3), (2, 2, 2, 1)],
)
def test_nontrivial_rows_head_equal_then_nonincreasing(theta):
    # row r: first r entries equal, then a strict drop, then nonincreasing
    h = grevlex_hrep(make_grevlex(theta))
    d = len(theta)
    for r in range(1, d + 1):
        a = h.normals[d + r - 1]
        assert all(a[i] == a[0] for i in range(r))
        if r < d:
            assert a[r - 1] > a[r]
        assert all(a[i] >= a[i + 1] for i in range(r, d - 1))
        assert a[d - 1] >= 0


def test_nontrivial_row_zero_entry_when_last_theta_is_one():
    h = grevlex_hrep(make_grevlex((2, 2, 1)))
    assert h.normals[4][2] == 0  # row d-1 loses its last coefficient


def test_incidence_base():
    inc = grevlex_incidence(BASE)
    assert {str(f) for f in inc.tight_facets(ZERO)} == {
        "coord(1)",
        "coord(2)",
        "coord(3)",
    }
    assert {str(f) for f in inc.tight_facets(UB(2))} == {
        "missing[ubar(3)]",
        "missing[vbar(1,3)]",
        "grading",
    }
    assert {str(f) for f in inc.tight_facets(VB(2, 4))} == {
        "coord(1)",
        "coord(3)",
        "missing[vbar(1,3)]",
    }


def test_incidence_vbar_sizes_at_d4():
    inst = make_grevlex((2, 2, 2, 2))
    inc = grevlex_incidence(inst)
    assert len(inc.tight_facets(VB(1, 3))) == 4
    assert len(inc.tight_facets(VB(2, 4))) == 4
    assert len(inc.tight_facets(VB(1, 5))) == 6
    assert {str(f) for f in inc.tight_facets(VB(1, 3))} == {
        "coord(2)",
        "missing[ubar(3)]",
        "missing[vbar(1,4)]",
        "grading",
    }


def test_incidence_count_formula():
    # |psi(vbar(j,k))| = d + k - j - 2
    inst = make_grevlex((2, 3, 2, 3, 2))
    inc = grevlex_incidence(inst)
    d = 5
    for k in range(3, d + 2):
        for j in range(1, k - 1):
            assert len(inc.tight_facets(VB(j, k))) == d + k - j - 2


def test_incidence_is_theta_independent_including_ones():
    a = grevlex_incidence(make_grevlex((2, 2, 2, 2)))
    b = grevlex_incidence(make_grevlex((1, 1, 1, 1)))
    c = grevlex_incidence(make_grevlex((5, 1, 3, 2)))
    assert pg.combinatorially_equal(a, b)
    assert pg.combinatorially_equal(a, c)


def test_base_edges_frozen():
    got = {tuple(map(str, e)) for e in grevlex_edges(BASE)}
    assert got == {
        ("0", "ubar(4)"),
        ("0", "vbar(1,4)"),
        ("0", "vbar(2,4)"),
        ("ubar(2)", "ubar(3)"),
        ("ubar(2)", "vbar(1,3)"),
        ("ubar(2)", "vbar(1,4)"),
        ("ubar(3)", "ubar(4)"),
        ("ubar(3)", "vbar(2,4)"),
        ("ubar(4)", "vbar(1,3)"),
        ("vbar(1,3)", "vbar(1,4)"),
        ("vbar(1,4)", "vbar(2,4)"),
    }


@pytest.mark.parametrize(
    "theta",
    [(2, 2, 2), (1, 1, 1), (2, 1, 3), (2, 2, 2, 2), (1, 1, 1, 1, 1), (2,) * 8],
)
def test_edge_count_formula_all_theta(theta):
    d = len(theta)
    assert len(grevlex_edges(make_grevlex(theta))) == (d**3 + 2 * d) // 3


def test_dominated_cross_pairs_are_non_edges():
    g = grevlex_graph(make_grevlex((2, 2, 2, 2)))
    # ubar(4) vs vbar(1,3): the short-row rule gives ubar(4)-vbar(1,3) an
    # edge only via k-1 = 3; ubar(3) pairs with vbar(1,3) only through the
    # j-1 rule. Spot-check a few non-edges across rows/columns.
    assert not g.has_edge(VB(1, 3), VB(2, 4))
    assert not g.has_edge(UB(2), VB(2, 4))
    assert not g.has_edge(ZERO, VB(1, 3))


def test_degrees_closed_form():
    d = 6
    g = grevlex_graph(make_grevlex((2,) * d))
    assert g.degree(ZERO) == d
    for k in range(2, d + 2):
        assert g.degree(UB(k)) == d
    for k in range(3, d + 2):
        for j in range(1, k - 1):
            assert g.degree(VB(j, k)) == d + k - j - 2
    assert max(g.degree_multiset()) == 2 * d - 2
    assert g.average_degree() == Fraction(4, 3) * (
        d - 1 + Fraction(d + 2, d * d + d + 2)
    )


def test_hamiltonian_base_frozen():
    cycle = [str(x) for x in grevlex_hamiltonian_cycle(BASE)]
    assert cycle == [
        "0",
        "ubar(4)",
        "ubar(3)",
        "ubar(2)",
        "vbar(1,3)",
        "vbar(1,4)",
        "vbar(2,4)",
    ]


@pytest.mark.parametrize(
    "theta",
    [
        (2, 2, 2),
        (1, 1, 1),
        (3, 1, 2),
        (2, 2, 2, 2),
        (1, 1, 1, 1, 1),
        (4, 1, 2, 1, 3, 1),
        (2,) * 8,
    ],
)
def test_hamiltonian_verified(theta):
    inst = make_grevlex(theta)
    cycle = grevlex_hamiltonian_cycle(inst)
    assert pg.verify_hamiltonian(grevlex_graph(inst), cycle)


@pytest.mark.parametrize("theta", [(2, 2, 2), (1, 1, 1, 1), (3, 2, 1, 2, 4)])
def test_radius_diameter_always_two(theta):
    assert pg.radius_and_diameter(grevlex_graph(make_grevlex(theta))) == (2, 2)


def test_coloring_base_frozen():
    col = grevlex_coloring(BASE)
    assert {str(k): c for k, c in col.items()} == {
        "0": 1,
        "ubar(2)": 0,
        "ubar(3)": 2,
        "ubar(4)": 0,
        "vbar(1,3)": 1,
        "vbar(1,4)": 2,
        "vbar(2,4)": 0,
    }


@pytest.mark.parametrize("d", range(3, 11))
def test_coloring_proper_with_d_colors(d):
    for theta in ((2,) * d, (1,) * d, tuple(1 + (i % 3) for i in range(d))):
        inst = make_grevlex(theta)
        col = grevlex_coloring(inst)
        proper, used = pg.verify_coloring(grevlex_graph(inst), col)
        assert proper and used == d


@pytest.mark.parametrize("d", range(3, 9))
def test_chromatic_lower_bound_clique(d):
    g = grevlex_graph(make_grevlex((2,) * d))
    clique = [ZERO] + [VB(j, d + 1) for j in range(1, d)]
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            assert g.has_edge(a, b)


def test_antipodal_census():
    assert {tuple(map(str, p)) for p in grevlex_antipodal(BASE)} == {
        ("0", "ubar(2)"),
        ("vbar(1,3)", "vbar(2,4)"),
    }
    for theta in ((2, 2, 2, 2), (1, 1, 1, 1, 1)):
        pairs = grevlex_antipodal(make_grevlex(theta))
        assert {tuple(map(str, p)) for p in pairs} == {("0", "ubar(2)")}


def test_expansion_reported_values():
    # exhaustively computed; no closed form is claimed for these, but the
    # value depends on d only: every theta in {1,2,3}^d at d = 3, 4 and a
    # seeded sample of 40 at d = 5 (of 243) and d = 6 (of 729)
    expected = {3: Fraction(4, 3), 4: Fraction(7, 4), 5: Fraction(15, 8), 6: Fraction(2)}
    thetas = {d: list(product((1, 2, 3), repeat=d)) for d in expected}
    thetas[5] = random.Random(5).sample(thetas[5], 40)
    thetas[6] = random.Random(6).sample(thetas[6], 40)
    for d, value in expected.items():
        for theta in thetas[d]:
            g = grevlex_graph(make_grevlex(theta))
            assert pg.edge_expansion_exact(g).value == value, theta
