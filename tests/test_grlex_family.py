"""The grlex polytope P: closed forms against frozen values and oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dantzigfig.exactmath import Matrix, invert
from dantzigfig.grlex_family import (
    GrlexInstance,
    RequiresStrictTheta,
    grlex_coloring,
    grlex_coloring_relaxed,
    grlex_edges,
    grlex_expansion_witness,
    grlex_facet_matrix,
    grlex_facet_matrix_inverse,
    grlex_graph,
    grlex_hamiltonian_cycle,
    grlex_hrep,
    grlex_incidence,
    grlex_vertices,
    make_grlex,
    u_label,
)
from dantzigfig import polytope_graph as pg
from dantzigfig.polytope_core import (
    CheckFailed,
    FacetId,
    InvalidTheta,
    UnsupportedDimension,
    VertexLabel,
)

V, U = VertexLabel.v, VertexLabel.u
ZERO, THETA, W = VertexLabel.zero(), VertexLabel.theta(), VertexLabel.w()

BASE = make_grlex((2, 2, 2))


def test_instance_validation():
    with pytest.raises(UnsupportedDimension):
        make_grlex((2, 2))
    with pytest.raises(InvalidTheta):
        make_grlex((2, 0, 2))
    with pytest.raises(InvalidTheta):
        GrlexInstance((2, 2, -1))
    inst = make_grlex((3, 1, 2, 1))
    assert inst.b == 7
    assert inst.btilde == (3, 4, 6, 7)
    assert not inst.strict
    assert inst.merged_ks == (4,)
    assert BASE.strict and BASE.merged_ks == ()


def test_base_vertices():
    got = {str(l): c for l, c in grlex_vertices(BASE)}
    assert got == {
        "0": (0, 0, 0),
        "theta": (2, 2, 2),
        "w": (0, 0, 5),
        "u(3)": (0, 5, 1),
        "v(1,2)": (4, 0, 2),
        "v(1,3)": (6, 0, 0),
        "v(2,3)": (0, 6, 0),
    }


@pytest.mark.parametrize("d", range(3, 9))
def test_vertex_count_formula(d):
    strict = make_grlex(tuple(2 + (i % 3) for i in range(d)))
    assert len(grlex_vertices(strict)) == (d * d + d + 2) // 2
    ones = make_grlex((1,) * d)
    assert len(grlex_vertices(ones)) == (d * d + d + 2) // 2 - (d - 2)


def test_merged_vertex_keeps_v_label():
    inst = make_grlex((1, 1, 1))
    labels = {str(l) for l in grlex_vertices(inst).labels()}
    assert labels == {"0", "theta", "w", "v(1,2)", "v(1,3)", "v(2,3)"}
    assert grlex_vertices(inst).coords(V(2, 3)) == (0, 3, 0)
    assert u_label(inst, 3) == V(2, 3)
    assert u_label(BASE, 3) == U(3)


def test_facet_matrix_base():
    m = grlex_facet_matrix(BASE)
    # columns: v(1,2)-theta, u(3)-theta, w-theta
    assert m.tolists() == [[2, -2, -2], [-2, 3, -2], [0, -1, 3]]


def test_facet_matrix_inverse_base():
    n = grlex_facet_matrix_inverse(BASE)
    assert n.tolists() == [
        [Fraction(-7, 2), -4, -5],
        [-3, -3, -4],
        [-1, -1, -1],
    ]


theta_vectors = st.lists(
    st.integers(min_value=1, max_value=4), min_size=3, max_size=7
).map(tuple)


@given(theta_vectors)
@settings(max_examples=40, deadline=None)
def test_inverse_recursion_matches_generic_inversion(theta):
    inst = make_grlex(theta)
    n = grlex_facet_matrix_inverse(inst)
    assert n == invert(grlex_facet_matrix(inst))
    assert n * grlex_facet_matrix(inst) == Matrix.identity(inst.d)


def test_inverse_check_sees_every_row_at_d16():
    from dantzigfig.family import check_inverse

    inst = make_grlex((2,) * 16)
    n = grlex_facet_matrix_inverse(inst).tolists()
    n[5][3] += 1
    with pytest.raises(CheckFailed):
        check_inverse(Matrix(n), grlex_facet_matrix(inst))


@pytest.mark.parametrize("theta", [(2.9, 2, 2), (True, 2, 2)])
def test_make_rejects_non_integer_entries(theta):
    with pytest.raises(InvalidTheta):
        make_grlex(theta)


def test_hrep_base_rows():
    h = grlex_hrep(BASE)
    assert h.rows() == [
        ((-1, 0, 0), 0),
        ((0, -1, 0), 0),
        ((0, 0, -1), 0),
        ((7, 8, 10), 50),
        ((3, 3, 4), 20),
        ((1, 1, 1), 6),
    ]
    assert [str(f) for f in h.ids] == [
        "coord(1)",
        "coord(2)",
        "coord(3)",
        "missing[v(1,2)]",
        "missing[u(3)]",
        "grading",
    ]


def test_hrep_merged_row_renamed():
    inst = make_grlex((2, 2, 1, 2))
    names = [str(f) for f in grlex_hrep(inst).ids]
    assert "missing[v(2,3)]" in names
    assert "missing[u(3)]" not in names
    assert "missing[u(4)]" in names


@pytest.mark.parametrize(
    "theta",
    [(2, 2, 2), (3, 4, 5), (1, 1, 1), (2, 1, 2, 1), (5, 1, 1, 2, 3)],
)
def test_nontrivial_normals_nondecreasing_positive(theta):
    h = grlex_hrep(make_grlex(theta))
    d = len(theta)
    for r in range(d, 2 * d):
        a = h.normals[r]
        assert all(x > 0 for x in a)
        assert all(a[i] <= a[i + 1] for i in range(d - 1))


def test_incidence_base_examples():
    inc = grlex_incidence(BASE)
    assert {str(f) for f in inc.tight_facets(ZERO)} == {
        "coord(1)",
        "coord(2)",
        "coord(3)",
    }
    assert {str(f) for f in inc.tight_facets(W)} == {
        "coord(1)",
        "coord(2)",
        "missing[v(1,2)]",
        "missing[u(3)]",
    }
    assert {str(f) for f in inc.tight_facets(V(2, 3))} == {
        "coord(1)",
        "coord(3)",
        "grading",
    }
    assert {str(f) for f in inc.tight_facets(THETA)} == {
        "missing[v(1,2)]",
        "missing[u(3)]",
        "grading",
    }


def test_incidence_u4_at_d5():
    inst = make_grlex((2, 2, 2, 2, 2))
    inc = grlex_incidence(inst)
    tight = inc.tight_facets(U(4))
    assert len(tight) == 6
    assert {str(f) for f in tight} == {
        "coord(1)",
        "coord(2)",
        "missing[v(1,2)]",
        "missing[u(3)]",
        "missing[u(5)]",
        "grading",
    }


def test_incidence_merged_vertex_gains_own_plane():
    inst = make_grlex((2, 2, 1, 2))
    inc = grlex_incidence(inst)
    tight = {str(f) for f in inc.tight_facets(V(2, 3))}
    # u-type tight set (all nontrivial rows but its own) plus coord(3)
    assert tight == {
        "coord(1)",
        "coord(3)",
        "missing[v(1,2)]",
        "missing[u(4)]",
        "grading",
    }


def test_incidence_is_theta_independent():
    a = grlex_incidence(make_grlex((2, 2, 2, 2)))
    b = grlex_incidence(make_grlex((5, 3, 2, 4)))
    assert pg.combinatorially_equal(a, b)


def test_base_edges_frozen():
    got = {tuple(map(str, e)) for e in grlex_edges(BASE)}
    assert got == {
        ("0", "w"),
        ("0", "v(1,3)"),
        ("0", "v(2,3)"),
        ("theta", "w"),
        ("theta", "u(3)"),
        ("theta", "v(1,2)"),
        ("w", "u(3)"),
        ("w", "v(1,2)"),
        ("u(3)", "v(2,3)"),
        ("v(1,2)", "v(1,3)"),
        ("v(1,3)", "v(2,3)"),
    }


@pytest.mark.parametrize("d", range(3, 9))
def test_edge_count_formula(d):
    inst = make_grlex(tuple(2 + ((i + d) % 4) for i in range(d)))
    assert len(grlex_edges(inst)) == (d**3 + 2 * d) // 3


def test_degrees_closed_form():
    d = 6
    g = grlex_graph(make_grlex((2,) * d))
    assert g.degree(W) == (d * d - d + 2) // 2
    assert g.degree(ZERO) == d
    assert g.degree(THETA) == d
    for k in range(3, d + 1):
        assert g.degree(U(k)) == d + (k - 2) * (k - 3) // 2
    for k in range(2, d + 1):
        for j in range(1, k):
            assert g.degree(V(j, k)) == d
    assert g.average_degree() == Fraction(4, 3) * (
        d - 1 + Fraction(d + 2, d * d + d + 2)
    )


def test_w_neighborhood_at_d4():
    # both v(1,3) and v(2,3) neighbor w at d=4; last column does not
    g = grlex_graph(make_grlex((2, 2, 2, 2)))
    assert g.has_edge(W, V(1, 3)) and g.has_edge(W, V(2, 3))
    assert not any(g.has_edge(W, V(j, 4)) for j in range(1, 4))
    assert g.has_edge(W, V(1, 2))


def test_merged_contraction_at_d4():
    inst = make_grlex((2, 2, 1, 2))
    g = grlex_graph(inst)
    # v(2,3) inherits u(3)'s neighbors: theta and w among them
    assert g.has_edge(V(2, 3), THETA)
    assert g.has_edge(V(2, 3), W)
    assert len(grlex_edges(inst)) < (4**3 + 8) // 3


def test_hamiltonian_base_frozen():
    cycle = [str(x) for x in grlex_hamiltonian_cycle(BASE)]
    assert cycle == ["0", "v(1,3)", "v(2,3)", "u(3)", "theta", "v(1,2)", "w"]


@pytest.mark.parametrize(
    "theta",
    [
        (2, 2, 2),
        (2, 2, 2, 2),
        (3, 2, 4, 2, 2),
        (2,) * 8,
        (1, 1, 1),
        (2, 1, 2, 1),
        (1, 2, 1, 2, 1),
        (2, 2, 2, 1),
        (4, 3, 1, 1, 2, 1),
    ],
)
def test_hamiltonian_verified(theta):
    inst = make_grlex(theta)
    cycle = grlex_hamiltonian_cycle(inst)
    assert pg.verify_hamiltonian(grlex_graph(inst), cycle)


def test_radius_diameter():
    assert pg.radius_and_diameter(grlex_graph(BASE)) == (2, 2)
    for d in (4, 5, 6):
        g = grlex_graph(make_grlex((2,) * d))
        assert pg.radius_and_diameter(g) == (2, 3)


def test_coloring_base_frozen():
    col = grlex_coloring(BASE)
    assert {str(k): c for k, c in col.items()} == {
        "0": 2,
        "theta": 1,
        "w": 3,
        "u(3)": 2,
        "v(1,2)": 2,
        "v(1,3)": 1,
        "v(2,3)": 3,
    }


@pytest.mark.parametrize("d", range(3, 11))
def test_coloring_proper_with_d_colors(d):
    inst = make_grlex(tuple(2 + (i % 2) for i in range(d)))
    col = grlex_coloring(inst)
    proper, used = pg.verify_coloring(grlex_graph(inst), col)
    assert proper and used == d


@pytest.mark.parametrize("d", range(3, 9))
def test_chromatic_lower_bound_clique(d):
    g = grlex_graph(make_grlex((3,) * d))
    clique = [THETA, W] + [U(k) for k in range(3, d + 1)]
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            assert g.has_edge(a, b)
    last_col = [ZERO] + [V(j, d) for j in range(1, d)]
    for i, a in enumerate(last_col):
        for b in last_col[i + 1 :]:
            assert g.has_edge(a, b)


def test_coloring_requires_strict():
    with pytest.raises(RequiresStrictTheta):
        grlex_coloring(make_grlex((2, 1, 2)))


@pytest.mark.parametrize(
    "theta", [(1, 1, 1), (2, 1, 2), (2, 2, 1, 1), (1, 1, 1, 1, 1), (3, 1, 2, 1)]
)
def test_coloring_relaxed_on_merged(theta):
    inst = make_grlex(theta)
    col, used = grlex_coloring_relaxed(inst)
    proper, n = pg.verify_coloring(grlex_graph(inst), col)
    assert proper and used == n
    assert used >= len(theta)  # the d-clique survives contraction


def test_coloring_relaxed_builds_no_second_instance():
    # the strict scheme depends on d alone, so no strict twin is built
    grlex_edges.cache_clear()
    _, used = grlex_coloring_relaxed(make_grlex((2, 1, 2, 1, 1)))
    assert used == 5 and grlex_edges.cache_info().currsize == 1


def test_coloring_relaxed_raises_when_search_fails(monkeypatch):
    monkeypatch.setattr(pg, "verify_coloring", lambda graph, coloring: (False, 0))
    monkeypatch.setattr(pg, "proper_coloring_search", lambda graph, k: None)
    with pytest.raises(CheckFailed):
        grlex_coloring_relaxed(make_grlex((2, 1, 2, 1)))


def test_expansion_witness_base():
    s, boundary = grlex_expansion_witness(BASE)
    assert s == {ZERO, V(1, 3), V(2, 3)}
    assert boundary == 3
    with pytest.raises(RequiresStrictTheta):
        grlex_expansion_witness(make_grlex((1, 2, 2)))


@pytest.mark.parametrize("d", range(3, 7))
def test_expansion_exact_is_one(d):
    inst = make_grlex((2,) * d)
    result = pg.edge_expansion_exact(grlex_graph(inst))
    assert result.value == 1
    assert result.boundary == d


@pytest.mark.parametrize("d", [7, 8])
def test_expansion_witness_ratio_one_large_d(d):
    inst = make_grlex((3,) * d)
    s, boundary = grlex_expansion_witness(inst)
    assert boundary == len(s) == d


def test_cached_instances_are_shared():
    a = make_grlex((2, 2, 2))
    assert grlex_vertices(a) is grlex_vertices(BASE)
