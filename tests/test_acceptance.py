"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Every criterion prints "[acceptance] C<n> <slug>: PASS|FAIL (…s, cap …s)"
so the test output doubles as a sign-off checklist. All checks are exact
(integer/rational equality, no tolerances); each criterion also enforces
its own wall-clock cap, so a slow pass is reported as a failure.

Random draws use fixed seeds: reruns exercise identical instances.
"""

import json
import random
import time
from fractions import Fraction
from operator import mul

from dantzigfig import FAMILIES, cli
from dantzigfig.polytope_core import (
    VertexLabel,
    adjacency_from_incidence,
    cone_cover_test,
    dantzig_hrep,
    incidence,
    list_antipodal_pairs,
    tangent_cone,
)
from dantzigfig.polytope_graph import (
    cut_edges,
    edge_expansion_exact,
    radius_and_diameter,
    verify_coloring,
    verify_hamiltonian,
)
from dantzigfig import grlex_family as gl
from dantzigfig import grevlex_family as gv
from dantzigfig.oracle import (
    enumerate_segment,
    facet_irredundancy,
    hull_vertices_by_basis,
    verify_hull_equivalence,
)

F = Fraction


def _line(capsys, number, slug, ok, elapsed, cap, extra=""):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(
            f"[acceptance] C{number} {slug}: {verdict}"
            f" ({elapsed:.2f}s, cap {cap:.0f}s){extra}"
        )


def _draws(seed, lo, hi, dims=range(3, 9), per_d=3):
    rng = random.Random(seed)
    return [
        tuple(rng.randint(lo, hi) for _ in range(d)) for d in dims for _ in range(per_d)
    ]


# drawn once, shared by criteria 1 and 2 ("same instances")
SEGMENT_DRAWS = _draws(101, 2, 5)

# the hull-equivalence matrix: every instance has b <= 25; grevlex gets
# all-ones entries, grlex gets mixed-ones entries
HULL_MATRIX = (
    ("grlex", (2, 2, 2)),
    ("grlex", (3, 1, 2)),
    ("grlex", (5, 5, 5)),
    ("grlex", (2, 3, 2, 1)),
    ("grlex", (1, 2, 1, 3)),
    ("grlex", (1, 1, 1, 1)),
    ("grlex", (2, 2, 2, 2, 2)),
    ("grlex", (5, 5, 5, 5, 5)),
    ("grevlex", (2, 2, 2)),
    ("grevlex", (1, 1, 1)),
    ("grevlex", (3, 1, 2)),
    ("grevlex", (2, 3, 2, 1)),
    ("grevlex", (1, 1, 1, 1)),
    ("grevlex", (2, 2, 2, 2, 2)),
    ("grevlex", (5, 5, 5, 5, 5)),
    ("grevlex", (1, 1, 1, 1, 1, 1)),
)


def test_c01_vertex_sets_match_basis_oracle(capsys):
    cap, started, ok = 10.0, time.perf_counter(), False
    try:
        for theta in SEGMENT_DRAWS:
            d = len(theta)
            for fam in FAMILIES.values():
                inst = fam.make(theta)
                v = fam.vertices(inst)
                assert len(v) == (d * d + d + 2) // 2
                basis = hull_vertices_by_basis(fam.hrep(inst))
                assert basis.coordinate_set() == v.coordinate_set()
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 1, "vertex-sets-match-basis-oracle", ok,
              time.perf_counter() - started, cap)


def test_c02_edge_counts_and_adjacency(capsys):
    cap, started, ok = 10.0, time.perf_counter(), False
    try:
        for theta in SEGMENT_DRAWS:
            d = len(theta)
            for fam in FAMILIES.values():
                inst = fam.make(theta)
                closed = fam.edges(inst)
                assert len(closed) == (d**3 + 2 * d) // 3
                derived = adjacency_from_incidence(fam.hrep(inst), fam.incidence(inst))
                assert {frozenset(e) for e in closed} == {
                    frozenset(e) for e in derived
                }
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 2, "edge-counts-and-adjacency", ok,
              time.perf_counter() - started, cap)


def test_c03_facet_matrix_inverses(capsys):
    cap, started, ok = 5.0, time.perf_counter(), False
    try:
        for theta in _draws(103, 1, 4, dims=range(3, 11)):
            d = len(theta)
            p, q = gl.make_grlex(theta), gv.make_grevlex(theta)
            for (n, den), m in (
                (gl.grlex_facet_matrix_inverse(p), gl.grlex_facet_matrix(p)),
                (gv.grevlex_facet_matrix_inverse(q), gv.grevlex_facet_matrix(q)),
            ):
                # N = n/den, so N·M = I reads n·M = den·I in integers
                product = [[sum(map(mul, row, col)) for col in zip(*m)] for row in n]
                assert den > 0
                assert product == [[den * (i == j) for j in range(d)] for i in range(d)]
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 3, "facet-matrix-inverses", ok,
              time.perf_counter() - started, cap)


def test_c04_hull_equivalence_matrix(capsys):
    # the piece-vertex oracle on the matrix, refereed by the enumerated
    # segment; then the CLI oracle suite at d = 30, far past enumeration
    cap, started, ok = 60.0, time.perf_counter(), False
    frontier_cap = 10.0
    try:
        for family, theta in HULL_MATRIX:
            assert sum(theta) <= 25
            fam = FAMILIES[family]
            inst = fam.make(theta)
            h = fam.hrep(inst)
            report = verify_hull_equivalence(fam.kind, theta, h, fam.vertices(inst))
            assert report["pass"], (family, theta, report)
            segment = enumerate_segment(fam.kind, theta)
            assert report["segment_points"] == len(segment), (family, theta)
            assert h.contains_all(segment.points), (family, theta)
        frontier_started = time.perf_counter()
        theta = ",".join(map(str, (3, 3, 3) + (2,) * 27))
        for family in FAMILIES:
            code = cli.main(["verify", "--family", family, "--theta", theta, "--suites", "oracle"])
            (suite,) = json.loads(capsys.readouterr().out)["suites"]
            assert code == cli.EXIT_OK and suite["passed"], (family, suite)
        assert time.perf_counter() - frontier_started < frontier_cap
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 4, "hull-equivalence-matrix", ok,
              time.perf_counter() - started, cap)


def test_c05_dantzig_antipodal_certification(capsys):
    cap, started, ok = 5.0, time.perf_counter(), False
    try:
        rng = random.Random(105)
        for d in range(3, 9):
            cases = [
                ("grlex", (2,) * d),
                ("grlex", tuple(rng.randint(2, 4) for _ in range(d))),
                ("grevlex", (2,) * d),
                ("grevlex", (1,) * d),
            ]
            for family, theta in cases:
                fam = FAMILIES[family]
                inst = fam.make(theta)
                h, v, inc = fam.hrep(inst), fam.vertices(inst), fam.incidence(inst)
                apexes = (
                    (VertexLabel.zero(), VertexLabel.theta())
                    if family == "grlex"
                    else (VertexLabel.zero(), VertexLabel.ubar(2))
                )
                cover = 0
                for label in apexes:
                    cover |= inc.vertex_masks[inc.labels.index(label)]
                assert cover == (1 << len(h.normals)) - 1  # every facet hit
                expected = {frozenset(apexes)}
                if family == "grevlex" and d == 3:
                    expected.add(
                        frozenset(
                            (VertexLabel.vbar(1, 3), VertexLabel.vbar(2, 4))
                        )
                    )
                pairs = {frozenset(p) for p in list_antipodal_pairs(inc)}
                assert pairs == expected, (family, theta, pairs)
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 5, "dantzig-antipodal-certification", ok,
              time.perf_counter() - started, cap)


def test_c06_graph_metrics_hamiltonicity_chromatic(capsys):
    cap, started, ok = 10.0, time.perf_counter(), False
    try:
        for d in range(3, 9):
            p = gl.make_grlex((3,) * d)
            gp = gl.grlex_graph(p)
            assert radius_and_diameter(gp) == (2, 2 if d == 3 else 3)
            assert verify_hamiltonian(gp, gl.grlex_hamiltonian_cycle(p))
            coloring = gl.grlex_coloring(p)
            assert verify_coloring(gp, coloring) == (True, d)
            clique = [VertexLabel.theta(), VertexLabel.w()] + [
                VertexLabel.u(k) for k in range(3, d + 1)
            ]
            assert len(clique) == d
            assert all(
                gp.has_edge(a, b)
                for i, a in enumerate(clique)
                for b in clique[i + 1 :]
            )

            q = gv.make_grevlex((2,) * d)
            gq = gv.grevlex_graph(q)
            assert radius_and_diameter(gq) == (2, 2)
            assert verify_hamiltonian(gq, gv.grevlex_hamiltonian_cycle(q))
            coloring = gv.grevlex_coloring(q)
            assert verify_coloring(gq, coloring) == (True, d)
            clique = [VertexLabel.zero()] + [
                VertexLabel.vbar(j, d + 1) for j in range(1, d)
            ]
            assert len(clique) == d
            assert all(
                gq.has_edge(a, b)
                for i, a in enumerate(clique)
                for b in clique[i + 1 :]
            )
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 6, "graph-metrics-hamiltonicity-chromatic", ok,
              time.perf_counter() - started, cap)


def test_c07_edge_expansion(capsys):
    cap, started, ok = 300.0, time.perf_counter(), False
    reported = []
    try:
        # exact expansion, both families
        for d in range(3, 7):
            p = gl.make_grlex((2,) * d)
            result = edge_expansion_exact(gl.grlex_graph(p))
            assert result.value == 1, (d, result.value)
            q = gv.make_grevlex((2,) * d)
            qres = edge_expansion_exact(gv.grevlex_graph(q))
            reported.append(f"d={d}:{qres.value}")
        # past the default 24-vertex cap: grevlex d = 7 (n = 29) and the
        # grlex ratio 1 up to d = 10 (n = 56)
        graph = gv.grevlex_graph(gv.make_grevlex((2,) * 7))
        qres = edge_expansion_exact(graph, max_vertices=len(graph))
        assert qres.value == F(32, 13), qres.value
        reported.append(f"d=7:{qres.value}")
        for d in range(7, 11):
            graph = gl.grlex_graph(gl.make_grlex((2,) * d))
            result = edge_expansion_exact(graph, max_vertices=len(graph))
            assert result.value == 1, (d, result.value)
        # a merged grlex theta keeps ratio 1 while theta_d >= 2, not after
        for theta, h in [
            ((2, 1, 2, 2), 1),
            ((1, 1, 1, 1), F(7, 4)),
            ((2, 2, 2, 1), F(8, 5)),
            ((1, 1, 2, 1), F(8, 5)),
        ]:
            result = edge_expansion_exact(gl.grlex_graph(gl.make_grlex(theta)))
            assert result.value == h, (theta, result.value)
        # the designated witness set achieves ratio 1
        for d in range(3, 9):
            p = gl.make_grlex((2,) * d)
            witness, _claimed = gl.grlex_expansion_witness(p)
            boundary = cut_edges(gl.grlex_graph(p), witness)
            assert F(len(boundary), len(witness)) == 1
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 7, "edge-expansion", ok,
              time.perf_counter() - started, cap,
              extra=" [h(G(Q)) reported: " + ", ".join(reported) + "]")


def test_c08_combinatorial_equivalence(capsys):
    cap, started, ok = 5.0, time.perf_counter(), False
    try:
        from dantzigfig.polytope_graph import combinatorially_equal

        pairs = [
            ((2, 2, 2), (5, 3, 4)),
            ((2, 2, 2, 2), (3, 4, 2, 5)),
            ((2, 2, 2, 2, 2), (4, 2, 3, 5, 2)),
        ]
        for ta, tb in pairs:  # grlex needs both strict
            assert combinatorially_equal(
                gl.grlex_incidence(gl.make_grlex(ta)),
                gl.grlex_incidence(gl.make_grlex(tb)),
            )
        pairs = [
            ((1, 1, 1), (4, 2, 3)),
            ((2, 1, 2, 1), (3, 3, 3, 3)),
            ((1, 1, 1, 1, 1), (2, 3, 1, 2, 4)),
        ]
        for ta, tb in pairs:  # grevlex tolerates ones anywhere
            assert combinatorially_equal(
                gv.grevlex_incidence(gv.make_grevlex(ta)),
                gv.grevlex_incidence(gv.make_grevlex(tb)),
            )
        # inequivalence across families: degree multisets split d >= 4
        for d in range(4, 7):
            gp = gl.grlex_graph(gl.make_grlex((2,) * d))
            gq = gv.grevlex_graph(gv.make_grevlex((2,) * d))
            assert gp.degree_multiset() != gq.degree_multiset()
        # at d = 3 the degree multisets agree and the facet vertex-count
        # multisets are the discriminating certificate
        gp = gl.grlex_graph(gl.make_grlex((2, 2, 2)))
        gq = gv.grevlex_graph(gv.make_grevlex((2, 2, 2)))
        assert gp.degree_multiset() == gq.degree_multiset()
        p_counts = sorted(
            (m.bit_count() for m in gl.grlex_incidence(gl.make_grlex((2, 2, 2))).facet_masks),
            reverse=True,
        )
        q_counts = sorted(
            (m.bit_count() for m in gv.grevlex_incidence(gv.make_grevlex((2, 2, 2))).facet_masks),
            reverse=True,
        )
        assert p_counts == [5, 4, 4, 3, 3, 3]
        assert q_counts == [4, 4, 4, 4, 3, 3]
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 8, "combinatorial-equivalence", ok,
              time.perf_counter() - started, cap)


def test_c09_monotone_facet_normals(capsys):
    cap, started, ok = 1.0, time.perf_counter(), False
    try:
        for family, theta in HULL_MATRIX:
            fam = FAMILIES[family]
            h = fam.hrep(fam.make(theta))
            nontrivial = [
                normal
                for fid, (normal, _beta) in zip(h.ids, h.rows())
                if not str(fid).startswith("coord")
            ]
            assert len(nontrivial) == len(theta)
            for normal in nontrivial:
                assert all(a >= 0 for a in normal)
                if family == "grlex":
                    assert all(
                        normal[i] <= normal[i + 1] for i in range(len(normal) - 1)
                    )
                else:
                    assert all(
                        normal[i] >= normal[i + 1] for i in range(len(normal) - 1)
                    )
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 9, "monotone-facet-normals", ok,
              time.perf_counter() - started, cap)


def test_c10_conic_characterization(capsys):
    cap, started, ok = 5.0, time.perf_counter(), False
    try:
        cases = [("grlex", (2, 2, 1)), ("grevlex", (1, 1, 1, 1))]
        cases += [
            (family, (2,) * d) for d in range(3, 7) for family in FAMILIES
        ]
        for family, theta in cases:
            fam = FAMILIES[family]
            inst = fam.make(theta)
            h, v = fam.hrep(inst), fam.vertices(inst)
            inc = incidence(h, v)
            apexes = (
                (VertexLabel.zero(), VertexLabel.theta())
                if family == "grlex"
                else (VertexLabel.zero(), VertexLabel.ubar(2))
            )
            assert cone_cover_test(inc, set(apexes))
            assert not cone_cover_test(inc, {VertexLabel.zero()})
            rebuilt = dantzig_hrep(
                tangent_cone(h, v, apexes[0], inc), tangent_cone(h, v, apexes[1], inc)
            )
            assert rebuilt.same_polytope_rows(h)
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 10, "conic-characterization", ok,
              time.perf_counter() - started, cap)


def test_c11_dd_ladder_to_d20(capsys):
    # C1 and the facets suite past the segment oracle's reach: one double
    # description per instance gives the vertices and decides every row
    cap, started, ok = 30.0, time.perf_counter(), False
    try:
        for theta in _draws(111, 2, 4, dims=(12, 16, 20), per_d=1):
            d = len(theta)
            for fam in FAMILIES.values():
                inst = fam.make(theta)
                v, h = fam.vertices(inst), fam.hrep(inst)
                assert len(v) == (d * d + d + 2) // 2
                basis = hull_vertices_by_basis(h)
                assert basis.coordinate_set() == v.coordinate_set()
                rows = facet_irredundancy(h)
                assert len(rows) == 2 * d and all(r["changed"] for r in rows)
        assert time.perf_counter() - started < cap
        ok = True
    finally:
        _line(capsys, 11, "dd-ladder-to-d20", ok,
              time.perf_counter() - started, cap)
