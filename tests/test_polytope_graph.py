"""Graph toolkit: metrics, Hamiltonicity, coloring, exact expansion."""

import random
from fractions import Fraction
from itertools import product

import pytest

from dantzigfig import FAMILIES
from dantzigfig.polytope_graph import (
    ExpansionResult,
    Disconnected,
    LabelMismatch,
    PolytopeGraph,
    combinatorially_equal,
    cut_edges,
    eccentricities,
    edge_expansion_exact,
    proper_coloring_search,
    radius_and_diameter,
    verify_coloring,
    verify_hamiltonian,
)
from dantzigfig.polytope_core import IncidenceMatrix
from referees import coloring_search_by_recursion, eccentricities_by_bfs


def complete_graph(n):
    labels = [f"k{i}" for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    return PolytopeGraph.from_edges(labels, edges)


def cycle_graph(n):
    labels = [f"c{i}" for i in range(n)]
    edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    return PolytopeGraph.from_edges(labels, edges)


def path_graph(n):
    labels = [f"p{i}" for i in range(n)]
    edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    return PolytopeGraph.from_edges(labels, edges)


def test_basic_accessors():
    g = cycle_graph(5)
    assert len(g) == 5
    assert g.edge_count() == 5
    assert g.degree("c0") == 2
    assert g.has_edge("c0", "c4") and not g.has_edge("c0", "c2")
    assert g.adj[g.index["c0"]] == 1 << g.index["c1"] | 1 << g.index["c4"]
    assert g.degree_multiset() == (2, 2, 2, 2, 2)
    assert g.average_degree() == 2


def test_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError):
        PolytopeGraph.from_edges(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        PolytopeGraph(["a", "a"], [0, 0])


def test_radius_diameter():
    assert radius_and_diameter(complete_graph(5)) == (1, 1)
    assert radius_and_diameter(cycle_graph(6)) == (3, 3)
    assert radius_and_diameter(path_graph(5)) == (2, 4)


def test_disconnected_raises():
    g = PolytopeGraph.from_edges(["a", "b", "c"], [("a", "b")])
    with pytest.raises(Disconnected):
        radius_and_diameter(g)


def eccentricities_on_both_routes(graph):
    """(eccentricities, the BFS referee's), each a dict or Disconnected."""
    out = []
    for route in (eccentricities, eccentricities_by_bfs):
        try:
            out.append(route(graph))
        except Disconnected:
            out.append(Disconnected)
    return out


def test_eccentricities_match_the_bfs_referee_on_the_families():
    rng = random.Random(27)
    for d in range(3, 21):
        for name, theta in (
            ("grevlex", tuple(rng.randint(1, 3) for _ in range(d))),
            ("grlex", tuple(rng.randint(2, 3) for _ in range(d))),
            ("grlex", (2, 2) + tuple(rng.randint(1, 3) for _ in range(d - 2))),  # merged
        ):
            fam = FAMILIES[name]
            ours, referee = eccentricities_on_both_routes(fam.graph(fam.make(theta)))
            assert ours == referee and ours is not Disconnected, (name, theta)


def test_eccentricities_match_the_bfs_referee_on_random_graphs():
    rng = random.Random(28)
    disconnected = 0
    for _ in range(300):
        n = rng.randint(1, 30)
        p = rng.choice([0.05, 0.1, 0.2, 0.4, 0.8])
        labels = rng.sample(range(100), n)
        edges = [
            (labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        ours, referee = eccentricities_on_both_routes(PolytopeGraph.from_edges(labels, edges))
        assert ours == referee
        disconnected += ours is Disconnected
    assert 0 < disconnected < 300


@pytest.mark.parametrize(
    "edges",
    [[("a", "b")], [], [("a", "b"), ("c", "d")], [("b", "c"), ("c", "d"), ("b", "d")]],
)
def test_disconnected_raises_on_both_routes(edges):
    g = PolytopeGraph.from_edges(["a", "b", "c", "d"], edges)
    assert eccentricities_on_both_routes(g) == [Disconnected, Disconnected]


def test_one_vertex_graph_has_radius_and_diameter_zero():
    g = PolytopeGraph.from_edges(["a"], [])
    assert eccentricities(g) == eccentricities_by_bfs(g) == {"a": 0}
    assert radius_and_diameter(g) == (0, 0)


def test_verify_hamiltonian():
    g = cycle_graph(5)
    cyc = [f"c{i}" for i in range(5)]
    assert verify_hamiltonian(g, cyc)
    assert verify_hamiltonian(g, cyc[2:] + cyc[:2])
    assert not verify_hamiltonian(g, cyc[:4])
    assert not verify_hamiltonian(g, ["c0", "c2", "c4", "c1", "c3"])
    assert not verify_hamiltonian(g, cyc[:4] + ["c0"])


def test_verify_coloring():
    g = cycle_graph(4)
    ok, used = verify_coloring(g, {"c0": 1, "c1": 2, "c2": 1, "c3": 2})
    assert ok and used == 2
    bad, _ = verify_coloring(g, {"c0": 1, "c1": 1, "c2": 2, "c3": 2})
    assert not bad
    with pytest.raises(KeyError):
        verify_coloring(g, {"c0": 1})


def test_proper_coloring_search():
    assert proper_coloring_search(cycle_graph(5), 2) is None  # odd cycle
    col = proper_coloring_search(cycle_graph(5), 3)
    assert col and verify_coloring(cycle_graph(5), col) == (True, 3)
    assert proper_coloring_search(complete_graph(4), 3) is None


def test_coloring_search_is_not_bounded_by_the_recursion_limit():
    g = path_graph(3000)
    col = proper_coloring_search(g, 2)
    assert col and verify_coloring(g, col) == (True, 2)
    assert proper_coloring_search(PolytopeGraph.from_edges([], []), 1) == {}


def test_coloring_search_matches_the_recursive_search():
    # the same colorings, and None alike, so every visit comes in the same order
    rng = random.Random(2024)
    graphs = [complete_graph(5), cycle_graph(7), path_graph(9)]
    for _ in range(300):
        n = rng.randint(1, 12)
        labels = list(range(n))
        edges = [(i, j) for i in labels for j in labels[i + 1 :] if rng.random() < 0.45]
        graphs.append(PolytopeGraph.from_edges(labels, edges))
    for g in graphs:
        for k in range(1, 6):
            assert proper_coloring_search(g, k) == coloring_search_by_recursion(g, k)


def test_expansion_k4_frozen():
    result = edge_expansion_exact(complete_graph(4))
    assert result.value == 2
    assert result.boundary == 4
    assert len(result.witness) == 2


def test_expansion_cycle():
    # C6: best cut takes a contiguous path of 3, boundary 2; among the
    # six tying arcs the lexicographically smallest label set wins
    result = edge_expansion_exact(cycle_graph(6))
    assert result.value == Fraction(2, 3)
    assert result.boundary == 2
    assert sorted(result.witness) == ["c0", "c1", "c2"]


def test_expansion_tie_break_prefers_smaller_then_lexicographic():
    # path a-b-c: cutting {a} or {c} both give ratio 1; {a} wins on labels
    g = PolytopeGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    result = edge_expansion_exact(g)
    assert result.value == 1
    assert result.witness == ("a",)


def test_expansion_disconnected_is_zero():
    g = PolytopeGraph.from_edges(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    result = edge_expansion_exact(g)
    assert result.value == 0 and result.boundary == 0


def test_expansion_witness_with_labels_sharing_a_str():
    # 1 and "1" print alike; the witness must still be the zero cut {1, 2}
    g = PolytopeGraph.from_edges([1, "1", 2, 3], [(1, 2), ("1", 3)])
    result = edge_expansion_exact(g)
    assert result.value == 0 and result.boundary == 0
    assert result.witness == (1, 2)
    assert cut_edges(g, result.witness) == []


def test_expansion_cycle_of_eight():
    # the search takes no cap: the CLI's --expansion-max-n is tested in test_cli
    result = edge_expansion_exact(cycle_graph(8))
    assert result.value == Fraction(2, 4)


def test_expansion_half_split_key_comes_from_the_anchor_side():
    # path z-y-a-b: the one best cut splits it in halves; the witness is
    # the half holding vertex 0 ("z"), not the smaller labels ("a", "b")
    g = PolytopeGraph.from_edges(
        ["z", "y", "a", "b"], [("z", "y"), ("y", "a"), ("a", "b")]
    )
    result = edge_expansion_exact(g)
    assert result == ExpansionResult(Fraction(1, 2), ("y", "z"), 1)
    assert gray_code_expansion(g) == result


def test_expansion_greedy_incumbent_is_keyed_from_the_anchor_side():
    # two triangles x-y-z and a-b-c joined by z-a: the best cut splits them
    # in halves, and the greedy cut grown from "a" is {a, b, c}; its key
    # must come from the half holding vertex 0 ("x"), as at a leaf
    g = PolytopeGraph.from_edges(
        ["x", "y", "z", "a", "b", "c"],
        [("x", "y"), ("y", "z"), ("x", "z"), ("z", "a"), ("a", "b"), ("b", "c"), ("a", "c")],
    )
    result = edge_expansion_exact(g)
    assert result == ExpansionResult(Fraction(1, 3), ("x", "y", "z"), 1)
    assert gray_code_expansion(g) == result


# ------------------------------------------------ Gray-code referee


def gray_code_expansion(graph: PolytopeGraph) -> ExpansionResult:
    """Every anchored cut in Gray-code order: 2^(n-1) steps.

    Every unordered bipartition is visited once as the subset containing
    vertex 0; the cut size is updated incrementally per single-vertex
    flip. Ties go to the smaller min(|S|, n - |S|), then to the
    lexicographically smaller sorted str(label) tuple of the smaller side
    (of the side holding vertex 0 when |S| = n/2).
    """
    n = len(graph)
    adj = graph.adj
    deg = [m.bit_count() for m in adj]
    label_keys = [str(lab) for lab in graph.labels]
    full = (1 << n) - 1

    def side_key(m: int):
        side = m if 2 * m.bit_count() <= n else full & ~m
        return tuple(sorted(label_keys[i] for i in range(n) if side >> i & 1))

    mask = 1  # S = {vertex 0}, the anchor
    size = 1
    cut = deg[0]
    best_cut, best_size = cut, 1
    best_key = side_key(mask)

    for step in range(1, 1 << (n - 1)):
        v = (step & -step).bit_length()  # flipped non-anchor vertex index
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            size -= 1
            cut -= deg[v] - 2 * (adj[v] & mask).bit_count()
        else:
            cut += deg[v] - 2 * (adj[v] & mask).bit_count()
            mask ^= bit
            size += 1
        eff = min(size, n - size)
        if eff == 0:
            continue
        lhs, rhs = cut * best_size, best_cut * eff
        if lhs > rhs or (lhs == rhs and eff > best_size):
            continue
        if lhs < rhs or eff < best_size:
            best_cut, best_size = cut, eff
            best_key = side_key(mask)
        else:
            best_key = min(best_key, side_key(mask))

    order = {key: i for i, key in enumerate(label_keys)}
    witness = tuple(graph.labels[order[k]] for k in best_key)
    return ExpansionResult(Fraction(best_cut, best_size), witness, best_cut)


def family_graphs():
    """grevlex (2,...,2) and every grlex merge pattern (2, 2, 1|2, ...) at
    d = 3..6; the all-2 pattern is the strict grlex instance."""
    grlex, grevlex = FAMILIES["grlex"], FAMILIES["grevlex"]
    for d in range(3, 7):
        yield f"grevlex-{d}", grevlex.graph(grevlex.make((2,) * d))
        for tail in product((1, 2), repeat=d - 2):
            theta = (2, 2) + tail
            yield f"grlex-{theta}", grlex.graph(grlex.make(theta))


def random_graphs(count=400, seed=2016):
    """Labels in shuffled order; sparse draws are often disconnected, with
    h = 0 and many tied zero cuts."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 13)
        p = rng.choice([0.1, 0.2, 0.35, 0.5, 0.8])
        labels = [f"r{j}" for j in rng.sample(range(100), n)]
        edges = [
            (labels[i], labels[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        yield f"random-{k}", PolytopeGraph.from_edges(labels, edges)


def hypercube_graph(k):
    labels = [format(i, f"0{k}b") for i in range(1 << k)]
    edges = [
        (labels[i], labels[i ^ (1 << j)])
        for i in range(1 << k)
        for j in range(k)
        if i < i ^ (1 << j)
    ]
    return PolytopeGraph.from_edges(labels, edges)


def tied_graphs():
    """Cycles, complete graphs and hypercubes: many cuts share the ratio."""
    for n in range(3, 17):
        yield f"cycle-{n}", cycle_graph(n)
    for n in range(2, 13):
        yield f"complete-{n}", complete_graph(n)
    for k in range(1, 5):
        yield f"hypercube-{k}", hypercube_graph(k)


@pytest.mark.parametrize(
    "graphs", [family_graphs, random_graphs, tied_graphs], ids=lambda f: f.__name__
)
def test_expansion_matches_gray_code_referee(graphs):
    for name, graph in graphs():
        assert len(graph) <= 22
        result = edge_expansion_exact(graph)
        assert result == gray_code_expansion(graph), name
        assert len(cut_edges(graph, result.witness)) == result.boundary, name


def test_cut_edges():
    g = cycle_graph(4)
    cut = cut_edges(g, ["c0", "c1"])
    assert sorted(cut) == [("c0", "c3"), ("c1", "c2")]


def test_combinatorially_equal_raises_on_label_mismatch():
    a = IncidenceMatrix(["x", "y"], ["f", "g"], [0b01, 0b10])
    b = IncidenceMatrix(["x", "z"], ["f", "g"], [0b01, 0b10])
    c = IncidenceMatrix(["y", "x"], ["g", "f"], [0b01, 0b10])
    with pytest.raises(LabelMismatch):
        combinatorially_equal(a, b)
    assert combinatorially_equal(a, c)  # same bits under renaming both axes
    d = IncidenceMatrix(["x", "y"], ["f", "g"], [0b11, 0b10])
    assert not combinatorially_equal(a, d)
