"""Graph layer: constructions, homomorphism search, statistics."""

from __future__ import annotations

import itertools
import random

import pytest

from homlab.graphs import (
    INFINITE,
    Graph,
    Partition,
    check_homomorphism,
    chromatic_number,
    clique_graph_B,
    common_neighbors,
    complete_graph,
    cycle_graph,
    exponential,
    exponential_vertex_maps,
    find_homomorphism,
    graph_from_json,
    graph_stats,
    graph_to_json,
    is_colorable,
    is_dismantlable,
    is_fine,
    is_isomorphic,
    looped_path,
    looped_subgraph_S,
    min_diameter_spanning_tree,
    odd_girth,
    one_graph,
    product,
    quotient,
    reflexive_closure,
    reflexive_cycle,
    same_structure,
)


def _random_graph(rng: random.Random, n: int, p: float = 0.4, loops: float = 0.2) -> Graph:
    edges = []
    for u in range(n):
        if rng.random() < loops:
            edges.append((u, u))
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def _all_homomorphisms(g: Graph, h: Graph) -> list[tuple[int, ...]]:
    return [f for f in itertools.product(range(h.n), repeat=g.n)
            if check_homomorphism(f, g, h)]


# ---------------------------------------------------------------------------
# constructions

def test_reflexive_closure_counts_loops_once():
    g = reflexive_closure(cycle_graph(5))
    assert len(g.edges()) == 10  # 5 edges + 5 loops
    assert g.is_reflexive()
    assert reflexive_closure(g).adj == g.adj


def test_degree_loop_convention():
    g = Graph.from_edges(2, [(0, 0), (0, 1)])
    assert g.degree(0) == 2  # loop adds 1
    assert g.degree(1) == 1
    assert reflexive_cycle(6).degree(0) == 3


def test_adjacency_must_be_symmetric():
    with pytest.raises(ValueError):
        Graph(2, (2, 0))


def test_product_against_definition():
    rng = random.Random(7)
    for _ in range(12):
        g = _random_graph(rng, rng.randint(1, 4))
        h = _random_graph(rng, rng.randint(1, 4))
        p = product(g, h)
        assert p.n == g.n * h.n
        for u in range(g.n):
            for x in range(h.n):
                for v in range(g.n):
                    for y in range(h.n):
                        expect = g.has_edge(u, v) and h.has_edge(x, y)
                        assert p.has_edge(u * h.n + x, v * h.n + y) == expect


def test_product_k2_k2_is_two_disjoint_edges():
    p = product(complete_graph(2), complete_graph(2))
    assert p.n == 4 and len(p.edges()) == 2
    assert sorted(p.edges()) == [(0, 3), (1, 2)]


def test_product_k2_reflexive_c6_cubic():
    p = product(complete_graph(2), reflexive_cycle(6))
    assert p.n == 12
    assert all(p.degree(v) == 3 for v in range(12))
    assert p.is_loopless()


def test_exponential_against_definition():
    rng = random.Random(11)
    for _ in range(8):
        g = _random_graph(rng, rng.randint(1, 3))
        h = _random_graph(rng, rng.randint(1, 3))
        e = exponential(g, h)
        maps = exponential_vertex_maps(g, h)
        assert e.n == h.n ** g.n
        for i, f in enumerate(maps):
            for j, fp in enumerate(maps):
                expect = all(
                    h.has_edge(f[u], fp[v])
                    for u in range(g.n) for v in range(g.n) if g.has_edge(u, v))
                assert e.has_edge(i, j) == expect


def test_exponential_k2_k2():
    e = exponential(complete_graph(2), complete_graph(2))
    assert e.n == 4
    loops = [v for v in range(4) if e.has_edge(v, v)]
    assert len(loops) == 2  # exactly the two bijections


def test_quotient_collapse_gives_c5():
    # looped path 0-1-2 times K2, then collapse the far fibre {2} x V(K2)
    g = product(looped_path(2), complete_graph(2))
    part = Partition.from_blocks(6, [[0], [1], [2], [3], [4, 5]])
    q = quotient(g, part)
    assert is_isomorphic(q, cycle_graph(5))


def test_find_homomorphism_basics():
    c5, k3, k2 = cycle_graph(5), complete_graph(3), complete_graph(2)
    f = find_homomorphism(c5, k3)
    assert f is not None and check_homomorphism(f, c5, k3)
    assert find_homomorphism(c5, k2) is None
    assert find_homomorphism(k3, c5) is None
    assert find_homomorphism(complete_graph(1), k2) == (0,)


def test_find_homomorphism_is_lex_first_in_search_order():
    rng = random.Random(23)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 4))
        h = _random_graph(rng, rng.randint(1, 3))
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        homs = _all_homomorphisms(g, h)
        got = find_homomorphism(g, h)
        if not homs:
            assert got is None
        else:
            best = min(homs, key=lambda f: tuple(f[v] for v in order))
            assert got == best


def test_find_homomorphism_respects_loops():
    looped = Graph.from_edges(1, [(0, 0)])
    assert find_homomorphism(looped, complete_graph(3)) is None
    assert find_homomorphism(looped, one_graph()) == (0,)


def test_chromatic_known_values():
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(cycle_graph(6)) == 2
    assert chromatic_number(Graph.from_edges(3, [])) == 1
    assert chromatic_number(Graph.from_edges(1, [(0, 0)])) == INFINITE
    assert is_colorable(cycle_graph(7), 3) and not is_colorable(cycle_graph(7), 2)


def _brute_chromatic(g: Graph) -> int | float:
    if g.looped_mask:
        return INFINITE
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colours in itertools.product(range(k), repeat=g.n):
            if all(colours[u] != colours[v] for u, v in g.edges()):
                return k
    return g.n


def test_chromatic_matches_brute_force_small():
    rng = random.Random(5)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 7), p=0.5, loops=0.0)
        assert chromatic_number(g) == _brute_chromatic(g)


def test_chromatic_equals_min_hom_target():
    rng = random.Random(6)
    for _ in range(10):
        g = _random_graph(rng, rng.randint(2, 6), p=0.5, loops=0.0)
        chi = chromatic_number(g)
        mins = next(k for k in range(1, g.n + 1)
                    if find_homomorphism(g, complete_graph(k)) is not None)
        assert chi == max(mins, 1)


def test_odd_girth():
    assert odd_girth(cycle_graph(5)) == 5
    assert odd_girth(cycle_graph(7)) == 7
    assert odd_girth(cycle_graph(6)) == INFINITE
    assert odd_girth(complete_graph(4)) == 3
    assert odd_girth(Graph.from_edges(2, [(0, 0), (0, 1)])) == 1
    # two triangles sharing no vertex, plus a long odd cycle elsewhere
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
    assert odd_girth(g) == 3


def test_graph_stats():
    s = graph_stats(cycle_graph(6))
    assert s.max_degree == 2 and s.connected and s.diameter == 3
    s = graph_stats(reflexive_cycle(6))
    assert s.max_degree == 3 and s.diameter == 3
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    s = graph_stats(two)
    assert not s.connected and s.diameter == INFINITE


def _brute_mdst(g: Graph) -> int:
    simple = [e for e in g.edges() if e[0] != e[1]]
    best = None
    for tree_edges in itertools.combinations(simple, g.n - 1):
        t = Graph.from_edges(g.n, tree_edges)
        st = graph_stats(t)
        if st.connected:
            d = st.diameter
            best = d if best is None else min(best, d)
    assert best is not None
    return int(best)


def test_min_diameter_spanning_tree():
    assert min_diameter_spanning_tree(cycle_graph(6)) == 5
    assert min_diameter_spanning_tree(complete_graph(4)) == 2
    assert min_diameter_spanning_tree(complete_graph(2)) == 1
    rng = random.Random(97)
    trials = 0
    while trials < 10:
        g = _random_graph(rng, rng.randint(2, 6), p=0.6, loops=0.3)
        if not graph_stats(g).connected:
            continue
        trials += 1
        assert min_diameter_spanning_tree(g) == _brute_mdst(g)
    with pytest.raises(ValueError):
        min_diameter_spanning_tree(Graph.from_edges(2, []))


def test_common_neighbors():
    c6r = reflexive_cycle(6)
    assert common_neighbors(c6r, [0]) == {5, 0, 1}
    assert common_neighbors(c6r, []) == set(range(6))
    assert common_neighbors(c6r, [0, 1]) == {0, 1}
    assert common_neighbors(complete_graph(2), [0]) == {1}


def _brute_is_fine(g: Graph) -> bool:
    verts = set(range(g.n))

    def nu(m: set[int]) -> set[int]:
        out = set(verts)
        for u in m:
            out &= {v for v in verts if g.has_edge(u, v)}
        return out

    for r in range(1, g.n + 1):
        for m in itertools.combinations(range(g.n), r):
            first = nu(set(m))
            if first and not (first & nu(first)):
                return False
    return True


def test_is_fine():
    assert not is_fine(complete_graph(2))
    assert is_fine(reflexive_cycle(6))
    assert is_fine(reflexive_cycle(8))
    assert is_fine(one_graph())
    rng = random.Random(13)
    for _ in range(15):
        g = _random_graph(rng, rng.randint(1, 5), p=0.5, loops=0.5)
        assert is_fine(g) == _brute_is_fine(g)


def test_is_dismantlable():
    path = reflexive_closure(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    assert is_dismantlable(path)
    assert is_dismantlable(reflexive_closure(complete_graph(4)))
    assert not is_dismantlable(reflexive_cycle(8))
    assert not is_dismantlable(reflexive_cycle(6))
    assert is_dismantlable(one_graph())
    with pytest.raises(ValueError):
        is_dismantlable(cycle_graph(4))


def test_clique_graph_B():
    # two looped vertices joined by an edge: cliques {0}, {0,1}, {1}
    g = reflexive_closure(complete_graph(2))
    b, members = clique_graph_B(g)
    assert b.n == 3 and b.is_reflexive()
    assert members == ((0,), (0, 1), (1,))
    assert b.has_edge(0, 1) and b.has_edge(2, 1) and not b.has_edge(0, 2)
    b6, mem6 = clique_graph_B(reflexive_cycle(6))
    assert b6.n == 12  # 6 vertices + 6 edges of the hexagon
    assert b6.is_reflexive()
    # loopless vertices contribute nothing
    b2, _ = clique_graph_B(complete_graph(3))
    assert b2.n == 0


def test_looped_subgraph():
    g = Graph.from_edges(4, [(0, 0), (1, 1), (0, 1), (1, 2), (2, 3)])
    s, verts = looped_subgraph_S(g)
    assert verts == (0, 1)
    assert s.n == 2 and s.has_edge(0, 1) and s.is_reflexive()


def test_isomorphism():
    c5 = cycle_graph(5)
    shuffled = c5.induced([3, 1, 4, 0, 2])
    assert is_isomorphic(c5, shuffled)
    assert not is_isomorphic(cycle_graph(6), complete_graph(3))
    assert not is_isomorphic(complete_graph(4), cycle_graph(4))
    assert is_isomorphic(one_graph(), one_graph())
    assert not is_isomorphic(one_graph(), complete_graph(1))
    assert same_structure(c5, cycle_graph(5))
    assert not same_structure(c5, shuffled)


def test_json_round_trip():
    g = Graph.from_edges(3, [(0, 0), (0, 1), (1, 2)], labels=["a", "b", "c"])
    data = graph_to_json(g)
    assert data["edges"].count([0, 0]) == 1
    back = graph_from_json(data)
    assert same_structure(g, back) and back.labels == g.labels
