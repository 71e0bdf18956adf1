"""Graph layer: constructions, homomorphism search, statistics."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from homlab.cli import parse_graph_id
from homlab.families import twisted_toroidal
from homlab.graphs import (
    INFINITE,
    Graph,
    bits,
    check_homomorphism,
    chromatic_number,
    complete_graph,
    cycle_graph,
    exponential,
    exponential_vertex_maps,
    find_homomorphism,
    graph_from_json,
    graph_stats,
    graph_to_json,
    is_fine,
    is_isomorphic,
    looped_path,
    nu_mask,
    odd_girth,
    one_graph,
    product,
    quotient,
    reflexive_closure,
    reflexive_cycle,
)
from homlab.harness import _chromatic_brute
from homlab.limits import DEFAULT_GUARDS, GuardExceeded
from test_actions import bfs_dist


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
    assert g.looped_mask == 0b11111
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
    q = quotient(g, (0, 1, 2, 3, 4, 4))
    assert is_isomorphic(q, cycle_graph(5))
    assert q.labels[4] == "{(2,0),(2,1)}"


def test_quotient_refuses_a_bad_labelling():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="size mismatch"):
        quotient(g, (0, 1, 2))
    with pytest.raises(ValueError, match="skips a label"):
        quotient(g, (0, 2, 0, 2))
    with pytest.raises(ValueError, match="negative"):
        quotient(g, (0, -1, 0, 1))
    # labels need not follow the lowest members: block 0 is {2, 3}
    q = quotient(g, (1, 1, 0, 0))
    assert q.labels == ("{2,3}", "{0,1}") and q.adj == (0b11, 0b11)


def test_find_homomorphism_basics():
    c5, k3, k2 = cycle_graph(5), complete_graph(3), complete_graph(2)
    f = find_homomorphism(c5, k3)
    assert f is not None and check_homomorphism(f, c5, k3)
    assert find_homomorphism(c5, k2) is None
    assert find_homomorphism(k3, c5) is None
    assert find_homomorphism(complete_graph(1), k2) == (0,)


@st.composite
def _graphs(draw, max_n, loops=True):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


# the capped path runs on loopless complete targets, K_0 (no vertex) included
_targets = st.one_of(_graphs(4), st.integers(0, 4).map(
    lambda k: complete_graph(k) if k else Graph(0, ())))


@settings(deadline=None, max_examples=300)
@given(st.one_of(_graphs(5), _graphs(6, loops=False)), _targets)
def test_find_homomorphism_matches_exhaustive_search(g, h):
    got = find_homomorphism(g, h)
    if _all_homomorphisms(g, h):
        assert got is not None and check_homomorphism(got, g, h)
    else:
        assert got is None


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
    assert find_homomorphism(cycle_graph(7), complete_graph(3)) is not None
    assert find_homomorphism(cycle_graph(7), complete_graph(2)) is None


def test_chromatic_matches_brute_force_small():
    rng = random.Random(5)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 7), p=0.5, loops=0.0)
        assert chromatic_number(g) == _chromatic_brute(g)


def _static_order_colorable(g: Graph, k: int) -> bool:
    """The former solver: descending-degree order, fixed for the whole search.

    Same forward checking and ``used + 1`` colour cap as the DSATUR search
    behind ``find_homomorphism``, but it never reorders, so it is an
    independent oracle for the DSATUR branching (and exponentially slower
    on the twisted toroidal graphs).
    """
    if g.looped_mask:
        return False
    if g.n == 0:
        return True
    if k <= 0:
        return False
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    full = (1 << k) - 1
    domains = [full] * g.n

    def solve(pos: int, domains: list[int], used: int) -> bool:
        while pos < g.n and domains[order[pos]].bit_count() == 1:
            v = order[pos]
            c = domains[v].bit_length() - 1
            used = max(used, c + 1)
            for w in bits(g.adj[v]):
                if domains[w] & (1 << c):
                    domains[w] &= ~(1 << c)
                    if domains[w] == 0:
                        return False
            pos += 1
        if pos == g.n:
            return True
        v = order[pos]
        cap = min(k, used + 1)
        for c in bits(domains[v] & ((1 << cap) - 1)):
            nd = domains[:]
            nd[v] = 1 << c
            ok = True
            for w in bits(g.adj[v]):
                nd[w] &= ~(1 << c)
                if nd[w] == 0:
                    ok = False
                    break
            if ok and solve(pos + 1, nd, max(used, c + 1)):
                return True
        return False

    return solve(0, domains, 0)


def _colorable(g: Graph, k: int, guards=DEFAULT_GUARDS) -> bool:
    """k-colourability as a homomorphism into K_k (K_0 has no vertex)."""
    target = complete_graph(k) if k else Graph(0, ())
    return find_homomorphism(g, target, guards) is not None


@settings(deadline=None, max_examples=200)
@given(_graphs(9, loops=False), st.integers(0, 5))
def test_dsatur_matches_static_order_solver(g, k):
    assert _colorable(g, k) == _static_order_colorable(g, k)


# every T(k,m), S(1,m) and Mycielski graph a registry experiment builds
_REGISTRY_GRAPHS = ["T(1,2)", "T(1,3)", "T(1,5)", "T(1,6)", "T(2,2)", "T(2,3)",
                    "T(2,5)", "S(1,0)", "S(1,1)", "S(1,2)", "M^0_2(K2)",
                    "M^1_2(K2)", "M^2_2(K2)", "M^1_3(K2)", "M^1_2(K3)",
                    "M^1_3(K3)"]


@pytest.mark.parametrize("ident", _REGISTRY_GRAPHS)
def test_dsatur_matches_static_order_solver_on_registry_graphs(ident):
    g = parse_graph_id(ident)
    chi = chromatic_number(g)
    for k in (chi - 1, chi):
        assert _colorable(g, k) == _static_order_colorable(g, k) == (k == chi)


def test_chromatic_number_beyond_static_order_reach():
    # the static-order search did not finish T(2,7) in 300 s
    assert chromatic_number(parse_graph_id("T(2,7)")) == 4
    assert chromatic_number(parse_graph_id("M^3_2(K2)")) == 5


def test_colouring_and_hom_search_obey_the_node_guard():
    t25 = parse_graph_id("T(2,5)")
    small = DEFAULT_GUARDS.scaled(search_nodes=50)
    with pytest.raises(GuardExceeded) as err:
        chromatic_number(t25, small)
    assert err.value.guard == "search_nodes" and err.value.attempted == 51
    with pytest.raises(GuardExceeded) as err:
        _colorable(t25, 3, small)
    assert err.value.guard == "search_nodes"
    assert _colorable(t25, 4, small)


def test_chromatic_number_starts_at_a_clique():
    # counting up from k = 2 would refute k = 2..149 first: 11,324 nodes
    small = DEFAULT_GUARDS.scaled(search_nodes=1_000)
    assert chromatic_number(complete_graph(150), small) == 150


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



def odd_girth_by_double_cover(g):
    """The odd girth by BFS on the bipartite double cover, one (vertex,
    parity) state at a time, from every vertex: the least odd distance
    from (v,0) to (v,1), or 1 when g has a loop."""
    if g.looped_mask:
        return 1
    best = INFINITE
    for s in range(g.n):
        dist = {(s, 0): 0}
        queue = deque([(s, 0)])
        while queue:
            v, par = queue.popleft()
            d = dist[(v, par)]
            if d + 1 >= best:
                continue
            for w in bits(g.adj[v]):
                key = (w, par ^ 1)
                if key not in dist:
                    dist[key] = d + 1
                    queue.append(key)
        if (s, 1) in dist:
            best = min(best, dist[(s, 1)])
    return best


@settings(deadline=None, max_examples=300)
@given(st.one_of(_graphs(9), _graphs(9, loops=False)))
@example(Graph(0, ()))
@example(Graph.from_edges(4, [(0, 1), (2, 2)]))  # looped, disconnected
@example(Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                              (5, 6), (6, 7), (7, 5)]))  # C5 + C3 + a point
@example(cycle_graph(8))  # bipartite
@example(Graph.from_edges(6, [(u, v) for u in range(3)
                              for v in range(3, 6)]))  # K3,3
def test_odd_girth_matches_double_cover_bfs(g):
    assert odd_girth(g) == odd_girth_by_double_cover(g)


@pytest.mark.parametrize("k,m", [(k, m) for k in (1, 2) for m in (2, 3, 5)])
def test_odd_girth_matches_double_cover_bfs_on_twisted_toroidal(k, m):
    """Every T(k,m) the tkm-invariants experiment builds."""
    g = twisted_toroidal(k, m).graph
    assert odd_girth(g) == odd_girth_by_double_cover(g)

def test_graph_stats():
    s = graph_stats(cycle_graph(6))
    assert s.max_degree == 2 and s.connected
    s = graph_stats(reflexive_cycle(6))
    assert s.max_degree == 3 and s.connected
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    s = graph_stats(two)
    assert not s.connected


@settings(deadline=None, max_examples=300)
@given(st.one_of(_graphs(8), _graphs(8, loops=False)))
@example(Graph(0, ()))
@example(Graph(1, (0,)))
@example(Graph.from_edges(1, [(0, 0)]))
@example(Graph.from_edges(3, [(0, 0), (1, 2)]))  # looped, two components
@example(Graph.from_edges(4, [(0, 1), (1, 2), (2, 2)]))  # an isolated vertex
@example(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 4)]))
def test_connectivity_matches_the_bfs_oracle(g):
    """Connected means a BFS from vertex 0 reaches every vertex; the empty
    graph counts as connected."""
    assert graph_stats(g).connected == (
        g.n == 0 or INFINITE not in bfs_dist(g, 1))


def test_common_neighbors():
    c6r = reflexive_cycle(6)
    assert nu_mask(c6r, 0b1) == 0b100011
    assert nu_mask(c6r, 0) == 0b111111
    assert nu_mask(c6r, 0b11) == 0b11
    assert nu_mask(complete_graph(2), 0b1) == 0b10


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


def test_isomorphism():
    c5 = cycle_graph(5)
    perm = [3, 1, 4, 0, 2]
    shuffled = Graph.from_edges(5, [(perm[u], perm[v]) for u, v in c5.edges()])
    assert is_isomorphic(c5, shuffled)
    assert not is_isomorphic(cycle_graph(6), complete_graph(3))
    assert not is_isomorphic(complete_graph(4), cycle_graph(4))
    assert is_isomorphic(one_graph(), one_graph())
    assert not is_isomorphic(one_graph(), complete_graph(1))
    assert c5.adj == cycle_graph(5).adj
    assert c5.adj != shuffled.adj


def test_json_round_trip():
    g = Graph.from_edges(3, [(0, 0), (0, 1), (1, 2)], labels=["a", "b", "c"])
    data = graph_to_json(g)
    assert data["edges"].count([0, 0]) == 1
    back = graph_from_json(data)
    assert back.adj == g.adj and back.labels == g.labels
