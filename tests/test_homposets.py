"""Hom posets: enumeration against brute force, induced actions, and the
structural comparison maps (currying, quotients, loop addition)."""

import ast
import itertools
import random
import tracemalloc
from dataclasses import replace
from functools import partial, reduce
from operator import or_
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from homlab.actions import (GraphAction, make_group, quotient_graph_by_action,
                            z2_group)
from homlab.families import (csorba_graph, cycle_face_poset, mycielski,
                             spherical_graph, twisted_toroidal)
from homlab.graphs import (Graph, _hom_search, bits, complete_graph,
                           cycle_graph,
                           exponential, exponential_vertex_maps,
                           is_isomorphic, looped_path, nu_mask, one_graph,
                           permute_mask, product, reflexive_closure,
                           reflexive_cycle)
from homlab.cli import main, parse_graph_id
from homlab.harness import _diagonal_flip_shift
from homlab.homology import poset_homology
from homlab import homposets
from homlab.homposets import (HomPoset, _connected_order, adjunction_report,
                              curry_elements, hom_poset, induced_hom_action,
                              loop_addition_maps, multihom_violation,
                              poset_adjunction_report, quotient_compare,
                              rank_of, uncurry_elements)
from homlab.limits import DEFAULT_GUARDS, GuardExceeded
from homlab.posets import (Poset, PosetMap, _Table, atom_graph,
                           enumerate_poset_maps, face_poset, is_closure_map,
                           make_complex)
from test_actions import action_violation
from test_posets import block_maps, small_posets

SQUARE = make_complex(4, [[0, 1], [1, 2], [2, 3], [0, 3]])


def z2_graph_action(g, perm):
    return GraphAction(z2_group(), g,
                       (tuple(range(g.n)), tuple(perm)))


def brute_hom_elements(g, h):
    full = range(1, 1 << h.n)
    out = []
    for combo in itertools.product(full, repeat=g.n):
        if multihom_violation(g, h, combo) is None:
            out.append(tuple(combo))
    return sorted(out)


def brute_hom_count(g, h):
    """Independent count of graph homomorphisms (the atoms)."""
    count = 0
    for f in itertools.product(range(h.n), repeat=g.n):
        if all(h.adj[f[u]] >> f[v] & 1 for u, v in g.directed_edges()):
            count += 1
    return count


def test_hom_poset_known_counts():
    hp = hom_poset(complete_graph(2), complete_graph(3))
    assert hp.m == 12 and len(hp.atoms) == 6
    assert all(rank_of(hp.elements[i]) == 0 for i in hp.atoms)
    assert hom_poset(complete_graph(4), complete_graph(3)).m == 0
    # Hom(1,G) is the poset of cliques of looped vertices
    g = Graph.from_edges(5, [(0, 0), (1, 1), (2, 2), (4, 4),
                             (0, 1), (1, 2), (0, 2), (2, 3), (2, 4)])
    for h in (reflexive_cycle(6), g):
        looped = [v for v in range(h.n) if h.has_edge(v, v)]
        cliques = [c for r in range(1, h.n + 1)
                   for c in itertools.combinations(looped, r)
                   if all(h.has_edge(u, v)
                          for u, v in itertools.combinations(c, 2))]
        h1 = hom_poset(one_graph(), h)
        assert sorted(cliques) == sorted(tuple(bits(e[0]))
                                         for e in h1.elements)


def test_hom_poset_brute_force():
    rng = random.Random(7)
    for _ in range(12):
        gn = rng.randint(1, 3)
        hn = rng.randint(1, 4)
        g = Graph.from_edges(gn, [(u, v) for u in range(gn)
                                  for v in range(u, gn)
                                  if rng.random() < 0.6])
        h = Graph.from_edges(hn, [(u, v) for u in range(hn)
                                  for v in range(u, hn)
                                  if rng.random() < 0.6])
        hp = hom_poset(g, h)
        assert list(hp.elements) == brute_hom_elements(g, h)
        assert len(hp.atoms) == brute_hom_count(g, h)
        for e in hp.elements:
            assert multihom_violation(g, h, e) is None


def test_hom_poset_relation_and_guards():
    hp = hom_poset(complete_graph(2), complete_graph(3))
    p = hp.poset
    for i in range(hp.m):
        for j in range(hp.m):
            want = all(x & ~y == 0 for x, y in
                       zip(hp.elements[i], hp.elements[j]))
            assert p.leq(i, j) == want == hp.leq(i, j)
    with pytest.raises(GuardExceeded):
        hom_poset(complete_graph(2), complete_graph(5),
                  DEFAULT_GUARDS.scaled(hom_elements=100))
    small = hom_poset(complete_graph(2), complete_graph(3),
                      DEFAULT_GUARDS.scaled(poset_relation=5))
    with pytest.raises(GuardExceeded):
        small.poset



# ---------------------------------------------------------------------------
# output-sensitive enumeration against the subset walk it replaced

def _subset_walk_hom_elements(g, h):
    """Hom(g,h) by walking every subset of each vertex's feasible mask.

    The enumerator hom_poset used before it grew sets one target vertex at
    a time; exponential in |V(h)|, kept here as an independent oracle.
    """
    n = g.n
    full = (1 << h.n) - 1
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    neigh = [[w for w in bits(g.adj[v]) if w != v] for v in range(n)]
    looped = [bool(g.adj[v] >> v & 1) for v in range(n)]
    assign = [0] * n
    allowed = [full] * n
    out = []

    def rec(i):
        if i == n:
            out.append(tuple(assign))
            return
        v = order[i]
        base = allowed[v]
        s = base
        while s:
            if not looped[v] or all(s & ~h.adj[x] == 0 for x in bits(s)):
                nu_s = nu_mask(h, s)
                saved = []
                good = True
                for w in neigh[v]:
                    if pos[w] > i:
                        saved.append((w, allowed[w]))
                        allowed[w] &= nu_s
                        if not allowed[w]:
                            good = False
                            break
                if good:
                    assign[v] = s
                    rec(i + 1)
                for w, old in saved:
                    allowed[w] = old
            s = (s - 1) & base
    if h.n:
        rec(0)
    elif n == 0:
        out.append(())
    return tuple(sorted(out))


@st.composite
def looped_graphs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    return Graph.from_edges(n, chosen)


@settings(deadline=None, max_examples=300)
@given(looped_graphs(0, 4), looped_graphs(0, 8))
@example(Graph(0, ()), complete_graph(3))
@example(complete_graph(2), Graph(0, ()))
@example(Graph.from_edges(3, []), Graph.from_edges(4, []))
@example(reflexive_closure(complete_graph(3)), reflexive_closure(
    complete_graph(5)))
@example(one_graph(), reflexive_cycle(8))
# the last vertex in the order (3) is looped, the three above it are not;
# target loops 0, 1 and 4, with 1 and 4 not adjacent
@example(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 3)]),
         Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4),
                              (0, 0), (1, 1), (4, 4)]))
# an isolated last vertex takes every nonempty subset of V(h)
@example(Graph.from_edges(3, [(0, 1)]), complete_graph(4))
# one-vertex sources, unlooped and looped
@example(Graph.from_edges(1, []), cycle_graph(5))
@example(one_graph(), Graph.from_edges(4, [(0, 0), (1, 1), (3, 3), (0, 1),
                                           (1, 3), (2, 3)]))
# the empty source into the empty graph and the terminal graph
@example(Graph(0, ()), Graph(0, ()))
@example(Graph(0, ()), one_graph())
def test_hom_poset_matches_subset_walk(g, h):
    # Isolated source vertices multiply the output by 2^|V(h)| - 1 each;
    # the oracle's cost grows with the output, so huge cases are skipped.
    try:
        hp = hom_poset(g, h, DEFAULT_GUARDS.scaled(hom_elements=5_000))
    except GuardExceeded:
        assume(False)
    assert hp.elements == _subset_walk_hom_elements(g, h)


def _registry_hom_pairs():
    """Every Hom pair the registry enumerates, plus the benchmark's."""
    k2, k3 = complete_graph(2), complete_graph(3)
    r6, r8 = reflexive_cycle(6), reflexive_cycle(8)
    pairs = {f"K2,K{n}": (k2, complete_graph(n)) for n in range(2, 7)}
    pairs.update({
        "K3,K3": (k3, k3),
        "K3,K5": (k3, complete_graph(5)),
        "K4,K3": (complete_graph(4), k3),
        "C5,K4": (cycle_graph(5), complete_graph(4)),
        "K2,S(1,1)": (k2, spherical_graph(1, 1).graph),
        "K2,S(1,2)": (k2, spherical_graph(1, 2).graph),
        "K2,T(1,5)": (k2, twisted_toroidal(1, 5).graph),
        "K2,T(1,6)": (k2, twisted_toroidal(1, 6).graph),
        "K2,T(2,3)": (k2, twisted_toroidal(2, 3).graph),
        "T(1,3),K3": (twisted_toroidal(1, 3).graph, k3),
        "K2o,R8": (reflexive_closure(k2), r8),
        "K2,R8": (k2, r8),
        "K2xR6,K3": (product(k2, r6), k3),
        "R6,K3^K2": (r6, exponential(k2, k3)),
        "K2,K3^K2": (k2, exponential(k2, k3)),
        "K2xK2,K3": (product(k2, k2), k3),
        "F(C6)^1,R6": (atom_graph(cycle_face_poset(3).poset)[0], r6),
        "1,R6": (one_graph(), r6),
        "K2,csorba(square)": (k2, csorba_graph(SQUARE, (2, 3, 0, 1))),
    })
    for name, g in (("K2", k2), ("K3", k3)):
        for m in (2, 3):
            pairs[f"K2,M_{m}({name})"] = (k2, mycielski(g, m))
    for m in (3, 4, 5):
        g, act = _diagonal_flip_shift(m)
        pairs[f"K2,K2xR{2 * m}"] = (k2, g)
        pairs[f"K2,K2xR{2 * m}/Z2"] = (k2, quotient_graph_by_action(act))
    return pairs


HOM_PAIRS = _registry_hom_pairs()


@pytest.mark.parametrize("pair", sorted(HOM_PAIRS))
def test_hom_poset_matches_subset_walk_on_registry_pairs(pair):
    g, h = HOM_PAIRS[pair]
    assert h.n <= 20
    assert hom_poset(g, h).elements == _subset_walk_hom_elements(g, h)


# (search nodes, elements) of each pair, the emptiness search included
NODE_TOTALS = {
    "K2,T(2,3)": (42_985, 36_282),
    "K2,S(1,2)": (360, 192),
    "K2,K2xR10": (484, 240),
    "C5,K4": (3_614, 2_160),
    "K2xR6,K3": (21_871, 8_412),
    "R6,K3^K2": (13_110, 8_412),
    "K3,K5": (604, 390),
    "T(1,3),K4": (2_579, 1_128),
    "T(2,3),K4": (2_255, 96),
}


@pytest.mark.parametrize("pair", sorted(NODE_TOTALS))
def test_hom_poset_node_totals_and_trip_points(pair):
    g, h = HOM_PAIRS.get(pair) or map(parse_graph_id, pair.rsplit(",", 1))
    nodes, m = NODE_TOTALS[pair]
    assert hom_poset(g, h, DEFAULT_GUARDS.scaled(search_nodes=nodes)).m == m
    with pytest.raises(GuardExceeded) as err:
        hom_poset(g, h, DEFAULT_GUARDS.scaled(search_nodes=nodes - 1))
    assert err.value.guard == "search_nodes"
    assert err.value.attempted > nodes - 1
    assert hom_poset(g, h, DEFAULT_GUARDS.scaled(hom_elements=m)).m == m
    with pytest.raises(GuardExceeded) as err:
        hom_poset(g, h, DEFAULT_GUARDS.scaled(hom_elements=m - 1))
    assert (err.value.guard, err.value.attempted) == ("hom_elements", m)


def test_connected_order_ranks_placed_neighbours_then_degree_then_index():
    # the path 0-1-2-3 beside the star with centre 4 and leaves 5, 6, 7:
    # the leaves (one placed neighbour) beat 1 (none, degree 2), 2 beats 0
    # by degree once 1 is placed, and 0 beats 3 by index
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3),
                             (4, 5), (4, 6), (4, 7)])
    assert _connected_order(g) == [4, 5, 6, 7, 1, 2, 0, 3]
    # 1999 waits with one placed neighbour, and two by the end
    assert _connected_order(cycle_graph(2000)) == list(range(2000))


def test_hom_poset_last_vertex_trips_where_its_walk_would():
    # One vertex into K6: the emptiness search tries 1 node, then the
    # vertex's empty set counts its 6 candidates as nodes before any of its
    # 63 sets is an element.  {0} is emitted with no candidates of its own,
    # {1} is emitted and then tries {0}, the 8th node, before {0,1} would be
    # the third element.  So with room for 2 elements the node guard trips
    # first whenever it has room for fewer than 8 nodes, even though the
    # element guard has less room than the batch.
    g, h = Graph.from_edges(1, []), complete_graph(6)
    for nodes, trip in [(0, ("search_nodes", 1))] + [
            (k, ("search_nodes", 7)) for k in range(1, 7)] + [
            (7, ("search_nodes", 8)), (8, ("hom_elements", 3)),
            (64, ("hom_elements", 3))]:
        with pytest.raises(GuardExceeded) as err:
            hom_poset(g, h, DEFAULT_GUARDS.scaled(search_nodes=nodes,
                                                  hom_elements=2))
        assert (err.value.guard, err.value.attempted) == trip


def test_hom_poset_offers_no_failed_sibling_again():
    # K2 into the star with centre 4 and leaves 0, 2, 3, beside the isolated
    # vertex 1.  The emptiness search tries 0 for vertex 0, then 4 for
    # vertex 1: 2 nodes.  Vertex 0's empty set tries 0..4 (7); 1 fails, as
    # nu({1}) is empty.  Each passing set of vertex 0 emits vertex 1's sets
    # as a batch, one node per set: {4} for a set of leaves, the 7 nonempty
    # sets of leaves for {4}.  {0} emits (8) and has no lower candidate that
    # passed.  {2} emits (9) and tries only 0, not the failed 1 (10); {0,2}
    # emits (11).  {3} emits (12) and tries 0 and 2 (14); {0,3} emits (15),
    # {2,3} emits (16) and tries 0 (17), and {0,2,3} emits (18).  {4} emits
    # its batch (25) and tries 0, 2 and 3 (28), and each of {0,4}, {2,4} and
    # {3,4} fails.  Offering 1 again would cost a node in each of {2}, {3},
    # {2,3} and {4}: 32 in all.
    g = complete_graph(2)
    h = Graph.from_edges(5, [(0, 4), (2, 4), (3, 4)])
    assert len(_walked_hom_elements(g, h, DEFAULT_GUARDS)) == \
        hom_poset(g, h).m == 14
    assert hom_poset(g, h, DEFAULT_GUARDS.scaled(search_nodes=28)).m == 14
    with pytest.raises(GuardExceeded) as err:
        hom_poset(g, h, DEFAULT_GUARDS.scaled(search_nodes=27))
    assert (err.value.guard, err.value.attempted) == ("search_nodes", 28)


def _walked_hom_elements(g, h, guards):
    """Hom(g,h) by walking every source vertex, the last one included, with
    no memo, listed in the order the walk reaches them: the reference for
    where each guard trips.

    The same emptiness search, vertex order and pruning as `hom_poset`.  A
    set grows downward and tries its candidates in ascending order; a set
    that passes is emitted or descended from, then tries as its own
    candidates the lower ones that passed before it.  A set's candidates
    count as search nodes when it starts to try them, and each set the last
    vertex reaches is one element.
    """
    atom, nodes = _hom_search(g, h, guards.search_nodes, 0)
    if atom is None:
        return []
    if g.n == 0:
        return [()]
    order = _connected_order(g)
    pos = {v: i for i, v in enumerate(order)}
    full = (1 << h.n) - 1
    allowed, assign, out = [full] * g.n, [0] * g.n, []

    def walk(i):
        if i == g.n:
            if len(out) == guards.hom_elements:
                raise GuardExceeded("hom_elements", guards.hom_elements,
                                    guards.hom_elements + 1)
            out.append(tuple(assign))
            return
        v = order[i]
        clique = g.adj[v] >> v & 1
        later = [w for w in bits(g.adj[v]) if pos[w] > i]
        entry = [allowed[w] for w in later]

        def grow(s, nu, cand):
            nonlocal nodes
            nodes += cand.bit_count()
            if nodes > guards.search_nodes:
                raise GuardExceeded("search_nodes", guards.search_nodes, nodes)
            passed = 0
            for x in bits(cand):
                nu_x = nu & h.adj[x]
                if not all(mask & nu_x for mask in entry):
                    continue
                for w, mask in zip(later, entry):
                    allowed[w] = mask & nu_x
                assign[v] = s | 1 << x
                walk(i + 1)
                grow(s | 1 << x, nu_x, passed & nu_x if clique else passed)
                passed |= 1 << x

        grow(0, full, allowed[v] & (h.looped_mask if clique else full))
        for w, mask in zip(later, entry):
            allowed[w] = mask

    walk(0)
    return out


@settings(deadline=None, max_examples=300)
@given(looped_graphs(1, 4), looped_graphs(1, 6), st.integers(0, 200),
       st.integers(0, 100))
# the one-vertex pin above, and a last vertex whose batch repeats
@example(Graph.from_edges(1, []), complete_graph(6), 6, 2)
@example(Graph.from_edges(2, []), complete_graph(3), 30, 20)
def test_hom_poset_trips_where_the_walk_without_memo_would(g, h, nodes,
                                                           elements):
    guards = DEFAULT_GUARDS.scaled(search_nodes=nodes, hom_elements=elements)

    def outcome(enumerate_elements):
        try:
            return enumerate_elements(g, h, guards)
        except GuardExceeded as exc:
            return exc.guard, exc.attempted

    assert outcome(lambda *a: hom_poset(*a).elements) == \
        outcome(lambda *a: tuple(sorted(_walked_hom_elements(*a))))


def _in_search_order(g):
    """g with vertex v renamed to its place in `_connected_order(g)`."""
    pos = [0] * g.n
    for i, v in enumerate(_connected_order(g)):
        pos[v] = i
    adj = [0] * g.n
    for v in range(g.n):
        adj[pos[v]] = permute_mask(g.adj[v], pos)
    return Graph(g.n, tuple(adj))


@settings(deadline=None, max_examples=200)
@given(looped_graphs(1, 4), looped_graphs(1, 6), st.booleans())
@example(complete_graph(2), twisted_toroidal(1, 3).graph, False)
@example(product(complete_graph(2), reflexive_cycle(4)), complete_graph(3),
         False)
def test_walk_emits_in_lexicographic_order_under_the_identity_order(g, h,
                                                                     rename):
    if rename:
        g = _in_search_order(g)
        assert _connected_order(g) == list(range(g.n))
    try:
        walked = _walked_hom_elements(
            g, h, DEFAULT_GUARDS.scaled(hom_elements=5_000))
    except GuardExceeded:
        assume(False)
    if _connected_order(g) == list(range(g.n)):
        assert walked == sorted(walked)
    assert tuple(sorted(walked)) == hom_poset(g, h).elements


def test_hom_poset_raises_each_guard_at_one_site():
    tree = ast.parse(Path(homposets.__file__).read_text(encoding="utf-8"))

    def raised(node):
        return sorted(call.args[0].value for call in ast.walk(node)
                      if isinstance(call, ast.Call)
                      and getattr(call.func, "id", None) == "GuardExceeded"
                      and call.args and isinstance(call.args[0], ast.Constant)
                      and call.args[0].value in ("search_nodes",
                                                 "hom_elements"))

    top = {node.name: node for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert raised(tree) == raised(top["hom_poset"]) == ["hom_elements",
                                                        "search_nodes"]
    assert "_last_vertex_sets" not in top


def test_hom_poset_reaches_the_large_spherical_graph():
    # 10,106 is the count the subset walk gave after about 300 s.
    k2, s21 = complete_graph(2), spherical_graph(2, 1).graph
    hp = hom_poset(k2, s21)
    assert hp.m == 10_106
    assert all(multihom_violation(k2, s21, e) is None for e in hp.elements)


def test_hom_poset_of_a_long_cycle_needs_no_recursion(monkeypatch, capsys):
    # one Python frame per source vertex overflowed the stack here
    assert hom_poset(cycle_graph(2000), complete_graph(2)).m == 2
    monkeypatch.delenv("HOMLAB_CACHE_DIR", raising=False)
    assert main(["hom", "C2000", "K2"]) == 0
    assert main(["homology", "C2000", "K2"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_search_node_guard_bounds_work():
    k2 = complete_graph(2)
    hp = hom_poset(k2, cycle_graph(64),
                   DEFAULT_GUARDS.scaled(search_nodes=10_000))
    assert hp.m == 4 * 64
    with pytest.raises(GuardExceeded) as err:
        hom_poset(k2, twisted_toroidal(2, 3).graph,
                  DEFAULT_GUARDS.scaled(search_nodes=100))
    assert err.value.guard == "search_nodes"
    assert err.value.limit == 100 and err.value.attempted > 100


def test_empty_hom_poset_is_refuted_before_enumeration():
    # T(2,5) is 4-chromatic; enumerating Hom(T(2,5),K3) runs past 20 M nodes
    hp = hom_poset(twisted_toroidal(2, 5).graph, complete_graph(3),
                   DEFAULT_GUARDS.scaled(search_nodes=10_000))
    assert hp.m == 0


def test_multihom_violations():
    g, h = complete_graph(2), complete_graph(3)
    assert "length" in multihom_violation(g, h, (1,))
    assert "empty" in multihom_violation(g, h, (0, 1))
    assert "outside" in multihom_violation(g, h, (1 << 5, 1))
    assert "edge" in multihom_violation(g, h, (0b011, 0b010))


def test_induced_action_flip_on_source():
    k2, k3 = complete_graph(2), complete_graph(3)
    hp = hom_poset(k2, k3)
    flip = z2_graph_action(k2, (1, 0))
    act = induced_hom_action(hp, source_action=flip)
    assert action_violation(act) is None
    from homlab.actions import is_free, orbits
    assert is_free(act)
    assert len(orbits(act)) == 6
    # trivial action is the identity action
    triv = GraphAction(make_group([(0,)]), k3, (tuple(range(3)),))
    ia = induced_hom_action(hp, target_action=triv)
    assert ia.maps == (tuple(range(hp.m)),)
    # a looped target creates fixed points
    lp = looped_path(2)
    hp2 = hom_poset(k2, lp)
    act2 = induced_hom_action(hp2, source_action=flip)
    assert action_violation(act2) is None and not is_free(act2)
    with pytest.raises(ValueError):
        induced_hom_action(hp)
    with pytest.raises(ValueError):
        induced_hom_action(hp, source_action=z2_graph_action(k3, (1, 0, 2)))


def test_adjunction_small():
    k2, k3 = complete_graph(2), complete_graph(3)
    rep = adjunction_report(k2, k2, k3)
    assert rep.roundtrip_identity and rep.increasing and rep.closure_ok
    prod, cur = rep.hom_product.poset, rep.hom_curried.poset
    assert PosetMap(prod, cur, rep.phi).is_monotone()
    assert PosetMap(cur, prod, rep.psi).is_monotone()
    # explicit element: curry of an atom consists of the section functions
    alpha = rep.hom_product.elements[rep.hom_product.atoms[0]]
    beta, = curry_elements(k2, k2, k3, [alpha])
    emaps = list(itertools.product(range(3), repeat=2))
    assert emaps == exponential_vertex_maps(k2, k3)
    assert list(uncurry_elements(k2, k3, [beta])) == [alpha]
    for y in range(2):
        nh = 2
        for fi in bits(beta[y]):
            f = emaps[fi]
            assert all(alpha[s * nh + y] >> f[s] & 1 for s in range(2))


def curry_by_definition(t, h, g, alpha):
    """beta(y) = {f : f(s) in alpha(s,y) for every s}, tested map by map."""
    nh, emaps = h.n, exponential_vertex_maps(t, g)
    return tuple(sum(1 << fi for fi, f in enumerate(emaps)
                     if all(alpha[s * nh + y] >> f[s] & 1 for s in range(t.n)))
                 for y in range(nh))


def uncurry_by_definition(t, h, g, beta):
    """alpha(s,y) = {f(s) : f in beta(y)}, read map by map."""
    nh, emaps = h.n, exponential_vertex_maps(t, g)
    return tuple(reduce(or_, (1 << emaps[fi][s] for fi in bits(beta[y])), 0)
                 for s in range(t.n) for y in range(nh))


# the graph side of the adjunction-roundtrips experiment, Hom(K2 x C6°, K3)
REGISTRY_ADJUNCTION = (complete_graph(2), reflexive_cycle(6),
                       complete_graph(3))


@pytest.fixture(scope="module")
def registry_adjunction():
    return adjunction_report(*REGISTRY_ADJUNCTION,
                             DEFAULT_GUARDS.scaled(poset_relation=20_000))


def test_curry_matches_definition_on_registry_instance(registry_adjunction):
    """phi and psi, which the report reads off its column tables, agree
    with both definitions on every element of both posets."""
    t, h, g = REGISTRY_ADJUNCTION
    rep = registry_adjunction
    prod, cur = rep.hom_product.elements, rep.hom_curried.elements
    assert len(prod) == 8412
    for alpha, j in zip(prod, rep.phi):
        assert cur[j] == curry_by_definition(t, h, g, alpha)
    for beta, i in zip(cur, rep.psi):
        assert prod[i] == uncurry_by_definition(t, h, g, beta)


@st.composite
def small_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    adj = [0] * n
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


@settings(deadline=None, max_examples=40)
@given(small_graphs(2), small_graphs(3), small_graphs(4))
def test_curry_matches_definition_on_small_targets(t, h, g):
    try:
        hp = hom_poset(product(t, h), g,
                       DEFAULT_GUARDS.scaled(hom_elements=500))
    except GuardExceeded:
        assume(False)
    curried = list(curry_elements(t, h, g, hp.elements))
    assert curried == [curry_by_definition(t, h, g, alpha)
                       for alpha in hp.elements]
    # uncurrying reads any tuple of masks, so feed it the curried elements
    # and every element with its last set dropped to one vertex
    betas = curried + [beta[:-1] + (beta[-1] & -beta[-1],)
                       for beta in curried if beta]
    assert list(uncurry_elements(t, g, betas)) == \
        [uncurry_by_definition(t, h, g, beta) for beta in betas]


@pytest.mark.parametrize("table", ["_curry_column", "_uncurry_mask"])
def test_seeded_column_table_defect_is_caught(monkeypatch, table):
    """One wrong table entry, a set that lost its lowest member, must
    break the round trip or refuse an element."""
    real = getattr(homposets, table)
    hit = []

    def corrupted(key, **tables):
        value = real(key, **tables)
        if hit:
            return value
        if table == "_curry_column" and value & (value - 1):
            hit.append(key)
            return value & (value - 1)
        if table == "_uncurry_mask" and any(m & (m - 1) for m in value):
            hit.append(key)
            s = next(s for s, m in enumerate(value) if m & (m - 1))
            return value[:s] + (value[s] & (value[s] - 1),) + value[s + 1:]
        return value

    monkeypatch.setattr(homposets, table, corrupted)
    rep = adjunction_report(*REGISTRY_ADJUNCTION)
    assert hit and not rep.roundtrip_identity


# Per-element oracles for the column-at-a-time paths: the package reads
# each table a column at a time over every element, these an element at a
# time, through the same column tables.

def curry_by_element(t, h, g, elements):
    """`curry_elements` one alpha at a time: its columns (alpha(s,y))_s,
    y = 0 .. |V(H)|-1, are slices of the row, each looked up in the table."""
    nh = h.n
    columns = [slice(y, None, nh) for y in range(nh)]
    beta_of = _Table(partial(homposets._curry_column,
                             fibres=homposets._vertex_fibres(t, g),
                             full=(1 << g.n ** t.n) - 1))
    for alpha in elements:
        yield tuple(map(beta_of.__getitem__, map(alpha.__getitem__, columns)))


def uncurry_by_element(t, g, elements):
    """`uncurry_elements` one beta at a time: the columns of beta(y),
    y = 0 .. |V(H)|-1, read row by row."""
    column_of = _Table(partial(homposets._uncurry_mask,
                               fibres=homposets._vertex_fibres(t, g), n=g.n))
    for beta in elements:
        yield tuple(itertools.chain.from_iterable(
            zip(*map(column_of.__getitem__, beta))))


def atoms_below(p, atoms):
    """For each element x of p, the positions in `atoms` of the atoms <= x."""
    position = {a: k for k, a in enumerate(atoms)}
    return tuple(tuple(position[a] for a in bits(p.below[x]) if a in position)
                 for x in range(p.m))


def poset_curry(below, alpha, single):
    """Hom(P^1, G) -> Poset(P, Hom(1,G)) on one element alpha: x -> union of
    alpha over the atoms <= x, as Hom(1,G) indices; `below` is
    `atoms_below(p, atoms)` and `single` maps Hom(1,G) masks to indices."""
    image = []
    for ks in below:
        mask = 0
        for k in ks:
            mask |= alpha[k]
        j = single.get(mask)
        if j is None:
            raise ValueError("curried value is not a looped clique")
        image.append(j)
    return tuple(image)


def single_index(g):
    """Hom(1,G) as a dict from each element's mask to its index."""
    return {e[0]: v for v, e in enumerate(hom_poset(one_graph(), g).elements)}


def curried_by_element(p, g):
    """phi(e) for every element e of Hom(P^1,G), one element at a time."""
    ag, atoms = atom_graph(p)
    below, single = atoms_below(p, atoms), single_index(g)
    return [poset_curry(below, e, single) for e in hom_poset(ag, g).elements]


def curried_by_column(p, g):
    """phi(e) for every element e of Hom(P^1,G), as rows of the columns
    `homposets._curried_columns` builds."""
    ag, atoms = atom_graph(p)
    hom_ag = hom_poset(ag, g)
    columns = homposets._columns(hom_ag.elements, len(atoms))
    return list(homposets._rows(homposets._curried_columns(
        p, atoms, columns, single_index(g)), hom_ag.m))


def assert_graph_side_matches_oracles(t, h, g, elements):
    """curry_elements on `elements` and uncurry_elements on their betas,
    with each beta's last set also dropped to one vertex, against the
    per-element oracles."""
    curried = list(curry_elements(t, h, g, elements))
    assert curried == list(curry_by_element(t, h, g, elements))
    betas = curried + [beta[:-1] + (beta[-1] & -beta[-1],)
                       for beta in curried if beta]
    assert list(uncurry_elements(t, g, betas)) == \
        list(uncurry_by_element(t, g, betas))


@pytest.mark.parametrize("instance", ["K2xR6->K3", "K2xK2->K3"])
def test_columnar_curry_matches_per_element_oracle_on_registry_instances(
        registry_adjunction, instance):
    """Both directions on the graph side's registry instance and on the
    (K2, K2, K3) instance the closure-invariance check reads."""
    if instance == "K2xR6->K3":
        t, h, g = REGISTRY_ADJUNCTION
        rep = registry_adjunction
    else:
        t, h, g = complete_graph(2), complete_graph(2), complete_graph(3)
        rep = adjunction_report(t, h, g)
    assert_graph_side_matches_oracles(t, h, g, rep.hom_product.elements)
    assert list(uncurry_elements(t, g, rep.hom_curried.elements)) == \
        list(uncurry_by_element(t, g, rep.hom_curried.elements))


def test_columnar_poset_curry_matches_oracle_on_registry_instance():
    """The poset side's registry instance, F(C6) against R6."""
    p, r6 = cycle_face_poset(3).poset, reflexive_cycle(6)
    curried = curried_by_column(p, r6)
    assert len(curried) == 8412
    assert curried == curried_by_element(p, r6)


@settings(deadline=None, max_examples=60)
@given(small_graphs(5), small_graphs(5), small_graphs(5))
def test_columnar_curry_matches_per_element_oracle_on_small_graphs(t, h, g):
    try:
        hp = hom_poset(product(t, h), g, DEFAULT_GUARDS.scaled(
            hom_elements=500, search_nodes=20_000))
    except GuardExceeded:
        assume(False)
    assert_graph_side_matches_oracles(t, h, g, hp.elements)


@settings(deadline=None, max_examples=80)
@given(small_posets(5), looped_graphs(1, 5))
def test_columnar_poset_curry_matches_per_element_oracle(p, g):
    assert curried_by_column(p, g) == curried_by_element(p, g)


def test_columnar_paths_keep_elements_of_length_zero():
    """An element of length 0 is dropped by a transpose; each must still
    give one result.  Hom(T x H, G) has one element, (), when T or H is
    empty, and so has Hom(P^1, G) when P is."""
    empty, k2, k3 = Graph(0, ()), complete_graph(2), complete_graph(3)
    for t, h, curried in ((k2, empty, ()), (empty, empty, ()),
                          (empty, k2, (1, 1))):  # G^T has one vertex
        assert hom_poset(product(t, h), k3).elements == ((),)
        assert list(curry_elements(t, h, k3, [(), ()])) == \
            list(curry_by_element(t, h, k3, [(), ()])) == [curried] * 2
        assert list(uncurry_elements(t, k3, [curried] * 2)) == \
            list(uncurry_by_element(t, k3, [curried] * 2)) == [()] * 2
    for g in (k3, reflexive_cycle(4)):
        assert curried_by_column(Poset(0, ()), g) == \
            curried_by_element(Poset(0, ()), g) == [()]
    # no element at all: P has atoms but K3 has no looped clique
    assert curried_by_column(Poset(2, (0b11, 0b10)), k3) == []


def test_seeded_curry_defect_turns_increasing_false(monkeypatch):
    """Every curried set of two or more members loses its lowest one.  The
    sets stay multihomomorphisms, but phi o psi now lies below the identity
    wherever an element has such a set, so phi o psi >= id fails."""
    real = homposets._curry_column

    def shrunk(key, **tables):
        value = real(key, **tables)
        return value & (value - 1) or value

    monkeypatch.setattr(homposets, "_curry_column", shrunk)
    rep = adjunction_report(complete_graph(2), complete_graph(2),
                            complete_graph(3))
    assert not rep.increasing and not rep.closure_ok


def is_up_closure(hp, image):
    """Whether element i -> image[i] of `hp` is monotone, idempotent and
    has image[i] >= i, tested element by element on the packed element
    masks: the oracle for the test `adjunction_report` makes on its table
    of distinct values.

    Monotonicity is checked on lower-cover pairs: element i against i with
    one target vertex dropped from one of its sets of size >= 2.  Hom(G,H)
    is closed under nonempty pointwise subsets, so these pairs generate
    the order; a missing subset raises ValueError.
    """
    m, packed, w = hp.m, hp._packed, hp.target.n
    if len(image) != m or any(not 0 <= c < m for c in image):
        raise ValueError("closure test requires an endomap")
    where = {k: i for i, k in enumerate(packed)}
    for i, e in enumerate(hp.elements):
        c = image[i]
        up = packed[c]
        if image[c] != c or packed[i] & ~up:
            return False
        for v, mask in enumerate(e):
            if not mask & (mask - 1):
                continue
            for x in bits(mask):
                j = where.get(packed[i] ^ (1 << x << v * w))
                if j is None:
                    raise ValueError("a pointwise subset of an element "
                                     "is missing from the poset")
                if packed[image[j]] & ~up:
                    return False
    return True


def closure_of(rep):
    """phi o psi of an adjunction report, as element indices."""
    return tuple(rep.phi[j] for j in rep.psi)


def closure_verdict_by_oracle(rep):
    """`closure_ok` recomputed with the per-element oracle."""
    return (rep.roundtrip_identity and rep.increasing
            and is_up_closure(rep.hom_curried, closure_of(rep)))


def swap_comparable_pair(p, image):
    """image with its values at some i < j swapped, where they differ."""
    for i in range(p.m):
        for j in bits(p.above[i] & ~(1 << i)):
            if image[i] != image[j]:
                broken = list(image)
                broken[i], broken[j] = image[j], image[i]
                return tuple(broken)
    return None


def test_cover_closure_check_matches_materialized_order(registry_adjunction):
    hp = registry_adjunction.hom_curried
    p = hp.poset
    closure = closure_of(registry_adjunction)
    assert is_up_closure(hp, closure)
    assert is_closure_map(PosetMap(p, p, closure), "up")
    swapped = swap_comparable_pair(p, closure)
    assert not is_up_closure(hp, swapped)
    assert not is_closure_map(PosetMap(p, p, swapped), "up")
    # increasing and idempotent, but not monotone: move an atom y to an
    # upper cover z of it while y's other upper cover x stays put
    assert closure == tuple(range(hp.m))  # phi and psi are inverse here
    y = hp.atoms[0]
    x, z = list(bits(p.covers[y]))[:2]
    moved = list(closure)
    moved[y] = z
    assert not is_up_closure(hp, moved)
    assert not is_closure_map(PosetMap(p, p, tuple(moved)), "up")


def test_cover_closure_check_refuses_a_poset_missing_a_subset():
    k2, k3 = complete_graph(2), complete_graph(3)
    hp = HomPoset(k2, k3, ((0b011, 0b100),))
    with pytest.raises(ValueError, match="subset"):
        is_up_closure(hp, (0,))
    with pytest.raises(ValueError, match="endomap"):
        is_up_closure(hom_poset(k2, k3), (0,))


def test_adjunction_report_refuses_a_poset_missing_a_subset(monkeypatch):
    """Hom(K1, K3^K2), K1 one unlooped vertex, without the element whose
    one set is the diagonal {(0,0), (1,1)}.  That set is no curried value,
    so only the monotonicity test reads it, as a lower cover of
    {(0,0), (0,1), (1,1)}."""
    real = homposets.hom_poset
    diagonal = 1 << 0 | 1 << 4

    def without_diagonal(g, h, guards=DEFAULT_GUARDS):
        hp = real(g, h, guards)
        return replace(hp, elements=tuple(e for e in hp.elements
                                          if e != (diagonal,)))

    monkeypatch.setattr(homposets, "hom_poset", without_diagonal)
    with pytest.raises(ValueError, match="subset"):
        adjunction_report(complete_graph(2), Graph(1, (0,)),
                          complete_graph(3))


@pytest.mark.parametrize("instance", ["K2xR6->K3", "K2xK2->K3",
                                      "K2xK1->K3"])
def test_closure_verdict_matches_the_per_element_oracle(registry_adjunction,
                                                        instance):
    """The report's verdict, read off its table of distinct values,
    against the cover test over every element; K1 is one unlooped vertex,
    where phi o psi is far from the identity."""
    if instance == "K2xR6->K3":
        rep = registry_adjunction
    else:
        h = complete_graph(2) if instance == "K2xK2->K3" else Graph(1, (0,))
        rep = adjunction_report(complete_graph(2), h, complete_graph(3))
    assert rep.closure_ok and closure_verdict_by_oracle(rep)


def test_seeded_defect_breaking_only_monotonicity_is_caught(monkeypatch):
    """H is one unlooped vertex, so Hom(H, K3^K2) holds every nonempty set
    S of maps K2 -> K3, and F(S) = curry(uncurry(S)) is the box
    pi_0(S) x pi_1(S).  One uncurry table entry is widened: the diagonal
    S = {(0,0), (1,1)} gets the column ({0,1,2}, {0,1}).  S is no curried
    value, so the round trip never reads it, and F(S) is still a box
    holding S, so F stays increasing and idempotent.  But S's upper cover
    S + (0,1) has the box {0,1}^2, which misses (2,0) of F(S)."""
    real = homposets._uncurry_mask
    diagonal = 1 << 0 | 1 << 4  # (0,0) and (1,1) among the 9 maps

    def widened(beta, **tables):
        return (0b111, 0b011) if beta == diagonal else real(beta, **tables)

    monkeypatch.setattr(homposets, "_uncurry_mask", widened)
    rep = adjunction_report(complete_graph(2), Graph(1, (0,)),
                            complete_graph(3))
    closure = closure_of(rep)
    assert all(closure[c] == c for c in closure)
    assert rep.roundtrip_identity and rep.increasing
    assert not rep.closure_ok and not closure_verdict_by_oracle(rep)
    p = rep.hom_curried.poset
    assert not is_closure_map(PosetMap(p, p, closure), "up")


def test_adjunction_equivariance():
    """phi commutes with the induced actions on both sides."""
    k2, k3 = complete_graph(2), complete_graph(3)
    h = reflexive_cycle(4)
    anti = (2, 3, 0, 1)
    h_anti = z2_graph_action(h, anti)
    rep = adjunction_report(k2, h, k3)
    # the diagonal action on K2 x H: flip the edge and turn H half way
    diagonal = z2_graph_action(product(k2, h), [(1 - x // 4) * 4 + anti[x % 4]
                                                for x in range(8)])
    act_prod = induced_hom_action(rep.hom_product, source_action=diagonal)
    # the flip acts on K3^K2 by (f0, f1) -> (f1, f0)
    emaps = list(itertools.product(range(3), repeat=2))
    e_act = z2_graph_action(exponential(k2, k3),
                            [emaps.index((f1, f0)) for f0, f1 in emaps])
    act_cur = induced_hom_action(rep.hom_curried,
                                 source_action=h_anti, target_action=e_act)
    assert action_violation(act_prod) is None
    assert action_violation(act_cur) is None
    phi = rep.phi
    for i in range(rep.hom_product.m):
        assert phi[act_prod.maps[1][i]] == act_cur.maps[1][phi[i]]


def test_poset_adjunction():
    fp = face_poset(SQUARE)
    c4 = reflexive_cycle(4)
    rep = poset_adjunction_report(fp, c4)
    assert rep.roundtrip_identity and rep.decreasing
    assert rep.maps_checked > 0
    count = sum(1 for _ in enumerate_poset_maps(fp, rep.hom_single.poset))
    assert rep.maps_checked == count
    # explicit small roundtrip: a two-chain against a looped edge
    two_chain = face_poset(make_complex(2, [[0, 1]]))
    lp = looped_path(2)
    rep2 = poset_adjunction_report(two_chain, lp)
    assert rep2.roundtrip_identity and rep2.decreasing
    # hand-run one curry/uncurry pair on that instance
    ag, atoms = atom_graph(two_chain)
    hom_ag = hom_poset(ag, lp)
    h1 = hom_poset(one_graph(), lp)
    single = {e[0]: v for v, e in enumerate(h1.elements)}
    below = atoms_below(two_chain, atoms)
    for e in hom_ag.elements:
        f = poset_curry(below, e, single)
        assert tuple(h1.elements[f[a]][0] for a in atoms) == e


def mask_test_by_definition(p, g):
    """For each monotone map f: P -> Hom(1,G), in enumeration order, whether
    phi(psi(f)) <= f, tested on masks: f restricted to the atoms is an
    element alpha of Hom(P^1,G), and the union of alpha over the atoms
    below x must lie inside f(x) for every x."""
    ag, atoms = atom_graph(p)
    hom_ag = hom_poset(ag, g)
    hom_single = hom_poset(one_graph(), g)
    masks = [e[0] for e in hom_single.elements]
    below = atoms_below(p, atoms)
    verdicts = []
    for f in enumerate_poset_maps(p, hom_single.poset):
        alpha = tuple(masks[f[a]] for a in atoms)
        assert alpha in hom_ag.index
        curried = [reduce(or_, (alpha[k] for k in ks), 0) for ks in below]
        verdicts.append(all(not c & ~masks[v] for c, v in zip(curried, f)))
    return verdicts


def per_map_poset_adjunction(p, g, guards=DEFAULT_GUARDS):
    """The poset side of the adjunction checked one map at a time:
    (roundtrip, decreasing, maps_checked).  Every monotone map P ->
    Hom(1,G) is read in the order of `enumerate_poset_maps`, and the check
    stops at the first map f with phi(psi(f)) <= f false; maps_checked
    counts the maps read.  Hom posets and curried values come from
    `homposets.hom_poset` and `homposets._curried_columns`, so a patched
    one is seen here as by the report."""
    ag, atoms = atom_graph(p)
    hom_ag = homposets.hom_poset(ag, g, guards)
    hom_single = homposets.hom_poset(one_graph(), g, guards)
    single = {e[0]: v for v, e in enumerate(hom_single.elements)}
    keys = [tuple(single[mask] for mask in e) for e in hom_ag.elements]
    curried = list(homposets._rows(homposets._curried_columns(
        p, atoms, homposets._columns(hom_ag.elements, len(atoms)), single),
        hom_ag.m))
    roundtrip = all(tuple(c[a] for a in atoms) == key
                    for c, key in zip(curried, keys))
    row = {key: j for j, key in enumerate(keys)}
    up = hom_single.poset.above
    checked = 0
    for f in enumerate_poset_maps(p, hom_single.poset, guards):
        checked += 1
        c = curried[row[tuple(f[a] for a in atoms)]]
        if not all(up[cx] >> fx & 1 for cx, fx in zip(c, f)):
            return roundtrip, False, checked
    return roundtrip, True, checked


def reported(p, g, guards=DEFAULT_GUARDS):
    rep = poset_adjunction_report(p, g, guards)
    return rep.roundtrip_identity, rep.decreasing, rep.maps_checked


def outcome(check, p, g, guards=DEFAULT_GUARDS):
    """check(p, g, guards), or the guard it trips as (guard, limit,
    attempted)."""
    try:
        return check(p, g, guards)
    except GuardExceeded as err:
        return err.guard, err.limit, err.attempted


def recorded_maps(monkeypatch):
    """The blocks the report reads, in order, each as the list of its maps
    within the guard: it reads the next block only once every map of the
    current one passed its check."""
    seen = []
    real = homposets._poset_map_blocks

    def recording(*args):
        tail, blocks = real(*args)

        def read():
            for image, masks, within in blocks:
                seen.append(block_maps(tail, image, masks)[:within])
                yield image, masks, within

        return tail, read()

    monkeypatch.setattr(homposets, "_poset_map_blocks", recording)
    return seen


@pytest.mark.parametrize("case", ["F(C6)->R6", "F(square)->R4"])
def test_poset_decreasing_check_matches_mask_test(monkeypatch, case):
    p, g = {"F(C6)->R6": (cycle_face_poset(3).poset, reflexive_cycle(6)),
            "F(square)->R4": (face_poset(SQUARE), reflexive_cycle(4))}[case]
    expected = mask_test_by_definition(p, g)
    blocks = recorded_maps(monkeypatch)
    rep = poset_adjunction_report(p, g)
    seen = [f for block in blocks for f in block]
    # every map the report read before the last passed its check
    assert [True] * (len(seen) - 1) + [rep.decreasing] == \
        expected[:len(seen)]
    assert rep.maps_checked == len(seen) == len(expected)
    assert rep.roundtrip_identity and rep.decreasing
    if case == "F(C6)->R6":
        assert rep.maps_checked == 64_044
    assert reported(p, g) == per_map_poset_adjunction(p, g)


def test_poset_adjunction_with_no_atom_and_one_atom():
    r4 = reflexive_cycle(4)
    empty, chain2 = Poset(0, ()), Poset(2, (0b11, 0b10))
    for p, g, maps in ((empty, r4, 1), (empty, complete_graph(3), 1),
                       (chain2, r4, 16), (chain2, complete_graph(3), 0),
                       (Poset(1, (1,)), r4, 8)):
        rep = poset_adjunction_report(p, g)
        assert rep.atoms == tuple(i for i in range(p.m)
                                  if p.below[i] == 1 << i)
        assert len(rep.atoms) == min(p.m, 1)
        assert (rep.roundtrip_identity, rep.decreasing,
                rep.maps_checked) == (True, True, maps)
        assert maps == sum(
            1 for _ in enumerate_poset_maps(p, rep.hom_single.poset))
        assert reported(p, g) == per_map_poset_adjunction(p, g)


def test_poset_adjunction_map_guard_trips_through_the_report():
    fp, r4 = face_poset(SQUARE), reflexive_cycle(4)
    count = poset_adjunction_report(fp, r4).maps_checked
    guards = DEFAULT_GUARDS.scaled(poset_map_elements=count - 1)
    with pytest.raises(GuardExceeded) as err:
        poset_adjunction_report(fp, r4, guards)
    assert (err.value.guard, err.value.attempted) == \
        ("poset_map_elements", count)
    assert poset_adjunction_report(
        fp, r4, DEFAULT_GUARDS.scaled(poset_map_elements=count)).decreasing


SEEDED_POSITIONS = [("F(C6)->R6", 6)] + [("F(square)->R4", x)
                                          for x in range(8)]


def widen_curried_value(monkeypatch, x, pick=0):
    """Patch `_curried_columns` to widen, in column x, the value of the
    first element that has a strictly wider looped clique there, to the
    pick-th such clique (cyclically), each time that element is curried.
    Returns [(its alpha, the wider mask)] once the element is found."""
    real = homposets._curried_columns
    hit = []

    def widened(p, atoms, columns, single):
        curried = real(p, atoms, columns, single)
        for i, alpha in enumerate(zip(*columns)):
            if hit and hit[0][0] != alpha:
                continue
            narrow = next(m for m, v in single.items()
                          if v == curried[x][i])
            wider = [(m, w) for m, w in single.items()
                     if m != narrow and not narrow & ~m]
            if not wider:
                continue
            m, w = wider[pick % len(wider)]
            if not hit:
                hit.append((alpha, m))
            curried[x] = curried[x][:i] + (w,) + curried[x][i + 1:]
            break
        return curried

    monkeypatch.setattr(homposets, "_curried_columns", widened)
    return hit


def shuffle_single(monkeypatch, seed):
    """Patch `hom_poset` to list the elements of every Hom from a
    one-vertex graph, Hom(1,G) among them, in an order shuffled by
    `seed`.  Then the first candidate of a factor need not be its least
    value, and a block's first failing map need not be its first map."""
    real = homposets.hom_poset

    def shuffled(src, tgt, guards=DEFAULT_GUARDS):
        hp = real(src, tgt, guards)
        if src.n != 1:
            return hp
        elements = list(hp.elements)
        random.Random(seed).shuffle(elements)
        return HomPoset(src, tgt, tuple(elements), guards)

    monkeypatch.setattr(homposets, "hom_poset", shuffled)


@pytest.mark.parametrize("case,x", SEEDED_POSITIONS)
def test_seeded_poset_curry_defect_turns_decreasing_false(monkeypatch, case,
                                                          x):
    """Add a vertex to one curried value in column x (one element x of
    P).  The first map that restricts to that element and misses the
    vertex stops the check, wherever x is; at an atom the round trip
    breaks too."""
    p, g = {"F(C6)->R6": (cycle_face_poset(3).poset, reflexive_cycle(6)),
            "F(square)->R4": (face_poset(SQUARE), reflexive_cycle(4))}[case]
    hit = widen_curried_value(monkeypatch, x)
    blocks = recorded_maps(monkeypatch)
    rep = poset_adjunction_report(p, g)
    assert hit and not rep.decreasing
    assert rep.roundtrip_identity == (x not in rep.atoms)
    alpha, wide = hit[0]
    masks = [e[0] for e in rep.hom_single.elements]

    def fails(f):
        return (tuple(masks[f[a]] for a in rep.atoms) == alpha
                and wide & ~masks[f[x]])

    seen = [f for block in blocks for f in block]
    checked = seen[:rep.maps_checked]
    assert fails(checked[-1]) and not any(map(fails, checked[:-1]))
    # the report stops in the block holding the first failing map
    assert len(seen) - len(blocks[-1]) < rep.maps_checked <= len(seen)
    assert reported(p, g) == per_map_poset_adjunction(p, g)



def traced_peak(run):
    """The tracemalloc peak of run(), in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adjunction_reports_peak_no_higher_than_their_oracle_paths(
        monkeypatch):
    """On its registry instance, each report's transient tables stay
    within the memory of the per-element path: the graph side against the
    report with curry and uncurry patched to `curry_by_element` and
    `uncurry_by_element`, the poset side against the map-by-map check,
    which holds one row of curried values per element.  Each report runs
    once untraced first, so both sides find the inputs' caches filled."""
    p, r6 = cycle_face_poset(3).poset, reflexive_cycle(6)
    poset_adjunction_report(p, r6)
    poset = traced_peak(lambda: poset_adjunction_report(p, r6))
    assert poset <= traced_peak(lambda: per_map_poset_adjunction(p, r6))
    adjunction_report(*REGISTRY_ADJUNCTION)
    graph = traced_peak(lambda: adjunction_report(*REGISTRY_ADJUNCTION))
    monkeypatch.setattr(homposets, "curry_elements", curry_by_element)
    monkeypatch.setattr(homposets, "uncurry_elements", uncurry_by_element)
    assert graph <= traced_peak(
        lambda: adjunction_report(*REGISTRY_ADJUNCTION))

def test_poset_adjunction_refuses_bad_values(monkeypatch):
    p, g = face_poset(SQUARE), reflexive_cycle(4)
    hs = hom_poset(one_graph(), g)
    index = {e[0]: v for v, e in enumerate(hs.elements)}
    # atoms 0 and 1 share an edge of the square, so opposite corners of
    # the target cycle for them is no multihomomorphism
    atoms = p.atoms
    bad = [index[0b0001]] * p.m
    bad[atoms[1]] = index[0b0100]
    real = homposets._poset_map_blocks

    def with_bad_block(*args):
        tail, blocks = real(*args)
        masks = tuple(1 << bad[r] for r, _ in tail)
        return tail, itertools.chain([(tuple(bad), masks, 1)], blocks)

    monkeypatch.setattr(homposets, "_poset_map_blocks", with_bad_block)
    with pytest.raises(ValueError, match="escaped"):
        poset_adjunction_report(p, g)
    monkeypatch.setattr(homposets, "_poset_map_blocks", real)
    # an element of Hom(P^1,G) whose atom value is no looped clique
    real_hom = homposets.hom_poset

    def with_bad_element(src, tgt, guards=DEFAULT_GUARDS):
        hp = real_hom(src, tgt, guards)
        if src.n != len(atoms):
            return hp
        return HomPoset(src, tgt, hp.elements + ((0b0101,) * src.n,))

    monkeypatch.setattr(homposets, "hom_poset", with_bad_element)
    with pytest.raises(ValueError, match="atom's value"):
        poset_adjunction_report(p, g)


def test_poset_adjunction_guard_trips_where_the_per_map_loop_would(
        monkeypatch):
    """Around the first failing map and around the last map, the report
    returns or raises exactly as the check that reads one map at a time."""
    p, g = face_poset(SQUARE), reflexive_cycle(4)
    total = per_map_poset_adjunction(p, g)[2]

    def both(limit):
        guards = DEFAULT_GUARDS.scaled(poset_map_elements=limit)
        return (outcome(reported, p, g, guards),
                outcome(per_map_poset_adjunction, p, g, guards))

    for limit in (0, 1, total - 1, total):
        got, want = both(limit)
        assert got == want
    # widened at a vertex, at one edge, or at two edges of one element, so
    # two factors of one block fail at different ranks
    for xs, seed in (((0,), 0), ((4,), 0), ((7,), 0), ((5,), 3),
                     ((4, 7), 0), ((5, 6), 11)):
        with monkeypatch.context() as patch:
            shuffle_single(patch, seed)
            for x in xs:
                widen_curried_value(patch, x)
            first = per_map_poset_adjunction(p, g)[2]
            for limit in (0, first - 1, first, first + 1):
                got, want = both(limit)
                assert got == want
                assert (want[0] == "poset_map_elements") == (limit < first)


@settings(deadline=None, max_examples=80)
@given(small_posets(5), looped_graphs(1, 3),
       st.lists(st.integers(0, 4), max_size=2, unique=True),
       st.integers(0, 3), st.integers(0, 1 << 16),
       st.one_of(st.none(), st.integers(0, 40)))
def test_poset_adjunction_matches_the_per_map_check(p, g, positions, pick,
                                                    seed, limit):
    """On small posets, with Hom(1,G) listed in a shuffled order, the
    curried values at the drawn positions widened and the map count
    capped at `limit`, the report's round trip, verdict and map count, or
    the guard it trips, are those of the per-map check."""
    guards = DEFAULT_GUARDS if limit is None else \
        DEFAULT_GUARDS.scaled(poset_map_elements=limit)
    with pytest.MonkeyPatch.context() as patch:
        shuffle_single(patch, seed)
        for x in positions:
            if x < p.m:
                widen_curried_value(patch, x, pick)
        assert outcome(reported, p, g, guards) == \
            outcome(per_map_poset_adjunction, p, g, guards)


def iso_by_pairs(rep):
    """Whether the image is an order isomorphism, tested pair by pair with
    `leq` on the quotient and on the packed masks of Hom(T, G/action): the
    oracle for `quotient_compare`'s test on order rows."""
    image, quot, hom_q = rep.image, rep.quotient.poset, rep.hom_quotient_target
    bij = len(set(image)) == len(image) and len(image) == hom_q.m
    return bij and all(quot.leq(i, j) == hom_q.leq(image[i], image[j])
                       for i in range(quot.m) for j in range(quot.m))


def prism_compare():
    g = product(complete_graph(2), reflexive_cycle(6))
    diag = z2_graph_action(g, tuple((1 - x // 6) * 6 + (x % 6 + 3) % 6
                                    for x in range(12)))
    return quotient_compare(complete_graph(2), g, diag)


def trivial_group_compare():
    k3 = complete_graph(3)
    triv = GraphAction(make_group([(0,)]), k3, (tuple(range(3)),))
    return quotient_compare(complete_graph(2), k3, triv)


def violated_compare():
    anti = z2_graph_action(reflexive_cycle(6), (3, 4, 5, 0, 1, 2))
    return quotient_compare(complete_graph(2), reflexive_cycle(6), anti)


def registry_compare(m):
    g, act = _diagonal_flip_shift(m)
    return quotient_compare(complete_graph(2), g, act)


QUOTIENT_COMPARES = {"prism": prism_compare,
                     "trivial group": trivial_group_compare,
                     "violated hypothesis": violated_compare,
                     **{f"m={m}": partial(registry_compare, m)
                        for m in (3, 4, 5)}}


@pytest.mark.parametrize("case", QUOTIENT_COMPARES)
def test_row_iso_matches_the_pairwise_oracle(case):
    rep = QUOTIENT_COMPARES[case]()
    assert rep.iso == iso_by_pairs(rep)
    assert rep.iso == (case != "violated hypothesis")


def test_seeded_wrong_order_row_turns_iso_false(monkeypatch):
    """The quotient's order loses one cover relation, so one row of it is
    wrong; the bijection stays, and the row test and the oracle both see
    the orders differ."""
    real = homposets.quotient_poset_by_action

    def one_row_wrong(pact):
        quot = real(pact)
        above = list(quot.poset.above)
        i = next(i for i in range(quot.poset.m) if quot.poset.covers[i])
        above[i] &= ~(quot.poset.covers[i] & -quot.poset.covers[i])
        return replace(quot, poset=Poset(quot.poset.m, tuple(above)))

    monkeypatch.setattr(homposets, "quotient_poset_by_action", one_row_wrong)
    rep = registry_compare(3)
    assert len(set(rep.image)) == rep.hom_quotient_target.m
    assert not rep.iso and not iso_by_pairs(rep)


def test_quotient_compare_prism():
    rep = prism_compare()
    assert rep.cycle_lengths == (4,)
    assert rep.hypothesis_ok and rep.violation is None
    assert rep.free and rep.strongly_regular
    assert rep.iso and rep.rank_preserved
    assert rep.warning is None
    assert rep.quotient.guaranteed
    # the quotient target is Hom(K2, prism)
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                 (3, 5), (0, 3), (1, 4), (2, 5)])
    assert is_isomorphic(rep.hom_quotient_target.target, prism)


def test_quotient_compare_trivial_group():
    rep = trivial_group_compare()
    assert rep.hypothesis_ok and rep.iso and rep.rank_preserved
    assert rep.image == tuple(range(rep.hom_source.m))


def test_quotient_compare_violated_hypothesis():
    rep = violated_compare()
    assert not rep.hypothesis_ok
    assert rep.violation is not None and rep.violation[2] in rep.cycle_lengths
    assert rep.warning is not None
    # computed outcome recorded: projection collapses too much to be iso
    assert not rep.iso


def test_tree_cycle_lengths():
    from homlab.homposets import _tree_cycle_lengths
    assert _tree_cycle_lengths(complete_graph(2)) == ()
    assert _tree_cycle_lengths(complete_graph(3)) == (3,)
    assert _tree_cycle_lengths(cycle_graph(5)) == (5,)
    assert _tree_cycle_lengths(reflexive_cycle(4))[0] == 1  # loops
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert _tree_cycle_lengths(two_triangles) == (3,)


def test_loop_addition_c6():
    k2 = complete_graph(2)
    c6 = reflexive_cycle(6)
    rep = loop_addition_maps(k2, c6)
    assert rep.j_dominates_reflexive_top
    assert rep.i_j_below_h and rep.h_dominates_top
    assert rep.i.is_monotone() and rep.j.is_monotone() \
        and rep.h.is_monotone()
    # i embeds Hom(T°,G) into Hom(T,G)
    assert len(set(rep.i.image)) == rep.hom_reflexive.m
    # homotopy-level agreement: equal homology
    assert poset_homology(rep.hom_reflexive.poset) == \
        poset_homology(rep.hom_plain.poset)


def test_loop_addition_takes_each_elements_loop_sets_once(monkeypatch):
    loop_sets = homposets._loop_sets
    calls = []

    def counted(g, element):
        calls.append(element)
        return loop_sets(g, element)

    monkeypatch.setattr(homposets, "_loop_sets", counted)
    r8 = reflexive_cycle(8)
    rep = loop_addition_maps(complete_graph(2), r8)
    plain = rep.hom_plain.elements
    # 96 elements and 512 chains: one call per element, not per chain member
    assert len(plain) == 96 and rep.j.domain.m == 512
    assert sorted(calls) == sorted(plain)
    for c, chain in enumerate(rep.j.domain.elements):
        want = tuple(reduce(or_, (loop_sets(r8, plain[r])[v] for r in chain))
                     for v in range(2))
        assert rep.hom_reflexive.elements[rep.j.image[c]] == want
        top = plain[chain[-1]]
        assert plain[rep.h.image[c]] == tuple(a | b for a, b in zip(want, top))


def test_loop_addition_requirements():
    k2 = complete_graph(2)
    with pytest.raises(ValueError, match="fine"):
        loop_addition_maps(k2, complete_graph(3))
    with pytest.raises(ValueError, match="isolated"):
        loop_addition_maps(Graph.from_edges(3, [(0, 1)]), reflexive_cycle(6))
    refl = reflexive_closure(k2)
    rep = loop_addition_maps(refl, reflexive_cycle(6))
    assert rep.hom_plain.elements == rep.hom_reflexive.elements
    assert rep.i.image == tuple(range(rep.hom_plain.m))

