"""Group actions: validation, orbits, quotients, twisted products,
equivariant monotone maps.  Counting oracles are brute force.  The action
axioms are checked against a test of every ordered pair of points
(`action_violation`), orbits against a closure search under the maps
(`closure_orbits`), the poset quotient against a transitive closure with
merged classes (`closure_quotient`), the twisted product against the
quotient of the whole product graph by its diagonal action
(`product_quotient`), and d-discontinuity against a queue-based BFS
(`bfs_dist`)."""

import itertools
from collections import deque
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

from homlab import actions
from homlab.actions import (FiniteGroup, GraphAction, PosetAction,
                            PosetQuotient, TwistedProduct, atom_graph_action,
                            check_chain_discontinuity,
                            equivariant_poset_maps, face_poset_action,
                            fixed_subposet, is_d_discontinuous, is_free,
                            is_strongly_regular, left_regular_maps,
                            make_group, orbit_of, orbits,
                            quotient_graph_by_action,
                            quotient_poset_by_action, symmetric_group,
                            twisted_product, z2_group)
from homlab.families import cycle_face_poset
from homlab import graphs
from homlab.graphs import (INFINITE, Graph, bits, complete_graph,
                           cycle_graph, is_isomorphic, product, quotient,
                           reflexive_cycle)
from homlab.homology import poset_homology
from homlab.homposets import hom_poset, induced_hom_action, quotient_compare
from homlab.limits import DEFAULT_GUARDS, GuardExceeded
from homlab.posets import (Poset, atom_graph, chain_poset,
                           enumerate_poset_maps, face_poset, from_leq_pairs,
                           make_complex)

SQUARE = make_complex(4, [[0, 1], [1, 2], [2, 3], [0, 3]])


def rotation(n, k=1):
    return tuple((i + k) % n for i in range(n))


def reflection(n):
    return tuple((-i) % n for i in range(n))


def z2_action(carrier, perm):
    cls = GraphAction if isinstance(carrier, Graph) else PosetAction
    n = len(perm)
    return cls(z2_group(), carrier, (tuple(range(n)), tuple(perm)))


def cyclic(n):
    return make_group([rotation(n)])


def trivial_action(poset, group):
    return PosetAction(group, poset,
                       tuple(tuple(range(poset.m)) for _ in group.elements))


def action_violation(a) -> Optional[str]:
    """First violated action axiom, or None: the oracle for the checks
    `GraphAction` and `PosetAction` run on construction.  ``a`` is an
    action, or any object with its fields, valid or not.  Every element
    must keep the relation of every ordered pair of points."""
    if hasattr(a, "graph"):
        rel, n = a.graph.has_edge, a.graph.n
    else:
        rel, n = a.poset.leq, a.poset.m
    if len(a.maps) != a.group.order:
        return "one carrier map per group element required"
    for i, p in enumerate(a.maps):
        if len(p) != n or sorted(p) != list(range(n)):
            return f"carrier map {i} is not a permutation"
    if a.maps[0] != tuple(range(n)):
        return "identity acts nontrivially"
    g = a.group
    for i in range(g.order):
        for j in range(g.order):
            if a.maps[g.mul(i, j)] != tuple(a.maps[i][x] for x in a.maps[j]):
                return f"compatibility fails at elements {i},{j}"
    for i, p in enumerate(a.maps):
        if not all(rel(p[u], p[v]) == rel(u, v)
                   for u in range(n) for v in range(n)):
            return f"element {i} is not an automorphism"
    return None


def closure_orbits(a) -> tuple[tuple[int, ...], ...]:
    """The oracle for `orbits`: close each point under the maps, reading
    nothing off the group.  Blocks ascending, sorted by minimum."""
    n = len(a.maps[0])
    seen = [False] * n
    out = []
    for v in range(n):
        if seen[v]:
            continue
        block = []
        stack = [v]
        seen[v] = True
        while stack:
            u = stack.pop()
            block.append(u)
            for mp in a.maps:
                w = mp[u]
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(tuple(sorted(block)))
    return tuple(out)


def product_quotient(t_act, h_act, h_right=None) -> TwistedProduct:
    """The oracle for `twisted_product`: build T x H, the diagonal action
    on it and its orbit partition, and take the quotient graph.  The
    carried action is read off every pair of T x H, not only off the
    representatives, and checked to be well defined."""
    if t_act.group != h_act.group:
        raise ValueError("actions use different groups")
    g = t_act.group
    nh = h_act.graph.n
    prod = product(t_act.graph, h_act.graph)
    diagonal = GraphAction(g, prod, tuple(
        tuple(tm[x // nh] * nh + hm[x % nh] for x in range(prod.n))
        for tm, hm in zip(t_act.maps, h_act.maps)))
    blocks = closure_orbits(diagonal)
    block_of = [0] * prod.n
    for i, b in enumerate(blocks):
        for x in b:
            block_of[x] = i
    pairs = tuple((b[0] // nh, b[0] % nh) for b in blocks)
    q = quotient(prod, block_of)
    graph = Graph(q.n, q.adj, tuple(f"[{a},{b}]" for a, b in pairs))
    carried = None
    if h_right is not None:
        if h_right.group != g:
            raise ValueError("carried action uses a different group")
        if h_right.graph.adj != h_act.graph.adj:
            raise ValueError("carried action lives on a different graph")
        for lm in h_act.maps:
            for rm in h_right.maps:
                if tuple(lm[y] for y in rm) != tuple(rm[y] for y in lm):
                    raise ValueError("carried right action does not "
                                     "commute with the left action")
        rmaps = []
        for rm in h_right.maps:
            img = [-1] * q.n
            for x in range(prod.n):
                u = block_of[x]
                target = block_of[x // nh * nh + rm[x % nh]]
                if img[u] not in (-1, target):
                    raise ValueError("carried action is not well defined")
                img[u] = target
            rmaps.append(tuple(img))
        carried = GraphAction(g, graph, tuple(rmaps))
    return TwistedProduct(graph, g, pairs, tuple(block_of), carried)


def closure_quotient(a) -> PosetQuotient:
    """The oracle for `quotient_poset_by_action`: relate orbits when some
    member of one lies below some member of the other, close the relation
    transitively and merge mutually related orbits, so that any maps give
    a poset."""
    p = a.poset
    orbs = closure_orbits(a)
    k = len(orbs)
    omask = [sum(1 << v for v in b) for b in orbs]
    rel = [1 << i for i in range(k)]
    for i, b in enumerate(orbs):
        for j in range(k):
            if i != j and any(p.above[u] & omask[j] for u in b):
                rel[i] |= 1 << j
    for t in range(k):
        for i in range(k):
            if rel[i] >> t & 1:
                rel[i] |= rel[t]
    cls = [-1] * k
    groups: list[list[int]] = []
    for i in range(k):
        if cls[i] < 0:
            members = [j for j in bits(rel[i]) if rel[j] >> i & 1]
            for j in members:
                cls[j] = len(groups)
            groups.append(members)
    merged = [tuple(sorted(v for j in g for v in orbs[j])) for g in groups]
    order = sorted(range(len(groups)), key=lambda c: merged[c][0])
    rank = {c: i for i, c in enumerate(order)}
    above = [0] * len(groups)
    for i in range(k):
        for j in bits(rel[i]):
            above[rank[cls[i]]] |= 1 << rank[cls[j]]
    blocks = tuple(merged[c] for c in order)
    orbit_of = {v: i for i, b in enumerate(orbs) for v in b}
    to_block = tuple(rank[cls[orbit_of[v]]] for v in range(p.m))
    return PosetQuotient(Poset(len(groups), tuple(above), blocks), blocks,
                         to_block, is_free(a) and is_strongly_regular(a))


def test_group_construction():
    z4 = cyclic(4)
    assert z4.order == 4
    assert z4.mul(1, 3) == 0 and z4.inv(1) == 3
    assert z4.elements[0] == (0, 1, 2, 3)
    s3 = symmetric_group(3)
    assert s3.order == 6
    for i in range(6):
        assert s3.mul(i, s3.inv(i)) == 0
    # closure guard
    with pytest.raises(GuardExceeded):
        make_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)],
                   DEFAULT_GUARDS.scaled(group_order=10))
    # broken table rejected
    z2 = z2_group()
    with pytest.raises(ValueError):
        FiniteGroup(z2.elements, ((0, 1), (1, 1)), z2.inverse)
    with pytest.raises(ValueError):
        FiniteGroup(((1, 0), (0, 1)), z2.table, z2.inverse)


def test_regular_maps():
    s3 = symmetric_group(3)
    left = left_regular_maps(s3)
    # the right regular action j.i = ji, stored as the left action j i^-1
    right = tuple(tuple(s3.table[j][s3.inv(i)] for j in range(6))
                  for i in range(6))
    disc = Graph(6, tuple(1 << i for i in range(6)))  # six looped points
    assert action_violation(GraphAction(s3, disc, left)) is None
    assert action_violation(GraphAction(s3, disc, right)) is None
    assert is_free(GraphAction(s3, disc, left))
    # the same right action passed without the inverse is no left action
    as_given = tuple(tuple(s3.table[j][i] for j in range(6)) for i in range(6))
    with pytest.raises(ValueError, match="compatibility"):
        GraphAction(s3, disc, as_given)


def test_action_validation_messages():
    c6 = reflexive_cycle(6)
    good = z2_action(c6, rotation(6, 3))
    assert action_violation(good) is None

    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="^element 1 is not an automorphism$"):
        z2_action(p3, (1, 0, 2))
    vee = from_leq_pairs(3, [(0, 2), (1, 2)])
    with pytest.raises(ValueError, match="^element 1 is not an automorphism$"):
        z2_action(vee, (2, 1, 0))

    c4 = reflexive_cycle(4)
    z4 = cyclic(4)
    with pytest.raises(ValueError, match="^compatibility fails at elements "):
        GraphAction(z4, c4, (rotation(4, 0), rotation(4, 1),
                             rotation(4, 2), rotation(4, 1)))
    with pytest.raises(ValueError, match="^identity acts nontrivially$"):
        GraphAction(z4, c4, (rotation(4, 1), rotation(4, 2),
                             rotation(4, 3), rotation(4, 0)))

    with pytest.raises(ValueError):
        z2_action(c6, (0, 0, 1, 2, 3, 4))  # not a permutation
    with pytest.raises(ValueError, match="one carrier map"):
        GraphAction(z2_group(), c6, (tuple(range(6)),))


def bfs_dist(g: Graph, source_mask: int) -> list:
    """Edge distance from the nearest vertex of the mask, INFINITE if none,
    by a queue-based BFS one vertex at a time."""
    dist = [INFINITE] * g.n
    queue = deque()
    for v in bits(source_mask):
        dist[v] = 0
        queue.append(v)
    while queue:
        v = queue.popleft()
        for w in bits(g.adj[v] & ~(1 << v)):
            if dist[w] is INFINITE:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def discontinuous_by_bfs(a, d):
    """The definition of d-discontinuity, read off a full BFS from every
    vertex: the oracle for `is_d_discontinuous`."""
    return all(bfs_dist(a.graph, 1 << v)[a.maps[i][v]] > d - 1
               for v in range(a.graph.n) for i in range(1, a.group.order))


def test_free_orbits_discontinuity():
    c6 = reflexive_cycle(6)
    antipodal = z2_action(c6, rotation(6, 3))
    refl = z2_action(c6, reflection(6))
    assert is_free(antipodal) and not is_free(refl)
    assert orbits(antipodal) == ((0, 3), (1, 4), (2, 5))
    assert orbits(refl) == ((0,), (1, 5), (2, 4), (3,))
    hex_open = z2_action(cycle_graph(6), rotation(6, 3))
    for a, d, want in ((antipodal, 3, True), (antipodal, 4, False),
                       (refl, 1, False), (hex_open, 3, True),
                       (hex_open, 4, False)):
        assert is_d_discontinuous(a, d) == discontinuous_by_bfs(a, d) == want
    with pytest.raises(ValueError, match="d must be"):
        is_d_discontinuous(antipodal, 0)


@st.composite
def z2_graph_actions(draw, max_n=8):
    """A graph on at most `max_n` vertices with an involution of them that
    is an automorphism (each drawn edge comes with its image).  It swaps
    as many pairs as it can, or, half the time, any number of pairs, so it
    may fix points; a fixed point is within distance 0 of its orbit."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    perm = list(range(n))
    swaps = draw(st.sampled_from([n // 2, None]))
    for k in range(draw(st.integers(0, n // 2)) if swaps is None else swaps):
        u, v = order[2 * k], order[2 * k + 1]
        perm[u], perm[v] = v, u
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    graph = Graph.from_edges(n, edges + [(perm[u], perm[v])
                                         for u, v in edges])
    return z2_action(graph, perm)


@settings(deadline=None, max_examples=200)
@given(z2_graph_actions(), st.integers(1, 6))
def test_discontinuity_matches_the_bfs_definition(a, d):
    assert is_d_discontinuous(a, d) == discontinuous_by_bfs(a, d)


def test_twisted_product_prism_and_k4():
    k2 = complete_graph(2)
    flip = z2_action(k2, (1, 0))
    for m, expect in ((2, complete_graph(4)),
                      (3, Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                               (3, 4), (4, 5), (3, 5),
                                               (0, 3), (1, 4), (2, 5)]))):
        c = reflexive_cycle(2 * m)
        antipodal = z2_action(c, rotation(2 * m, m))
        tw = twisted_product(flip, antipodal)
        assert tw.graph.n == 2 * m
        assert tw.graph.is_loopless()
        assert all(tw.graph.degree(v) == 3 for v in range(tw.graph.n))
        assert is_isomorphic(tw.graph, expect)
        # representatives are the lex-min member of each diagonal orbit
        nh = c.n
        for x, v in enumerate(tw.orbit_of):
            t, h = x // nh, x % nh
            other = ((t + 1) % 2) * nh + (h + m) % (2 * m)
            rt, rh = tw.pairs[v]
            assert rt * nh + rh == min(x, other)


def test_twisted_product_carried_action():
    k2 = complete_graph(2)
    flip = z2_action(k2, (1, 0))
    c6 = reflexive_cycle(6)
    antipodal = z2_action(c6, rotation(6, 3))
    mirror = z2_action(c6, reflection(6))
    tw = twisted_product(flip, antipodal, mirror)
    assert tw.right_action is not None
    assert action_violation(tw.right_action) is None

    # a non-commuting pair is rejected
    sq = cycle_graph(4)
    diag_refl = z2_action(sq, (0, 3, 2, 1))
    edge_refl = z2_action(sq, (1, 0, 3, 2))
    with pytest.raises(ValueError, match="commute"):
        twisted_product(flip, diag_refl, edge_refl)


def _cayley_graph(group, gen):
    """Vertices are group elements, j ~ j*gen: left multiplication acts."""
    return Graph.from_edges(group.order, [(j, group.mul(j, gen))
                                          for j in range(group.order)])


def test_twisted_product_s3_matches_brute_orbits():
    # S_3 is not abelian, so an inverse in the wrong place changes the orbits
    s3 = symmetric_group(3)
    k3 = complete_graph(3)
    # the right action t.g = g^-1(t) on K3, stored as the left action g(t)
    t_act = GraphAction(s3, k3, s3.elements)
    transposition = s3.elements.index((1, 0, 2))
    h = _cayley_graph(s3, transposition)
    h_act = GraphAction(s3, h, left_regular_maps(s3))
    tw = twisted_product(t_act, h_act)

    def right(t, g):
        return s3.elements[g].index(t)

    parent = list(range(k3.n * h.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x
    # (t.g, h) ~ (t, g.h) for every g
    for t in range(k3.n):
        for v in range(h.n):
            for g in range(s3.order):
                a = find(right(t, g) * h.n + v)
                b = find(t * h.n + s3.mul(g, v))
                parent[max(a, b)] = min(a, b)
    blocks = {}
    for x in range(k3.n * h.n):
        blocks.setdefault(find(x), []).append(x)
    brute = sorted(tuple(b) for b in blocks.values())
    by_vertex = [[] for _ in range(tw.graph.n)]
    for x, v in enumerate(tw.orbit_of):
        by_vertex[v].append(x)
    assert brute == sorted(tuple(b) for b in by_vertex)
    assert tw.graph.n == len(brute) == 3
    assert tw == product_quotient(t_act, h_act)


def test_one_twisted_product_builds_one_graph_and_checks_one_action(
        monkeypatch):
    """The quotient is built directly: neither T x H nor its diagonal
    action is built or checked, and the quotient is not copied."""
    flip = z2_action(complete_graph(2), (1, 0))
    c6 = reflexive_cycle(6)
    antipodal = z2_action(c6, rotation(6, 3))
    mirror = z2_action(c6, reflection(6))
    built, checked = [], []
    post_init = Graph.__post_init__
    check = actions._check_action

    def counting_post_init(self):
        built.append(self.n)
        post_init(self)

    def counting_check(group, rows, maps):
        checked.append(len(rows))
        check(group, rows, maps)

    monkeypatch.setattr(Graph, "__post_init__", counting_post_init)
    monkeypatch.setattr(actions, "_check_action", counting_check)
    tw = twisted_product(flip, antipodal, mirror)
    assert built == checked == [tw.graph.n] == [6]
    built.clear()
    checked.clear()
    twisted_product(flip, antipodal)
    assert built == [6] and checked == []


def test_induced_hom_action_s3_both_sides():
    s3 = symmetric_group(3)
    k3, k4 = complete_graph(3), complete_graph(4)
    source = GraphAction(s3, k3, s3.elements)
    target = GraphAction(s3, k4, tuple(p + (3,) for p in s3.elements))
    act = induced_hom_action(hom_poset(k3, k4), source, target)
    assert action_violation(act) is None


def test_quotient_graph():
    c6 = reflexive_cycle(6)
    q = quotient_graph_by_action(z2_action(c6, rotation(6, 3)))
    assert q.n == 3 and q.looped_mask == 0b111


def test_quotient_poset_square_antipode():
    fp = face_poset(SQUARE)
    act = face_poset_action(fp, z2_group(),
                            ((0, 1, 2, 3), (2, 3, 0, 1)))
    assert action_violation(act) is None
    assert is_free(act) and is_strongly_regular(act)
    res = quotient_poset_by_action(act)
    assert res.guaranteed
    assert res.poset.m == 4
    assert res.blocks == ((0, 2), (1, 3), (4, 7), (5, 6))
    assert res.to_block == (0, 1, 0, 1, 2, 3, 3, 2)
    # the quotient of a circle by the antipode is again a circle
    h = poset_homology(res.poset)
    assert h.betti == (0, 1) and not h.torsion_at(1)


def test_quotient_poset_flags_and_merge():
    vee = from_leq_pairs(3, [(0, 2), (1, 2)])
    res = quotient_poset_by_action(z2_action(vee, (1, 0, 2)))
    assert not res.guaranteed  # the action has a fixed point
    assert res.poset.m == 2 and res.to_block == (0, 0, 1)


def test_strong_regularity_boundary():
    # rotation by 2 on a reflexive 4-cycle is free but u and u+2 share
    # upper bounds in the face poset sense only; on the poset side use
    # the face poset of the square with the antipode (regular) versus
    # a chain with a fixed point (not even free).
    fp = face_poset(SQUARE)
    act = face_poset_action(fp, z2_group(), ((0, 1, 2, 3), (2, 3, 0, 1)))
    assert is_strongly_regular(act)
    tri = from_leq_pairs(3, [(0, 1), (1, 2)])
    ident = trivial_action(tri, make_group([(0,)]))
    assert is_strongly_regular(ident)  # trivial group: vacuous
    z2_trivial = PosetAction(z2_group(), tri, ((0, 1, 2), (0, 1, 2)))
    assert not is_strongly_regular(z2_trivial)


def test_fixed_subposet():
    fp = face_poset(SQUARE)
    mirror = face_poset_action(fp, z2_group(),
                               ((0, 1, 2, 3), (0, 3, 2, 1)))
    sub, kept = fixed_subposet(mirror)
    assert [fp.elements[i] for i in kept] == [(0,), (2,)]
    assert sub.m == 2 and not sub.comparable(0, 1)
    anti = face_poset_action(fp, z2_group(),
                             ((0, 1, 2, 3), (2, 3, 0, 1)))
    assert fixed_subposet(anti)[0].m == 0


def test_transport_and_chain_discontinuity():
    fp = face_poset(SQUARE)
    act = face_poset_action(fp, z2_group(), ((0, 1, 2, 3), (2, 3, 0, 1)))
    cp = chain_poset(fp)
    cact = face_poset_action(cp, act.group, act.maps)
    assert action_violation(cact) is None and is_free(cact)
    g, atoms = atom_graph(fp)
    ga = atom_graph_action(g, atoms, act)
    assert action_violation(ga) is None
    assert is_d_discontinuous(ga, 1) and discontinuous_by_bfs(ga, 1)
    for k in range(3):
        assert check_chain_discontinuity(act, k)
    with pytest.raises(ValueError):
        check_chain_discontinuity(
            face_poset_action(fp, z2_group(),
                              ((0, 1, 2, 3), (0, 3, 2, 1))), 1)


def brute_equivariant(pa, qa):
    out = []
    for f in enumerate_poset_maps(pa.poset, qa.poset):
        if all(f[pa.maps[i][x]] == qa.maps[i][f[x]]
               for i in range(pa.group.order) for x in range(pa.poset.m)):
            out.append(f)
    return sorted(out)


def test_equivariant_poset_maps_oracle():
    fp = face_poset(SQUARE)
    act = face_poset_action(fp, z2_group(), ((0, 1, 2, 3), (2, 3, 0, 1)))
    maps = equivariant_poset_maps(act, act)
    assert list(maps.elements) == brute_equivariant(act, act)
    assert maps.m >= 1
    # pointwise order agrees with the ambient map poset
    for i in range(maps.m):
        for j in range(maps.m):
            want = all(fp.leq(maps.elements[i][x], maps.elements[j][x])
                       for x in range(fp.m))
            assert maps.leq(i, j) == want

    two = from_leq_pairs(2, [])
    swap = z2_action(two, (1, 0))
    em = equivariant_poset_maps(swap, swap)
    assert em.elements == ((0, 1), (1, 0))
    assert not em.comparable(0, 1)

    z3 = cyclic(3)
    three = from_leq_pairs(3, [])
    rot3 = PosetAction(z3, three,
                       ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    with pytest.raises(ValueError, match="different groups"):
        equivariant_poset_maps(act, rot3)



def test_equivariant_maps_refused_before_full_enumeration():
    # F(C6) -> Hom(K2,K4) has 5,256 equivariant maps; the order guard must
    # stop the enumeration at the first map it would refuse to order.
    k2 = complete_graph(2)
    flip = GraphAction(z2_group(), k2, ((0, 1), (1, 0)))
    target = induced_hom_action(hom_poset(k2, complete_graph(4)),
                                source_action=flip)
    with pytest.raises(GuardExceeded) as err:
        equivariant_poset_maps(cycle_face_poset(3).antipodal, target)
    assert err.value.guard == "poset_relation"
    assert err.value.attempted == DEFAULT_GUARDS.poset_relation + 1 == 4_001

def test_equivariant_stabilizer_condition():
    # P has a fixed point, so its image must be fixed as well
    vee = from_leq_pairs(3, [(0, 2), (1, 2)])
    act_p = z2_action(vee, (1, 0, 2))
    two = from_leq_pairs(2, [])
    act_q = z2_action(two, (1, 0))
    em = equivariant_poset_maps(act_p, act_q)
    assert em.m == 0  # nothing can receive the fixed top point
    assert brute_equivariant(act_p, act_q) == []


@st.composite
def permuted_copies(draw, group, max_base):
    """A random poset copied once per point the group permutes, the group
    moving the copies; sometimes with a fixed bottom or top, whose
    stabilizer is the whole group."""
    k = len(group.elements[0])
    n = draw(st.integers(1, max_base))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rel = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ends = draw(st.sampled_from(["", "top", "bottom"]))
    m = k * n + bool(ends)
    leq = [(c * n + i, c * n + j) for c in range(k) for i, j in rel]
    if ends == "top":
        leq += [(x, m - 1) for x in range(m - 1)]
    elif ends == "bottom":
        leq += [(m - 1, x) for x in range(m - 1)]
    maps = tuple(tuple([g[x // n] * n + x % n for x in range(k * n)]
                       + [m - 1] * bool(ends)) for g in group.elements)
    return PosetAction(group, from_leq_pairs(m, leq), maps)


@st.composite
def fixed_poset(draw, group, max_n):
    """A random poset on which the whole group acts trivially."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rel = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return trivial_action(from_leq_pairs(n, rel), group)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_equivariant_poset_maps_match_brute_filter(data):
    group = data.draw(st.sampled_from([z2_group(), cyclic(3)]))
    base = 3 if group.order == 2 else 2
    pa = data.draw(permuted_copies(group, base))
    qa = data.draw(st.one_of(permuted_copies(group, base),
                             fixed_poset(group, 4)))
    assume(qa.poset.m ** pa.poset.m <= 40_000)  # keeps the brute filter fast
    em = equivariant_poset_maps(pa, qa)
    assert list(em.elements) == brute_equivariant(pa, qa)



def _automorphisms(rows):
    """Every permutation carrying each row mask onto the row of its image
    (brute force over all permutations of at most six points)."""
    n = len(rows)
    return [p for p in itertools.permutations(range(n))
            if all(sum(1 << p[v] for v in bits(rows[u])) == rows[p[u]]
                   for u in range(n))]


@st.composite
def acting_groups(draw, kinds=(GraphAction, PosetAction), automorphic=None):
    """(class, carrier, group): a graph or poset on at most six points and
    the group generated by one or two of its automorphisms (the identity
    only when it has no other), or of any permutations when not
    ``automorphic`` (drawn when None).  The group acts on the points
    through its own elements."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    cls = draw(st.sampled_from(kinds))
    if cls is GraphAction:
        carrier = Graph.from_edges(n, chosen)
        rows = carrier.adj
    else:
        carrier = from_leq_pairs(n, [(i, j) for i, j in chosen if i != j])
        rows = carrier.above
    if automorphic is None:
        automorphic = draw(st.booleans())
    autos = _automorphisms(rows)
    gens = st.sampled_from(autos[1:] or autos) if automorphic \
        else st.permutations(range(n)).map(tuple)
    try:
        group = make_group(draw(st.lists(gens, min_size=1, max_size=2)),
                           DEFAULT_GUARDS.scaled(group_order=24))
    except GuardExceeded:
        assume(False)
    return cls, carrier, group


@st.composite
def random_actions(draw):
    """(class, group, carrier, maps) from :func:`acting_groups`, perhaps
    broken: one map replaced by any permutation, cut short or made
    constant, two maps swapped, or one map left out."""
    cls, carrier, group = draw(acting_groups())
    n = len(group.elements[0])
    maps = list(group.elements)
    fault = draw(st.sampled_from(["", "", "replace", "swap", "constant",
                                  "short", "missing"]))
    i = draw(st.integers(0, group.order - 1))
    j = draw(st.integers(0, group.order - 1))
    if fault == "replace":
        maps[i] = draw(st.permutations(range(n)).map(tuple))
    elif fault == "swap":
        maps[i], maps[j] = maps[j], maps[i]
    elif fault == "constant":
        maps[i] = (maps[i][0],) * n
    elif fault == "short":
        maps[i] = maps[i][:-1]
    elif fault == "missing":
        maps.pop(i)
    return cls, group, carrier, tuple(maps)


@settings(deadline=None, max_examples=300)
@given(random_actions())
def test_construction_raises_exactly_what_the_oracle_reports(drawn):
    cls, group, carrier, maps = drawn
    field = "graph" if cls is GraphAction else "poset"
    want = action_violation(SimpleNamespace(group=group, maps=maps,
                                            **{field: carrier}))
    if want is None:
        cls(group, carrier, maps)
    else:
        with pytest.raises(ValueError) as err:
            cls(group, carrier, maps)
        assert str(err.value) == want


@settings(deadline=None, max_examples=200)
@given(acting_groups(kinds=(GraphAction,), automorphic=True))
def test_twisted_product_equals_the_product_quotient(drawn):
    """The action is taken as both factors, and as the carried action,
    which commutes with the left one only when the group is abelian."""
    _, graph, group = drawn
    act = GraphAction(group, graph, group.elements)
    assert twisted_product(act, act) == product_quotient(act, act)
    try:
        want = product_quotient(act, act, act)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            twisted_product(act, act, act)
        assert str(got.value) == str(err)
    else:
        assert twisted_product(act, act, act) == want


@settings(deadline=None, max_examples=200)
@given(acting_groups(kinds=(PosetAction,), automorphic=True))
def test_quotient_equals_the_closure_and_merge_quotient(drawn):
    _, poset, group = drawn
    act = PosetAction(group, poset, group.elements)
    assert quotient_poset_by_action(act) == closure_quotient(act)


@settings(deadline=None, max_examples=200)
@given(acting_groups(automorphic=True))
def test_orbits_equal_the_closure_search(drawn):
    cls, carrier, group = drawn
    act = cls(group, carrier, group.elements)
    want = closure_orbits(act)
    assert orbits(act) == want
    assert orbit_of(act) == tuple(next(i for i, b in enumerate(want) if v in b)
                                  for v in range(len(group.elements[0])))


def test_every_quotient_numbers_orbits_through_one_labelling(monkeypatch):
    """`graphs.Partition` is gone, and each quotient reads its labels off
    one `_orbit_labels` call per action it divides by."""
    assert not hasattr(graphs, "Partition")
    calls = []
    labels = actions._orbit_labels

    def counting_labels(n, orbit):
        calls.append(n)
        return labels(n, orbit)

    monkeypatch.setattr(actions, "_orbit_labels", counting_labels)
    c6 = reflexive_cycle(6)
    antipodal = z2_action(c6, rotation(6, 3))
    mirror = z2_action(c6, reflection(6))
    flip = z2_action(complete_graph(2), (1, 0))
    face = cycle_face_poset(3).antipodal
    for run, want in ((lambda: orbits(antipodal), [6]),
                      (lambda: quotient_graph_by_action(antipodal), [6]),
                      (lambda: quotient_poset_by_action(face), [12]),
                      (lambda: twisted_product(flip, antipodal, mirror),
                       [12])):
        calls.clear()
        run()
        assert calls == want
    g = product(complete_graph(2), c6)
    swap_turn = z2_action(g, tuple((1 - v // 6) * 6 + (v % 6 + 3) % 6
                                   for v in range(12)))
    calls.clear()
    rep = quotient_compare(complete_graph(2), g, swap_turn)
    assert calls == [rep.hom_source.m, g.n]
