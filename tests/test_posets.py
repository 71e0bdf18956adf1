"""Poset layer: chain functor, face posets, atom graphs, poset maps."""

from __future__ import annotations

import ast
import importlib
import inspect
import itertools
import pkgutil
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import homlab
from homlab import homposets
from homlab.actions import GraphAction, z2_group
from homlab.families import cycle_face_poset, face_poset_action
from homlab.graphs import (bits, complete_graph, is_isomorphic, one_graph,
                           reflexive_cycle)
from homlab.homology import chain_complex
from homlab.homposets import hom_poset, induced_hom_action
from homlab.limits import DEFAULT_GUARDS, GuardExceeded
from homlab.posets import (
    _extension_order,
    _poset_map_blocks,
    Poset,
    PosetMap,
    SimplicialComplex,
    atom_graph,
    chain_poset,
    closure_image,
    enumerate_poset_maps,
    face_poset,
    from_leq_pairs,
    induced_subposet,
    is_closure_map,
    iter_chains,
    make_complex,
    maximal_chains,
    order_complex,
    poset_maps,
    poset_to_json,
)

SQUARE = make_complex(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
OCTAHEDRON = make_complex(6, [[x, y, z]
                              for x in (0, 1) for y in (2, 3) for z in (4, 5)])


def pointwise_leq(q: Poset, f, g) -> bool:
    """The independent oracle for ``pointwise_poset``: f <= g in every
    coordinate."""
    return all(q.leq(a, b) for a, b in zip(f, g))


def _random_poset(rng: random.Random, n: int, p: float = 0.3) -> Poset:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return from_leq_pairs(n, pairs)


def _brute_chains(p: Poset) -> set[tuple[int, ...]]:
    out = set()
    for r in range(1, p.m + 1):
        for sub in itertools.combinations(range(p.m), r):
            if all(p.comparable(a, b) for a, b in itertools.combinations(sub, 2)):
                out.add(sub)
    return out


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset(2, (0b11, 0b11))  # antisymmetry
    with pytest.raises(ValueError):
        Poset(2, (0b10, 0b10))  # not reflexive at 0
    with pytest.raises(ValueError):
        Poset(3, (0b011, 0b110, 0b100))  # 0<1<2 but not 0<2
    with pytest.raises(ValueError):
        from_leq_pairs(2, [(0, 1), (1, 0)])
    p = from_leq_pairs(3, [(0, 1), (1, 2)])
    assert p.leq(0, 2)  # transitive closure
    assert p.atoms == (0,)
    assert p.heights == (0, 1, 2)


def test_poset_validation_is_complete_on_large_posets():
    m = 1100
    chain = [((1 << m) - 1) >> i << i for i in range(m)]
    assert Poset(m, tuple(chain)).leq(0, m - 1)
    broken = list(chain)
    broken[3] &= ~(1 << 900)  # 3 <= 4 <= 900 but not 3 <= 900
    with pytest.raises(ValueError, match="transitivity fails at 3,"):
        Poset(m, tuple(broken))
    cycle = list(chain)
    cycle[1050] |= 1 << 1049  # 1049 <= 1050 <= 1049
    with pytest.raises(ValueError, match="antisymmetry fails at 1049,1050"):
        Poset(m, tuple(cycle))


def test_complex_validation_is_complete_on_many_facets():
    edges = tuple((2 * i, 2 * i + 1) for i in range(2100))
    assert SimplicialComplex(4200, edges).dim == 1
    with pytest.raises(ValueError, match="contained in another"):
        SimplicialComplex(4200, edges + ((4001,),))


def test_face_poset_counts():
    edge = make_complex(2, [[0, 1]])
    fp = face_poset(edge)
    assert fp.m == 3 and len(fp.atoms) == 2
    assert face_poset(SQUARE).m == 8
    assert face_poset(OCTAHEDRON).m == 26  # 6 + 12 + 8
    with pytest.raises(ValueError):
        face_poset(SimplicialComplex(0, ()))


def test_face_poset_relation_is_containment():
    fp = face_poset(OCTAHEDRON)
    for i, a in enumerate(fp.elements):
        for j, b in enumerate(fp.elements):
            assert fp.leq(i, j) == (set(a) <= set(b))


def test_chain_poset_small():
    antichain = from_leq_pairs(2, [])
    assert chain_poset(antichain).m == 2
    two = from_leq_pairs(2, [(0, 1)])
    cp = chain_poset(two)
    assert cp.m == 3
    assert cp.elements == ((0,), (1,), (0, 1))
    assert chain_poset(face_poset(SQUARE)).m == 16


def test_chain_poset_matches_brute_force():
    rng = random.Random(3)
    for _ in range(15):
        p = _random_poset(rng, rng.randint(1, 6))
        cp = chain_poset(p)
        brute = _brute_chains(p)
        assert set(cp.elements) == brute
        for i, a in enumerate(cp.elements):
            for j, b in enumerate(cp.elements):
                assert cp.leq(i, j) == (set(a) <= set(b))


def test_chain_guard():
    p = from_leq_pairs(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    with pytest.raises(GuardExceeded):
        chain_poset(p, DEFAULT_GUARDS.scaled(chain_elements=10))


def test_chain_power():
    two = from_leq_pairs(2, [(0, 1)])
    assert chain_poset(chain_poset(two)).m == 5  # 3 singletons + 2 two-chains
    sq = face_poset(SQUARE)
    assert chain_poset(chain_poset(sq)).m == 32  # doubling: 16-gon face poset


def test_atom_graph_of_polygon_face_poset():
    g, atoms = atom_graph(face_poset(SQUARE))
    assert is_isomorphic(g, reflexive_cycle(4))
    assert len(atoms) == 4
    g6, _ = atom_graph(chain_poset(from_leq_pairs(1, [])))
    assert g6.n == 1 and g6.has_edge(0, 0)


def test_atom_graph_of_chain_poset_is_comparability():
    rng = random.Random(9)
    for _ in range(10):
        p = _random_poset(rng, rng.randint(1, 6))
        cp = chain_poset(p)
        g, atoms = atom_graph(cp)
        # atoms of Chain P are the singleton chains, indexed like P itself
        assert len(atoms) == p.m
        assert tuple(cp.elements[a] for a in atoms) == \
            tuple((i,) for i in range(p.m))
        for i in range(p.m):
            for j in range(p.m):
                assert g.has_edge(i, j) == p.comparable(i, j)


def test_atom_graph_antichain():
    g, _ = atom_graph(from_leq_pairs(3, []))
    assert g.n == 3 and g.edges() == [(0, 0), (1, 1), (2, 2)]


def test_order_complex():
    two = from_leq_pairs(2, [(0, 1)])
    assert order_complex(two).facets == ((0, 1),)
    oc = order_complex(face_poset(SQUARE))
    assert oc.n == 8 and len(oc.facets) == 8
    assert all(len(f) == 2 for f in oc.facets)
    g_vertices = set(v for f in oc.facets for v in f)
    assert g_vertices == set(range(8))


def test_maximal_chains_oracle():
    rng = random.Random(31)
    for _ in range(10):
        p = _random_poset(rng, rng.randint(1, 6))
        brute = {c for c in _brute_chains(p)
                 if not any(set(c) < set(d) for d in _brute_chains(p))}
        got = {tuple(sorted(c))
               for c in maximal_chains(p, DEFAULT_GUARDS.chain_elements)}
        assert got == brute


def test_iter_chains_each_once():
    p = face_poset(SQUARE)
    chains = [tuple(sorted(c)) for c in iter_chains(p, 16)]
    assert len(chains) == len(set(chains)) == 16
    with pytest.raises(GuardExceeded, match="chain_elements"):
        list(iter_chains(p, 15))


def test_closure_maps():
    p = from_leq_pairs(3, [(0, 1), (1, 2)])
    assert is_closure_map(PosetMap(p, p, (0, 1, 2)))
    const_top = PosetMap(p, p, (2, 2, 2))
    assert is_closure_map(const_top, "up")
    assert not is_closure_map(const_top, "down")
    const_bot = PosetMap(p, p, (0, 0, 0))
    assert is_closure_map(const_bot, "down")
    img, kept = closure_image(const_top)
    assert img.m == 1 and kept == (2,)
    # monotone, increasing, but not idempotent
    p4 = from_leq_pairs(4, [(0, 1), (1, 2), (2, 3)])
    shift = PosetMap(p4, p4, (1, 2, 3, 3))
    assert not is_closure_map(shift)
    with pytest.raises(ValueError):
        is_closure_map(PosetMap(p, from_leq_pairs(2, []), (0, 0, 1)))


def test_poset_maps_counts():
    two = from_leq_pairs(2, [(0, 1)])
    assert poset_maps(two, two).m == 3
    single = from_leq_pairs(1, [])
    q = from_leq_pairs(3, [(0, 1)])
    mp = poset_maps(single, q)
    assert mp.m == 3
    assert [mp.leq(i, j) for i in range(3) for j in range(3)] == \
        [q.leq(i, j) for i in range(3) for j in range(3)]
    anti = from_leq_pairs(2, [])
    assert poset_maps(anti, two).m == 4


def test_poset_maps_matches_brute_force():
    rng = random.Random(17)
    for _ in range(12):
        p = _random_poset(rng, rng.randint(1, 4))
        q = _random_poset(rng, rng.randint(1, 4))
        mp = poset_maps(p, q)
        brute = set()
        for f in itertools.product(range(q.m), repeat=p.m):
            if all(q.leq(f[i], f[j]) for i in range(p.m)
                   for j in bits_above(p, i)):
                brute.add(f)
        assert set(mp.elements) == brute
        for i, f in enumerate(mp.elements):
            for j, g in enumerate(mp.elements):
                assert mp.leq(i, j) == pointwise_leq(q, f, g)


def bits_above(p: Poset, i: int):
    return [j for j in range(p.m) if p.leq(i, j)]


def test_enumerate_poset_maps_deterministic_and_guarded():
    p = face_poset(SQUARE)
    first = list(enumerate_poset_maps(p, p))
    second = list(enumerate_poset_maps(p, p))
    assert first == second and len(first) == len(set(first))
    with pytest.raises(GuardExceeded):
        list(enumerate_poset_maps(
            p, p, DEFAULT_GUARDS.scaled(poset_map_elements=5)))


def eager_order(p):
    """A linear extension that places an element as soon as everything
    below it is placed, the one with the most lower covers first, so a
    search along it meets every constraint early."""
    order, placed = [], 0
    while len(order) < p.m:
        x = min((x for x in range(p.m) if not placed >> x & 1
                 and not p.below[x] & ~placed & ~(1 << x)),
                key=lambda x: (-p.lower_covers[x].bit_count(), x))
        order.append(x)
        placed |= 1 << x
    return order


def brute_poset_maps(p, q, p_maps=(), q_maps=()):
    """Every map p -> q with f monotone and f(g.x) = g.f(x), sorted
    lexicographically along `_extension_order(p)`.

    Every value of q is tried at every element, along `eager_order(p)`; a
    partial map is dropped as soon as two placed elements break
    monotonicity or equivariance, which no completion can mend.
    """
    order = eager_order(p)
    group = list(zip(p_maps, q_maps))
    related = [[y for y in range(p.m) if y != x and p.comparable(x, y)]
               for x in range(p.m)]
    f = [None] * p.m
    out = []

    def consistent(x):  # pairs placed earlier were checked already
        fx = f[x]
        for y in related[x]:
            if f[y] is not None and not (q.leq(fx, f[y]) if p.leq(x, y)
                                         else q.leq(f[y], fx)):
                return False
        for mp, mq in group:
            y = mp[x]  # f(g.x) = g.f(x)
            if f[y] is not None and f[y] != mq[fx]:
                return False
            y = mp.index(x)  # f(x) = g.f(g^-1.x)
            if f[y] is not None and fx != mq[f[y]]:
                return False
        return True

    def place(k):
        if k == p.m:
            out.append(tuple(f))
            return
        x = order[k]
        for v in range(q.m):
            f[x] = v
            if consistent(x):
                place(k + 1)
        f[x] = None

    place(0)
    ext = _extension_order(p)
    return sorted(out, key=lambda f: [f[x] for x in ext])


def filter_all_maps(p, q):
    """The monotone maps among all q.m ** p.m maps, in the same order."""
    order = _extension_order(p)
    maps = [f for f in itertools.product(range(q.m), repeat=p.m)
            if all(q.leq(f[x], f[y]) for x in range(p.m)
                   for y in bits_above(p, x))]
    return sorted(maps, key=lambda f: [f[x] for x in order])


def test_enumerate_poset_maps_matches_brute_filter():
    square = face_poset(SQUARE)
    chain3 = from_leq_pairs(3, [(0, 1), (1, 2)])
    vee = from_leq_pairs(3, [(0, 2), (1, 2)])
    for q in (chain3, vee):
        want = filter_all_maps(square, q)
        assert brute_poset_maps(square, q) == want
        assert list(enumerate_poset_maps(square, q)) == want
    # F(C6) into the looped cliques of C6°: every map is enumerated
    fc6 = cycle_face_poset(3)
    single = hom_poset(one_graph(), reflexive_cycle(6)).poset
    want = brute_poset_maps(fc6.poset, single)
    assert len(want) == 64044
    assert list(enumerate_poset_maps(fc6.poset, single)) == want


def z2_face_poset_actions():
    """(source, goal) pairs of Z2 actions: the antipodal hexagon and the
    square's half turn into Hom(K2,K3) under the flip of K2, and the half
    turn into itself."""
    k2, k3 = complete_graph(2), complete_graph(3)
    flip = GraphAction(z2_group(), k2, ((0, 1), (1, 0)))
    target = induced_hom_action(hom_poset(k2, k3), source_action=flip)
    square = face_poset(SQUARE)
    half_turn = face_poset_action(square, z2_group(),
                                  ((0, 1, 2, 3), (2, 3, 0, 1)))
    hexagon = cycle_face_poset(3).antipodal
    return [(hexagon, target), (half_turn, target), (half_turn, half_turn)]


def test_enumerate_equivariant_poset_maps_matches_brute_filter():
    sizes = []
    for source, goal in z2_face_poset_actions():
        p, q = source.poset, goal.poset
        want = brute_poset_maps(p, q, source.maps, goal.maps)
        got = list(enumerate_poset_maps(p, q, DEFAULT_GUARDS, source.maps,
                                        goal.maps))
        assert got == want
        sizes.append(len(want))
    assert sizes[0] > 0 and sizes[1] == 0 and sizes[2] > 0


@st.composite
def small_posets(draw, max_m):
    """A poset on at most max_m elements, closed from random pairs i < j."""
    m = draw(st.integers(0, max_m))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    return from_leq_pairs(m, chosen)


def block_maps(tail, image, masks):
    """A block's maps, in order: the image with each tail representative
    set to every combination of its candidates (the group is trivial)."""
    out = []
    for values in itertools.product(*(list(bits(mask)) for mask in masks)):
        f = list(image)
        for (r, orbit), v in zip(tail, values):
            assert orbit == ()
            f[r] = v
        out.append(tuple(f))
    return out


@settings(deadline=None, max_examples=150)
@given(small_posets(6), small_posets(5))
def test_enumerate_poset_maps_matches_brute_on_small_posets(p, q):
    want = brute_poset_maps(p, q)
    assert list(enumerate_poset_maps(p, q)) == want
    tail, blocks = _poset_map_blocks(p, q, DEFAULT_GUARDS, (), ())
    maps = []
    for image, masks, within in blocks:
        assert len(masks) == len(tail) and all(masks)
        assert within == len(block_maps(tail, image, masks))
        maps += block_maps(tail, image, masks)
    assert maps == want


def test_blocks_of_equivariant_maps_are_nonempty_and_count_every_map():
    for source, goal in z2_face_poset_actions():
        p, q = source.poset, goal.poset
        tail, blocks = _poset_map_blocks(p, q, DEFAULT_GUARDS, source.maps,
                                         goal.maps)
        total = 0
        for image, masks, within in blocks:
            assert len(masks) == len(tail) and all(masks)
            size = 1
            for mask in masks:
                size *= mask.bit_count()
            assert within == size
            total += size
        assert total == len(brute_poset_maps(p, q, source.maps, goal.maps))


def test_extension_order_puts_maximal_non_minimal_elements_last():
    rng = random.Random(5)
    for p in [face_poset(SQUARE), face_poset(OCTAHEDRON),
              cycle_face_poset(3).poset, Poset(0, ()), Poset(1, (1,))] + [
            _random_poset(rng, rng.randint(1, 7)) for _ in range(20)]:
        order = _extension_order(p)
        assert sorted(order) == list(range(p.m))
        where = {x: k for k, x in enumerate(order)}
        assert all(where[x] <= where[y] for x in range(p.m)
                   for y in range(p.m) if p.leq(x, y))
        ends = [x for x in range(p.m)
                if p.above[x] == 1 << x and p.below[x] != 1 << x]
        assert order[len(order) - len(ends):] == ends
        assert set(p.atoms).isdisjoint(ends)


def test_enumerate_poset_maps_guard_trips_at_limit_plus_one():
    def capped(limit):
        return DEFAULT_GUARDS.scaled(poset_map_elements=limit)

    p = face_poset(SQUARE)
    total = sum(1 for _ in enumerate_poset_maps(p, p))
    assert len(list(enumerate_poset_maps(p, p, capped(total)))) == total
    for limit in (0, 5, total - 1):
        maps = enumerate_poset_maps(p, p, capped(limit))
        assert len([next(maps) for _ in range(limit)]) == limit
        with pytest.raises(GuardExceeded) as exc:
            next(maps)
        assert exc.value.guard == "poset_map_elements"
        assert (exc.value.limit, exc.value.attempted) == (limit, limit + 1)
    empty = from_leq_pairs(0, [])
    assert list(enumerate_poset_maps(empty, p, capped(1))) == [()]
    with pytest.raises(GuardExceeded):
        next(enumerate_poset_maps(empty, p, capped(0)))


def test_a_large_block_is_flattened_only_as_far_as_it_is_read():
    # one atom below k maximal elements, into a bottom below c tops: the
    # atom's value 0 opens one block of every (c+1)^k tail values, which
    # the guards must stop after the maps they let through, not after the
    # whole product is built
    k, c = 6, 7
    fan = from_leq_pairs(k + 1, [(0, i) for i in range(1, k + 1)])
    tops = from_leq_pairs(c + 1, [(0, j) for j in range(1, c + 1)])
    _, blocks = _poset_map_blocks(fan, tops, DEFAULT_GUARDS, (), ())
    assert next(blocks)[2] == (c + 1) ** k
    tracemalloc.start()
    try:
        maps = enumerate_poset_maps(
            fan, tops, DEFAULT_GUARDS.scaled(poset_map_elements=1_000))
        with pytest.raises(GuardExceeded) as capped:
            for _ in maps:
                pass
        with pytest.raises(GuardExceeded) as ordered:
            poset_maps(fan, tops)  # reads poset_relation + 1 maps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capped.value.guard == "poset_map_elements"
    assert ordered.value.guard == "poset_relation"
    # the 4,001 maps read come to about 0.5 MB; the block's 262,144 tail
    # values took about 50 MB built in full
    assert peak < 2_000_000, peak


def test_enumerate_poset_maps_search_node_guard_bounds_work():
    # F(C6) -> Hom(1,R6): 42,168 candidate values give the 64,044 maps in
    # 8,412 blocks; an edge's factor is formed once its second vertex is
    # placed
    fc6 = cycle_face_poset(3).poset
    single = hom_poset(one_graph(), reflexive_cycle(6)).poset
    nodes = 42_168
    maps = enumerate_poset_maps(fc6, single,
                                DEFAULT_GUARDS.scaled(search_nodes=nodes))
    assert sum(1 for _ in maps) == 64_044
    with pytest.raises(GuardExceeded) as exc:
        for _ in enumerate_poset_maps(
                fc6, single, DEFAULT_GUARDS.scaled(search_nodes=nodes - 1)):
            pass
    assert exc.value.guard == "search_nodes"
    assert exc.value.limit == nodes - 1 and exc.value.attempted > nodes - 1
    # the first representative's candidates count before any map
    with pytest.raises(GuardExceeded) as exc:
        next(enumerate_poset_maps(fc6, single,
                                  DEFAULT_GUARDS.scaled(search_nodes=0)))
    assert (exc.value.guard, exc.value.attempted) == (
        "search_nodes", single.m)


def boundary(n):
    """The boundary of the (n-1)-simplex on n vertices."""
    return make_complex(n, list(itertools.combinations(range(n), n - 1)))


NODE_TOTALS = {  # (source, target) -> (search nodes, maps)
    "F(bd2)->F(bd3)": (6_972, 13_070),
    "F(bd3)->F(bd2)": (6_990, 1_950),
    "F(bd3)->Hom(K2,K3)": (13_980, 3_900),
    "F(C4)->F(C4)": (1_840, 1_544),
    "tripod->open triangle": (3_474, 3_024),
}


@pytest.mark.parametrize("case", sorted(NODE_TOTALS))
def test_search_node_totals_are_pinned(case):
    """The search explores exactly this many candidate values.  In the
    last case a tail factor is empty at the level where it is formed: the
    tripod's atoms 0, 1, 2 go to three points that pairwise share an upper
    bound, forward checking lets them through, and the empty factor of
    the top 3 cuts the branch before the free points 4 and 5."""
    bd2, bd3 = face_poset(boundary(3)), face_poset(boundary(4))
    tripod = from_leq_pairs(6, [(0, 3), (1, 3), (2, 3)])
    open_triangle = from_leq_pairs(6, [(0, 3), (1, 3), (1, 4), (2, 4),
                                       (0, 5), (2, 5)])
    p, q = {"F(bd2)->F(bd3)": (bd2, bd3), "F(bd3)->F(bd2)": (bd3, bd2),
            "F(bd3)->Hom(K2,K3)": (bd3, hom_poset(complete_graph(2),
                                                  complete_graph(3)).poset),
            "F(C4)->F(C4)": (face_poset(SQUARE), face_poset(SQUARE)),
            "tripod->open triangle": (tripod, open_triangle)}[case]
    nodes, maps = NODE_TOTALS[case]
    assert sum(1 for _ in enumerate_poset_maps(
        p, q, DEFAULT_GUARDS.scaled(search_nodes=nodes))) == maps
    with pytest.raises(GuardExceeded) as exc:
        for _ in enumerate_poset_maps(
                p, q, DEFAULT_GUARDS.scaled(search_nodes=nodes - 1)):
            pass
    assert exc.value.guard == "search_nodes"


def poset_map_searches(source: str) -> list[str]:
    """Each backtracking loop in a top-level function that takes a Poset,
    as ``function:line`` of the function: a ``while`` loop that steps one
    name both down and up by one, as a search moves between levels."""
    out = []
    for func in ast.parse(source).body:
        if not isinstance(func, ast.FunctionDef) or not any(
                arg.annotation is not None
                and ast.unparse(arg.annotation) == "Poset"
                for arg in func.args.args):
            continue
        for loop in ast.walk(func):
            if not isinstance(loop, ast.While):
                continue
            steps = {(node.target.id, type(node.op))
                     for node in ast.walk(loop)
                     if isinstance(node, ast.AugAssign)
                     and isinstance(node.target, ast.Name)
                     and isinstance(node.value, ast.Constant)
                     and node.value.value == 1}
            if any((name, ast.Add) in steps for name, op in steps
                   if op is ast.Sub):
                out.append(f"{func.name}:{func.lineno}")
    return out


def names_read(source: str) -> set[str]:
    """Every name the module in ``source`` reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_one_path_searches_poset_maps():
    # every monotone-map enumeration, plain, equivariant or blockwise,
    # runs the one search in posets._poset_map_blocks
    modules = [importlib.import_module(f"homlab.{info.name}")
               for info in pkgutil.iter_modules(homlab.__path__)]
    sites = [f"{module.__name__}.{site}" for module in modules
             for site in poset_map_searches(inspect.getsource(module))]
    assert len(sites) == 1, sites
    assert sites[0].startswith("homlab.posets._poset_map_blocks:")
    # the adjunction check reads blocks, never the flattened maps
    assert "enumerate_poset_maps" not in names_read(
        inspect.getsource(homposets))


def test_scan_finds_a_second_poset_map_search():
    source = (
        "def blocks(p: Poset, q: Poset):\n"
        "    def walk():\n"
        "        t = 0\n"
        "        while t >= 0:\n"
        "            t -= 1\n"
        "            t += 1\n"
        "    return walk()\n"
        "def maps(p: Poset, q: Poset, guards):\n"
        "    level = 0\n"
        "    while True:\n"
        "        if level:\n"
        "            level += 1\n"
        "        else:\n"
        "            level -= 1\n"
        "def homs(g: Graph, h: Graph):\n"
        "    i = 0\n"
        "    while i >= 0:\n"
        "        i -= 1\n"
        "        i += 1\n"
        "def count(p: Poset):\n"
        "    n = 0\n"
        "    while n < p.m:\n"
        "        n += 1\n")
    assert poset_map_searches(source) == ["blocks:1", "maps:8"]
    assert "enumerate_poset_maps" in names_read(
        "from .posets import enumerate_poset_maps\n"
        "def check(p, q):\n"
        "    return list(posets.enumerate_poset_maps(p, q))\n")


def test_induced_subposet_keeps_payload():
    fp = face_poset(SQUARE)
    sub, kept = induced_subposet(fp, [0, 1, 4])
    assert sub.m == 3
    assert sub.elements == tuple(fp.elements[v] for v in kept)
    assert sub.leq(0, 2) == fp.leq(kept[0], kept[2])


def test_poset_json_round_trip():
    rng = random.Random(41)
    for _ in range(8):
        p = _random_poset(rng, rng.randint(1, 6))
        data = poset_to_json(p)
        assert from_leq_pairs(data["m"], data["covers"]).above == p.above


def test_make_complex_drops_subsumed_faces():
    x = make_complex(3, [[0, 1, 2], [0, 1], [2]])
    assert x.facets == ((0, 1, 2),)
    assert chain_complex(x).euler_characteristic() == 1
    assert chain_complex(SQUARE).euler_characteristic() == 0
