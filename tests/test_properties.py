"""Randomized property suites over small graphs, posets, and complexes."""

import itertools

from hypothesis import assume, example, given, settings, strategies as st

from homlab.graphs import (Graph, bits, chromatic_number, complete_graph,
                           check_homomorphism, cycle_graph, exponential,
                           nu_mask, product, quotient)
from homlab.harness import RunContext, _chromatic_brute
from homlab.homology import (chain_complex, chain_complex_of_hom,
                             chain_complex_of_poset, hom_homology,
                             homology_connectivity, homology_of_complex,
                             poset_homology, closure_reduce, smith_invariants)
from homlab.limits import DEFAULT_GUARDS, GuardExceeded
from homlab.homposets import adjunction_report, hom_poset, rank_of
from homlab.posets import (PosetMap, atom_graph, chain_poset,
                           enumerate_poset_maps, face_poset, from_leq_pairs,
                           is_closure_map, make_complex, pointwise_poset)
from test_homology import (_sympy_invariants, assert_coreduction_exact,
                           assert_mask_rule, assert_simplicial_boundaries,
                           sparse_rank_divisors, unreduced_homology,
                           universal_coefficients_ok)
from test_homposets import closure_of, closure_verdict_by_oracle, is_up_closure
from test_posets import SQUARE, filter_all_maps, pointwise_leq

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# strategies

@st.composite
def graphs(draw, min_n=1, max_n=6, allow_loops=False):
    n = draw(st.integers(min_n, max_n))
    lo = 0 if allow_loops else 1
    pairs = [(i, j) for i in range(n) for j in range(i + lo, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    adj = [0] * n
    for i, j in chosen:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


@st.composite
def posets(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rel = draw(st.lists(st.sampled_from(pairs), unique=True,
                        max_size=len(pairs))) if pairs else []
    return from_leq_pairs(n, rel)


@st.composite
def complexes(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    faces = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
        min_size=1, max_size=6))
    return make_complex(n, faces)


# ---------------------------------------------------------------------------
# graphs

@given(graphs(allow_loops=True))
def test_constructions_keep_adjacency_symmetric(g):
    for h in (g, product(g, g), quotient(g, [v // 2 for v in range(g.n)])):
        for v in range(h.n):
            for w in bits(h.adj[v]):
                assert h.adj[w] >> v & 1


@given(graphs(min_n=1, max_n=3, allow_loops=True),
       graphs(min_n=1, max_n=3, allow_loops=True))
def test_exponential_adjacency_symmetric(g, h):
    e = exponential(g, h)
    for v in range(e.n):
        for w in bits(e.adj[v]):
            assert e.adj[w] >> v & 1


@given(graphs(max_n=7))
def test_chromatic_number_matches_brute_force(g):
    assert chromatic_number(g) == _chromatic_brute(g)


def test_chromatic_number_matches_brute_force_on_eight_vertices():
    g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]
                         + [(i, i + 4) for i in range(4)])
    assert chromatic_number(g) == _chromatic_brute(g) == 3
    assert chromatic_number(complete_graph(8)) == 8


@given(graphs(allow_loops=True), st.data())
def test_common_neighborhood_operator_antitone_and_cubes(g, data):
    full = (1 << g.n) - 1
    a = data.draw(st.integers(0, full))
    b = data.draw(st.integers(0, full))
    small, big = a & b, a | b
    assert nu_mask(g, big) & ~nu_mask(g, small) == 0
    nu1 = nu_mask(g, a)
    assert nu_mask(g, nu_mask(g, nu1)) == nu1


@given(graphs(min_n=1, max_n=4, allow_loops=True),
       graphs(min_n=1, max_n=4, allow_loops=True))
def test_hom_atoms_match_backtracking_homomorphisms(g, h):
    hp = hom_poset(g, h)
    brute = sum(
        check_homomorphism(f, g, h)
        for f in itertools.product(range(h.n), repeat=g.n))
    assert len(hp.atoms) == brute
    for i, e in enumerate(hp.elements):
        r = rank_of(e)
        assert r >= 0
        assert (r == 0) == (i in hp.atoms)


# ---------------------------------------------------------------------------
# complexes

@given(complexes())
def test_boundary_squared_is_zero(x):
    cc = chain_complex(x)
    for k in range(1, cc.dim + 1):
        low = cc.boundary(k - 1)
        for col in cc.boundary(k):
            acc = {}
            for r, s in col:
                for r2, s2 in low[r]:
                    acc[r2] = acc.get(r2, 0) + s * s2
            assert not any(acc.values())


@given(complexes())
def test_cell_boundary_matches_the_vertex_tuple_rule(x):
    assert_simplicial_boundaries(x)


@given(complexes())
def test_euler_characteristic_matches_betti_numbers(x):
    cc = chain_complex(x)
    res = homology_of_complex(x)
    reduced = sum((-1) ** d * b for d, b in enumerate(res.betti))
    assert cc.euler_characteristic() == 1 + reduced


@given(complexes(), posets())
@example(make_complex(6, [[0, 1], [1, 2], [0, 2], [3, 4], [5]]),
         from_leq_pairs(5, [(0, 1), (2, 3)]))  # several components each
def test_coreduction_matches_unreduced_elimination(x, p):
    assert_coreduction_exact(chain_complex(x))
    assert_coreduction_exact(chain_complex_of_poset(p))


@st.composite
def sparse_matrices(draw, max_n=8):
    """Row lists with entries in -3..3, mostly zero."""
    r, c = draw(st.integers(1, max_n)), draw(st.integers(1, max_n))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -3])
    return [[draw(entry) for _ in range(c)] for _ in range(r)]


@given(sparse_matrices())
@example([[2, 0], [0, 3]])  # no unit entry: all of it reaches the dense SNF
@example([[1, 2, 0], [2, 1, 3], [0, 3, 2]])  # fill-in leaves a non-unit
def test_sparse_elimination_matches_sympy_smith_form(rows):
    # the dense Smith form is the package's one integral engine, and the
    # sweep its oracle; both must agree with sympy
    columns = [[(i, row[j]) for i, row in enumerate(rows)]
               for j in range(len(rows[0]))]
    rank, divisors = sparse_rank_divisors(columns)
    expect = _sympy_invariants(rows)
    assert rank == len(expect)
    assert sorted(divisors) == sorted(expect)
    assert smith_invariants(rows) == expect


@given(complexes())
def test_universal_coefficients(x):
    z = homology_of_complex(x, "Z")
    f2 = homology_of_complex(x, "GF2")
    assert universal_coefficients_ok(z, f2)


# ---------------------------------------------------------------------------
# posets

@given(posets())
def test_chain_atom_graph_is_the_comparability_graph(p):
    ag, atoms = atom_graph(chain_poset(p))
    assert list(atoms) == list(range(p.m))
    for a in range(p.m):
        for b in range(p.m):
            assert bool(ag.adj[a] >> b & 1) == p.comparable(a, b)


@given(posets())
@example(from_leq_pairs(3, [(0, 1)]))          # atoms 0 and 2, not 0..1
def test_atom_graph_matches_the_pairwise_upper_bound_rule(p):
    ag, atoms = atom_graph(p)
    assert atoms == p.atoms
    assert ag.adj == tuple(
        sum(1 << j for j, b in enumerate(atoms) if p.above[a] & p.above[b])
        for a in atoms)


@given(posets())
def test_subdivision_preserves_homology(p):
    assert poset_homology(chain_poset(p)) == poset_homology(p)


@given(graphs(min_n=1, max_n=3, allow_loops=True),
       graphs(min_n=1, max_n=3, allow_loops=True))
def test_pointwise_poset_matches_hom_leq(g, h):
    hp = hom_poset(g, h)
    p = hp.poset
    assert p.elements == hp.elements
    for i in range(hp.m):
        for j in range(hp.m):
            assert p.leq(i, j) == hp.leq(i, j)


@settings(max_examples=200)
@given(graphs(min_n=1, max_n=3, allow_loops=True),
       graphs(min_n=1, max_n=4, allow_loops=True))
@example(complete_graph(3), complete_graph(2))                # empty
@example(Graph(1, (1,)), complete_graph(3))                   # empty, looped
@example(Graph(1, (1,)), Graph(3, (0b011, 0b111, 0b110)))     # looped path
@example(Graph(2, (0b11, 0b11)), Graph(3, (0b111,) * 3))      # all looped
def test_cellular_hom_homology_matches_order_complex(g, h):
    hp = hom_poset(g, h)
    assume(hp.m <= 200)  # keeps the order-complex oracle to a few seconds
    cells = chain_complex_of_hom(hp)
    for field_name in ("Z", "GF2"):
        assert hom_homology(hp, field_name) \
            == poset_homology(hp.poset, field_name) \
            == unreduced_homology(cells, field_name)


@given(graphs(min_n=1, max_n=3, allow_loops=True),
       graphs(min_n=1, max_n=4, allow_loops=True))
@example(Graph(2, (0b11, 0b11)), Graph(3, (0b111,) * 3))      # all looped
@example(Graph(3, (0b110, 0b101, 0b011)), Graph(4, (0b1110, 0b1101,
                                                    0b1011, 0b0111)))
def test_cell_build_matches_the_mask_rule(g, h):
    hp = hom_poset(g, h)
    assume(hp.m <= 4000)  # keeps an example to a fraction of a second
    assert_mask_rule(chain_complex_of_hom(hp))


@given(graphs(min_n=3, max_n=6), st.sampled_from((1, 2)))
@example(cycle_graph(5), 2)          # Hom(C5,K4): H~1 = F2, conn 0, tight
@example(complete_graph(3), 1)       # Hom(K3,K3): six points, tight
def test_hom_into_kn_meets_the_cukic_kozlov_degree_bound(g, excess):
    """Hom(G,Kn) is (n - d - 2)-connected when G has maximum degree d
    (Cukic-Kozlov, IMRN 2005), and homology is at least as connected as
    homotopy; n = d + 1 and d + 2.  A violation is a defect in enumeration
    or homology, never a reason to lower the bound."""
    d = max(g.degree(v) for v in range(g.n))
    n = d + excess
    ctx = RunContext(DEFAULT_GUARDS.scaled(hom_elements=20_000))
    try:
        res = ctx.hom_homology(g, complete_graph(n), "GF2")
    except GuardExceeded as exc:
        if exc.guard != "hom_elements":
            raise
        return
    assert homology_connectivity(res) >= n - d - 2


VEE = from_leq_pairs(3, [(0, 2), (1, 2)])        # 0, 1 below 2
CHAIN3 = from_leq_pairs(3, [(0, 1), (1, 2)])
ANTICHAIN2 = from_leq_pairs(2, [])


@settings(max_examples=150)
@given(posets(max_n=5), posets(max_n=5))
@example(VEE, ANTICHAIN2)              # 0, 1 share 2; their values cannot
@example(VEE, from_leq_pairs(3, [(0, 1)]))
@example(face_poset(SQUARE), VEE)      # adjacent corners share an edge
@example(face_poset(SQUARE), CHAIN3)
@example(face_poset(SQUARE), ANTICHAIN2)
def test_poset_map_lookahead_matches_the_brute_filter(p, q):
    # the common-upper-bound lookahead cuts only branches without a map
    assert list(enumerate_poset_maps(p, q)) == filter_all_maps(p, q)


@given(posets(max_n=4), posets(max_n=4))
def test_pointwise_poset_matches_pointwise_leq(p, q):
    maps = list(enumerate_poset_maps(p, q))
    mp = pointwise_poset(maps, q.below)
    assert list(mp.elements) == maps
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            assert mp.leq(i, j) == pointwise_leq(q, f, g)


@settings(deadline=None, max_examples=20)
@given(graphs(min_n=2, max_n=3))
def test_adjunction_closure_preserves_homology(g):
    rep = adjunction_report(complete_graph(2), complete_graph(2), g)
    assert rep.roundtrip_identity
    assert rep.increasing
    assert rep.closure_ok
    # the report's verdict, read off its table of distinct values, agrees
    # with the per-element cover oracle, and that with the test on the
    # materialized order
    assert closure_verdict_by_oracle(rep)
    hp = rep.hom_curried
    p = hp.poset
    if p.m == 0:
        return
    closure = closure_of(rep)
    assert is_closure_map(PosetMap(p, p, closure), "up")
    pair = next(((i, j) for i in range(p.m)
                 for j in bits(p.above[i] & ~(1 << i))
                 if closure[i] != closure[j]), None)
    if pair is not None:  # swapping two comparable values breaks it
        i, j = pair
        broken = list(closure)
        broken[i], broken[j] = closure[j], closure[i]
        assert not is_up_closure(hp, broken)
        assert not is_closure_map(PosetMap(p, p, tuple(broken)), "up")
    sub, _ = closure_reduce(PosetMap(p, p, closure))
    assert poset_homology(sub) == poset_homology(p)
