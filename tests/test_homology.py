"""Homology engine: ranks, Smith form, fixtures with known homology."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from homlab.families import (csorba_graph, mycielski, spherical_graph,
                             twisted_toroidal)
from homlab.graphs import (INFINITE, Graph, chromatic_number, complete_graph,
                           cycle_graph, exponential, reflexive_closure,
                           reflexive_cycle)
from homlab.homology import (
    ChainComplex,
    HomologyResult,
    _coreduce,
    _sparse_rank_divisors,
    chain_complex,
    chain_complex_of_hom,
    chain_complex_of_poset,
    closure_reduce,
    gf2_rank,
    hom_homology,
    homology_connectivity,
    homology_from_json,
    homology_gf2,
    homology_integral,
    homology_of_complex,
    klein_bottle_complex,
    poset_homology,
    simplex_boundary,
    smith_invariants,
    suspension_check,
    torus_complex,
    universal_coefficients_ok,
)
from homlab.homposets import hom_poset
from homlab.limits import DEFAULT_GUARDS, GuardExceeded
from homlab.posets import (PosetMap, chain_poset, face_poset, from_leq_pairs,
                           make_complex, order_complex)

EMPTY = make_complex(0, [])
POINT = make_complex(1, [[0]])
TWO_POINTS = make_complex(2, [[0], [1]])
CIRCLE = make_complex(3, [[0, 1], [1, 2], [0, 2]])


def _sympy_invariants(rows: list[list[int]]) -> list[int]:
    m = smith_normal_form(sympy.Matrix(rows))
    out = [abs(m[i, i]) for i in range(min(m.shape)) if m[i, i] != 0]
    return [int(v) for v in out]


def unreduced_homology(cc: ChainComplex, field_name: str) -> HomologyResult:
    """Reduced homology by elimination on the full augmented complex.

    The independent oracle for coreduction: no cell is removed first.
    """
    counts = cc.counts()
    if not counts:
        return HomologyResult(field_name, True, ())
    dim = cc.dim
    ranks = [0] * (dim + 2)
    divisors: list[list[int]] = [[] for _ in range(dim + 2)]
    ranks[0] = 1  # augmentation of a nonempty complex
    for k in range(1, dim + 1):
        if field_name == "Z":
            ranks[k], divisors[k] = _sparse_rank_divisors(cc.boundary(k),
                                                          DEFAULT_GUARDS)
        else:
            ranks[k] = gf2_rank(sum(1 << i for i, v in col if v % 2)
                                for col in cc.boundary(k))
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))
    torsion = tuple(tuple(d for d in divisors[k + 1] if d > 1)
                    for k in range(dim + 1))
    return HomologyResult(field_name, False, betti, torsion)


def assert_coreduction_exact(cc: ChainComplex) -> None:
    """Coreduced homology equals the oracle's, over Z and GF(2), and no
    degree gains cells."""
    if cc.counts():
        left, _ = _coreduce(cc)
        assert all(a <= b for a, b in zip(left, cc.counts()))
    assert homology_integral(cc) == unreduced_homology(cc, "Z")
    assert homology_gf2(cc) == unreduced_homology(cc, "GF2")


def test_gf2_rank():
    assert gf2_rank([0b11, 0b10, 0b01]) == 2
    assert gf2_rank([0b11, 0b11]) == 1
    assert gf2_rank([]) == 0
    rng = random.Random(2)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
        cols = [sum(rows[i][j] << i for i in range(r)) for j in range(c)]
        # mod-2 rank = number of odd invariant factors of the Smith form
        expect = sum(1 for v in _sympy_invariants(rows) if v % 2 == 1)
        assert gf2_rank(cols) == expect


def test_smith_invariants_against_sympy():
    rng = random.Random(8)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        assert smith_invariants(rows) == _sympy_invariants(rows)
    # classic torsion example
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[0]]) == []


def test_chain_complex_shapes():
    cc = chain_complex(CIRCLE)
    assert cc.counts() == (3, 3)
    assert cc.euler_characteristic() == 0
    # d(v0,v1) = (v1) - (v0)
    assert sorted(cc.boundary(1)[0]) == [(0, -1), (1, 1)]
    with pytest.raises(ValueError):
        ChainComplex([[(0,), (1,)], [(0, 1), (1, 2)]])  # missing vertex face


class _FlippedSign(ChainComplex):
    """Flips the sign of one boundary entry in column `col` of degree `k`."""

    def __init__(self, faces, k, col):
        self.flip = (k, col)
        super().__init__(faces)

    def _boundary(self, k):
        cols = super()._boundary(k)
        if k == self.flip[0]:
            (r, s), *rest = cols[self.flip[1]]
            cols[self.flip[1]] = [(r, -s), *rest]
        return cols


def test_boundary_squared_check_covers_every_column():
    # 2-skeleton of the simplex on 25 vertices: 2300 triangles, so column
    # 2100 of degree 2 lies past any sample of the first 2000.  The graph
    # (1-skeleton) has no degree 2 to expose a bad edge column, so only the
    # check against the augmentation catches it.
    faces = [list(itertools.combinations(range(25), d)) for d in (1, 2, 3)]
    ChainComplex(faces).check_boundary_squared()
    for levels, k, col in ((faces, 2, 2100), (faces[:2], 1, 0)):
        with pytest.raises(ValueError, match=f"nonzero in degree {k}"):
            _FlippedSign(levels, k, col)


def test_homology_spheres():
    for k in range(1, 5):
        h = homology_of_complex(simplex_boundary(k))
        assert h.is_sphere(k - 1), (k, h.betti)
    assert homology_of_complex(CIRCLE).is_sphere(1)
    assert homology_of_complex(TWO_POINTS).is_sphere(0)
    assert homology_of_complex(POINT).is_sphere(-1) is False
    assert homology_of_complex(EMPTY).is_sphere(-1)


def test_homology_point_and_empty():
    h = homology_of_complex(POINT)
    assert not h.empty and all(b == 0 for b in h.betti)
    he = homology_of_complex(EMPTY)
    assert he.empty and he.reduced(-1) == 1
    assert homology_connectivity(he) == -2
    assert homology_connectivity(h) == INFINITE
    assert homology_connectivity(homology_of_complex(TWO_POINTS)) == -1
    s2 = homology_of_complex(simplex_boundary(3))
    assert homology_connectivity(s2) == 1


def test_torus_and_klein_bottle():
    t = torus_complex()
    assert len(t.facets) == 32
    cc = chain_complex(t)
    assert cc.counts() == (16, 48, 32)
    # closed surface: every edge in exactly two triangles
    inc = Counter(e for f in t.facets for e in
                  [(f[0], f[1]), (f[0], f[2]), (f[1], f[2])])
    assert set(inc.values()) == {2}
    ht = homology_integral(cc)
    assert ht.betti == (0, 2, 1) and not any(ht.torsion)
    assert_coreduction_exact(cc)

    k = klein_bottle_complex()
    cck = chain_complex(k)
    assert cck.counts() == (16, 48, 32)
    inck = Counter(e for f in k.facets for e in
                   [(f[0], f[1]), (f[0], f[2]), (f[1], f[2])])
    assert set(inck.values()) == {2}
    hk = homology_integral(cck)
    assert_coreduction_exact(cck)
    assert hk.betti == (0, 1)
    assert hk.torsion == ((), (2,))
    assert hk.reduced(2) == 0
    # GF(2) sees the torsion in degrees 1 and 2
    hk2 = homology_gf2(cck)
    assert hk2.betti == (0, 2, 1)
    assert universal_coefficients_ok(hk, hk2)
    assert universal_coefficients_ok(ht, homology_gf2(cc))


def _rp2() -> "SimplicialComplex":
    # hemi-icosahedron: the 6-vertex triangulation of RP^2
    return make_complex(6, [
        [0, 1, 3], [0, 1, 4], [0, 2, 3], [0, 2, 5], [0, 4, 5],
        [1, 2, 4], [1, 2, 5], [1, 3, 5], [2, 3, 4], [3, 4, 5],
    ])


def test_projective_plane_minimal():
    rp2 = _rp2()
    inc = Counter(e for f in rp2.facets for e in
                  [(f[0], f[1]), (f[0], f[2]), (f[1], f[2])])
    assert len(inc) == 15 and set(inc.values()) == {2}
    h = homology_of_complex(rp2)
    assert h.betti == (0, 0) and h.torsion == ((), (2,))
    assert_coreduction_exact(chain_complex(rp2))


class _MinimalRP2(ChainComplex):
    """The minimal CW structure on RP^2: one cell in each of degrees 0, 1
    and 2, with d e1 = 0 and d e2 = 2 e1."""

    def __init__(self):
        super().__init__([[(0,)], [(0, 1)], [(0, 1, 2)]])

    def _boundary(self, k):
        return [[[(0, 1)]], [[]], [[(0, 2)]]][k]


def test_coreduction_pairs_only_unit_incidences():
    cc = _MinimalRP2()
    # only vertex 0 goes, with the augmentation: e2 -> e1 has incidence 2
    assert _coreduce(cc)[0] == [0, 1, 1]
    z = homology_integral(cc)
    assert z.betti == (0, 0) and z.torsion == ((), (2,))
    assert homology_gf2(cc).betti == (0, 1, 1)
    assert_coreduction_exact(cc)


def test_coreduction_sets_aside_one_vertex_per_component():
    # K2 is connected, so Hom(K2, K5 + K5) is two disjoint copies of
    # Hom(K2,K5) ~ S^3.  Only the first copy used to be coreduced.
    k5 = complete_graph(5)
    twice = Graph(10, k5.adj + tuple(row << 5 for row in k5.adj))
    one = chain_complex_of_hom(hom_poset(K2, k5))
    two = chain_complex_of_hom(hom_poset(K2, twice))
    assert sum(two.counts()) == 2 * sum(one.counts()) == 360
    # each copy leaves no more than one copy alone, plus the free vertex
    assert sum(_coreduce(two)[0]) <= 2 * sum(_coreduce(one)[0]) + 1
    assert_coreduction_exact(two)
    z = homology_integral(two)
    assert z.betti == (1, 0, 0, 2) and not any(z.torsion)
    # Hom(K3,K3): six isolated points, five of them free
    points = chain_complex_of_hom(hom_poset(K3, K3))
    assert points.counts() == (6,) and _coreduce(points)[0] == [5]
    assert_coreduction_exact(points)


def test_poset_homology_matches_complex_path():
    p = face_poset(CIRCLE)
    ha = poset_homology(p)
    hb = homology_of_complex(order_complex(p))
    assert ha == hb and ha.is_sphere(1)


def test_barycentric_invariance():
    for x in (CIRCLE, simplex_boundary(2), simplex_boundary(3), TWO_POINTS):
        p = face_poset(x)
        assert homology_of_complex(x) == poset_homology(p)
        assert poset_homology(chain_poset(p)) == poset_homology(p)


def test_closure_reduce_preserves_homology():
    p = from_leq_pairs(4, [(0, 1), (1, 2), (2, 3)])
    c = PosetMap(p, p, (1, 1, 3, 3))
    sub, kept = closure_reduce(p, c)
    assert kept == (1, 3)
    assert poset_homology(sub) == poset_homology(p)
    bad = PosetMap(p, p, (1, 2, 3, 3))
    with pytest.raises(ValueError):
        closure_reduce(p, bad)


def test_suspension_check():
    s0 = homology_of_complex(TWO_POINTS)
    s1 = homology_of_complex(CIRCLE)
    s2 = homology_of_complex(simplex_boundary(3))
    assert suspension_check(s0, s1)
    assert suspension_check(s1, s2)
    assert not suspension_check(s1, s1)
    assert suspension_check(homology_of_complex(EMPTY), s0)
    pt = homology_of_complex(POINT)
    assert suspension_check(pt, pt)  # suspension of a point is contractible
    assert not suspension_check(s0, homology_of_complex(EMPTY))


def test_result_json_round_trip():
    h = homology_integral(chain_complex(klein_bottle_complex()))
    data = h.to_json()
    assert data["field"] == "Z" and data["torsion"][1] == [2]
    assert homology_from_json(data, "Z") == h
    assert "Z/2" in str(h)


def test_result_refuses_torsion_past_betti():
    # a Z/2 in degree 1 with no degree-1 betti entry would print as H~0=Z
    data = {"field": "Z", "empty": False, "betti": [1], "torsion": [[], [2]]}
    with pytest.raises(ValueError, match="torsion"):
        homology_from_json(data, "Z")
    data["betti"] = [1, 0]
    assert "Z/2" in str(homology_from_json(data, "Z"))


def test_snf_guard():
    # the simplex boundary reduces fully on unit pivots: no dense leftover
    cc = chain_complex(simplex_boundary(3))
    assert homology_integral(cc, DEFAULT_GUARDS.scaled(snf_nonzeros=0)) \
        .is_sphere(2)
    # RP^2 has 2-torsion, so at least one non-unit entry must survive
    ccr = chain_complex(_rp2())
    with pytest.raises(GuardExceeded):
        homology_integral(ccr, DEFAULT_GUARDS.scaled(snf_nonzeros=0))
    h = homology_integral(ccr, DEFAULT_GUARDS.scaled(snf_nonzeros=4))
    assert h.torsion[1] == (2,)


def test_random_complex_euler_consistency():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(2, 6)
        faces = [sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
                 for _ in range(rng.randint(1, 8))]
        x = make_complex(n, faces)
        cc = chain_complex(x)
        h = homology_integral(cc)
        reduced_euler = sum((-1) ** d * h.reduced(d)
                            for d in range(len(h.betti)))
        assert cc.euler_characteristic() - 1 == reduced_euler
        assert universal_coefficients_ok(h, homology_gf2(cc))


# ---------------------------------------------------------------------------
# cellular homology of Hom posets

K2, K3 = complete_graph(2), complete_graph(3)
SQUARE = make_complex(4, [[0, 1], [1, 2], [2, 3], [3, 0]])

# Every Hom pair the experiment registry and the benchmark take homology of
# (or, for the empty Hom(K4,K3), count), checked against the order complex.
REGISTRY_HOM_PAIRS = {
    **{f"K2,K{n}": (K2, complete_graph(n)) for n in range(2, 6)},
    "K3,K5": (K3, complete_graph(5)),
    "K2o,R8": (reflexive_closure(K2), reflexive_cycle(8)),
    "K2,R8": (K2, reflexive_cycle(8)),
    "K2,S(1,1)": (K2, spherical_graph(1, 1).graph),
    "K2,T(1,5)": (K2, twisted_toroidal(1, 5).graph),
    "K2,T(1,6)": (K2, twisted_toroidal(1, 6).graph),
    **{f"K2,M_{m}({name})": (K2, mycielski(g, m))
       for name, g in (("K2", K2), ("K3", K3)) for m in (2, 3)},
    "T(1,3),K3": (twisted_toroidal(1, 3).graph, K3),
    "K2,csorba(square)": (K2, csorba_graph(SQUARE, (2, 3, 0, 1))),
    "K3,K3": (K3, K3),
    "K4,K3": (complete_graph(4), K3),
    "K2,K3^K2": (K2, exponential(K2, K3)),
}


@pytest.mark.parametrize("pair", sorted(REGISTRY_HOM_PAIRS))
def test_cellular_hom_homology_on_registry_pairs(pair):
    hp = hom_poset(*REGISTRY_HOM_PAIRS[pair])
    cells = chain_complex_of_hom(hp)
    assert sum(cells.counts()) == hp.m
    chains = chain_complex_of_poset(hp.poset)
    assert cells.euler_characteristic() == chains.euler_characteristic()
    assert_coreduction_exact(cells)
    assert_coreduction_exact(chains)
    for field_name in ("Z", "GF2"):
        assert hom_homology(hp, field_name) \
            == poset_homology(hp.poset, field_name), field_name


def test_cellular_hom_homology_of_the_slow_benchmark_pairs():
    # The order complex takes seconds on these two, so its answers are
    # frozen here (as in perfbench/expected.json) instead of recomputed.
    k6 = hom_poset(K2, complete_graph(6))
    # rank s-2 cells: disjoint nonempty (A, B) with |A| + |B| = s
    assert chain_complex_of_hom(k6).counts() == tuple(
        math.comb(6, s) * (2 ** s - 2) for s in range(2, 7))
    assert hom_homology(k6).is_sphere(4)
    assert_coreduction_exact(chain_complex_of_hom(k6))
    c5 = hom_poset(cycle_graph(5), complete_graph(4))
    assert_coreduction_exact(chain_complex_of_hom(c5))
    z = hom_homology(c5)
    assert z.betti == (0, 0, 0, 1) and z.torsion == ((), (2,), (), ())
    f2 = hom_homology(c5, "GF2")
    assert f2.betti == (0, 1, 1, 1)
    assert universal_coefficients_ok(z, f2)


def test_cellular_boundary_signs():
    # Hom(K2,K3) is a hexagon: six atoms, six edges (one set of size two)
    hp = hom_poset(K2, K3)
    cc = chain_complex_of_hom(hp)
    assert cc.counts() == (6, 6)
    atoms, edges = cc.faces
    for edge, col in zip(edges, cc.boundary(1)):
        v = 0 if edge[0] & (edge[0] - 1) else 1
        lo, hi = sorted(1 << x for x in range(3) if edge[v] >> x & 1)
        # d[lo, hi] = hi - lo, as for a simplicial edge
        want = {tuple(hi if u == v else m for u, m in enumerate(edge)): 1,
                tuple(lo if u == v else m for u, m in enumerate(edge)): -1}
        assert {atoms[r]: s for r, s in col} == want
    # a square cell {0,1} x {2,3}: the second factor's signs flip by the
    # first factor's dimension
    square = hom_poset(Graph(2, (0, 0)), complete_graph(4))
    cc = chain_complex_of_hom(square)
    top = cc.faces[2].index((0b0011, 0b1100))
    got = {cc.faces[1][r]: s for r, s in cc.boundary(2)[top]}
    assert got == {(0b0010, 0b1100): 1, (0b0001, 0b1100): -1,
                   (0b0011, 0b1000): -1, (0b0011, 0b0100): 1}


def test_cellular_path_reaches_past_the_order_guards():
    # Hom(K2,K8) ~ S^6: 6050 elements, past poset_relation (4000), so the
    # order-complex path cannot even materialize the order.
    hp = hom_poset(K2, complete_graph(8))
    assert hp.m == 6050
    with pytest.raises(GuardExceeded) as exc:
        hp.poset
    assert exc.value.guard == "poset_relation"
    res = hom_homology(hp, "Z", DEFAULT_GUARDS)
    assert res.is_sphere(6) and res.field == "Z"


def test_coreduction_reaches_hom_c5_k5():
    # 45,540 cells: unreduced elimination took 7 s over GF(2) and 28 s
    # over Z on a 2-core Xeon; coreduction leaves 3,017.  Babson-Kozlov: Hom(C5,K5) is
    # 1-connected, and chi(K5) >= conn + 4 = 5 is tight.
    cc = chain_complex_of_hom(hom_poset(cycle_graph(5), complete_graph(5)))
    assert sum(cc.counts()) == 45540
    assert sum(_coreduce(cc)[0]) == 3017
    z = homology_integral(cc)
    assert z.betti == (0, 0, 1, 1, 0, 1) and not any(z.torsion)
    assert homology_gf2(cc).betti == z.betti
    assert homology_connectivity(z) + 4 == chromatic_number(complete_graph(5))
