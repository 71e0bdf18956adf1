"""Homology engine: ranks, Smith form, fixtures with known homology."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from homlab.graphs import INFINITE
from homlab.homology import (
    ChainComplex,
    HomologyResult,
    chain_complex,
    chain_complex_of_poset,
    closure_reduce,
    gf2_rank,
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

    k = klein_bottle_complex()
    cck = chain_complex(k)
    assert cck.counts() == (16, 48, 32)
    inck = Counter(e for f in k.facets for e in
                   [(f[0], f[1]), (f[0], f[2]), (f[1], f[2])])
    assert set(inck.values()) == {2}
    hk = homology_integral(cck)
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
    assert homology_from_json(data) == h
    assert "Z/2" in str(h)


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
