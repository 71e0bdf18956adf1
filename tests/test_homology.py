"""Homology engine: ranks, Smith form, fixtures with known homology."""

from __future__ import annotations

import ast
import inspect
import itertools
import math
import random
from collections import Counter, deque

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from homlab import harness, homology
from homlab.cli import main
from homlab.families import (csorba_graph, mycielski, spherical_graph,
                             twisted_toroidal)
from homlab.graphs import (INFINITE, Graph, bits, chromatic_number,
                           complete_graph, cycle_graph, exponential,
                           reflexive_closure, reflexive_cycle)
from homlab.homology import (
    ChainComplex,
    HomologyResult,
    _coreduce,
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


def universal_coefficients_ok(z: HomologyResult, f2: HomologyResult) -> bool:
    """The Z-versus-GF(2) cross-check of the two reductions:
    dim_F2 H~_d = b~_d + #2-torsion(d) + #2-torsion(d-1)."""
    if z.empty != f2.empty:
        return False
    top = max(len(z.betti), len(f2.betti))
    for d in range(top):
        t_here = sum(1 for t in z.torsion_at(d) if t % 2 == 0)
        t_below = sum(1 for t in z.torsion_at(d - 1) if t % 2 == 0) \
            if d > 0 else 0
        if f2.reduced(d) != z.reduced(d) + t_here + t_below:
            return False
    return True


def sparse_rank_divisors(columns, guards=DEFAULT_GUARDS):
    """Rank and elementary divisors of an integer matrix given by columns
    of (row, value) pairs.

    The independent oracle for elimination over Z: unit-pivot elimination
    with no ordering, the rows swept in turn, each pivoting on any +-1
    entry it holds, until a sweep finds none.  Whatever survives (entries
    all >= 2 in absolute value) goes through the dense SNF, bounded by the
    snf_nonzeros guard.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for j, entries in enumerate(columns):
        for i, v in entries:
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
    rank = 0
    swept = False
    while not swept:
        swept = True
        for i in list(rows):
            r = rows.get(i, {})
            j = next((j for j, v in r.items() if v in (1, -1)), None)
            if j is None:
                continue
            swept = False
            piv = r[j]
            del rows[i]
            for jj in r:
                cols[jj].discard(i)
            for target in list(cols[j]):
                tr = rows[target]
                mult = tr[j] * piv
                for jj, pv in r.items():
                    nv = tr.get(jj, 0) - mult * pv
                    if nv:
                        if jj not in tr:
                            cols[jj].add(target)
                        tr[jj] = nv
                    elif jj in tr:
                        del tr[jj]
                        cols[jj].discard(target)
                if not tr:
                    del rows[target]
            del cols[j]
            rank += 1
    divisors = [1] * rank
    nnz = sum(len(r) for r in rows.values())
    if nnz:
        if nnz > guards.snf_nonzeros:
            raise GuardExceeded("snf_nonzeros", guards.snf_nonzeros, nnz)
        row_ids = sorted(rows)
        col_ids = sorted({j for r in rows.values() for j in r})
        cpos = {j: k for k, j in enumerate(col_ids)}
        dense = [[0] * len(col_ids) for _ in row_ids]
        for k, i in enumerate(row_ids):
            for j, v in rows[i].items():
                dense[k][cpos[j]] = v
        rest = smith_invariants(dense)
        divisors += rest
        rank += len(rest)
    return rank, divisors


def fifo_coreduce(cc: ChainComplex):
    """Counts and boundary columns, as (row, sign) pairs, of cc's augmented
    complex after coreduction that stops at the first stall (Mrozek-Batko,
    DCG 2009).

    The independent oracle for the Morse reduction: the augmentation is
    paired with vertex 0, and the lowest vertex of each other component,
    found by a walk over the edges, is a free summand of H~0 put last in
    degree 0.  Then, in FIFO order, a cell with exactly one live face is
    removed together with that face, until none is left; the cells still
    live keep cc's boundary restricted to them.
    """
    counts = cc.counts()
    if not counts:
        return [], []
    cols, cofaces = cc._columns, cc._cofaces
    live = [bytearray(b"\1") * n for n in counts]
    faces_left = [[0] * counts[0]] + [list(map(len, level))
                                      for level in cols[1:]]
    queue = deque()

    def remove(k, i):
        live[k][i] = 0
        if k + 1 < len(counts):
            up, up_live = faces_left[k + 1], live[k + 1]
            for j in cofaces[k][i]:
                up[j] -= 1
                if up[j] == 1 and up_live[j]:
                    queue.append((k + 1, j))

    free, seen = -1, bytearray(counts[0])
    for v in range(counts[0]):
        if not seen[v]:  # the lowest vertex of a component: vertex 0 goes
            remove(0, v)  # with the augmentation, the others are free
            free += 1
            todo = [v]
            while todo:
                u = todo.pop()
                if not seen[u]:
                    seen[u] = 1
                    todo += [abs(e) - 1 for j in cofaces[0][u]
                             for e in cols[1][j]]
    while queue:
        k, j = queue.popleft()
        if not live[k][j] or faces_left[k][j] != 1:
            continue
        below = live[k - 1]
        for e in cols[k][j]:
            i = abs(e) - 1
            if below[i]:
                break
        remove(k, j)
        remove(k - 1, i)
    left, out, pos = [], [], []
    for k, alive in enumerate(live):
        keep = [j for j, a in enumerate(alive) if a]
        if k:
            below = live[k - 1]
            out.append([[(pos[e - 1], 1) if e > 0 else (pos[-e - 1], -1)
                         for e in cols[k][j] if below[abs(e) - 1]]
                        for j in keep])
        else:
            out.append([[] for _ in keep])
        pos = [0] * counts[k]
        for new, j in enumerate(keep):
            pos[j] = new
        left.append(len(keep))
    left[0] += free
    out[0] += [[] for _ in range(free)]
    return left, out


def swept_homology(reduced, field_name: str) -> HomologyResult:
    """Reduced homology of a complex given as counts and columns of its
    augmented complex past degree 0, by the unit-pivot sweep over Z or
    ``gf2_rank`` over GF(2)."""
    counts, cols = reduced
    if not counts:
        return HomologyResult(field_name, True, ())
    dim = len(counts) - 1
    ranks = [0] * (dim + 2)
    divisors: list[list[int]] = [[] for _ in range(dim + 2)]
    for k in range(1, dim + 1):
        if field_name == "Z":
            ranks[k], divisors[k] = sparse_rank_divisors(cols[k])
        else:
            ranks[k] = gf2_rank(sum(1 << i for i, v in col if v % 2)
                                for col in cols[k])
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))
    torsion = tuple(tuple(d for d in divisors[k + 1] if d > 1)
                    for k in range(dim + 1))
    return HomologyResult(field_name, False, betti, torsion)


def unreduced_homology(cc: ChainComplex, field_name: str) -> HomologyResult:
    """Reduced homology by elimination on the full augmented complex.

    The independent oracle for coreduction: no cell is removed first.
    """
    counts = list(cc.counts())
    if counts:
        counts[0] -= 1  # the rank of the augmentation of a nonempty complex
    return swept_homology(
        (counts, [cc.boundary(k) for k in range(cc.dim + 1)]), field_name)


def simplicial_boundary(levels, k):
    """Columns of d_k on levels of sorted vertex tuples: dropping the i-th
    vertex has sign (-1)^i.  The independent oracle for the one-mask case
    of ``ChainComplex``'s cell rule."""
    for f in levels[k]:
        assert len(f) == k + 1 and list(f) == sorted(set(f)), f
    index = {f: i for i, f in enumerate(levels[k - 1])}
    return [[(index[f[:i] + f[i + 1:]], -1 if i % 2 else 1)
             for i in range(len(f))] for f in levels[k]]


def assert_simplicial_boundaries(x) -> None:
    """Every column of ``chain_complex(x)`` equals the vertex-tuple rule's
    on the faces of x, matched by vertex set."""
    cc = chain_complex(x)
    faces = x.all_faces(DEFAULT_GUARDS.complex_faces)
    levels = [[f for f in faces if len(f) == k + 1]
              for k in range(cc.dim + 1)]
    cells = [[tuple(bits(mask)) for (mask,) in level] for level in cc.faces]
    assert [sorted(level) for level in cells] == levels
    for k in range(1, cc.dim + 1):
        want = {f: {levels[k - 1][r]: s for r, s in col}
                for f, col in zip(levels[k], simplicial_boundary(levels, k))}
        got = {f: {cells[k - 1][r]: s for r, s in col}
               for f, col in zip(cells[k], cc.boundary(k))}
        assert got == want


def mask_rule_boundary(cc: ChainComplex,
                       k: int) -> list[list[tuple[int, int]]]:
    """Columns of d_k by the cell rule written out directly: each facet
    ``head + (mask ^ low,) + tail`` of a cell is looked up by its tuple of
    masks, with the sign flipping at every facet and once more after each
    mask.  The independent oracle for ``ChainComplex``'s build on cells of
    any number of masks."""
    if k == 0:
        return [[(0, 1)] for _ in cc.faces[0]]
    index = {cell: i for i, cell in enumerate(cc.faces[k - 1])}
    cols = []
    for cell in cc.faces[k]:
        col = []
        sign = 1
        for v, mask in enumerate(cell):
            if mask & (mask - 1):
                head, tail, rest = cell[:v], cell[v + 1:], mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    col.append((index[head + (mask ^ low,) + tail], sign))
                    sign = -sign
                sign = -sign  # |mask| + 1 flips: the parity of |mask| - 1
        cols.append(col)
    return cols


def assert_mask_rule(cc: ChainComplex) -> None:
    """Every boundary of cc equals the oracle's, entry for entry."""
    for k in range(cc.dim + 1):
        assert cc.boundary(k) == mask_rule_boundary(cc, k), k


def assert_coreduction_exact(cc: ChainComplex) -> None:
    """Homology of the Morse complex equals both oracles', over Z and
    GF(2): the stop-at-stall coreduction with the unit-pivot sweep, and
    elimination on the full complex; no degree gains cells."""
    reduced = _coreduce(cc)
    assert all(a <= b for a, b in zip(reduced[0], cc.counts()))
    fifo = fifo_coreduce(cc)
    for field_name in ("Z", "GF2"):
        got = homology_integral(reduced) if field_name == "Z" \
            else homology_gf2(reduced)
        assert got == swept_homology(fifo, field_name) \
            == unreduced_homology(cc, field_name), field_name


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
    with pytest.raises(ValueError, match="not closed"):
        ChainComplex([(0b001,), (0b010,), (0b011,),
                      (0b110,)])  # missing vertex face (0b100,)


def test_chain_complex_refuses_a_repeated_cell():
    # one point listed twice would count as two vertices, H~0 = Z
    with pytest.raises(ValueError, match=r"repeated cell \(1,\)"):
        ChainComplex([(0b1,), (0b1,)])
    with pytest.raises(ValueError, match="repeated cell"):
        ChainComplex([(0b01,), (0b10,), (0b11,), (0b10,)])
    # cells are grouped by dimension, whatever order they come in
    cc = ChainComplex([(0b11,), (0b10,), (0b01,)])
    assert cc.faces == (((0b10,), (0b01,)), ((0b11,),))
    # an edge: contractible
    assert not any(homology_integral(_coreduce(cc)).betti)


def test_boundary_squared_check_covers_every_column():
    # 2-skeleton of the simplex on 25 vertices: 2300 triangles, so column
    # 2100 of degree 2 lies past any sample of the first 2000.  The graph
    # (1-skeleton) has no degree 2 to expose a bad edge column, so only the
    # check against the augmentation catches it.
    faces = [(sum(1 << v for v in f),)
             for d in (1, 2, 3) for f in itertools.combinations(range(25), d)]
    graph = [f for f in faces if f[0].bit_count() < 3]
    for cells, k, col in ((faces, 2, 2100), (graph, 1, 0)):
        cc = ChainComplex(cells)
        cc.check_boundary_squared()
        entries = cc._columns[k][col]
        entries[0] = -entries[0]
        with pytest.raises(ValueError, match=f"nonzero in degree {k}"):
            cc.check_boundary_squared()


def test_boundary_squared_check_sees_every_single_defect():
    # Every column of degree >= 1 has faces with nonempty boundaries (the
    # augmentation below degree 1), so flipping or dropping any one entry
    # leaves some row reached more often with one sign than the other.
    for cc in (chain_complex_of_hom(hom_poset(K2, complete_graph(4))),
               chain_complex(torus_complex())):
        seeded = 0
        for level in cc._columns:
            for col in level:
                for t, e in enumerate(col):
                    col[t] = -e
                    with pytest.raises(ValueError, match="nonzero"):
                        cc.check_boundary_squared()
                    del col[t]
                    with pytest.raises(ValueError, match="nonzero"):
                        cc.check_boundary_squared()
                    col.insert(t, e)
                    seeded += 1
        cc.check_boundary_squared()
        assert seeded == sum(len(col) for k in range(cc.dim + 1)
                             for col in cc.boundary(k))


def test_cell_rule_matches_the_vertex_tuple_rule():
    for x in (torus_complex(), klein_bottle_complex(), _rp2(), CIRCLE,
              *(simplex_boundary(k) for k in range(1, 5))):
        assert_simplicial_boundaries(x)


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
    ht = homology_integral(_coreduce(cc))
    assert ht.betti == (0, 2, 1) and not any(ht.torsion)
    assert_coreduction_exact(cc)

    k = klein_bottle_complex()
    cck = chain_complex(k)
    assert cck.counts() == (16, 48, 32)
    inck = Counter(e for f in k.facets for e in
                   [(f[0], f[1]), (f[0], f[2]), (f[1], f[2])])
    assert set(inck.values()) == {2}
    hk = homology_integral(_coreduce(cck))
    assert_coreduction_exact(cck)
    assert hk.betti == (0, 1)
    assert hk.torsion == ((), (2,))
    assert hk.reduced(2) == 0
    # GF(2) sees the torsion in degrees 1 and 2
    hk2 = homology_gf2(_coreduce(cck))
    assert hk2.betti == (0, 2, 1)
    assert universal_coefficients_ok(hk, hk2)
    assert universal_coefficients_ok(ht, homology_gf2(_coreduce(cc)))


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


def test_minimal_rp2_boundary_has_two_torsion():
    # The minimal CW structure on RP^2: one cell in each of degrees 0, 1
    # and 2, with d e1 = 0 and d e2 = 2 e1.  No ChainComplex holds it, as
    # every incidence there is +-1, but a Morse complex can: the flow
    # sums +-1 entries.
    assert sparse_rank_divisors([[]]) == (0, [])
    assert sparse_rank_divisors([[(0, 2)]]) == (1, [2])
    assert gf2_rank(sum(1 << i for i, v in col if v % 2)
                    for col in [[(0, 2)]]) == 0
    minimal = [0, 1, 1], [[], [[]], [[(0, 2)]]]
    assert homology_integral(minimal) == swept_homology(minimal, "Z") \
        == HomologyResult("Z", False, (0, 0), ((), (2,)))
    assert homology_gf2(minimal) == swept_homology(minimal, "GF2") \
        == HomologyResult("GF2", False, (0, 1, 1))


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
    z = homology_integral(_coreduce(two))
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
    sub, kept = closure_reduce(c)
    assert kept == (1, 3)
    assert poset_homology(sub) == poset_homology(p)
    bad = PosetMap(p, p, (1, 2, 3, 3))
    with pytest.raises(ValueError):
        closure_reduce(bad)


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
    h = homology_integral(_coreduce(chain_complex(klein_bottle_complex())))
    data = h.to_json()
    assert data["field"] == "Z" and data["torsion"][1] == [2]
    assert homology_from_json(data, "Z") == h
    assert "Z/2" in str(h)


def test_result_refuses_torsion_past_betti():
    # a Z/2 in degree 1 with no degree-1 betti entry would print as H~0=Z
    data = {"field": "Z", "empty": False, "betti": [1], "torsion": [[], [2]],
            "dim": 1}
    with pytest.raises(ValueError, match="torsion"):
        homology_from_json(data, "Z")
    data["betti"] = [1, 0]
    assert "Z/2" in str(homology_from_json(data, "Z"))


@pytest.mark.parametrize("args", [
    ("Z", False, (-1,)),
    ("Z", False, (1,), ((1,),)),
    ("Z", False, (0, 2), ((), (0,))),
    ("GF2", False, (-2, 1)),
], ids=["negative-betti", "torsion-1", "torsion-0", "negative-gf2-betti"])
def test_result_refuses_counts_no_computation_produces(args):
    # each printed as a result before: trivial (Z), H~0=Z+Z/1,
    # H~1=Z+Z+Z/0 and H~1=F2
    with pytest.raises(ValueError, match="betti numbers|torsion orders"):
        HomologyResult(*args)


def test_snf_guard():
    # the simplex boundary's Morse complex is one 2-cell with no boundary:
    # no nonzero for the dense Smith form
    cc = chain_complex(simplex_boundary(3))
    assert homology_integral(_coreduce(cc),
                             DEFAULT_GUARDS.scaled(snf_nonzeros=0)) \
        .is_sphere(2)
    # RP^2 has 2-torsion, so its Morse boundary has a nonzero entry
    ccr = _coreduce(chain_complex(_rp2()))
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
        h = homology_integral(_coreduce(cc))
        reduced_euler = sum((-1) ** d * h.reduced(d)
                            for d in range(len(h.betti)))
        assert cc.euler_characteristic() - 1 == reduced_euler
        assert universal_coefficients_ok(h, homology_gf2(_coreduce(cc)))


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
    # over Z on a 2-core Xeon; coreduction that stops at its first stall
    # leaves 3,017, and the Morse complex one cell per generator.
    # Babson-Kozlov: Hom(C5,K5) is 1-connected, and chi(K5) >= conn + 4 = 5
    # is tight.
    cc = chain_complex_of_hom(hom_poset(cycle_graph(5), complete_graph(5)))
    assert sum(cc.counts()) == 45540
    fifo = fifo_coreduce(cc)
    assert sum(fifo[0]) == 3017
    reduced = _coreduce(cc)
    assert reduced[0] == [0, 0, 1, 1, 0, 1]
    z = homology_integral(reduced)
    assert z.betti == (0, 0, 1, 1, 0, 1) and not any(z.torsion)
    assert homology_gf2(reduced).betti == z.betti
    assert swept_homology(fifo, "Z") == z
    assert swept_homology(fifo, "GF2") == homology_gf2(reduced)
    assert homology_connectivity(z) + 4 == chromatic_number(complete_graph(5))


# ---------------------------------------------------------------------------
# the build against the mask rule, and the shape of coreduction

# The benchmark's Hom-homology instances (Hom(C5,K4) is taken over Z and
# over GF(2)), with the critical cells of the Morse reduction and the cells
# the stop-at-stall oracle leaves, under identity labels.  Each Morse count
# is one cell per generator and per torsion relation in its degree, so no
# reduction leaves fewer.
BENCHMARK_HOM_PAIRS = {
    "K2,K6": (K2, complete_graph(6), [0, 0, 0, 0, 1], [0, 0, 0, 0, 1]),
    "C5,K4": (cycle_graph(5), complete_graph(4), [0, 1, 1, 1],
              [0, 92, 187, 96]),
    "K3,K5": (K3, complete_graph(5), [0, 0, 29], [0, 0, 29]),
    "K2,K5": (K2, complete_graph(5), [0, 0, 0, 1], [0, 0, 0, 1]),
}


@pytest.mark.parametrize("pair", sorted(BENCHMARK_HOM_PAIRS))
def test_build_matches_the_mask_rule_on_the_benchmark_pairs(pair):
    g, h, critical, left = BENCHMARK_HOM_PAIRS[pair]
    cc = chain_complex_of_hom(hom_poset(g, h))
    assert_mask_rule(cc)
    assert _coreduce(cc)[0] == critical
    assert fifo_coreduce(cc)[0] == left


@pytest.mark.parametrize("pair", sorted(BENCHMARK_HOM_PAIRS))
def test_elimination_leaves_the_coreduced_columns_as_they_were(pair):
    # both fields eliminate on one Morse complex, so neither may write it;
    # over Z, Hom(C5,K4)'s degree-2 boundary is the 1x1 matrix (2)
    g, h, _, _ = BENCHMARK_HOM_PAIRS[pair]
    cc = chain_complex_of_hom(hom_poset(g, h))
    reduced = _coreduce(cc)
    first = homology_integral(reduced), homology_gf2(reduced)
    assert reduced == _coreduce(cc)
    assert (homology_integral(reduced), homology_gf2(reduced)) == first


# Cells the flows of one reduction cancel, all critical cells together;
# each counts against search_nodes.  The other benchmark pairs run no flow.
FLOW_CANCELLATIONS = {"C5,K4": 390}


@pytest.mark.parametrize("pair", sorted(BENCHMARK_HOM_PAIRS))
def test_flow_work_trips_search_nodes_at_one_pinned_point(pair):
    g, h, critical, _ = BENCHMARK_HOM_PAIRS[pair]
    cc = chain_complex_of_hom(hom_poset(g, h))
    nodes = FLOW_CANCELLATIONS.get(pair, 0)
    assert _coreduce(cc, DEFAULT_GUARDS.scaled(search_nodes=nodes))[0] \
        == critical
    if nodes:
        with pytest.raises(GuardExceeded) as err:
            _coreduce(cc, DEFAULT_GUARDS.scaled(search_nodes=nodes - 1))
        assert (err.value.guard, err.value.limit, err.value.attempted) == \
            ("search_nodes", nodes - 1, nodes)


def test_flow_refuses_a_path_that_climbs_in_removal_time():
    # Every flow checks that removal times strictly decrease along the
    # gradient paths it follows, so each test that reduces a complex
    # checks it.  Listing a coface twice makes coreduction take a 2-cell
    # of Hom(C5,K4) for one with a single live face while it has two; the
    # face left live goes later, and the flow through that pair climbs.
    cc = chain_complex_of_hom(hom_poset(cycle_graph(5), complete_graph(4)))
    assert _coreduce(cc)[0] == [0, 1, 1, 1]
    cofaces = cc._cofaces[1][45]
    cofaces.append(cofaces[0])
    with pytest.raises(ValueError, match="does not decrease in removal "
                                         "time in degree 1"):
        _coreduce(cc)


def test_every_complex_verify_reduces_has_a_small_morse_complex(
        monkeypatch, tmp_path, capsys):
    # elimination runs on the Morse complex alone, so its size is the
    # reach of the dense Smith form
    sizes = []
    reduce = homology._coreduce

    def record(cc, guards=DEFAULT_GUARDS):
        reduced = reduce(cc, guards)
        sizes.append((sum(reduced[0]), sum(cc.counts())))
        return reduced

    monkeypatch.setattr(homology, "_coreduce", record)
    monkeypatch.setattr(harness, "_coreduce", record)
    monkeypatch.delenv("HOMLAB_CACHE_DIR", raising=False)
    main(["verify", "--report-dir", str(tmp_path)])
    capsys.readouterr()
    assert len(sizes) == 29
    # the largest is twelve points, eleven of them free; the largest
    # complex, Hom(K2,S(2,1)), leaves one 2-cell of 10,106 cells
    assert max(sizes) == (11, 12)
    assert max(sizes, key=lambda s: s[1]) == (1, 10106)


def test_build_matches_the_mask_rule_on_every_verify_pair(monkeypatch,
                                                          tmp_path, capsys):
    seen = {}
    hom_homology_of = harness.RunContext.hom_homology

    def record(ctx, g, h, *args, **kwargs):
        seen[g.n, g.adj, h.n, h.adj] = g, h
        return hom_homology_of(ctx, g, h, *args, **kwargs)

    monkeypatch.setattr(harness.RunContext, "hom_homology", record)
    monkeypatch.delenv("HOMLAB_CACHE_DIR", raising=False)
    main(["verify", "--report-dir", str(tmp_path)])
    capsys.readouterr()
    # 16 pairs from the 14 pinned rows, and Hom(K2,S(2,1))
    assert len(seen) == 17
    for g, h in seen.values():
        assert_mask_rule(chain_complex_of_hom(hom_poset(g, h)))


def coreduction_design_breaks(source: str) -> list[str]:
    """Where the module in ``source`` builds boundaries or cofaces outside
    the one loop in ``ChainComplex.__init__``: a ``ChainComplex._boundary``
    method, or a ``_coreduce`` that calls ``cc.boundary`` or appends to a
    per-cell list (``xs[i].append``, the way a coface list is filled)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == "ChainComplex":
            out += [f"ChainComplex.{f.name}" for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and f.name == "_boundary"]
        if isinstance(node, ast.FunctionDef) and node.name == "_coreduce":
            for sub in ast.walk(node):
                if not (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)):
                    continue
                f = sub.func
                if f.attr == "boundary" and isinstance(f.value, ast.Name) \
                        and f.value.id == "cc":
                    out.append(f"_coreduce calls cc.boundary, line "
                               f"{sub.lineno}")
                if f.attr == "append" and isinstance(f.value, ast.Subscript):
                    out.append(f"_coreduce appends to a per-cell list, line "
                               f"{sub.lineno}")
    return out


def test_coreduction_reads_the_cofaces_the_build_recorded():
    assert coreduction_design_breaks(inspect.getsource(homology)) == []


def test_scan_flags_a_second_boundary_pass():
    source = (
        "class ChainComplex:\n"
        "    def _boundary(self, k):\n"
        "        return []\n"
        "def _coreduce(cc):\n"
        "    cols = [cc.boundary(k) for k in range(3)]\n"
        "    cofaces = [[[] for _ in level] for level in cols]\n"
        "    for j, col in enumerate(cols[1]):\n"
        "        for i, _ in col:\n"
        "            cofaces[0][i].append(j)\n")
    assert coreduction_design_breaks(source) == [
        "ChainComplex._boundary", "_coreduce calls cc.boundary, line 5",
        "_coreduce appends to a per-cell list, line 9"]
