"""Named graph families: subdivided spheres, twisted toroidal graphs,
Mycielski graphs, explicit colorings, and the complex-realizing
constructions.  Oracles are independently built comparison graphs (Wagner
graph, triangular prism, odd cycles) and direct invariant recomputation."""

import hashlib
import json

import pytest

from homlab.actions import (GraphAction, is_free, make_group,
                            symmetric_group, twisted_product, z2_group)
from homlab.families import (_HEXAGON, cross_polytope_complex, csorba_graph,
                             cycle_face_poset, equivariant_coloring_step,
                             iterated_mycielski, mycielski, spherical_graph,
                             subdivision_coloring, twisted_toroidal,
                             universality_graph)
from homlab.graphs import (Graph, check_homomorphism, chromatic_number,
                           complete_graph, cycle_graph, exponential,
                           exponential_vertex_maps, graph_to_json,
                           is_isomorphic, looped_path, odd_girth, product,
                           reflexive_cycle)
from homlab.homposets import hom_poset
from homlab.homology import poset_homology
from homlab.limits import DEFAULT_GUARDS, GRAPH_VERTICES, GuardExceeded
from homlab.posets import atom_graph, make_complex
from test_actions import action_violation, product_quotient

K2, K3, K4 = complete_graph(2), complete_graph(3), complete_graph(4)
SQUARE = make_complex(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
HEXAGON = make_complex(6, [(i, (i + 1) % 6) for i in range(6)])
OCTAHEDRON = make_complex(6, [(a, b, c) for a in (0, 1) for b in (2, 3)
                              for c in (4, 5)])
SIX_POINTS = make_complex(6, [(i,) for i in range(6)])


def flip_action():
    return GraphAction(z2_group(), K2, ((0, 1), (1, 0)))


def wagner_graph():
    """The 8-cycle with its four long diagonals."""
    return Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]
                            + [(i, i + 4) for i in range(4)])


def triangular_prism():
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                (3, 5), (0, 3), (1, 4), (2, 5)])


# ---------------------------------------------------------------------------
# subdivided cross polytopes and polygon posets


def face_counts(p):
    """Faces of the complex whose face poset is ``p``, by vertex count: a
    face is a payload tuple of vertices, or of the chain's elements after
    a subdivision.  The vertices are the atoms."""
    _, atoms = atom_graph(p)
    counts = {}
    for face in p.elements:
        counts[len(face)] = counts.get(len(face), 0) + 1
    assert counts[1] == len(atoms)
    return counts


def test_cross_polytope_shapes():
    sq = cross_polytope_complex(1, 0)
    assert face_counts(sq.poset) == {1: 4, 2: 4}
    ag, _ = atom_graph(sq.poset)
    assert is_isomorphic(ag, reflexive_cycle(4))

    octagon = cross_polytope_complex(1, 1)
    assert face_counts(octagon.poset) == {1: 8, 2: 8}
    assert octagon.poset.m == 16
    ag8, _ = atom_graph(octagon.poset)
    assert is_isomorphic(ag8, reflexive_cycle(8))

    octa = cross_polytope_complex(2, 0)
    assert face_counts(octa.poset) == {1: 6, 2: 12, 3: 8}
    assert octa.poset.m == 26

    with pytest.raises(ValueError):
        cross_polytope_complex(-1, 0)
    with pytest.raises(ValueError):
        cross_polytope_complex(1, -1)


def test_cross_polytope_actions():
    for (k, m) in ((1, 0), (1, 1), (2, 0), (2, 1)):
        cp = cross_polytope_complex(k, m)
        assert action_violation(cp.antipodal) is None
        assert action_violation(cp.reflection) is None
        assert is_free(cp.antipodal)
        a, r = cp.antipodal.maps[1], cp.reflection.maps[1]
        assert [a[r[x]] for x in range(cp.poset.m)] == \
            [r[a[x]] for x in range(cp.poset.m)]


def test_cycle_face_poset():
    c3 = cycle_face_poset(3)
    assert c3.poset.m == 12
    ag, _ = atom_graph(c3.poset)
    assert is_isomorphic(ag, reflexive_cycle(6))
    assert is_free(c3.antipodal)
    assert action_violation(c3.reflection) is None
    a, r = c3.antipodal.maps[1], c3.reflection.maps[1]
    assert [a[r[x]] for x in range(12)] == [r[a[x]] for x in range(12)]

    ag4, _ = atom_graph(cycle_face_poset(2).poset)
    assert is_isomorphic(ag4, reflexive_cycle(4))

    with pytest.raises(ValueError, match="m >= 2"):
        cycle_face_poset(1)


# ---------------------------------------------------------------------------
# spherical graphs


def test_spherical_graphs():
    s10 = spherical_graph(1, 0)
    assert is_isomorphic(s10.graph, K4)

    s11 = spherical_graph(1, 1)
    assert s11.graph.n == 8
    assert is_isomorphic(s11.graph, wagner_graph())
    assert chromatic_number(s11.graph) == 3

    for m in (0, 1, 3):
        assert is_isomorphic(spherical_graph(0, m).graph, K2)

    s21 = spherical_graph(2, 1)
    assert s21.graph.n == 26 and chromatic_number(s21.graph) == 4

    for s in (s10, s11, s21):
        assert s.graph.is_loopless()
        assert action_violation(s.right_action) is None


def test_spherical_determinism():
    a = spherical_graph(1, 2).graph
    b = spherical_graph(1, 2).graph
    assert graph_to_json(a) == graph_to_json(b)
    t = twisted_toroidal(2, 3).graph
    assert t.adj == twisted_toroidal(2, 3).graph.adj


# SHA-256 of the sorted-key compact JSON of each graph, recorded before the
# actions were stored in one (left) convention; any reindexing that changes
# a twisted product shows here.
FAMILY_DIGESTS = {
    "T(0,2)": "020f1c698533d25a02f67a95d2d7b8ada2b8159c226f3f7c03fe59c601a313c5",
    "T(0,3)": "020f1c698533d25a02f67a95d2d7b8ada2b8159c226f3f7c03fe59c601a313c5",
    "T(0,4)": "020f1c698533d25a02f67a95d2d7b8ada2b8159c226f3f7c03fe59c601a313c5",
    "T(0,5)": "020f1c698533d25a02f67a95d2d7b8ada2b8159c226f3f7c03fe59c601a313c5",
    "T(1,2)": "a5f60d56886605ae3382fe6f1040496b7465a4cd9109d7d1926f11dd3f3554cc",
    "T(1,3)": "7976cbecfb3f230446d73f99d63e3eb0d7035659dbc315eaeeeec5f53b6f3ad6",
    "T(1,4)": "17ee6a5a251af5f6f880a82ee6b7c59ffff5d421de04975575f56dfd37641896",
    "T(1,5)": "e3bec95504518e8905eb6b5056e25d08843606fc645e72c813098aca80fca2ba",
    "T(2,2)": "5dec358815a7db8433ad1ba6863f68e089f8f48f9ba585cfe6a14eda1c61956f",
    "T(2,3)": "1e21c0f7da3b19998ab1e2cee1542ed71b15a7d55ccb357788f95aebddaa4283",
    "T(2,4)": "1a4060765a56ef9d0f391e652084ce7c84fd013ae437a84d685fc26904abc037",
    "S(1,0)": "a5f60d56886605ae3382fe6f1040496b7465a4cd9109d7d1926f11dd3f3554cc",
    "S(1,1)": "3000ebd1dbaf77708327198fa1b05080cb5bff3c94ad856e81929f4d54935699",
    "S(1,2)": "f52307be2c0f5ca656c821175668e5f1a398e5048d82e97fefc5d9fb6a78a1a4",
    "S(2,0)": "4d00014d93a3d1e2b6031398df8aa37425301435e04938b2f750f8f596a28fad",
    "S(2,1)": "5d182602d4225a7e51b574e8e3090a04e41225494c654311ba0a437ff3589524",
    "csorba(square)": "e85972f38fa7be316a5d91c038e8e265e4970b84752a018d5fa5234c7caa79cb",
    "univ(6 points,3)": "dd6094754ed5753d411b8ad6cf3b17de9cf24313cf6dfaa866bc265748bc5fc2",
}


def _family_graph(name):
    if name == "csorba(square)":
        square = make_complex(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        return csorba_graph(square, (2, 3, 0, 1))
    if name == "univ(6 points,3)":
        points = make_complex(6, [(i,) for i in range(6)])
        return universality_graph(points, 3, "regular")
    build = {"T": twisted_toroidal, "S": spherical_graph}[name[0]]
    k, m = name[2:-1].split(",")
    return build(int(k), int(m)).graph


@pytest.mark.parametrize("name", sorted(FAMILY_DIGESTS))
def test_family_graph_golden_digest(name):
    text = json.dumps(graph_to_json(_family_graph(name)), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[name]


# ---------------------------------------------------------------------------
# twisted toroidal graphs


def test_toroidal_small():
    assert is_isomorphic(twisted_toroidal(0, 4).graph, K2)

    t13 = twisted_toroidal(1, 3)
    assert t13.graph.n == 6
    assert is_isomorphic(t13.graph, triangular_prism())
    assert chromatic_number(t13.graph) == 3
    assert odd_girth(t13.graph) == 3
    assert all(t13.graph.degree(v) == 3 for v in range(6))
    assert action_violation(t13.right_action) is None

    t15 = twisted_toroidal(1, 5)
    assert t15.graph.n == 10
    assert chromatic_number(t15.graph) == 3 and odd_girth(t15.graph) == 5

    t23 = twisted_toroidal(2, 3)
    assert t23.graph.n == 18
    assert all(t23.graph.degree(v) == 9 for v in range(18))

    with pytest.raises(ValueError):
        twisted_toroidal(-1, 3)
    with pytest.raises(ValueError):
        twisted_toroidal(1, 1)


def test_toroidal_vertex_guard_refuses_before_the_first_product(
        monkeypatch):
    # T(k,m) has 2m^k vertices: T(2,3) 18, T(12,2) 8,192, T(13,2) 16,384
    assert twisted_toroidal(2, 3).graph.n == 18
    monkeypatch.setattr("homlab.families.twisted_product", None)
    for k, m, attempted in ((13, 2, 16_384), (9, 3, 13_122),
                            (10 ** 9, 3, 13_122)):
        with pytest.raises(GuardExceeded) as err:
            twisted_toroidal(k, m)
        assert (err.value.guard, err.value.limit, err.value.attempted) == \
            ("graph_vertices", GRAPH_VERTICES, attempted)


def test_toroidal_m2_collapse():
    """For m=2 the construction degenerates to complete graphs."""
    assert is_isomorphic(twisted_toroidal(1, 2).graph, K4)
    assert is_isomorphic(twisted_toroidal(2, 2).graph, complete_graph(8))


# ---------------------------------------------------------------------------
# Mycielski construction


def test_mycielski_c5():
    assert is_isomorphic(mycielski(K2, 2), cycle_graph(5))


def test_mycielski_counts_and_apex():
    for g, m in ((K2, 1), (K3, 2), (cycle_graph(5), 3), (K4, 2)):
        mg = mycielski(g, m)
        assert mg.n == m * g.n + 1
        assert chromatic_number(mg) <= chromatic_number(g) + 1
        # removing the apex leaves the (m-1)-fold looped-path product
        k = m * g.n  # the apex is the last vertex
        rest = tuple(a & ((1 << k) - 1) for a in mg.adj[:k])
        assert rest == product(looped_path(m - 1), g).adj
    with pytest.raises(ValueError):
        mycielski(K2, 0)
    with pytest.raises(ValueError):
        mycielski(Graph(0, ()), 1)


def test_iterated_mycielski():
    for k in (0, 1, 2):
        mk = iterated_mycielski(K2, 2, k)
        assert chromatic_number(mk) == k + 2
    m22 = iterated_mycielski(K2, 2, 2)
    assert m22.n == 11 and odd_girth(m22) == 5
    assert odd_girth(iterated_mycielski(K2, 3, 2)) == 7
    with pytest.raises(ValueError):
        iterated_mycielski(K2, 2, -1)


def test_iterated_mycielski_vertex_guard_refuses_before_the_first_step(
        monkeypatch):
    # m*n+1 vertices from n at each step:
    # K2 -> 5 -> 11 -> ... -> 6,143 (11 steps) -> 12,287 (12 steps)
    assert iterated_mycielski(K2, 2, 2).n == 11
    monkeypatch.setattr("homlab.families.mycielski", None)
    for m, k, attempted in ((2, 12, 12_287), (1, 10 ** 9, GRAPH_VERTICES + 1)):
        with pytest.raises(GuardExceeded) as err:
            iterated_mycielski(K2, m, k)
        assert (err.value.guard, err.value.attempted) == \
            ("graph_vertices", attempted)


# ---------------------------------------------------------------------------
# subdivision coloring


def test_subdivision_coloring_square():
    cp = cross_polytope_complex(1, 0)
    sc = subdivision_coloring(cp.poset, cp.antipodal)
    assert sc.target.n == 3
    assert max(sc.coloring) <= 2
    assert check_homomorphism(sc.coloring, sc.twisted.graph, sc.target)
    # the colored graph is the double subdivision twist, i.e. S(1,2)
    assert is_isomorphic(sc.twisted.graph, spherical_graph(1, 2).graph)


def test_subdivision_coloring_octahedron():
    cp = cross_polytope_complex(2, 0)
    sc = subdivision_coloring(cp.poset, cp.antipodal)
    assert sc.target.n == 4
    assert sc.twisted.graph.n == 146
    assert check_homomorphism(sc.coloring, sc.twisted.graph, sc.target)


def test_subdivision_coloring_hexagon():
    c3 = cycle_face_poset(3)
    sc = subdivision_coloring(c3.poset, c3.antipodal)
    assert sc.target.n == 3
    assert check_homomorphism(sc.coloring, sc.twisted.graph, sc.target)


def test_subdivision_coloring_rejects_nonfree():
    cp = cross_polytope_complex(1, 0)
    with pytest.raises(ValueError, match="not free"):
        subdivision_coloring(cp.poset, cp.reflection)


# ---------------------------------------------------------------------------
# equivariant coloring step


def equivariance_holds(col, act, ncolors):
    sw = (1, 0) + tuple(range(2, ncolors))
    tau = act.maps[1]
    return all(col[tau[v]] == sw[col[v]] for v in range(len(col)))


def test_hexagon_is_the_looped_part_of_k3_to_the_k2():
    ex, emaps = exponential(K2, K3), exponential_vertex_maps(K2, K3)
    looped = {emaps[v] for v in range(ex.n) if ex.has_edge(v, v)}
    assert sorted(_HEXAGON) == sorted(looped)  # the six proper colourings
    index = {f: i for i, f in enumerate(emaps)}
    swap01 = (1, 0, 2)
    for j, f in enumerate(_HEXAGON):
        assert ex.has_edge(index[f], index[_HEXAGON[(j + 1) % 6]])
        assert _HEXAGON[(j + 3) % 6] == (f[1], f[0])
        assert _HEXAGON[5 - j] == (swap01[f[0]], swap01[f[1]])


def test_coloring_step_base_edge():
    ec = equivariant_coloring_step(flip_action(), (0, 1), 0, 3)
    t13 = twisted_toroidal(1, 3)
    assert ec.twisted.graph.adj == t13.graph.adj
    assert ec.target.n == 3
    assert check_homomorphism(ec.coloring, ec.twisted.graph, ec.target)
    assert equivariance_holds(ec.coloring, ec.twisted.right_action, 3)


def test_coloring_step_iterates():
    ec1 = equivariant_coloring_step(flip_action(), (0, 1), 0, 3)
    ec2 = equivariant_coloring_step(ec1.twisted.right_action, ec1.coloring,
                                    1, 3)
    assert ec2.twisted.graph.adj == twisted_toroidal(2, 3).graph.adj
    assert ec2.target.n == 4
    assert check_homomorphism(ec2.coloring, ec2.twisted.graph, ec2.target)
    assert equivariance_holds(ec2.coloring, ec2.twisted.right_action, 4)


def test_coloring_step_wider_cycle():
    ec = equivariant_coloring_step(flip_action(), (0, 1), 0, 5)
    assert ec.twisted.graph.adj == twisted_toroidal(1, 5).graph.adj
    assert check_homomorphism(ec.coloring, ec.twisted.graph, ec.target)


def test_coloring_step_odd_cycle_base():
    c5 = cycle_graph(5)
    refl = GraphAction(z2_group(), c5,
                       (tuple(range(5)), tuple((5 - i) % 5 for i in range(5))))
    ec = equivariant_coloring_step(refl, (2, 1, 0, 1, 0), 1, 3)
    assert ec.twisted.graph.n == 15
    assert ec.target.n == 4
    assert check_homomorphism(ec.coloring, ec.twisted.graph, ec.target)
    assert equivariance_holds(ec.coloring, ec.twisted.right_action, 4)


def test_coloring_step_rejections():
    with pytest.raises(ValueError, match="m >= 3"):
        equivariant_coloring_step(flip_action(), (0, 1), 0, 2)
    with pytest.raises(ValueError, match="proper"):
        equivariant_coloring_step(flip_action(), (0, 0), 0, 3)
    trivial = GraphAction(make_group([(0, 1)]), K2, ((0, 1),))
    with pytest.raises(ValueError, match="involution"):
        equivariant_coloring_step(trivial, (0, 1), 0, 3)
    # proper but breaks the color swap: needs at least 3 colors on a path
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    swap_ends = GraphAction(z2_group(), path,
                            ((0, 1, 2), (2, 1, 0)))
    with pytest.raises(ValueError, match="equivariant"):
        equivariant_coloring_step(swap_ends, (0, 2, 0), 1, 3)


# ---------------------------------------------------------------------------
# complex-realizing constructions


def test_csorba_square():
    g = csorba_graph(SQUARE, (1, 0, 3, 2))
    assert g.n == 8 and g.is_loopless()
    # the square's subdivision twist coincides with S(1,1)
    assert is_isomorphic(g, spherical_graph(1, 1).graph)


def test_csorba_octahedron_is_s21():
    g = csorba_graph(OCTAHEDRON, tuple(v ^ 1 for v in range(6)))
    assert (g.n, len(g.edges())) == (26, 85)
    assert is_isomorphic(g, spherical_graph(2, 1).graph)


def test_csorba_hexagon_circle():
    g = csorba_graph(HEXAGON, tuple((i + 3) % 6 for i in range(6)))
    assert g.n == 12 and g.is_loopless()
    h = poset_homology(hom_poset(K2, g).poset)
    assert h.is_sphere(1)


def test_csorba_rejections():
    with pytest.raises(ValueError, match="not free"):
        csorba_graph(SQUARE, (0, 1, 3, 2))
    with pytest.raises(ValueError, match="automorphism"):
        csorba_graph(SQUARE, (2, 1, 0, 3))
    # order-4 permutation: not a Z2 action
    with pytest.raises(ValueError):
        csorba_graph(SQUARE, (2, 3, 1, 0))


def test_csorba_face_guard_stops_at_the_limit():
    # two disjoint 11-simplices have 8,190 faces; unguarded, the face poset
    # was built in full and the run went on for minutes into the chains
    x = make_complex(24, [range(12), range(12, 24)])
    with pytest.raises(GuardExceeded) as err:
        csorba_graph(x, [(v + 12) % 24 for v in range(24)],
                     DEFAULT_GUARDS.scaled(complex_faces=1000))
    assert err.value.guard == "complex_faces"
    assert err.value.attempted == 1001


def test_universality_six_points():
    u = universality_graph(SIX_POINTS, 3, "regular")
    assert is_isomorphic(u, K3)
    p = hom_poset(K3, u).poset
    assert p.m == 6
    assert all(p.above[i] == 1 << i for i in range(p.m))


def test_universality_rejections():
    pts = make_complex(6, [(i,) for i in range(6)])
    with pytest.raises(ValueError, match="n >= 2"):
        universality_graph(pts, 1, "regular")
    with pytest.raises(ValueError, match="shorthand"):
        universality_graph(pts, 3, "diagonal")
    with pytest.raises(ValueError, match="n! vertices"):
        universality_graph(make_complex(4, [(i,) for i in range(4)]), 3,
                           "regular")
    ident = tuple(range(6))
    with pytest.raises(ValueError, match="not free"):
        universality_graph(pts, 3, [ident] * 6)


S3 = symmetric_group(3)
S3_R, S3_S = S3.elements.index((1, 2, 0)), S3.elements.index((1, 0, 2))


def free_s3_complex():
    """The graph X on S3 x {0,1} with edges (g,0)-(g,1), (g,0)-(gr,0) and
    (g,0)-(gs,1), for the 3-cycle r and the transposition s above, as a
    complex: vertex (g,l) is g + 6l.  S3 acts freely by left multiplication
    on the first factor, and inverts no edge."""
    edges = [e for g in range(6) for e in ((g, g + 6), (g, S3.mul(g, S3_R)),
                                           (g, S3.mul(g, S3_S) + 6))]
    maps = [tuple(S3.mul(h, g) + 6 * level for level in (0, 1)
                  for g in range(6)) for h in range(6)]
    return make_complex(12, edges), maps


def test_universality_free_s3_complex():
    x, maps = free_s3_complex()
    assert len(x.all_faces(12 + 18)) == 12 + 18
    u = universality_graph(x, 3, maps)
    assert (u.n, len(u.edges())) == (69, 213)
    # the Cayley graph of S3 on {r, s}: a conjugate of s inverts each s-edge
    cayley = make_complex(6, [(g, S3.mul(g, t)) for g in range(6)
                              for t in (S3_R, S3_S)])
    with pytest.raises(ValueError, match="the action is not free"):
        universality_graph(cayley, 3, "regular")


def _coloring_tower():
    act, coloring = flip_action(), (0, 1)
    for k in (1, 2, 3):
        ec = equivariant_coloring_step(act, coloring, k - 1, 3)
        act, coloring = ec.twisted.right_action, ec.coloring


def _free_s3_universality():
    x, maps = free_s3_complex()
    universality_graph(x, 3, maps)


def _subdivision(sphere):
    subdivision_coloring(sphere.poset, sphere.antipodal)


def _c5_coloring_step():
    refl = GraphAction(z2_group(), cycle_graph(5),
                       (tuple(range(5)), tuple((5 - i) % 5 for i in range(5))))
    equivariant_coloring_step(refl, (2, 1, 0, 1, 0), 1, 3)


# Every twisted-product construction the tests and the registry build.
TWISTED_FAMILIES = {
    **{f"T({k},{m})": (lambda k=k, m=m: twisted_toroidal(k, m))
       for k, m in ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3),
                    (2, 4), (2, 5), (2, 7))},
    **{f"S({k},{m})": (lambda k=k, m=m: spherical_graph(k, m))
       for k, m in ((0, 0), (0, 1), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0),
                    (2, 1))},
    "csorba(square)": lambda: csorba_graph(SQUARE, (1, 0, 3, 2)),
    "csorba(4-cycle)": lambda: csorba_graph(
        make_complex(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), (2, 3, 0, 1)),
    "csorba(hexagon)": lambda: csorba_graph(
        HEXAGON, tuple((i + 3) % 6 for i in range(6))),
    "csorba(octahedron)": lambda: csorba_graph(
        OCTAHEDRON, tuple(v ^ 1 for v in range(6))),
    "univ(6 points,3)": lambda: universality_graph(SIX_POINTS, 3, "regular"),
    "univ(free S3 complex,3)": _free_s3_universality,
    "subdivision(square)": lambda: _subdivision(cross_polytope_complex(1, 0)),
    "subdivision(octahedron)": lambda: _subdivision(
        cross_polytope_complex(2, 0)),
    "subdivision(hexagon)": lambda: _subdivision(cycle_face_poset(3)),
    "coloring(T(1..3,3))": _coloring_tower,
    "coloring(T(1,5))": lambda: equivariant_coloring_step(
        flip_action(), (0, 1), 0, 5),
    "coloring(C5 x C6)": _c5_coloring_step,
}


@pytest.mark.parametrize("name", sorted(TWISTED_FAMILIES))
def test_family_twisted_products_equal_the_product_quotient(name,
                                                            monkeypatch):
    built = []

    def checked(*args):
        tw = twisted_product(*args)
        assert tw == product_quotient(*args)
        built.append(tw.graph.n)
        return tw

    monkeypatch.setattr("homlab.families.twisted_product", checked)
    TWISTED_FAMILIES[name]()
    assert built
