"""Named graph families built from twisted products, with explicit colorings.

The constructions here combine subdivided spheres and polygons with the
twisted-product machinery of :mod:`homlab.actions`:

* spherical graphs ``S(k,m)`` from barycentric subdivisions of cross-polytope
  boundaries;
* twisted toroidal graphs ``T(k,m)`` from iterated twisted products with
  reflexive even cycles;
* generalized Mycielski graphs ``M^k_m(G)``;
* explicit proper colorings (subdivision coloring, equivariant coloring step)
  that realize the chromatic-number upper bounds constructively;
* the Csorba and universality constructions that realize a prescribed
  complex as a Hom poset.

All constructors are deterministic: the same parameters produce an
identical serialized graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .actions import (GraphAction, PosetAction, TwistedProduct,
                      atom_graph_action, face_poset_action, is_free,
                      left_regular_maps, orbits, symmetric_group,
                      twisted_product, z2_group)
from .graphs import (Graph, check_homomorphism, complete_graph,
                     looped_path, product, quotient, reflexive_cycle)
from .limits import DEFAULT_GUARDS, Guards, check_graph_vertices
from .posets import (Poset, SimplicialComplex, atom_graph, chain_poset,
                     face_poset, make_complex)

__all__ = [
    "SpherePoset", "TwistedGraph", "TwistedColoring",
    "cross_polytope_complex", "cycle_face_poset", "spherical_graph",
    "twisted_toroidal", "mycielski", "iterated_mycielski",
    "subdivision_coloring", "equivariant_coloring_step", "csorba_graph",
    "universality_graph",
]


def _flip_action() -> GraphAction:
    return GraphAction(z2_group(), complete_graph(2), ((0, 1), (1, 0)))


def _cycle_actions(m: int) -> tuple[GraphAction, GraphAction]:
    """The antipodal and reflection actions on the reflexive 2m-cycle."""
    cyc = reflexive_cycle(2 * m)
    n = 2 * m
    ident = tuple(range(n))
    anti = GraphAction(z2_group(), cyc,
                       (ident, tuple((i + m) % n for i in range(n))))
    refl = GraphAction(z2_group(), cyc,
                       (ident, tuple(n - 1 - i for i in range(n))))
    return anti, refl


# ---------------------------------------------------------------------------
# subdivided cross polytopes and polygon face posets


@dataclass(frozen=True)
class SpherePoset:
    """The face poset of a sphere with a free antipodal involution and a
    reflection commuting with it."""

    poset: Poset
    antipodal: PosetAction  # free
    reflection: PosetAction  # right action (stored as left)


def cross_polytope_complex(k: int, m: int,
                           guards: Guards = DEFAULT_GUARDS) -> SpherePoset:
    """Boundary sphere of the (k+1)-dimensional cross polytope, subdivided m times.

    Vertices of the unsubdivided boundary are 2i (the +e_{i+1} pole) and
    2i+1 (the -e_{i+1} pole).  The free antipodal action swaps the poles of
    every coordinate; the reflection, an involution and so its own inverse,
    swaps only the first pair and plays the right action in twisted products.
    Subdivision is the chain poset of the face poset, with both actions
    transported through each step.
    """
    if k < 0 or m < 0:
        raise ValueError("cross polytope needs k >= 0 and m >= 0")
    nv = 2 * (k + 1)
    facets = []
    for signs in range(1 << (k + 1)):
        facets.append(tuple(sorted(2 * i + ((signs >> i) & 1)
                                   for i in range(k + 1))))
    x = make_complex(nv, sorted(facets))
    p = face_poset(x, guards)
    z2 = z2_group()
    ident = tuple(range(nv))
    anti_v = tuple(v ^ 1 for v in range(nv))
    refl_v = tuple((v ^ 1 if v < 2 else v) for v in range(nv))
    anti = face_poset_action(p, z2, (ident, anti_v))
    refl = face_poset_action(p, z2, (ident, refl_v))
    for _ in range(m):
        p = chain_poset(p, guards)
        anti = face_poset_action(p, anti.group, anti.maps)
        refl = face_poset_action(p, refl.group, refl.maps)
    if not is_free(anti):
        raise ValueError("antipodal action failed to be free")
    return SpherePoset(p, anti, refl)


def cycle_face_poset(m: int) -> SpherePoset:
    """Face poset of a 2m-gon, 4m elements: 2m vertices and 2m edges.  The
    antipodal action sends vertex i to i+m, the reflection to 2m-1-i."""
    if m < 2:
        raise ValueError("polygon face poset needs m >= 2")
    n = 2 * m
    x = make_complex(n, [(i, (i + 1) % n) for i in range(n)])
    p = face_poset(x)
    z2 = z2_group()
    ident = tuple(range(n))
    anti = face_poset_action(p, z2,
                             (ident, tuple((i + m) % n for i in range(n))))
    refl = face_poset_action(p, z2,
                             (ident, tuple(n - 1 - i for i in range(n))))
    return SpherePoset(p, anti, refl)


# ---------------------------------------------------------------------------
# spherical graphs S(k,m)


@dataclass(frozen=True)
class TwistedGraph:
    """S(k,m) or T(k,m) with the right action its last factor carries."""

    graph: Graph
    right_action: GraphAction  # a reflection, stored as left (g^-1 . x)


def spherical_graph(k: int, m: int,
                    guards: Guards = DEFAULT_GUARDS) -> TwistedGraph:
    """S(k,m): the twisted product of an edge with a subdivided sphere
    skeleton."""
    cp = cross_polytope_complex(k, m, guards)
    ag, atoms = atom_graph(cp.poset)
    anti = atom_graph_action(ag, atoms, cp.antipodal)
    refl = atom_graph_action(ag, atoms, cp.reflection)
    tw = twisted_product(_flip_action(), anti, refl)
    if not tw.graph.is_loopless():
        raise ValueError("spherical graph acquired a loop")
    return TwistedGraph(tw.graph, tw.right_action)


# ---------------------------------------------------------------------------
# twisted toroidal graphs T(k,m)


def twisted_toroidal(k: int, m: int) -> TwistedGraph:
    """T(k,m), the k-fold left-associated twisted product of K2 with
    2m-cycles, on 2m^k vertices: each twisted product with the 2m-cycle
    multiplies the vertex count by 2m, and its Z2 quotient halves it.
    More than `limits.GRAPH_VERTICES` of them raise GuardExceeded before
    the first product is built."""
    if k < 0:
        raise ValueError("toroidal graph needs k >= 0")
    if m < 2:
        raise ValueError("toroidal graph needs m >= 2")
    vertices = 2
    for _ in range(k):  # m >= 2, so this stops within log2 of the limit
        vertices *= m
        check_graph_vertices(vertices)
    act = _flip_action()
    graph = act.graph
    anti, refl = _cycle_actions(m)
    for _ in range(k):
        tw = twisted_product(act, anti, refl)
        graph, act = tw.graph, tw.right_action
        if not graph.is_loopless():
            raise ValueError("toroidal graph acquired a loop")
    return TwistedGraph(graph, act)


# ---------------------------------------------------------------------------
# generalized Mycielski construction


def mycielski(g: Graph, m: int) -> Graph:
    """Quotient of looped-path x g collapsing the far path end to an apex.

    The result has m*|V(g)|+1 vertices; the apex is the last vertex.
    """
    if m < 1:
        raise ValueError("Mycielski construction needs m >= 1")
    if g.n == 0:
        raise ValueError("Mycielski construction needs a nonempty graph")
    return quotient(product(looped_path(m), g),
                    (*range(m * g.n), *[m * g.n] * g.n))


def iterated_mycielski(g: Graph, m: int, k: int) -> Graph:
    """M^k_m(g), `mycielski` applied k times: m*n+1 vertices from n at each
    step; more than `limits.GRAPH_VERTICES` raise GuardExceeded before the
    first step is built."""
    if k < 0:
        raise ValueError("negative iteration count")
    vertices = g.n
    for _ in range(k if m >= 1 else 0):  # mycielski refuses m < 1 below
        vertices = m * vertices + 1  # grows by at least 1, so this stops
        check_graph_vertices(vertices)
    for _ in range(k):
        g = mycielski(g, m)
    return g


# ---------------------------------------------------------------------------
# explicit colorings


@dataclass(frozen=True)
class TwistedColoring:
    """A proper coloring of a twisted product, validated when built."""

    twisted: TwistedProduct
    coloring: tuple[int, ...]
    target: Graph


def subdivision_coloring(p: Poset, action: PosetAction,
                         guards: Guards = DEFAULT_GUARDS
                         ) -> TwistedColoring:
    """Color the edge-twist of the second subdivision of a free complex.

    ``p`` is the face poset of a regular complex of dimension n carrying a
    free involution.  Each chain c of ``p`` receives the color
    max{height(q) : q in S and q in c} when that set is nonempty and n+1
    otherwise, where S holds the minimum-index representative of every
    orbit.  Assembling the chain colors over the twisted product of the
    double subdivision's skeleton with an edge yields a proper coloring
    with at most n+2 colors, which is validated before returning.
    """
    if action.group.order != 2:
        raise ValueError("the action must be an involution")
    if not is_free(action):
        raise ValueError("the action is not free")
    heights = p.heights
    n = max(heights)
    reps = {block[0] for block in orbits(action)}

    cp = chain_poset(p, guards)
    phi = []
    for chain in cp.elements:
        picked = [heights[q] for q in chain if q in reps]
        phi.append(max(picked) if picked else n + 1)

    cact = face_poset_action(cp, action.group, action.maps)
    cp2 = chain_poset(cp, guards)
    c2act = face_poset_action(cp2, cact.group, cact.maps)
    ag, atoms = atom_graph(cp2)
    gact = atom_graph_action(ag, atoms, c2act)
    tw = twisted_product(_flip_action(), gact)

    chain_of = [cp2.elements[a][0] for a in atoms]
    tau = cact.maps[1]
    coloring = []
    for t, a in tw.pairs:
        c = chain_of[a]
        coloring.append(phi[c] if t == 0 else phi[tau[c]])
    target = complete_graph(n + 2)
    if not check_homomorphism(coloring, tw.graph, target):
        raise ValueError("subdivision coloring failed validation")
    return TwistedColoring(tw, tuple(coloring), target)


def _swap01(n: int) -> tuple[int, ...]:
    return (1, 0) + tuple(range(2, n))


# The six proper 3-colourings (f(0), f(1)) of an edge, in hexagon order: the
# looped vertices of K3^K2 as a reflexive 6-cycle, on which the shift by 3
# swaps the two ends and j -> 5-j swaps colours 0 and 1.
_HEXAGON = ((0, 2), (0, 1), (2, 1), (2, 0), (1, 0), (1, 2))


def _cycle_collapse(m: int) -> tuple[int, ...]:
    """The equivariant squeeze of a reflexive 2m-cycle onto a reflexive hexagon."""
    col = [0] * (2 * m)
    for i in range(1, m - 1):
        col[i] = 1
    col[m - 1] = 2
    col[m] = 3
    for j in range(m + 1, 2 * m - 1):
        col[j] = 4
    col[2 * m - 1] = 5
    return tuple(col)


def equivariant_coloring_step(t_act: GraphAction, coloring: Sequence[int],
                              n: int, m: int) -> TwistedColoring:
    """Extend an equivariant (n+2)-coloring of T to one of T x_Z2 C(2m) with n+3.

    ``t_act`` is an involution on T in the role of the right action;
    ``coloring`` must be a proper homomorphism T -> K_{n+2} intertwining
    the involution with the swap of colors 0 and 1.  The result composes
    the squeeze of the 2m-cycle onto a hexagon, the identification of that
    hexagon with the looped part of K3^K2, the extension of such functions
    by x -> x+1 on colors above 2, and evaluation at the given coloring.
    Both properness and equivariance of the output are validated.
    """
    if m < 3:
        raise ValueError("coloring step needs m >= 3")
    if t_act.group.order != 2:
        raise ValueError("need an involution on the base graph")
    t = t_act.graph
    source = complete_graph(n + 2)
    col = list(coloring)
    if not check_homomorphism(col, t, source):
        raise ValueError("base coloring is not a proper homomorphism")
    sw = _swap01(n + 2)
    tau = t_act.maps[1]
    if any(col[tau[v]] != sw[col[v]] for v in range(t.n)):
        raise ValueError("base coloring is not equivariant")

    tw = twisted_product(t_act, *_cycle_actions(m))
    squeeze = _cycle_collapse(m)
    out = []
    for tt, hh in tw.pairs:
        f = _HEXAGON[squeeze[hh]]
        c = col[tt]
        out.append(f[c] if c < 2 else c + 1)
    target = complete_graph(n + 3)
    if not check_homomorphism(out, tw.graph, target):
        raise ValueError("extended coloring is not a proper homomorphism")
    sw3 = _swap01(n + 3)
    rho = tw.right_action.maps[1]
    if any(out[rho[v]] != sw3[out[v]] for v in range(tw.graph.n)):
        raise ValueError("extended coloring is not equivariant")
    return TwistedColoring(tw, tuple(out), target)


# ---------------------------------------------------------------------------
# Csorba and universality constructions


def _twisted_skeleton(t_act: GraphAction, x: SimplicialComplex,
                      vertex_maps: Sequence[Sequence[int]], times: int,
                      guards: Guards) -> Graph:
    """``t_act`` twisted with the atom graph of Chain^times(F(x)), on which
    the group of ``t_act`` acts through the given free vertex maps."""
    for i, vm in enumerate(vertex_maps):
        if sorted(vm) != list(range(x.n)):
            raise ValueError(f"vertex map {i} is not a permutation of the "
                             f"complex's {x.n} vertices")
    try:
        act = face_poset_action(face_poset(x, guards), t_act.group,
                                [tuple(vm) for vm in vertex_maps])
    except KeyError:
        raise ValueError("the maps are not simplicial automorphisms")
    if not is_free(act):
        raise ValueError("the action is not free")
    for _ in range(times):
        act = face_poset_action(chain_poset(act.poset, guards), act.group,
                                act.maps)
    ag, atoms = atom_graph(act.poset)
    tw = twisted_product(t_act, atom_graph_action(ag, atoms, act))
    if not tw.graph.is_loopless():
        raise ValueError("twisted skeleton acquired a loop")
    return tw.graph


def csorba_graph(x: SimplicialComplex, involution: Sequence[int],
                 guards: Guards = DEFAULT_GUARDS) -> Graph:
    """Edge-twist of the subdivision skeleton of a complex with free involution.

    Realizes the complex, up to homotopy, as the edge Hom poset of the
    resulting loopless graph.
    """
    ident = tuple(range(x.n))
    return _twisted_skeleton(_flip_action(), x, (ident, tuple(involution)),
                             1, guards)


def universality_graph(x: SimplicialComplex, n: int,
                       vertex_maps: Sequence[Sequence[int]] | str,
                       guards: Guards = DEFAULT_GUARDS) -> Graph:
    """K_n twisted with the triple subdivision skeleton of a free S_n complex.

    ``vertex_maps`` gives one vertex permutation of the complex per element
    of the canonical symmetric group on n points (in its element order);
    the string "regular" selects the left regular action, which requires
    the complex to have exactly n! vertices identified with the group
    elements.  Realizes the complex, up to homotopy, as Hom(K_n, result).
    """
    if n < 2:
        raise ValueError("universality construction needs n >= 2")
    group = symmetric_group(n)
    if isinstance(vertex_maps, str):
        if vertex_maps != "regular":
            raise ValueError(f"unknown action shorthand '{vertex_maps}'")
        if x.n != group.order:
            raise ValueError("regular action needs n! vertices")
        maps: Sequence[Sequence[int]] = left_regular_maps(group)
    else:
        maps = vertex_maps
    kn = GraphAction(group, complete_graph(n), group.elements)
    return _twisted_skeleton(kn, x, maps, 3, guards)
