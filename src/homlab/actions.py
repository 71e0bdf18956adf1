"""Finite permutation groups acting on graphs and posets.

Groups store explicit permutations of a reference set with the identity
at index 0; actions attach one carrier permutation per group element.
Every action is stored as a left action, maps[g.mul(i, j)] ==
maps[i] o maps[j].  A right action x.g, which the paper pairs with a left
one in a twisted product, is stored as the left action g^-1 . x.
`GraphAction` and `PosetAction` check on construction, in one function,
that they are actions by automorphisms, so every action passed around,
transported or induced is valid and nothing checks it again.
Every quotient numbers orbits by one rule, `_orbit_labels`: walking the
points in index order, each orbit takes the next label when its lowest
point is reached, so every quotient object is reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Optional, Sequence, Union

from .graphs import (Graph, _blocks, bits, neighbourhood_mask, permute_mask,
                     quotient)
from .limits import DEFAULT_GUARDS, GuardExceeded, Guards
from .posets import (Poset, atom_graph, chain_poset, enumerate_poset_maps,
                     induced_subposet, map_poset)


def compose_perm(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def _is_perm(p: Sequence[int], n: int) -> bool:
    return len(p) == n and sorted(p) == list(range(n))


@dataclass(frozen=True)
class FiniteGroup:
    elements: tuple[tuple[int, ...], ...]
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]

    def __post_init__(self):
        n = len(self.elements[0])
        idx = {p: i for i, p in enumerate(self.elements)}
        if len(idx) != len(self.elements):
            raise ValueError("duplicate group elements")
        if self.elements[0] != tuple(range(n)):
            raise ValueError("identity must be element 0")
        for i, p in enumerate(self.elements):
            if not _is_perm(p, n):
                raise ValueError(f"element {i} is not a permutation")
            for j, q in enumerate(self.elements):
                if self.table[i][j] != idx[compose_perm(p, q)]:
                    raise ValueError(f"table wrong at {i},{j}")
            if self.table[i][self.inverse[i]] != 0:
                raise ValueError(f"inverse wrong at {i}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]


def make_group(generators: Sequence[Sequence[int]],
               guards: Guards = DEFAULT_GUARDS) -> FiniteGroup:
    """Closure of generating permutations; breadth-first, identity first."""
    if not generators:
        raise ValueError("need at least one generator (identity is fine)")
    n = len(generators[0])
    gens = [tuple(g) for g in generators]
    for g in gens:
        if not _is_perm(g, n):
            raise ValueError(f"generator {g} is not a permutation")
    ident = tuple(range(n))
    elements = [ident]
    seen = {ident}
    queue = deque([ident])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = compose_perm(p, g)
            if q not in seen:
                if len(elements) >= guards.group_order:
                    raise GuardExceeded("group_order", guards.group_order,
                                        len(elements) + 1)
                seen.add(q)
                elements.append(q)
                queue.append(q)
    idx = {p: i for i, p in enumerate(elements)}
    table = tuple(tuple(idx[compose_perm(p, q)] for q in elements)
                  for p in elements)
    inverse = tuple(table[i].index(0) for i in range(len(elements)))
    return FiniteGroup(tuple(elements), table, inverse)


def symmetric_group(n: int, guards: Guards = DEFAULT_GUARDS) -> FiniteGroup:
    if n == 1:
        return make_group([(0,)], guards)
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % n for i in range(n)]
    return make_group([tuple(swap), tuple(cycle)], guards)


def z2_group() -> FiniteGroup:
    return make_group([(1, 0)])


# ---------------------------------------------------------------------------
# actions


@dataclass(frozen=True)
class GraphAction:
    """A left action on a graph by automorphisms, checked on construction."""

    group: FiniteGroup
    graph: Graph
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_action(self.group, self.graph.adj, self.maps)


@dataclass(frozen=True)
class PosetAction:
    """A left action on a poset by automorphisms, checked on construction."""

    group: FiniteGroup
    poset: Poset
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_action(self.group, self.poset.above, self.maps)


Action = Union[GraphAction, PosetAction]


def _check_action(g: FiniteGroup, rows: Sequence[int],
                  maps: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless ``maps`` is a left action of ``g`` by
    automorphisms of the relation whose row masks are ``rows``: an
    automorphism carries every row onto the row of the image."""
    n = len(rows)
    if len(maps) != g.order:
        raise ValueError("one carrier map per group element required")
    for i, p in enumerate(maps):
        if not _is_perm(p, n):
            raise ValueError(f"carrier map {i} is not a permutation")
    if maps[0] != tuple(range(n)):
        raise ValueError("identity acts nontrivially")
    # the identity (element 0 of a FiniteGroup, table[0][j] == table[j][0]
    # == j) acts trivially, so its pairs and its automorphism test hold
    for i in range(1, g.order):
        for j in range(1, g.order):
            if maps[g.mul(i, j)] != compose_perm(maps[i], maps[j]):
                raise ValueError(f"compatibility fails at elements {i},{j}")
    for i in range(1, g.order):
        p = maps[i]
        if any(permute_mask(rows[u], p) != rows[p[u]] for u in range(n)):
            raise ValueError(f"element {i} is not an automorphism")


def is_free(a: Action) -> bool:
    n = len(a.maps[0])
    return all(a.maps[i][x] != x for i in range(1, a.group.order)
               for x in range(n))


def is_strongly_regular(a: PosetAction) -> bool:
    """No nonidentity element sends u below m to v below m: here checked
    as 'orbit points never share an upper bound'."""
    p = a.poset
    for i in range(1, a.group.order):
        mp = a.maps[i]
        for u in range(p.m):
            if p.above[u] & p.above[mp[u]]:
                return False
    return True


def _orbit_labels(n: int, orbit: Callable[[int], Iterable[int]]
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The orbit label of every point of 0..n-1 and the lowest point of
    every orbit: walking the points in index order, the orbit of the first
    unlabelled point takes the next label.  ``orbit(v)`` lists v's orbit."""
    labels = [-1] * n
    lowest: list[int] = []
    for v in range(n):
        if labels[v] < 0:
            for w in orbit(v):
                labels[w] = len(lowest)
            lowest.append(v)
    return tuple(labels), tuple(lowest)


def orbit_of(a: Action) -> tuple[int, ...]:
    """The orbit label of every point.  The maps list every group element,
    so v's orbit is its images, with no closure search."""
    return _orbit_labels(len(a.maps[0]),
                         lambda v: [mp[v] for mp in a.maps])[0]


def orbits(a: Action) -> tuple[tuple[int, ...], ...]:
    """Orbit blocks, each ascending, sorted by minimum member."""
    return _blocks(orbit_of(a))


def is_d_discontinuous(a: GraphAction, d: int) -> bool:
    """No vertex within graph distance d-1 of another point of its orbit.
    Each vertex's ball of radius d-1 grows a frontier mask at a time, and
    stops once it meets the orbit or the frontier is empty."""
    if d < 1:
        raise ValueError("d must be >= 1")
    for v in range(a.graph.n):
        others = reduce(or_, (1 << mp[v] for mp in a.maps[1:]), 0)
        ball = frontier = 1 << v
        for _ in range(d - 1):
            if not frontier or ball & others:
                break
            frontier = neighbourhood_mask(a.graph, frontier) & ~ball
            ball |= frontier
        if ball & others:
            return False
    return True


# ---------------------------------------------------------------------------
# action transport


def face_poset_action(fp: Poset, group: FiniteGroup,
                      vertex_maps: Sequence[Sequence[int]]) -> PosetAction:
    """Transport simplicial vertex permutations to the face poset
    (fp elements must be the face tuples)."""
    idx = fp.index
    maps = tuple(tuple(idx[tuple(sorted(vm[v] for v in face))]
                       for face in fp.elements)
                 for vm in vertex_maps)
    return PosetAction(group, fp, maps)


def left_regular_maps(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(g.table[i][j] for j in range(g.order))
                 for i in range(g.order))


def atom_graph_action(g: Graph, atoms: Sequence[int],
                      a: PosetAction) -> GraphAction:
    """Restrict a poset action to the atom graph (automorphisms fix atoms)."""
    pos = {v: i for i, v in enumerate(atoms)}
    maps = tuple(tuple(pos[mp[atoms[i]]] for i in range(len(atoms)))
                 for mp in a.maps)
    return GraphAction(a.group, g, maps)


def check_chain_discontinuity(a: PosetAction, k: int,
                              guards: Guards = DEFAULT_GUARDS) -> bool:
    """Free action on P: is the action on (Chain^k P)^1 2^k-discontinuous?"""
    if not is_free(a):
        raise ValueError("chain discontinuity requires a free action")
    if k < 0:
        raise ValueError("negative chain power")
    for _ in range(k):
        a = face_poset_action(chain_poset(a.poset, guards), a.group, a.maps)
    g, atoms = atom_graph(a.poset)
    return is_d_discontinuous(atom_graph_action(g, atoms, a), 2 ** k)


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class PosetQuotient:
    poset: Poset
    blocks: tuple[tuple[int, ...], ...]
    to_block: tuple[int, ...]
    guaranteed: bool  # free + strongly regular: quotient is homotopy-faithful


def quotient_graph_by_action(a: GraphAction) -> Graph:
    return quotient(a.graph, orbit_of(a))


def quotient_poset_by_action(a: PosetAction) -> PosetQuotient:
    """Relational quotient: [x] <= [y] iff some gamma.x <= y.

    Every action is by automorphisms of a finite group, so this relation is
    already a partial order, with no closure and no merge: gamma.x <= y and
    delta.y <= z give delta.gamma.x <= delta.y <= z; gamma.x <= y and
    delta.y <= x give delta.gamma.x <= x, and an automorphism of finite
    order that moves x below itself fixes it, so y = gamma.x.  Each orbit's
    row is the set of orbits meeting one representative's up-set.  Only a
    free, strongly regular action sets `guaranteed` (the quotient is then
    homotopy-faithful).
    """
    p = a.poset
    to_block = orbit_of(a)
    orbs = _blocks(to_block)
    above = tuple(permute_mask(p.above[b[0]], to_block) for b in orbs)
    quot = Poset(len(orbs), above, orbs)
    return PosetQuotient(quot, orbs, to_block,
                         is_free(a) and is_strongly_regular(a))


def fixed_subposet(a: PosetAction) -> tuple[Poset, tuple[int, ...]]:
    """Subposet of elements fixed by the whole group."""
    fixed = [x for x in range(a.poset.m)
             if all(mp[x] == x for mp in a.maps)]
    return induced_subposet(a.poset, fixed)


# ---------------------------------------------------------------------------
# twisted product


@dataclass(frozen=True)
class TwistedProduct:
    graph: Graph
    group: FiniteGroup
    pairs: tuple[tuple[int, int], ...]  # lex-min representative per vertex
    orbit_of: tuple[int, ...]  # product-pair index (t*nh + h) -> vertex
    right_action: Optional[GraphAction] = None  # stored as g^-1 . x


def twisted_product(t_act: GraphAction, h_act: GraphAction,
                    h_right: Optional[GraphAction] = None) -> TwistedProduct:
    """Quotient of T x H by the diagonal action g.(t,h) = (t.g^-1, g.h).

    `t_act` is the right action t.g on T, stored as the left action
    g^-1 . t, and `h_act` the left action on H.  The quotient is built on
    orbit representatives, without building T x H: pair (a,b) is point
    a*|H| + b, `_orbit_labels` numbers its orbit from the diagonal images
    of the pair, and a representative's row holds the orbits of its
    neighbours in T x H.  Both actions are by automorphisms, so the
    diagonal one is too, and one member decides the row of its whole
    orbit.

    A right action on H commuting with `h_act`, stored the same way,
    descends to the quotient and is returned as the carried right action.
    Commutation makes it well defined: it sends g.(t,h) to g.(t, h.r).
    """
    if t_act.group != h_act.group:
        raise ValueError("actions use different groups")
    g = t_act.group
    t, h = t_act.graph, h_act.graph
    nh = h.n
    maps = tuple(zip(t_act.maps, h_act.maps))
    orbit_of, lowest = _orbit_labels(t.n * nh, lambda x: [
        tm[x // nh] * nh + hm[x % nh] for tm, hm in maps])
    pairs = tuple(divmod(x, nh) for x in lowest)
    rows = []
    for a, b in pairs:
        hb = list(bits(h.adj[b]))
        row = 0
        for a2 in bits(t.adj[a]):
            for b2 in hb:
                row |= 1 << orbit_of[a2 * nh + b2]
        rows.append(row)
    graph = Graph(len(pairs), tuple(rows),
                  tuple(f"[{tt},{hh}]" for tt, hh in pairs))

    carried = None
    if h_right is not None:
        if h_right.group != g:
            raise ValueError("carried action uses a different group")
        if h_right.graph.adj != h.adj:
            raise ValueError("carried action lives on a different graph")
        for i in range(g.order):
            for j in range(g.order):
                if compose_perm(h_act.maps[i], h_right.maps[j]) != \
                        compose_perm(h_right.maps[j], h_act.maps[i]):
                    raise ValueError("carried right action does not commute "
                                     "with the left action")
        carried = GraphAction(g, graph, tuple(
            tuple(orbit_of[a * nh + rm[b]] for a, b in pairs)
            for rm in h_right.maps))
    return TwistedProduct(graph, g, pairs, orbit_of, carried)


# ---------------------------------------------------------------------------
# equivariant monotone maps


def equivariant_poset_maps(pa: PosetAction, qa: PosetAction,
                           guards: Guards = DEFAULT_GUARDS) -> Poset:
    """Subposet of Poset(P,Q) of equivariant maps, f(g.x) = g.f(x)."""
    if pa.group != qa.group:
        raise ValueError("actions use different groups")
    p, q = pa.poset, qa.poset
    return map_poset(enumerate_poset_maps(p, q, guards, pa.maps, qa.maps),
                     q, guards)
