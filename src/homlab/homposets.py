"""Posets Hom(G,H) of multihomomorphisms and their structural maps.

A multihomomorphism G -> H assigns to every vertex of G a nonempty set of
vertices of H such that every edge of G maps to complete bipartite
adjacency in H.  Elements are stored as tuples of target bitmasks indexed
by source vertex, listed in lexicographic order.  Atoms (all sets
singletons) are exactly the graph homomorphisms.

The second half implements the comparison maps between such posets:
currying against an exponential graph, currying against atom graphs of
posets, comparing a quotient of Hom(T,G) with Hom(T,G/the action), and the
loop-addition maps for fine target graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from operator import and_, eq, invert, itemgetter, lshift, ne, or_
from typing import Iterable, Iterator, Optional, Sequence

from .actions import (GraphAction, PosetAction, is_free,
                      is_strongly_regular, orbit_of,
                      quotient_poset_by_action, PosetQuotient)
from .graphs import (Graph, _hom_search, bits, exponential,
                     exponential_vertex_maps, is_fine, neighbourhood_mask,
                     nu_mask, one_graph, permute_mask, product, quotient,
                     reflexive_closure, tree_cycle_lengths)
from .limits import DEFAULT_GUARDS, GuardExceeded, Guards
from .posets import (Poset, PosetMap, _poset_map_blocks, _restriction,
                     _Table, atom_graph, chain_poset, iter_chains,
                     pointwise_poset)


def rank_of(element: Sequence[int]) -> int:
    return sum(map(int.bit_count, element)) - len(element)


def multihom_violation(g: Graph, h: Graph,
                       element: Sequence[int]) -> Optional[str]:
    """First broken multihomomorphism invariant, or None."""
    if len(element) != g.n:
        return "assignment length differs from the vertex count"
    for v, mask in enumerate(element):
        if mask == 0:
            return f"empty set at vertex {v}"
        if mask >> h.n:
            return f"vertex {v} assigned outside the target"
    for u, v in g.directed_edges():
        for x in bits(element[u]):
            if element[v] & ~h.adj[x]:
                return f"edge ({u},{v}) not sent to complete adjacency"
    return None


@dataclass(frozen=True)
class HomPoset:
    source: Graph
    target: Graph
    elements: tuple[tuple[int, ...], ...]
    guards: Guards = field(default=DEFAULT_GUARDS, compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.elements)
                     if all(mask & (mask - 1) == 0 for mask in e))

    @cached_property
    def _packed(self) -> tuple[int, ...]:
        """Each element as one integer, vertex v's set shifted by v times
        the target's vertex count, so pointwise containment is one test.
        Built a source vertex at a time: vertex v's column of sets, shifted,
        is ORed into every element's integer at once."""
        w = self.target.n
        packed = (0,) * self.m
        for v, column in enumerate(zip(*self.elements)):
            packed = tuple(map(or_, packed,
                               map(lshift, column, repeat(v * w))))
        return packed

    def leq(self, i: int, j: int) -> bool:
        packed = self._packed
        return not packed[i] & ~packed[j]

    @cached_property
    def poset(self) -> Poset:
        """The materialized poset (pointwise containment), guarded by
        `poset_relation`.  `leq` reads the element masks instead; this is
        for general poset machinery (chains, homology of the order complex,
        poset actions, `quotient_compare`'s order rows)."""
        return pointwise_poset(self.elements, guards=self.guards)


def _connected_order(g: Graph) -> list[int]:
    """Source vertices by maximum cardinality search: next is the unplaced
    vertex with the most placed neighbours, then the higher degree, then
    the lower index.  A heap of (-placed neighbours, -degree, vertex) with
    stale entries skipped keeps it O(E log V)."""
    degree = [g.degree(v) for v in range(g.n)]
    count = [0] * g.n
    heap = [(0, -d, v) for v, d in enumerate(degree)]
    heapify(heap)
    placed = [False] * g.n
    order = []
    while heap:
        c, _, v = heappop(heap)
        if placed[v] or -c != count[v]:
            continue
        order.append(v)
        placed[v] = True
        for w in bits(g.adj[v]):
            if not placed[w]:
                count[w] += 1
                heappush(heap, (-count[w], -degree[w], w))
    return order


def hom_poset(g: Graph, h: Graph, guards: Guards = DEFAULT_GUARDS) -> HomPoset:
    """Enumerate Hom(g,h) by per-vertex feasible sets.

    Vertices are processed in maximum cardinality search order
    (`_connected_order`): each next vertex has the most neighbours already
    fixed, so a connected g is walked connected and every vertex after the
    first meets a constraint when it is reached.  The feasible mask of a
    vertex is the intersection of common-neighborhoods of the sets already
    fixed on its neighbors.  Within that mask a vertex's set s grows one
    target vertex at a time, keeping nu(s) = AND of h.adj over s.  A
    partial set is pruned as soon as nu(s) misses the feasible mask of some
    later neighbor: nu only shrinks as s grows, so every extension fails
    too.  A looped source vertex needs a looped clique, so it takes only
    looped target vertices adjacent to all of s; looped cliques are closed
    under subsets, so that prune is sound as well.  So one vertex's sets no
    longer cost 2^|V(h)| steps however few survive; what stays exponential
    is the backtracking across source vertices.  Every element lies above an
    atom, so the poset is empty exactly when there is no homomorphism: the
    DSATUR search of `graphs._hom_search` decides that first (Hom(g,K3) is
    empty exactly when g is not 3-colourable), and only a nonempty poset is
    enumerated.

    A set grows downward: its new target vertex lies below its least one.
    It tries its candidates in ascending order, and each set that passes is
    emitted, or descended from to the next source vertex, before its own
    children are tried.  So a vertex's sets come out in increasing mask
    order, and when `_connected_order(g)` is the identity the elements come
    out in lexicographic order.  A new set s | x is offered only the
    candidates below x whose own sets s | y passed the prune (and, for a
    looped vertex, lie in nu(s | x)): s | x | y contains s | y, so it would
    fail wherever s | y failed, and a failed candidate is never offered
    again.  Any other order (K2 x R6's is 0, 6, 1, 7, ...) emits out of
    lexicographic order, and only then are the elements sorted at the end.

    Every vertex is walked the same way, the last one in the order
    included; each set the last vertex reaches is one element.  It has no
    later neighbour, so nothing prunes its sets: they are every nonempty
    subset of its feasible mask, or, if it is looped, every nonempty looped
    clique inside it, and depend on that mask alone.  `batches` is a memo
    from that mask to its sets.  A mask seen for the first time is walked
    once and its sets recorded; when it is unlooped and all its subsets fit
    under both guards, they are listed by subset subtraction instead.  A
    mask seen again emits its recorded batch, an element per set, in place
    of the walk.

    Below a middle depth d (0 < d < last) the walk depends only on the
    feasible masks of the frontier, the unplaced vertices with a placed
    neighbour.  The first walk below a frontier state records its slice of
    the output and its search nodes; a later visit replays them, that slice
    with the sets of order[:d] replaced by the current ones.  Hom(K2 x R6,
    K3) descends into a middle depth 7,320 times, through 621 states.

    Every value that search tries and every candidate target vertex the
    enumeration tries is one search node, counted when a set starts to try
    its candidates (after the set itself is emitted or descended from);
    past `guards.search_nodes` that count raises
    GuardExceeded("search_nodes").  The last vertex's walk raises
    "hom_elements" before it emits element `guards.hom_elements` + 1.  An
    emitted batch counts one node per set, as its walk would, and a replay
    the nodes its walk cost.  A batch or a replay that would pass either
    guard is walked instead, so each guard trips at its one site, with the
    same attempted count, as when nothing is memoized.
    """
    node_limit = guards.search_nodes
    atom, nodes = _hom_search(g, h, node_limit, 0)
    if atom is None:
        return HomPoset(g, h, (), guards)
    n = g.n
    if n == 0:
        return HomPoset(g, h, ((),), guards)  # the empty map, whatever h is
    adj = h.adj
    full = (1 << h.n) - 1
    loops = h.looped_mask
    order = _connected_order(g)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    later = [tuple(w for w in bits(g.adj[v]) if pos[w] > i)
             for i, v in enumerate(order)]
    looped = [bool(g.adj[v] >> v & 1) for v in order]
    assign = [0] * n
    allowed = [full] * n
    out: list[tuple[int, ...]] = []
    element_limit = guards.hom_elements
    last = n - 1
    v_last = order[last]
    last_filter = loops if looped[last] else full
    batches: dict[int, list[int]] = {}  # last vertex's mask -> its sets
    walked: list[int] = []  # the sets the last vertex's walk has reached
    # Middle depth d's frontier: the unplaced vertices with a placed
    # neighbour (every other unplaced vertex has the full mask), and
    # order[d] itself so that it is never empty.  Each depth gets (frontier
    # getter, memo, element getter) on first use.  The memo maps the tuple
    # of frontier masks to start | end << width | nodes << 2 width: the
    # slice out[start:end] the first walk below that state appended, in the
    # walk's order, and the search nodes it cost.  `records` holds (memo,
    # key, start, nodes) for each middle depth being walked, stored when
    # its frame pops.  The element getter reads order[:d]'s sets from
    # tuple(assign) and the rest from a recorded element placed after it.
    frontier, placed, reach = [], 0, 0
    for v in order:
        frontier.append(reach & ~placed | 1 << v)
        placed |= 1 << v
        reach |= g.adj[v]
    memos: list = [None] * n
    records: list[tuple] = []
    width = element_limit.bit_length()
    field_mask = (1 << width) - 1

    # The state: the i-th source vertex v in order, whether it is looped,
    # its later neighbours with their feasible masks on entry (restored on
    # exit), the set s being walked with its nu, the candidates s has still
    # to try, the mask of those it tried that passed, and a stack of such
    # (set, nu, candidates, passed) to resume once the current set's
    # subtree is done.  One frame per source vertex above v holds that
    # vertex's state, so the descent needs no Python recursion however long
    # g is.
    frames: list[tuple] = []
    i = s = passed = 0
    v, clique, nu, stack = order[0], looped[0], full, []
    later_masks = tuple([(w, full) for w in later[0]])
    cand = loops if clique else full
    while True:
        # the current set is new: it tries its candidates from here on
        nodes += cand.bit_count()
        if nodes > node_limit:
            raise GuardExceeded("search_nodes", node_limit, nodes)
        while True:
            while cand:
                low = cand & -cand
                cand ^= low
                nu_x = nu & adj[low.bit_length() - 1]
                for w, mask in later_masks:
                    if not mask & nu_x:
                        break
                else:
                    s_x = assign[v] = s | low
                    if cand:
                        stack.append((s, nu, cand, passed | low))
                    cand = passed & nu_x if clique else passed
                    s, nu, passed = s_x, nu_x, 0
                    for w, mask in later_masks:
                        allowed[w] = mask & nu_x
                    if i >= last - 1:
                        if i == last:
                            if len(out) == element_limit:
                                raise GuardExceeded(
                                    "hom_elements", element_limit,
                                    element_limit + 1)
                            out.append(tuple(assign))
                            walked.append(s_x)
                            break
                        mask = allowed[v_last] & last_filter
                        sets = batches.get(mask)
                        if sets is None and not looped[last] and (
                                1 << mask.bit_count()) - 1 <= min(
                                node_limit - nodes, element_limit - len(out)):
                            sets = batches[mask] = []
                            x = -mask & mask
                            while x:
                                sets.append(x)
                                x = (x - mask) & mask
                        if (sets is not None
                                and nodes + len(sets) <= node_limit
                                and len(out) + len(sets) <= element_limit):
                            nodes += len(sets)
                            for x in sets:
                                assign[v_last] = x
                                out.append(tuple(assign))
                            break
                        # a new mask, or a batch past a guard: walk it,
                        # recording its sets; a batch past a guard trips
                        # during the walk
                        walked = batches[mask] = []
                    else:
                        at = memos[i + 1]
                        if at is None:
                            at = memos[i + 1] = (
                                itemgetter(*bits(frontier[i + 1])), {},
                                itemgetter(*[u if pos[u] <= i else n + u
                                             for u in range(n)]))
                        key_of, memo, rebuild = at
                        key = key_of(allowed)
                        rec = memo.get(key)
                        if rec is not None:
                            start = rec & field_mask
                            end = rec >> width & field_mask
                            cost = rec >> 2 * width
                            if (nodes + cost <= node_limit
                                    and len(out) + end - start <= element_limit):
                                # replay: the walk below this state, with
                                # order[:i+1]'s sets replaced by assign's
                                nodes += cost
                                out.extend(map(rebuild, map(
                                    tuple(assign).__add__,
                                    map(out.__getitem__, range(start, end)))))
                                break
                        records.append((memo, key, len(out), nodes))
                    # descend: s_x's own subtree waits in the frame
                    frames.append((v, clique, later_masks, stack, s, nu, cand))
                    i += 1
                    v, clique = order[i], looped[i]
                    later_masks = tuple([(w, allowed[w]) for w in later[i]])
                    cand = allowed[v] & loops if clique else allowed[v]
                    s, nu, stack = 0, full, []
                    break
            else:
                if stack:
                    s, nu, cand, passed = stack.pop()
                    continue
                for w, mask in later_masks:
                    allowed[w] = mask
                if not frames:
                    if any(map(ne, order, range(n))):
                        out.sort()
                    return HomPoset(g, h, tuple(out), guards)
                if i < last:
                    memo, key, start, before = records.pop()
                    memo[key] = (start | len(out) << width
                                 | nodes - before << 2 * width)
                i -= 1
                v, clique, later_masks, stack, s, nu, cand = frames.pop()
                passed = 0
            break


def induced_hom_action(hp: HomPoset,
                       source_action: Optional[GraphAction] = None,
                       target_action: Optional[GraphAction] = None
                       ) -> PosetAction:
    """The induced left action (gamma.a)(v) = t_gamma(a(s_gamma(v))) on
    the materialized poset of Hom(G,H).

    Both actions are stored as left actions, so the source contributes
    s_gamma = source.maps[gamma^-1] and the target t_gamma =
    target.maps[gamma]: this is the usual gamma . a(gamma^-1 . _).  The
    actions are valid by construction, so every image is an element.
    """
    given = [a for a in (source_action, target_action) if a is not None]
    if not given:
        raise ValueError("need an action on the source or the target")
    group = given[0].group
    if any(a.group != group for a in given):
        raise ValueError("actions use different groups")
    if source_action is not None and source_action.graph.adj != hp.source.adj:
        raise ValueError("source action lives on a different graph")
    if target_action is not None and target_action.graph.adj != hp.target.adj:
        raise ValueError("target action lives on a different graph")
    ident_s = tuple(range(hp.source.n))
    ident_t = tuple(range(hp.target.n))
    maps = []
    for i in range(group.order):
        smap = ident_s if source_action is None \
            else source_action.maps[group.inv(i)]
        tmap = ident_t if target_action is None else target_action.maps[i]
        row = []
        for e in hp.elements:
            image = tuple(permute_mask(e[smap[v]], tmap)
                          for v in range(hp.source.n))
            row.append(hp.index[image])
        maps.append(tuple(row))
    return PosetAction(group, hp.poset, tuple(maps))


# ---------------------------------------------------------------------------
# currying against the exponential graph


def _vertex_fibres(t: Graph, g: Graph) -> tuple[tuple[int, ...], ...]:
    """fibres[s][x]: the mask of exponential vertices f with f(s) = x."""
    fibres = [[0] * g.n for _ in range(t.n)]
    for fi, f in enumerate(exponential_vertex_maps(t, g)):
        for s, x in enumerate(f):
            fibres[s][x] |= 1 << fi
    return tuple(map(tuple, fibres))


def _curry_column(column: Sequence[int], fibres: Sequence[Sequence[int]],
                  full: int) -> int:
    """beta(y) = {f : f(s) in alpha(s,y) for every s} for the column
    (alpha(s,y))_s: the AND over s of the OR of fibres[s][x] over x in
    alpha(s,y), starting from `full`, every exponential vertex."""
    mask = full
    for a, fib in zip(column, fibres):
        union = 0
        for x in bits(a):
            union |= fib[x]
        mask &= union
    return mask


def _uncurry_mask(beta: int, fibres: Sequence[Sequence[int]],
                  n: int) -> tuple[int, ...]:
    """The column alpha(s,y) = {f(s) : f in beta(y)} for beta(y) = `beta`:
    x lies in alpha(s,y) when beta meets fibres[s][x]; `n` is |V(G)|."""
    return tuple(sum(1 << x for x in range(n) if beta & fib[x])
                 for fib in fibres)


def _columns(rows: Iterable[Sequence], width: int) -> list[tuple]:
    """The `width` columns of a table given by its rows.  A table with no
    rows still has `width` columns, each (), which `zip(*rows)` would
    drop."""
    return list(zip(*rows)) or [()] * width


def _rows(columns: Sequence[Iterable], m: int) -> Iterator[tuple]:
    """The m rows of a table given by its columns.  A table with no columns
    still has m rows, each (), which `zip(*columns)` would drop."""
    return zip(*columns) if columns else repeat((), m)


def curry_elements(t: Graph, h: Graph, g: Graph,
                   elements: Sequence[Sequence[int]]
                   ) -> Iterator[tuple[int, ...]]:
    """Hom(T x H, G) -> Hom(H, G^T), alpha -> beta with beta(y) = {f : f(s)
    in alpha(s,y) for every s}, for each alpha in `elements`.

    alpha is stored row by row, alpha(s,y) at s |V(H)| + y.  beta(y) reads
    alpha only through the column (alpha(s,y))_s, so a table local to the
    call maps each column to beta(y), filled by `_curry_column` the first
    time the column is seen.  The work goes a vertex y of H at a time, over
    every element at once: y's columns are zipped from the positions
    s |V(H)| + y, each read lazily off the elements, and mapped through the
    table, and the elements' betas are those |V(H)| sequences zipped back.
    """
    nh = h.n
    beta_of = _Table(partial(_curry_column, fibres=_vertex_fibres(t, g),
                             full=(1 << g.n ** t.n) - 1))
    m = len(elements)
    return _rows([map(beta_of.__getitem__,
                      _rows([map(itemgetter(s * nh + y), elements)
                             for s in range(t.n)], m))
                  for y in range(nh)], m)


def uncurry_elements(t: Graph, g: Graph, elements: Sequence[Sequence[int]]
                     ) -> Iterator[tuple[int, ...]]:
    """Hom(H, G^T) -> Hom(T x H, G), beta -> alpha with alpha(s,y) =
    {f(s) : f in beta(y)}, for each beta in `elements`.

    The column (alpha(s,y))_s depends only on beta(y), so a table local to
    the call maps each beta(y) to its column, filled by `_uncurry_mask` the
    first time it is seen.  The work goes a vertex y of H at a time, over
    every element at once: y's values beta(y), read lazily off the
    elements, are mapped through the table, position (s,y) reads entry s
    of those columns, and the elements' alphas are the positions,
    s |V(H)| + y in order, zipped back.
    """
    column_of = _Table(partial(_uncurry_mask, fibres=_vertex_fibres(t, g),
                               n=g.n))
    width = len(elements[0]) if elements else 0
    by_vertex = [list(map(column_of.__getitem__,
                          map(itemgetter(y), elements)))
                 for y in range(width)]
    return _rows([map(itemgetter(s), columns) for s in range(t.n)
                  for columns in by_vertex], len(elements))


@dataclass(frozen=True)
class AdjunctionReport:
    hom_product: HomPoset      # Hom(T x H, G)
    hom_curried: HomPoset      # Hom(H, G^T)
    phi: tuple[int, ...]       # curry, as element indices
    psi: tuple[int, ...]       # uncurry, as element indices
    roundtrip_identity: bool   # psi o phi = id
    increasing: bool           # phi o psi >= id
    closure_ok: bool           # phi o psi is an up-closure map


def adjunction_report(t: Graph, h: Graph, g: Graph,
                      guards: Guards = DEFAULT_GUARDS) -> AdjunctionReport:
    """Curry every element of Hom(T x H, G) and uncurry every element of
    Hom(H, G^T), then check the round trips.

    Both directions go through column tables (`curry_elements`,
    `uncurry_elements`), built afresh by each call and read a vertex of H
    at a time over all elements.  The round trip compares psi o phi with
    the identity as one list.  As both tables are column maps, phi o psi
    sends beta to y -> F(beta(y)), F the uncurry table then the curry
    table.  F is read off the rows of phi o psi, one entry per distinct
    set S in Hom(H, G^T), and the closure is checked on F: increasing iff
    S <= F(S), monotone iff F(S - x) <= F(S) for x in S, |S| >= 2 (those
    S - x give the lower covers, which generate the order, as Hom is
    closed under nonempty pointwise subsets; a missing one raises
    ValueError), and idempotent as soon as psi o phi = id.  No Hom order
    is materialized.
    """
    expo = exponential(t, g, guards)
    hom_th = hom_poset(product(t, h), g, guards)
    hom_cur = hom_poset(h, expo, guards)
    phi = tuple(map(hom_cur.index.get,
                    curry_elements(t, h, g, hom_th.elements)))
    if None in phi:
        raise ValueError("curried element is not a multihomomorphism")
    psi = tuple(map(hom_th.index.get,
                    uncurry_elements(t, g, hom_cur.elements)))
    if None in psi:
        raise ValueError("uncurried element is not a multihomomorphism")
    roundtrip = list(map(psi.__getitem__, phi)) == list(range(hom_th.m))
    rows = hom_cur.elements
    up = dict(zip(chain.from_iterable(rows), chain.from_iterable(
        map(rows.__getitem__, map(phi.__getitem__, psi)))))
    increasing = not any(map(and_, up, map(invert, up.values())))
    closure_ok = roundtrip and increasing
    for s, u in up.items():
        if not closure_ok:
            break
        lower = [up.get(s ^ 1 << x) for x in bits(s)] if s & (s - 1) else []
        if None in lower:
            raise ValueError("a pointwise subset of an element is missing")
        closure_ok = not any(map(and_, lower, repeat(~u)))
    return AdjunctionReport(hom_th, hom_cur, phi, psi,
                            roundtrip, increasing, closure_ok)


# ---------------------------------------------------------------------------
# currying against atom graphs of posets


def _curried_columns(p: Poset, atoms: Sequence[int],
                     columns: Sequence[Sequence[int]],
                     single: dict[int, int]) -> list[tuple[int, ...]]:
    """The curry Hom(P^1, G) -> Poset(P, Hom(1,G)), e -> (x -> union of e
    over the atoms <= x), one column per element x of P: column x holds
    phi(e)(x) for every element e, as a Hom(1,G) index.

    `columns[k]` holds the value of atoms[k] in every element, as a mask,
    and `single` maps the mask of each element of Hom(1,G) to its index;
    column x is the OR of the columns of the atoms <= x, looked up there.
    """
    out = []
    for x in range(p.m):
        unions = reduce(partial(map, or_),
                        [col for a, col in zip(atoms, columns)
                         if p.below[x] >> a & 1])
        values = tuple(map(single.get, unions))
        if None in values:
            raise ValueError("curried value is not a looped clique")
        out.append(values)
    return out


@dataclass(frozen=True)
class PosetAdjunctionReport:
    hom_single: HomPoset       # Hom(1, G)
    atoms: tuple[int, ...]
    roundtrip_identity: bool   # psi o phi = id on Hom(P^1,G)
    decreasing: bool           # phi o psi <= id on Poset(P, Hom(1,G))
    maps_checked: int


def _first_outside(masks: Sequence[int], floors: Sequence[int],
                   above: Sequence[int]) -> Optional[int]:
    """The 0-based rank, in the product of the candidate sets `masks` (the
    last factor fastest), of the first tuple with a value not above its
    factor's floor (v is above u iff bit v of above[u] is set); None if
    every candidate is.

    Factor k's first value not above its floor has rank i_k among its
    candidates, and the first tuple holding it has rank i_k times the
    product of the later factors' sizes; the answer is the least of those.
    """
    first = None
    later = 1  # the product of the later factors' sizes
    for mask, floor in zip(reversed(masks), reversed(floors)):
        out = mask & ~above[floor]
        if out:
            rank = (mask & ((out & -out) - 1)).bit_count() * later
            if first is None or rank < first:
                first = rank
        later *= mask.bit_count()
    return first


def poset_adjunction_report(p: Poset, g: Graph,
                            guards: Guards = DEFAULT_GUARDS
                            ) -> PosetAdjunctionReport:
    """Round trips of the atom-graph adjunction on every element of
    Hom(P^1, G) and on every monotone map P -> Hom(1, G).

    Values are Hom(1,G) indices throughout: an element of Hom(P^1,G) is
    keyed by the index of each atom's value (P^1 is reflexive, so each is a
    looped clique).  The elements are read a column at a time, never an
    element at a time: they are transposed once into one column per atom,
    and `_curried_columns` builds one column of phi per element x of P
    from the columns of the atoms below x.  psi(phi(e)) = e compares, per
    atom, phi's column with the atom's column of keys.  Then each element
    gets one check row, zipped from phi's columns: the up-sets in Hom(1,G)
    of its values on the block prefix (built once per distinct value and
    shared), then its values on the maximal elements r below.  A dict
    from each element's key to its check row, zipped from the key columns
    once phi's columns are dropped, is all the loop over the maps reads.
    For the order test, the curried value phi(e)(x) depends on a map f
    only through its restriction e to the atoms, and phi(e) <= f means
    f(x) lies in the up-set of phi(e)(x) in Hom(1,G) for every x.

    The maps are read in the blocks of `posets._poset_map_blocks`: a
    prefix, which holds every atom, and a product of candidate sets, one
    per maximal non-minimal element r.  Per block, the restriction is
    looked up once (one outside Hom(P^1,G) raises ValueError), the prefix
    values are tested once, by membership in the element's up-sets, and
    the factors are tested together as masks: their candidates all pass
    iff none meets the complement of the up-set mask of its phi(e)(r), and
    only a block where one does is searched for its first failing map
    (`_first_outside`).  A block counts the product of its factors' sizes
    as maps.  Every map is checked, and the result and `maps_checked` are
    those of testing the maps one by one in the order of
    `enumerate_poset_maps`, stopping at the first failure: `maps_checked`
    is then that map's 1-based position, and the guards trip where that
    loop's would.
    """
    ag, atoms = atom_graph(p)
    hom_ag = hom_poset(ag, g, guards)
    hom_single = hom_poset(one_graph(), g, guards)
    single = {e[0]: v for v, e in enumerate(hom_single.elements)}
    m = hom_ag.m
    columns = _columns(hom_ag.elements, len(atoms))
    del hom_ag  # its element rows: the columns hold the same values
    if not single.keys() >= set(chain.from_iterable(columns)):
        raise ValueError("an atom's value is not a looped clique")
    curried = _curried_columns(p, atoms, columns, single)
    roundtrip = all(curried[a] == tuple(map(single.__getitem__, col))
                    for a, col in zip(atoms, columns))
    tail, blocks = _poset_map_blocks(p, hom_single.poset, guards, (), ())
    ends = [r for r, _ in tail]
    starts = [x for x in range(p.m) if x not in ends]
    above = hom_single.poset.above
    up = {u: frozenset(bits(above[u]))
          for u in set(chain.from_iterable(curried[x] for x in starts))}
    checks = list(_rows([map(up.__getitem__, curried[x]) for x in starts]
                        + [curried[r] for r in ends], m))
    del curried  # so phi's columns and the key rows are never all held
    keys = _rows([map(single.__getitem__, col) for col in columns], m)
    row = dict(zip(keys, checks))
    del columns, checks
    restrict, head = _restriction(atoms), _restriction(starts)
    split = len(starts)
    notabove = [~mask for mask in above]
    contains = frozenset.__contains__
    decreasing = True
    checked = 0
    for image, masks, within in blocks:
        check = row.get(restrict(image))
        if check is None:
            raise ValueError("restriction to atoms escaped Hom(P^1,G)")
        floors = check[split:]
        # map stops at the shorter: the up-sets, which come first
        if not all(map(contains, check, head(image))):
            first = 0
        elif any(map(and_, masks, map(notabove.__getitem__, floors))):
            first = _first_outside(masks, floors, above)
        else:
            first = None
        if first is not None and first < within:
            decreasing = False
            checked += first + 1
            break
        checked += within
    return PosetAdjunctionReport(hom_single, tuple(atoms),
                                 roundtrip, decreasing, checked)


# ---------------------------------------------------------------------------
# quotient comparison


@dataclass(frozen=True)
class QuotientCompare:
    hypothesis_ok: bool
    cycle_lengths: tuple[int, ...]      # checked walk lengths
    violation: Optional[tuple[int, int, int]]  # (vertex, element, length)
    free: bool
    strongly_regular: bool
    iso: bool
    image: tuple[int, ...]               # Hom(T,G)/action -> Hom(T, G/action)
    rank_preserved: bool
    warning: Optional[str]
    hom_source: HomPoset
    hom_quotient_target: HomPoset
    quotient: PosetQuotient


def quotient_compare(t: Graph, g: Graph, act: GraphAction,
                     guards: Guards = DEFAULT_GUARDS) -> QuotientCompare:
    """Compare Hom(T,G)/action with Hom(T,G/action).

    Each orbit goes to the projection of its first element.  A bijective
    image is an isomorphism exactly when it carries each orbit's up-set in
    the quotient onto its image's up-set in Hom(T,G/action), whose order,
    as large as the quotient's, is built for this.

    The walk hypothesis is checked first: for every length l among the
    spanning-forest cycle lengths of T together with 4, no vertex v of G may
    reach gamma.v by a walk (not necessarily simple) of exactly l steps.
    The comparison itself is computed either way; a violated hypothesis
    only produces a warning.
    """
    if act.graph.adj != g.adj:
        raise ValueError("action lives on a different graph")
    lengths = tuple(sorted(set(tree_cycle_lengths(t)) | {4}))
    violation = None
    for ln in lengths:
        for v in range(g.n):
            frontier = 1 << v
            for _ in range(ln):
                frontier = neighbourhood_mask(g, frontier)
            for i in range(1, act.group.order):
                if frontier >> act.maps[i][v] & 1:
                    violation = (v, i, ln)
                    break
            if violation:
                break
        if violation:
            break
    hypothesis_ok = violation is None

    hom_s = hom_poset(t, g, guards)
    pact = induced_hom_action(hom_s, target_action=act)
    free = is_free(pact)
    regular = is_strongly_regular(pact)
    quot = quotient_poset_by_action(pact)
    block_of = orbit_of(act)
    hom_q = hom_poset(t, quotient(act.graph, block_of), guards)
    image = []
    for block in quot.blocks:
        e = hom_s.elements[block[0]]
        proj = tuple(permute_mask(mask, block_of) for mask in e)
        j = hom_q.index.get(proj)
        if j is None:
            raise ValueError("projected element is not a multihomomorphism")
        image.append(j)
    bij = len(set(image)) == len(image) and len(image) == hom_q.m
    iso = bij and all(map(eq, map(permute_mask, quot.poset.above,
                                  repeat(image)),
                          map(hom_q.poset.above.__getitem__, image)))
    rank_preserved = all(
        rank_of(hom_s.elements[block[0]]) ==
        rank_of(hom_q.elements[image[bi]])
        for bi, block in enumerate(quot.blocks))
    warning = None
    if not hypothesis_ok:
        v, i, ln = violation
        warning = (f"walk hypothesis violated: vertex {v} reaches its "
                   f"image under element {i} in {ln} steps; "
                   "comparison computed anyway")
    return QuotientCompare(hypothesis_ok, lengths, violation, free, regular,
                           iso, tuple(image), rank_preserved, warning,
                           hom_s, hom_q, quot)


# ---------------------------------------------------------------------------
# loop addition


@dataclass(frozen=True)
class LoopAddition:
    hom_plain: HomPoset        # Hom(T, G)
    hom_reflexive: HomPoset    # Hom(T°, G)
    i: PosetMap                # inclusion Hom(T°,G) -> Hom(T,G)
    j: PosetMap                # Chain(Hom(T,G)) -> Hom(T°,G)
    h: PosetMap                # Chain(Hom(T,G)) -> Hom(T,G)
    j_dominates_reflexive_top: bool   # j(Chain(i)(c)) >= top(c)
    i_j_below_h: bool                 # i(j(c)) <= h(c)
    h_dominates_top: bool             # h(c) >= top(c)


def _loop_sets(g: Graph, element: Sequence[int]) -> tuple[int, ...]:
    """Per-vertex mask nu(M) & nu^2(M) for M = element(v)."""
    out = []
    for mask in element:
        nu1 = nu_mask(g, mask)
        out.append(nu1 & nu_mask(g, nu1))
    return tuple(out)


def loop_addition_maps(t: Graph, g: Graph,
                       guards: Guards = DEFAULT_GUARDS) -> LoopAddition:
    """The comparison maps between Hom(T,G) and Hom(T°,G) for fine G.

    T° is T with loops added everywhere.  j sends a chain a_0 < ... < a_k
    to u -> union over r of nu(a_r(u)) & nu^2(a_r(u)); h additionally joins
    the top element a_k.
    """
    if any(t.adj[v] == 0 for v in range(t.n)):
        raise ValueError("source graph has an isolated vertex")
    if not is_fine(g, guards):
        raise ValueError("target graph is not fine")
    t0 = reflexive_closure(t)
    hom_t = hom_poset(t, g, guards)
    hom_t0 = hom_poset(t0, g, guards)
    incl_img = tuple(hom_t.index[e] for e in hom_t0.elements)
    incl = PosetMap(hom_t0.poset, hom_t.poset, incl_img)
    cp = chain_poset(hom_t.poset, guards)
    loop_sets = [_loop_sets(g, e) for e in hom_t.elements]
    j_img, h_img = [], []
    for chain in cp.elements:
        acc = [0] * t.n
        for r in chain:
            for v, mask in enumerate(loop_sets[r]):
                acc[v] |= mask
        je = tuple(acc)
        jj = hom_t0.index.get(je)
        if jj is None:
            raise ValueError("loop-addition image is not reflexive-valid")
        j_img.append(jj)
        top = hom_t.elements[chain[-1]]
        he = tuple(a | b for a, b in zip(je, top))
        hh = hom_t.index.get(he)
        if hh is None:
            raise ValueError("auxiliary image is not a multihomomorphism")
        h_img.append(hh)
    j_map = PosetMap(cp, hom_t0.poset, tuple(j_img))
    h_map = PosetMap(cp, hom_t.poset, tuple(h_img))

    h_dom = all(hom_t.leq(cp.elements[c][-1], h_img[c])
                for c in range(cp.m))
    i_j_below = all(hom_t.leq(incl_img[j_img[c]], h_img[c])
                    for c in range(cp.m))
    j_dom = True
    for chain0 in iter_chains(hom_t0.poset, guards.chain_elements):
        # incl is an order embedding, so the mapped chain is a chain of cp
        mapped = cp.index[tuple(sorted(incl_img[x] for x in chain0))]
        if not hom_t0.leq(chain0[-1], j_img[mapped]):
            j_dom = False
            break
    return LoopAddition(hom_t, hom_t0, incl, j_map, h_map,
                        j_dom, i_j_below, h_dom)
