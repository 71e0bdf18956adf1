"""Finite graphs with loops: constructions, homomorphism search, statistics.

Vertices are dense indices 0..n-1; display labels travel separately.  Vertex
subsets and neighbourhoods are arbitrary-precision int bitmasks, so every
set-level operation (common neighbours, fineness sweeps, domain pruning) is a
few machine-word ops per 64 vertices.  A loop is stored as bit ``v`` of
``adj[v]`` and adds 1 to the degree.

One exact search, `_hom_search` (DSATUR over target-vertex domains), serves
every homomorphism question: `find_homomorphism`, `chromatic_number` (maps
into K_k, from a greedy clique's size upwards) and the emptiness test of
`homposets.hom_poset`.

Graph walks grow a vertex set a layer at a time with `neighbourhood_mask`,
here (odd girth, connectivity) and in `actions` and `homposets`; only
`tree_cycle_lengths` runs a queue, since it needs a spanning forest.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .limits import (DEFAULT_GUARDS, GuardExceeded, Guards,
                     check_graph_vertices)

__all__ = [
    "Graph",
    "GraphStats",
    "complete_graph",
    "cycle_graph",
    "looped_path",
    "one_graph",
    "reflexive_cycle",
    "reflexive_closure",
    "product",
    "exponential",
    "quotient",
    "check_homomorphism",
    "find_homomorphism",
    "chromatic_number",
    "odd_girth",
    "graph_stats",
    "neighbourhood_mask",
    "nu_mask",
    "is_fine",
    "is_isomorphic",
    "graph_to_json",
    "graph_from_json",
    "count_from_json",
    "INFINITE",
]

INFINITE = float("inf")


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """Image of the set ``mask`` under the vertex map ``perm``."""
    out = 0
    for x in bits(mask):
        out |= 1 << perm[x]
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected graph with loops on vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length != n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"neighbour out of range at vertex {v}")
            for w in bits(row):
                if not (self.adj[w] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency {v}-{w}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(v) for v in range(self.n)))
        elif len(self.labels) != self.n:
            raise ValueError("labels length != n")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]],
                   labels: Sequence[str] | None = None) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj), tuple(labels) if labels else ())

    # -- basic queries -----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        """Neighbour count; a loop contributes 1."""
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Unordered edge pairs (u <= v), loops as (v, v), each once."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> u << u):
                out.append((u, v))
        return out

    def directed_edges(self) -> list[tuple[int, int]]:
        """All ordered adjacent pairs, loops once as (v, v)."""
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u])]

    @cached_property
    def looped_mask(self) -> int:
        m = 0
        for v in range(self.n):
            if (self.adj[v] >> v) & 1:
                m |= 1 << v
        return m

    def is_loopless(self) -> bool:
        return self.looped_mask == 0


# ---------------------------------------------------------------------------
# standard constructions

def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs >= 1 vertex")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def looped_path(m: int) -> Graph:
    """Path 0..m with a loop at 0.  ``looped_path(0)`` is the one-vertex loop."""
    if m < 0:
        raise ValueError("negative path length")
    edges = [(0, 0)] + [(i, i + 1) for i in range(m)]
    return Graph.from_edges(m + 1, edges)


def one_graph() -> Graph:
    """Single looped vertex: the terminal graph."""
    return Graph(1, (1,))


def reflexive_closure(g: Graph) -> Graph:
    return Graph(g.n, tuple(g.adj[v] | (1 << v) for v in range(g.n)), g.labels)


def reflexive_cycle(n: int) -> Graph:
    """Cycle with all loops added."""
    return reflexive_closure(cycle_graph(n))


# ---------------------------------------------------------------------------
# product, exponential, quotient

def product(g: Graph, h: Graph) -> Graph:
    """Categorical product: (u,x) ~ (v,y) iff u~v and x~y.  Index = u*|h|+x."""
    adj = []
    for u in range(g.n):
        for x in range(h.n):
            row = 0
            for v in bits(g.adj[u]):
                row |= h.adj[x] << (v * h.n)
            adj.append(row)
    labels = tuple(f"({g.labels[u]},{h.labels[x]})"
                   for u in range(g.n) for x in range(h.n))
    return Graph(g.n * h.n, tuple(adj), labels)


def exponential(g: Graph, h: Graph, guards: Guards = DEFAULT_GUARDS) -> Graph:
    """Graph of all vertex maps V(g) -> V(h); f ~ f' iff u~v implies f(u)~f'(v).

    Vertices are tuples in lexicographic order of (f(0),...,f(n-1)).
    """
    count = h.n ** g.n
    if count > guards.exponential_vertices:
        raise GuardExceeded("exponential_vertices", guards.exponential_vertices, count)
    maps = list(itertools.product(range(h.n), repeat=g.n))
    dedges = g.directed_edges()
    adj = [0] * count
    for i, f in enumerate(maps):
        for j in range(i, count):
            fp = maps[j]
            if all((h.adj[f[u]] >> fp[v]) & 1 for u, v in dedges):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    labels = tuple("".join(h.labels[x] if len(h.labels[x]) == 1 else f"[{h.labels[x]}]"
                           for x in f) for f in maps)
    return Graph(count, tuple(adj), labels)


def exponential_vertex_maps(g: Graph, h: Graph) -> list[tuple[int, ...]]:
    """Vertex payloads of ``exponential(g, h)`` in construction order."""
    return list(itertools.product(range(h.n), repeat=g.n))


def _blocks(block_of: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The members of each label 0..k-1 of a block labelling, ascending."""
    k = max(block_of, default=-1) + 1
    blocks: list[list[int]] = [[] for _ in range(k)]
    for v, b in enumerate(block_of):
        if b < 0:
            raise ValueError("negative block label")
        blocks[b].append(v)
    if not all(blocks):
        raise ValueError("block labelling skips a label")
    return tuple(map(tuple, blocks))


def quotient(g: Graph, block_of: Sequence[int]) -> Graph:
    """Quotient graph by the labelling 0..k-1 of g's vertices: blocks are
    adjacent iff some members are adjacent."""
    if len(block_of) != g.n:
        raise ValueError("block labelling size mismatch")
    blocks = _blocks(block_of)
    adj = [0] * len(blocks)
    for u in range(g.n):
        bu = block_of[u]
        for v in bits(g.adj[u]):
            adj[bu] |= 1 << block_of[v]
    labels = tuple("{" + ",".join(g.labels[v] for v in b) + "}" for b in blocks)
    return Graph(len(blocks), tuple(adj), labels)


# ---------------------------------------------------------------------------
# homomorphisms

def check_homomorphism(f: Sequence[int], g: Graph, h: Graph) -> bool:
    """Is f: V(g) -> V(h) edge-preserving (loops included)?"""
    if len(f) != g.n:
        return False
    if any(not (0 <= x < h.n) for x in f):
        return False
    return all((h.adj[f[u]] >> f[v]) & 1 for u, v in g.directed_edges())


def find_homomorphism(g: Graph, h: Graph,
                      guards: Guards = DEFAULT_GUARDS) -> tuple[int, ...] | None:
    """A homomorphism g -> h, or None when there is none.

    Runs `_hom_search`; every value tried is one search node, and more than
    `guards.search_nodes` of them raise GuardExceeded("search_nodes").
    """
    return _hom_search(g, h, guards.search_nodes, 0)[0]


def _hom_search(g: Graph, h: Graph, node_limit: int,
                nodes: int) -> tuple[tuple[int, ...] | None, int]:
    """A homomorphism g -> h or None, with a node count carried in and out.

    Each source vertex has a domain: the mask of target vertices it may
    still take (only looped ones for a looped vertex).  DSATUR branching
    (Brelaz 1979): each node branches on the unassigned vertex with the
    smallest domain, ties broken by most unassigned neighbours, then by
    lowest index.  Assigning v -> x cuts every unassigned neighbour's domain
    to h.adj[x] (forward checking) and fails the branch when a domain
    empties.  On a loopless complete target the colours above the first
    unused one are interchangeable, so a vertex tries values up to
    ``used + 1`` only.  Only these prunes cut the tree, so the answer is
    exact.
    """
    n = g.n
    adj, target = g.adj, h.adj
    full = (1 << h.n) - 1
    domains = [h.looped_mask if adj[v] >> v & 1 else full for v in range(n)]
    if not all(domains):
        return None, nodes
    complete = all(target[x] == full ^ (1 << x) for x in range(h.n))
    width = n.bit_length()
    low_bits = (1 << width) - 1
    unassigned = (1 << n) - 1
    # by_left[c]: mask of the unassigned vertices with exactly c values left
    by_left = [0] * (h.n + 1)
    for v in range(n):
        by_left[domains[v].bit_count()] |= 1 << v
    used = 0
    assignment = [0] * n
    # one frame per branching vertex: [vertex, values left to try, and the
    # domains, unassigned, by_left and used from before it was assigned]
    frames: list[list] = []
    while True:
        if not unassigned:
            return tuple(assignment), nodes
        saturated = next(mask for mask in by_left if mask)
        # most unassigned neighbours, then lowest index, packed in one int
        v = min((n - (adj[u] & unassigned).bit_count()) << width | u
                for u in bits(saturated)) & low_bits
        values = domains[v] & ((1 << used + 1) - 1) if complete else domains[v]
        frames.append([v, values, domains, unassigned, by_left, used])
        while frames:
            frame = frames[-1]
            v, values, domains, unassigned, by_left, used = frame
            if not values:
                frames.pop()
                continue
            low = values & -values
            frame[1] = values ^ low
            nodes += 1
            if nodes > node_limit:
                raise GuardExceeded("search_nodes", node_limit, nodes)
            x = low.bit_length() - 1
            row = target[x]
            rest = unassigned ^ (1 << v)
            nd = domains[:]
            nl = by_left[:]
            nl[nd[v].bit_count()] ^= 1 << v
            for w in bits(adj[v] & rest):
                before = nd[w]
                after = before & row
                if after != before:
                    if not after:
                        break
                    nd[w] = after
                    nl[before.bit_count()] ^= 1 << w
                    nl[after.bit_count()] |= 1 << w
            else:
                assignment[v] = x
                domains, unassigned, by_left = nd, rest, nl
                used = max(used, x + 1)
                break
        else:
            return None, nodes


def chromatic_number(g: Graph, guards: Guards = DEFAULT_GUARDS) -> int | float:
    """Exact chromatic number; INFINITE when a loop is present.

    Starts at the size of a greedy clique (each step keeps the candidate
    with the most neighbours among the candidates, then only its
    neighbours), a sound lower bound, and tries k upwards with
    `_hom_search` into K_k; one `guards.search_nodes` budget covers all k.
    """
    if g.looped_mask:
        return INFINITE
    if g.n == 0:
        return 0
    if all(a == 0 for a in g.adj):
        return 1
    clique, candidates = 0, (1 << g.n) - 1
    while candidates:
        v = max(bits(candidates),
                key=lambda u: (g.adj[u] & candidates).bit_count())
        candidates &= g.adj[v]
        clique += 1
    nodes = 0
    for k in range(max(2, clique), g.n):
        found, nodes = _hom_search(g, complete_graph(k), guards.search_nodes,
                                   nodes)
        if found is not None:
            return k
    return g.n  # every loopless graph maps to K_n


def odd_girth(g: Graph) -> int | float:
    """Length of the shortest odd cycle (a loop counts as 1); INFINITE if none.

    A shortest odd closed walk is always an odd cycle, so this runs BFS on the
    bipartite double cover and takes min over v of the odd distance v -> v.
    The BFS from v goes a layer at a time, on masks: the vertices reached at
    each parity so far, and the frontier, the new vertices at distance d,
    which have parity d mod 2.  The next frontier is the union of the
    frontier's neighbourhoods minus what the other parity has reached; the
    first odd frontier that holds v gives its odd distance, and a search
    stops once its next layer could not beat the best found.
    """
    if g.looped_mask:
        return 1
    best = INFINITE
    for v in range(g.n):
        frontier = 1 << v
        reached = [frontier, 0]  # by parity of the distance from v
        d = 0
        while frontier and d + 1 < best:
            d += 1
            frontier = neighbourhood_mask(g, frontier) & ~reached[d & 1]
            reached[d & 1] |= frontier
            if frontier >> v & 1:  # v is reached at odd distance only
                best = d
    return best


def tree_cycle_lengths(t: Graph) -> tuple[int, ...]:
    """Cycle lengths closed by the non-tree edges of a BFS spanning forest
    (a loop closes a cycle of length 1).  The forest roots each component
    at its lowest vertex and visits neighbours in index order."""
    parent = [-1] * t.n
    depth = [-1] * t.n
    for root in range(t.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        dq = deque([root])
        while dq:
            u = dq.popleft()
            for v in bits(t.adj[u]):
                if depth[v] < 0:
                    parent[v] = u
                    depth[v] = depth[u] + 1
                    dq.append(v)
    lengths = set()
    for u, v in t.edges():
        if u == v:
            lengths.add(1)
        elif parent[u] != v and parent[v] != u:  # a non-tree edge
            du, dv = u, v
            while du != dv:
                if depth[du] < depth[dv]:
                    du, dv = dv, du
                du = parent[du]
            lengths.add(depth[u] + depth[v] - 2 * depth[du] + 1)
    return tuple(sorted(lengths))


@dataclass(frozen=True)
class GraphStats:
    max_degree: int
    connected: bool


def graph_stats(g: Graph) -> GraphStats:
    """Max degree (loops add 1) and connectivity (vertex 0's component,
    grown a neighbourhood at a time, is every vertex)."""
    maxdeg = max((g.degree(v) for v in range(g.n)), default=0)
    reached = frontier = 1 if g.n else 0
    while frontier:
        frontier = neighbourhood_mask(g, frontier) & ~reached
        reached |= frontier
    return GraphStats(maxdeg, reached == (1 << g.n) - 1)


# ---------------------------------------------------------------------------
# neighbourhoods and fineness

def neighbourhood_mask(g: Graph, mask: int) -> int:
    """Bitmask of vertices adjacent to something in ``mask``."""
    out = 0
    for v in bits(mask):
        out |= g.adj[v]
    return out


def nu_mask(g: Graph, mask: int) -> int:
    """Bitmask of vertices adjacent to everything in ``mask`` (all if empty)."""
    out = (1 << g.n) - 1
    for v in bits(mask):
        out &= g.adj[v]
    return out


def is_fine(g: Graph, guards: Guards = DEFAULT_GUARDS) -> bool:
    """Does every nonempty M with nu(M) nonempty satisfy nu(M) & nu^2(M) != 0?

    Sweeps all 2^n - 1 nonempty subsets with an incremental nu table.
    """
    if g.n > guards.fine_vertices:
        raise GuardExceeded("fine_vertices", guards.fine_vertices, g.n)
    full = (1 << g.n) - 1
    table = [0] * (1 << g.n)
    table[0] = full
    for m in range(1, 1 << g.n):
        low = m & -m
        table[m] = table[m ^ low] & g.adj[low.bit_length() - 1]
    for m in range(1, 1 << g.n):
        nu = table[m]
        if nu and not (nu & table[nu]):
            return False
    return True


# ---------------------------------------------------------------------------
# isomorphism (desk scale)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test with degree/loop refinement (small graphs)."""
    if g.n != h.n:
        return False
    if sorted(g.adj[v].bit_count() for v in range(g.n)) != \
       sorted(h.adj[v].bit_count() for v in range(h.n)):
        return False
    if g.looped_mask.bit_count() != h.looped_mask.bit_count():
        return False

    def sig(gr: Graph, v: int) -> tuple:
        ndegs = sorted(gr.adj[w].bit_count() for w in bits(gr.adj[v]))
        return (gr.adj[v].bit_count(), (gr.adj[v] >> v) & 1, tuple(ndegs))

    gs = [sig(g, v) for v in range(g.n)]
    hs = [sig(h, v) for v in range(h.n)]
    if sorted(gs) != sorted(hs):
        return False
    order = sorted(range(g.n), key=lambda v: (gs[v], v))
    image: list[int | None] = [None] * g.n
    used = [False] * h.n

    def match(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or hs[w] != gs[v]:
                continue
            ok = True
            for u in order[:i]:
                if g.has_edge(v, u) != h.has_edge(w, image[u]):  # type: ignore[arg-type]
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if match(i + 1):
                    return True
                image[v] = None
                used[w] = False
        return False

    return match(0)


# ---------------------------------------------------------------------------
# JSON round trip

def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "labels": list(g.labels),
            "edges": [[u, v] for u, v in g.edges()]}


def count_from_json(value, what: str) -> int:
    """A non-negative integer read from JSON input.

    Integral floats (``7.0``) and decimal strings (``"123"``) are read;
    null, booleans, fractions, negative values and other strings are
    refused with a ``ValueError`` naming ``what``.
    """
    if isinstance(value, str) and value.strip().isdecimal():
        value = int(value)
    elif isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, "
                         f"got {value!r}")
    return value


def graph_from_json(data: dict) -> Graph:
    """The graph a JSON object describes; more than `limits.GRAPH_VERTICES`
    vertices raise GuardExceeded before it is built."""
    try:
        n = count_from_json(data["n"], "n")
        edges = [(count_from_json(u, "edge end"),
                  count_from_json(v, "edge end")) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("graph JSON needs 'n' and 'edges' as [u, v] pairs: "
                         f"{exc!r}") from None
    check_graph_vertices(n)  # before any row is built
    labels = data.get("labels", [])
    if type(labels) is not list or not all(type(s) is str for s in labels):
        raise ValueError(f"graph JSON 'labels' must be a list of strings, "
                         f"got {labels!r}")
    return Graph.from_edges(n, edges, labels)
