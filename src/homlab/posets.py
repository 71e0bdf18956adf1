"""Finite posets, chain (subdivision) functors, and simplicial complexes.

Elements are dense indices 0..m-1. The order is stored as a tuple of
"above" bitmasks: bit j of above[i] is set iff i <= j. Each poset may
carry a payload tuple (chains, faces, map images) describing what its
elements are; payloads never influence the order and are preserved by
subposet constructions.

Chains and faces are canonically encoded as index-sorted tuples, and the
element order of every constructed poset sorts by (length, tuple), which
is a linear extension of containment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, getitem, itemgetter, or_
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .graphs import Graph, bits
from .limits import DEFAULT_GUARDS, GuardExceeded, Guards


@dataclass(frozen=True)
class Poset:
    m: int
    above: tuple[int, ...]
    elements: Optional[tuple] = None

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("negative element count")
        if len(self.above) != self.m:
            raise ValueError("above mask count mismatch")
        if self.elements is not None and len(self.elements) != self.m:
            raise ValueError("payload length mismatch")
        full = (1 << self.m) - 1
        for i, a in enumerate(self.above):
            if a & ~full:
                raise ValueError("above mask out of range")
            if not a >> i & 1:
                raise ValueError(f"relation not reflexive at {i}")
        for i, a in enumerate(self.above):
            up = 0
            for j in bits(a):
                up |= self.above[j]
            if up & ~a:
                j = next(j for j in bits(a) if self.above[j] & ~a)
                raise ValueError(f"transitivity fails at {i},{j}")
        # reflexive and transitive: i <= j <= i forces equal up-sets
        first: dict = {}
        for i, a in enumerate(self.above):
            if first.setdefault(a, i) != i:
                raise ValueError(f"antisymmetry fails at {first[a]},{i}")

    def leq(self, i: int, j: int) -> bool:
        return bool(self.above[i] >> j & 1)

    def comparable(self, i: int, j: int) -> bool:
        return self.leq(i, j) or self.leq(j, i)

    def element(self, i: int):
        return i if self.elements is None else self.elements[i]

    @cached_property
    def index(self) -> dict:
        """Payload -> element index (identity when there is no payload)."""
        if self.elements is None:
            return {i: i for i in range(self.m)}
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def below(self) -> tuple[int, ...]:
        out = [0] * self.m
        for i, a in enumerate(self.above):
            bit = 1 << i
            for j in bits(a):
                out[j] |= bit
        return tuple(out)

    @cached_property
    def covers(self) -> tuple[int, ...]:
        """covers[i] = bitmask of upper covers of i."""
        out = []
        for i in range(self.m):
            up = self.above[i] & ~(1 << i)
            cov = up
            for j in bits(up):
                cov &= ~(self.above[j] & ~(1 << j))
            out.append(cov)
        return tuple(out)

    @cached_property
    def lower_covers(self) -> tuple[int, ...]:
        out = [0] * self.m
        for i, cov in enumerate(self.covers):
            bit = 1 << i
            for j in bits(cov):
                out[j] |= bit
        return tuple(out)

    @cached_property
    def minimal_mask(self) -> int:
        return sum(1 << i for i in range(self.m) if self.below[i] == 1 << i)

    @cached_property
    def maximal_mask(self) -> int:
        return sum(1 << i for i in range(self.m) if self.above[i] == 1 << i)

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        """Minimal elements, ascending."""
        return tuple(bits(self.minimal_mask))

    @cached_property
    def heights(self) -> tuple[int, ...]:
        h = [0] * self.m
        for i in sorted(range(self.m), key=lambda v: self.below[v].bit_count()):
            low = self.lower_covers[i]
            h[i] = 1 + max(h[j] for j in bits(low)) if low else 0
        return tuple(h)


def from_leq_pairs(m: int, pairs: Sequence[tuple[int, int]],
                   elements: Optional[tuple] = None) -> Poset:
    """Poset from generating relations; reflexive-transitive closure taken."""
    rows = [1 << i for i in range(m)]
    for lo, hi in pairs:
        if not (0 <= lo < m and 0 <= hi < m):
            raise ValueError("relation index out of range")
        rows[lo] |= 1 << hi
    for k in range(m):
        rk = rows[k]
        for i in range(m):
            if rows[i] >> k & 1:
                rows[i] |= rk
    return Poset(m, tuple(rows), elements)  # a cycle fails antisymmetry


def pointwise_poset(rows: Sequence[tuple],
                    below: Optional[Sequence[int]] = None,
                    guards: Guards = DEFAULT_GUARDS) -> Poset:
    """Rows ordered coordinatewise by their values' masks: r <= s iff, for
    every x, the mask of r[x] lies inside the mask of s[x].  A value is its
    own mask, or, given `below`, value v stands for the mask below[v] of a
    poset's down-set, as v <= w iff below[v] lies inside below[w].

    The rows are the payload, in the given order.  Per coordinate, the rows
    are grouped by mask, has[t] is the mask of rows whose mask holds t, and
    a mask's up-set is the AND of has[t] over the t in it; a row's up-set
    is the AND of its masks' up-sets.
    """
    m = len(rows)
    if m > guards.poset_relation:
        raise GuardExceeded("poset_relation", guards.poset_relation, m)
    full = (1 << m) - 1
    above = [full] * m
    for column in zip(*rows):
        if below is not None:  # one-to-one: distinct values, distinct masks
            column = tuple(map(below.__getitem__, column))
        holders: dict = {}
        for j, a in enumerate(column):
            holders[a] = holders.get(a, 0) | 1 << j
        has: dict = {}
        for a, rows_at in holders.items():
            for t in bits(a):
                has[t] = has.get(t, 0) | rows_at
        up = {a: reduce(and_, map(has.__getitem__, bits(a)), full)
              for a in holders}
        above = list(map(and_, above, map(up.__getitem__, column)))
    return Poset(m, tuple(above), tuple(rows))


def induced_subposet(p: Poset, keep: Sequence[int]) -> tuple[Poset, tuple[int, ...]]:
    """Subposet on `keep` (made ascending); returns it plus the kept indices."""
    keep = tuple(sorted(set(keep)))
    pos = {v: i for i, v in enumerate(keep)}
    above = []
    for v in keep:
        a = 0
        for j in bits(p.above[v]):
            if j in pos:
                a |= 1 << pos[j]
        above.append(a)
    payload = None if p.elements is None else tuple(p.elements[v] for v in keep)
    return Poset(len(keep), tuple(above), payload), keep


# ---------------------------------------------------------------------------
# simplicial complexes


@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    facets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for f in self.facets:
            if not f:
                raise ValueError("empty facet")
            if list(f) != sorted(set(f)):
                raise ValueError(f"facet not strictly sorted: {f}")
            if f[0] < 0 or f[-1] >= self.n:
                raise ValueError(f"facet vertex out of range: {f}")
            if f in seen:
                raise ValueError(f"duplicate facet: {f}")
            seen.add(f)
        holders = [0] * self.n  # vertex -> mask of facets containing it
        for i, f in enumerate(self.facets):
            for v in f:
                holders[v] |= 1 << i
        for i, f in enumerate(self.facets):
            common = holders[f[0]]
            for v in f[1:]:
                common &= holders[v]
            if common != 1 << i:
                raise ValueError("facet contained in another facet")

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def all_faces(self, limit: int) -> list[tuple[int, ...]]:
        """Every nonempty face, sorted by (dimension, vertex tuple)."""
        seen = set()
        for f in self.facets:
            for r in range(1, len(f) + 1):
                for sub in itertools.combinations(f, r):
                    seen.add(sub)
                    if len(seen) > limit:
                        raise GuardExceeded("complex_faces", limit, len(seen))
        return sorted(seen, key=lambda t: (len(t), t))


def make_complex(n: int, faces: Sequence[Sequence[int]]) -> SimplicialComplex:
    """Complex generated by `faces`; non-maximal entries dropped."""
    norm = sorted({tuple(sorted(set(f))) for f in faces if f},
                  key=lambda t: (-len(t), t))
    masks: list[int] = []
    facets = []
    for f in norm:
        m = sum(1 << v for v in f)
        if any(m & ~big == 0 for big in masks):
            continue
        masks.append(m)
        facets.append(f)
    return SimplicialComplex(n, tuple(sorted(facets, key=lambda t: (len(t), t))))


# ---------------------------------------------------------------------------
# chains and the face/chain posets


def iter_chains(p: Poset, limit: int) -> Iterator[tuple[int, ...]]:
    """All nonempty chains of p, each exactly once, as ascending-in-p tuples."""
    count = 0
    stack = [(i,) for i in range(p.m - 1, -1, -1)]
    while stack:
        chain = stack.pop()
        count += 1
        if count > limit:
            raise GuardExceeded("chain_elements", limit, count)
        yield chain
        ext = p.above[chain[-1]] & ~(1 << chain[-1])
        for j in bits(ext):
            stack.append(chain + (j,))


def maximal_chains(p: Poset, limit: int) -> list[tuple[int, ...]]:
    """Saturated bottom-to-top chains, ascending in p, sorted lexicographically."""
    out = []
    stack = [(i,) for i in bits(p.minimal_mask)]
    while stack:
        chain = stack.pop()
        cov = p.covers[chain[-1]]
        if not cov:
            out.append(chain)
            if len(out) > limit:
                raise GuardExceeded("chain_elements", limit, len(out))
        else:
            for j in bits(cov):
                stack.append(chain + (j,))
    out.sort()
    return out


def _containment_poset(members: list[tuple[int, ...]]) -> Poset:
    """Poset of index-sorted tuples closed under one-element removal."""
    members = sorted(members, key=lambda t: (len(t), t))
    idx = {c: i for i, c in enumerate(members)}
    m = len(members)
    up: list[list[int]] = [[] for _ in range(m)]
    for j, d in enumerate(members):
        if len(d) > 1:
            for t in range(len(d)):
                up[idx[d[:t] + d[t + 1:]]].append(j)
    above = [0] * m
    for i in range(m - 1, -1, -1):
        a = 1 << i
        for j in up[i]:
            a |= above[j]
        above[i] = a
    return Poset(m, tuple(above), tuple(members))


def chain_poset(p: Poset, guards: Guards = DEFAULT_GUARDS) -> Poset:
    """Nonempty chains of p ordered by containment (barycentric subdivision)."""
    chains = [tuple(sorted(c)) for c in iter_chains(p, guards.chain_elements)]
    return _containment_poset(chains)


def face_poset(x: SimplicialComplex,
               guards: Guards = DEFAULT_GUARDS) -> Poset:
    """Nonempty faces ordered by containment; atoms are the vertices."""
    faces = x.all_faces(guards.complex_faces)
    if not faces:
        raise ValueError("face poset of an empty complex")
    return _containment_poset(faces)


def atom_graph(p: Poset) -> tuple[Graph, tuple[int, ...]]:
    """The reflexive graph on minimal elements: adjacent iff a common upper
    bound.  Atom a's row is the atoms below some maximal w above a (every
    upper bound lies below a maximal one), numbered in ascending order."""
    atoms, below = p.atoms, p.below
    rows = [reduce(or_, map(below.__getitem__,
                            bits(p.above[a] & p.maximal_mask)))
            & p.minimal_mask for a in atoms]
    if p.minimal_mask != (1 << len(atoms)) - 1:  # atoms are not 0..k-1
        index = {a: i for i, a in enumerate(atoms)}
        rows = [sum(1 << index[b] for b in bits(r)) for r in rows]
    labels = tuple(str(p.element(a)) for a in atoms)
    return Graph(len(atoms), tuple(rows), labels), atoms


def order_complex(p: Poset, guards: Guards = DEFAULT_GUARDS) -> SimplicialComplex:
    """Vertices = elements of p, facets = maximal chains."""
    facets = [tuple(sorted(c)) for c in
              maximal_chains(p, guards.chain_elements)]
    facets.sort(key=lambda t: (len(t), t))
    return SimplicialComplex(p.m, tuple(facets))


# ---------------------------------------------------------------------------
# poset maps


@dataclass(frozen=True)
class PosetMap:
    domain: Poset
    codomain: Poset
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.domain.m:
            raise ValueError("image length mismatch")
        for v in self.image:
            if not 0 <= v < self.codomain.m:
                raise ValueError("image value out of range")

    def __call__(self, i: int) -> int:
        return self.image[i]

    def is_monotone(self) -> bool:
        dom, img, above = self.domain, self.image, self.codomain.above
        for i in range(dom.m):
            fi = img[i]
            for j in bits(dom.above[i]):
                if not above[fi] >> img[j] & 1:
                    return False
        return True


def is_closure_map(c: PosetMap, direction: str = "up") -> bool:
    """Monotone idempotent endomap with c(x) >= x ("up") or <= x ("down")."""
    p = c.domain
    if (c.codomain.m, c.codomain.above) != (p.m, p.above):
        raise ValueError("closure test requires an endomap")
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if not c.is_monotone():
        return False
    img = c.image
    if any(img[img[x]] != img[x] for x in range(p.m)):
        return False
    if direction == "up":
        return all(p.leq(x, img[x]) for x in range(p.m))
    return all(p.leq(img[x], x) for x in range(p.m))


def closure_image(c: PosetMap) -> tuple[Poset, tuple[int, ...]]:
    """Subposet of fixed points of an (assumed) closure map."""
    return induced_subposet(c.domain, [x for x in range(c.domain.m)
                                       if c.image[x] == x])


def _extension_order(p: Poset) -> list[int]:
    """Linear extension of p ending in its tail: the maximal, non-minimal
    elements, in index order.

    Before the tail, the next element is greedily one whose lower elements
    are all placed, with the most lower covers, then the lowest index.
    Nothing lies above a tail element, so that part is a linear extension
    of the rest by itself; it holds every element below a tail element,
    and every atom.
    """
    tail_mask = p.maximal_mask & ~p.minimal_mask
    placed = 0
    order = []
    remaining = {x for x in range(p.m) if not tail_mask >> x & 1}
    while remaining:
        best = None
        for x in remaining:
            if p.below[x] & ~placed & ~(1 << x):
                continue
            key = (-(p.lower_covers[x].bit_count()), x)
            if best is None or key < best[0]:
                best = (key, x)
        x = best[1]
        order.append(x)
        placed |= 1 << x
        remaining.discard(x)
    return order + list(bits(tail_mask))


def _sharing_an_upper_bound(p: Poset) -> list[int]:
    """Row u: the mask of elements that share an upper bound with u."""
    out = []
    for u in range(p.m):
        mask = 0
        for w in bits(p.above[u]):
            mask |= p.below[w]
        out.append(mask)
    return out


class _Table(dict):
    """A dict that fills a missing key with fill(key) the first time the key
    is read, so `map(table.__getitem__, keys)` looks up and fills in one
    pass."""

    def __init__(self, fill: Callable[[Any], Any]):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _restriction(indices: Sequence[int]
                 ) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """f -> (f[i] for i in indices), as a tuple.  `itemgetter` takes at
    least one index and returns a bare value for exactly one."""
    if len(indices) == 1:
        i, = indices
        return lambda f: (f[i],)
    return itemgetter(*indices) if indices else lambda f: ()


# per factor: (representative, rest of its orbit as (element, q map) pairs)
Tail = tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...]
# (prefix image, the factors' candidate masks, maps within the guard)
Block = tuple[tuple[int, ...], tuple[int, ...], int]


def _poset_map_blocks(p: Poset, q: Poset, guards: Guards,
                      p_maps: Sequence[Sequence[int]],
                      q_maps: Sequence[Sequence[int]]
                      ) -> tuple[Tail, Iterator[Block]]:
    """Monotone maps p -> q with f(g.x) = g.f(x), in blocks of maps that
    agree off the tail of `_extension_order(p)`.

    The group is data: element i acts on p by the automorphism `p_maps[i]`
    and on q by the automorphism `q_maps[i]` (a left action, identity
    first).  Empty lists mean the one-element group: every monotone map.

    Backtracks over orbit representatives along the extension; assigning
    v to a representative r sets f(g.r) = g.v for every g.  The candidates
    for r are the values fixed by r's stabilizer that lie above f(z) for
    every placed z <= r.  That suffices: an orbit is placed when the
    extension first reaches it, so z <= g.r with z placed means g^-1.z <= r
    is placed too, and f(z) = g.f(g^-1.z) <= g.v.  The search keeps one
    mask of untried candidates per representative and tries them in
    ascending order.  Candidates are also checked ahead (forward
    checking): for every placed z that shares an upper bound y with r but
    is not below it, f(r) must share an upper bound with f(z), as both lie
    below f(y).  Every monotone map passes that test, so it only cuts
    branches that end without a map.

    The search places the prefix only, the orbits before the tail
    (automorphisms keep elements maximal and non-minimal, so no orbit
    straddles the two).  A tail element r is maximal, so anything that
    shares an upper bound with r lies below it, in the prefix: r's
    candidates are fixed once its last lower element is placed, and the
    search forms them there, as a factor, and cuts the branch if there
    are none.  The maps with a given prefix are the product of the tail
    representatives' candidate sets, the last factor fastest: a block.

    Returns the tail, one (r, rest of r's orbit as (x, q map) pairs) pair
    per factor in order, and the blocks in lexicographic order of their
    prefix values along the extension, each as (image, masks, within):
    the prefix's values as a tuple indexed by element (tail elements read
    0), the factors' candidate masks, every one nonempty, and how many of
    the block's maps fall within `guards.poset_map_elements`.  Resuming
    the blocks after one that reaches past the limit raises
    GuardExceeded("poset_map_elements") at the first map past it.

    Every candidate value is one search node, counted when its mask is
    formed, a factor's included; more than `guards.search_nodes` raise
    GuardExceeded("search_nodes").
    """
    p_maps = [tuple(mp) for mp in p_maps] or [tuple(range(p.m))]
    q_maps = [tuple(mq) for mq in q_maps] or [tuple(range(q.m))]
    if len(p_maps) != len(q_maps):
        raise ValueError("one carrier map per group element on each side")
    node_limit, map_limit = guards.search_nodes, guards.poset_map_elements
    full = (1 << q.m) - 1
    fixed = [sum(1 << v for v in range(q.m) if mq[v] == v) for mq in q_maps]
    p_shared = _sharing_an_upper_bound(p)
    q_shared = _sharing_an_upper_bound(q)
    tail_mask = p.maximal_mask & ~p.minimal_mask
    # the prefix: (r, rest of its orbit as (x, q map), candidates, checks)
    reps = []
    tail = []  # (r, rest of its orbit)
    level = [0] * p.m  # a prefix element's level: its representative's index
    # finishing[t]: (factor, candidates, the elements below its
    # representative) for each tail factor whose last lower element is
    # placed at level t
    finishing: list[list] = []
    placed = 0
    for r in _extension_order(p):
        if placed >> r & 1:
            continue
        orbit: dict = {}
        cand = full
        for mp, mq, fx in zip(p_maps, q_maps, fixed):
            orbit.setdefault(mp[r], mq)
            if mp[r] == r:
                cand &= fx
        below = p.below[r] & placed
        bounded = p_shared[r] & placed & ~below
        for x in orbit:
            placed |= 1 << x
            level[x] = len(reps)
        del orbit[r]  # the identity sends r to v
        if tail_mask >> r & 1:  # r is maximal, so nothing is bounded
            last = max(level[z] for z in bits(below))
            finishing[last].append((len(tail), cand, tuple(bits(below))))
            tail.append((r, tuple(orbit.items())))
        else:
            # (placed z, table whose row at f(z) holds r's candidates)
            checks = tuple([(z, q.above) for z in bits(below)]
                           + [(z, q_shared) for z in bits(bounded)])
            reps.append((r, tuple(orbit.items()), cand, checks))
            finishing.append([])

    def blocks() -> Iterator[Block]:
        q_above = q.above
        depth = len(reps)
        image = [0] * p.m
        masks = [0] * len(tail)  # each tail factor's candidates
        # untried[t]: candidates for reps[t] not yet tried, given levels < t
        untried = [0] * depth
        # sizes[t]: the product of the sizes of the factors formed below t
        sizes = [1] * (depth + 1)
        nodes = count = 0
        if reps:
            untried[0] = reps[0][2]
            nodes = untried[0].bit_count()
            if nodes > node_limit:
                raise GuardExceeded("search_nodes", node_limit, nodes)
        t = 0
        while t >= 0:
            if t == depth:  # the prefix is placed: one block
                t -= 1
                size = sizes[depth]
                count += size
                within = size - max(count - map_limit, 0)
                if within:
                    yield tuple(image), tuple(masks), within
                if count > map_limit:
                    raise GuardExceeded("poset_map_elements", map_limit,
                                        map_limit + 1)
                continue
            cand = untried[t]
            if not cand:
                t -= 1
                continue
            low = cand & -cand
            untried[t] = cand ^ low
            v = low.bit_length() - 1
            r, orbit, _, _ = reps[t]
            image[r] = v
            for x, mq in orbit:
                image[x] = mq[v]
            size = sizes[t]
            for i, cand, below in finishing[t]:
                for z in below:
                    cand &= q_above[image[z]]
                nodes += cand.bit_count()
                if nodes > node_limit:
                    raise GuardExceeded("search_nodes", node_limit, nodes)
                if not cand:  # no map extends this prefix
                    break
                masks[i] = cand
                size *= cand.bit_count()
            else:
                t += 1
                sizes[t] = size
                if t < depth:
                    cand = reps[t][2]
                    for z, table in reps[t][3]:
                        cand &= table[image[z]]
                        if not cand:
                            break
                    nodes += cand.bit_count()
                    if nodes > node_limit:
                        raise GuardExceeded("search_nodes", node_limit, nodes)
                    untried[t] = cand

    return tuple(tail), blocks()


def enumerate_poset_maps(p: Poset, q: Poset, guards: Guards = DEFAULT_GUARDS,
                         p_maps: Sequence[Sequence[int]] = (),
                         q_maps: Sequence[Sequence[int]] = ()
                         ) -> Iterator[tuple[int, ...]]:
    """Monotone maps p -> q with f(g.x) = g.f(x), as image tuples, in
    lexicographic order of their values along `_extension_order(p)`.

    The group is given as to `_poset_map_blocks`, whose blocks this
    flattens, lazily: a map is built only when it is read.  A factor holds,
    for each candidate v of its representative r, the values (v, g.v for
    the rest of r's orbit), or v alone when no tail orbit has a second
    element; `itertools.product` over a block's factors gives its tail
    values, joined to the block's image by `+` (or `sum` over the orbit
    tuples), and one `itemgetter` reads each map into element order.  The
    guards are those of `_poset_map_blocks`; more than
    `guards.poset_map_elements` maps raise GuardExceeded("poset_map_elements")
    at the first map past it.
    """
    tail, blocks = _poset_map_blocks(p, q, guards, p_maps, q_maps)
    plain = not any(orbit for _, orbit in tail)  # one value per factor
    at = list(range(p.m))  # where each element's value sits in a flat map
    factors = []  # per factor: candidate mask -> its candidates' values
    slot = p.m
    for r, orbit in tail:
        spread = range(q.m) if plain else [
            (v, *(mq[v] for _, mq in orbit)) for v in range(q.m)]
        factors.append(_Table(lambda mask, spread=spread: tuple(
            map(spread.__getitem__, bits(mask)))))
        for x in (r, *(x for x, _ in orbit)):
            at[x] = slot
            slot += 1
    flat = _restriction(at)
    for image, masks, within in blocks:
        tails = itertools.product(*map(getitem, factors, masks))
        if plain:
            maps = map(image.__add__, tails)
        else:
            maps = map(sum, tails, itertools.repeat(image))
        yield from map(flat, itertools.islice(maps, within))


def poset_maps(p: Poset, q: Poset, guards: Guards = DEFAULT_GUARDS) -> Poset:
    """Poset of all monotone maps p -> q under the pointwise order."""
    return map_poset(enumerate_poset_maps(p, q, guards), q, guards)


def map_poset(maps: Iterable[tuple[int, ...]], q: Poset,
              guards: Guards = DEFAULT_GUARDS) -> Poset:
    """Maps into q, sorted, under the pointwise order of q.

    Reading stops at the first map past `guards.poset_relation`, so a set
    of maps too large to order raises GuardExceeded("poset_relation")
    before the rest of it is enumerated.
    """
    rows = sorted(itertools.islice(maps, guards.poset_relation + 1))
    return pointwise_poset(rows, q.below, guards)


# ---------------------------------------------------------------------------
# serialization


def poset_to_json(p: Poset) -> dict:
    pairs = [[i, j] for i in range(p.m) for j in bits(p.covers[i])]
    return {"m": p.m, "covers": pairs}
