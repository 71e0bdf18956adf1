"""Chain complexes and exact reduced homology over Z and GF(2).

Every complex is built from one kind of cell, a tuple of vertex bitmasks
(a product of simplices), with one boundary rule: a simplicial complex has
one generator per face and an order complex one per chain, each a
one-mask cell, and the cellular complex of a Hom poset has one generator
per multihomomorphism.  `ChainComplex` takes the cells as one flat list
and groups them by dimension itself, so a cell cannot sit in the wrong
degree.  Homology is always reduced, computed via the augmented complex,
so the empty complex gets rank 1 in degree -1 and a one-point complex has
no homology at all.

Every incidence of such a complex is +-1, so one loop builds each column
as a list of signed row numbers, +(row+1) or -(row+1), and records the
cell as a coface of each of its faces as it goes.  The check that the
boundary squares to zero reads those columns: for every column of degree
>= 1, each row reached through its faces must be reached as often with +
as with -.

Homology comes in two steps.  Morse coreduction, which does not depend on
the field, reads the columns and cofaces the build recorded
(Harker-Mischaikow-Mrozek-Nanda, FoCM 2014): it pairs the augmentation
with a vertex and repeatedly removes a cell that has exactly one face left
together with that face; when none is left it sets aside a cell of the
lowest degree as critical and goes on.  The boundary of the critical cells
is found by flowing each one's boundary down the gradient paths of the
pairs, so `_coreduce` returns only their counts and integer (row,
coefficient) columns, with the same homology over Z and GF(2): one Morse
complex serves both fields, and the full complex can be freed first.
Elimination, in `homology_integral` and `homology_gf2`, reads those columns
without writing them.  On a Hom complex the Morse complex has a handful of
cells, so integral homology is the dense Smith normal form of each
boundary's nonzero rows and columns, and GF(2) uses bit-packed column
elimination.  One body serves both fields.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .graphs import INFINITE
from .homposets import HomPoset, rank_of
from .limits import DEFAULT_GUARDS, GuardExceeded, Guards
from .posets import (Poset, PosetMap, SimplicialComplex, closure_image,
                     is_closure_map, iter_chains)


class ChainComplex:
    """Bases of k-cells, their signed boundary columns and their cofaces,
    checked on construction.

    A cell is a tuple of vertex bitmasks, the product of one simplex per
    mask, and its dimension is ``rank_of(cell)``.  A simplex, or a chain of
    a poset, is the one-factor cell ``(mask,)``; a multihomomorphism eta of
    Hom(G,H) is the cell prod_v Delta^(|eta(v)|-1) (Babson-Kozlov).  The
    facets of a cell drop one vertex x from one mask with at least two
    bits, with the sign (-1)^(sum of |mask|-1 over earlier masks, plus the
    position of x in its mask): masks in order, the bits of each mask
    increasing.  With one factor this is the simplicial sign (-1)^i.

    Every incidence is +-1, so a column is a list of signed ints, +(row+1)
    or -(row+1), with the augmentation (every vertex to row 0, sign +) as
    degree 0.  The loop that builds a column also records the cell as a
    coface of each of its faces, which is what coreduction reads.  The
    check that the boundary squares to zero collects, for every column of
    degree >= 1, the rows reached through its faces with + and those
    reached with -: sorted, the two lists must be equal, so each row comes
    as often with one sign as with the other.  Since every entry is +-1,
    that is exactly the boundary of the column being zero.

    The cells are grouped by dimension in input order; a repeated cell
    raises ValueError.
    """

    def __init__(self, cells: Iterable[tuple[int, ...]]):
        index: list[dict[tuple[int, ...], int]] = []
        for c in cells:
            r = rank_of(c)
            while len(index) <= r:
                index.append({})
            level = index[r]
            i = len(level)
            if level.setdefault(c, i) != i:
                raise ValueError(f"repeated cell {c}")
        self.faces: tuple[tuple[tuple[int, ...], ...], ...] = \
            tuple(tuple(level) for level in index)
        self._cofaces: list[list[list[int]]] = \
            [[[] for _ in level] for level in index]
        self._columns: list[list[list[int]]] = \
            [[[1] for _ in level] for level in index[:1]]
        for k in range(1, len(index)):
            below, up = index[k - 1], self._cofaces[k - 1]
            cols: list[list[int]] = []
            for j, cell in enumerate(self.faces[k]):
                col: list[int] = []
                slots = list(cell)
                sign = 1
                for v, mask in enumerate(cell):
                    if mask & (mask - 1):
                        rest = mask
                        while rest:
                            low = rest & -rest
                            rest ^= low
                            slots[v] = mask ^ low
                            try:
                                row = below[tuple(slots)]
                            except KeyError:
                                raise ValueError(
                                    "complex not closed: missing cell "
                                    f"{tuple(slots)}") from None
                            up[row].append(j)
                            col.append(sign * (row + 1))
                            sign = -sign
                        slots[v] = mask
                        sign = -sign  # |mask| + 1 flips in all
                cols.append(col)
            self._columns.append(cols)
        self.check_boundary_squared()

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.counts()))

    def boundary(self, k: int) -> list[list[tuple[int, int]]]:
        """Columns of the boundary map on k-cells as (row, sign) pairs; k=0
        is the augmentation."""
        return [[(e - 1, 1) if e > 0 else (-e - 1, -1) for e in col]
                for col in self._columns[k]]

    def check_boundary_squared(self) -> None:
        """Raise ValueError unless the boundary of every boundary is zero.

        Every column of every degree k >= 1 is checked, so degree 1 is
        checked against the augmentation.  Every entry is +-1, so a column
        squares to zero exactly when each row it reaches through its faces
        is reached as often with + as with -: the rows reached with + and
        those reached with -, sorted, must be equal.
        """
        for k in range(1, len(self._columns)):
            # an entry e reaches, through the face |e| - 1, the rows in
            # plus[e] with + and those in minus[e] with -; a negative e
            # reads the lists from the end, where the face's signs swap
            plus: list[list[int]] = [[]]
            minus: list[list[int]] = [[]]
            for col in self._columns[k - 1]:
                p: list[int] = []
                m: list[int] = []
                for f in col:
                    if f > 0:
                        p.append(f)
                    else:
                        m.append(-f)
                plus.append(p)
                minus.append(m)
            plus, minus = plus + minus[:0:-1], minus + plus[:0:-1]
            for col in self._columns[k]:
                up: list[int] = []
                down: list[int] = []
                for e in col:
                    up += plus[e]
                    down += minus[e]
                up.sort()
                down.sort()
                if up != down:
                    raise ValueError(
                        f"boundary squared is nonzero in degree {k}")


def chain_complex(x: SimplicialComplex,
                  guards: Guards = DEFAULT_GUARDS) -> ChainComplex:
    """Simplicial chain complex: one generator per face."""
    return ChainComplex((sum(1 << v for v in f),)
                         for f in x.all_faces(guards.complex_faces))


def chain_complex_of_hom(hp: HomPoset) -> ChainComplex:
    """Cellular chain complex of Hom(G,H): one generator per element.  A
    subset of a looped-complete set is still looped-complete, so every
    facet of a cell is a cell."""
    return ChainComplex(hp.elements)


def chain_complex_of_poset(p: Poset,
                           guards: Guards = DEFAULT_GUARDS) -> ChainComplex:
    """Chain complex of the order complex, without materializing facets."""
    return ChainComplex((sum(1 << i for i in c),)
                         for c in iter_chains(p, guards.chain_elements))


# ---------------------------------------------------------------------------
# rank / Smith normal form engines


def gf2_rank(columns: Iterable[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col & -col
            if low not in pivots:
                pivots[low] = col
                rank += 1
                break
            col ^= pivots[low]
    return rank


def smith_invariants(mat: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered."""
    a = [list(map(int, row)) for row in mat]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    res: list[int] = []
    t = 0
    while t < nr and t < nc:
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v and (pivot is None or v < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            q = a[i][t] // p
            if q:
                at, ai = a[t], a[i]
                for j in range(t, nc):
                    ai[j] -= q * at[j]
            if a[i][t]:
                dirty = True
        for j in range(t + 1, nc):
            q = a[t][j] // p
            if q:
                for i in range(t, nr):
                    a[i][j] -= q * a[i][t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue  # a strictly smaller remainder exists; re-pick pivot
        fix = None
        for i in range(t + 1, nr):
            if any(a[i][j] % p for j in range(t + 1, nc)):
                fix = i
                break
        if fix is not None:
            at, af = a[t], a[fix]
            for j in range(t, nc):
                at[j] += af[j]
            continue
        res.append(abs(p))
        t += 1
    return res


# ---------------------------------------------------------------------------
# homology results


@dataclass(frozen=True)
class HomologyResult:
    field: str  # "Z" or "GF2"
    empty: bool
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.field not in ("Z", "GF2"):
            raise ValueError("field must be 'Z' or 'GF2'")
        if any(type(b) is not int or b < 0 for b in self.betti):
            raise ValueError("betti numbers must be non-negative integers, "
                             f"got {self.betti!r}")
        if any(type(t) is not int or t < 2 for ts in self.torsion for t in ts):
            raise ValueError("torsion orders must be integers of at least 2, "
                             f"got {self.torsion!r}")
        if self.field == "GF2" and any(self.torsion):
            raise ValueError("GF(2) homology carries no torsion")
        if len(self.torsion) > len(self.betti):
            raise ValueError("torsion listed past the last betti degree")
        if len(self.torsion) < len(self.betti):
            object.__setattr__(
                self, "torsion",
                self.torsion + ((),) * (len(self.betti) - len(self.torsion)))
        # canonical form: drop trailing trivial degrees so that equality
        # of results means equality of reduced homology
        betti, torsion = self.betti, self.torsion
        while betti and betti[-1] == 0 and not torsion[-1]:
            betti, torsion = betti[:-1], torsion[:-1]
        if self.empty and betti:
            raise ValueError("an empty result carries no betti number or "
                             "torsion")
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "torsion", torsion)

    def reduced(self, d: int) -> int:
        """Reduced Betti number in degree d (d = -1 detects emptiness)."""
        if d == -1:
            return 1 if self.empty else 0
        if 0 <= d < len(self.betti):
            return self.betti[d]
        return 0

    def torsion_at(self, d: int) -> tuple[int, ...]:
        if 0 <= d < len(self.torsion):
            return self.torsion[d]
        return ()

    def is_trivial(self, d: int) -> bool:
        return self.reduced(d) == 0 and not self.torsion_at(d)

    def is_sphere(self, d: int) -> bool:
        """Reduced homology of S^d; d = -1 means the empty complex."""
        if any(self.torsion_at(k) for k in range(len(self.torsion))):
            return False
        if d == -1:
            return self.empty and not any(self.betti)
        return (not self.empty and self.reduced(d) == 1
                and sum(self.betti) == 1)

    def to_json(self) -> dict:
        return {"dim": len(self.betti) - 1,
                "betti": list(self.betti),
                "torsion": [list(t) for t in self.torsion],
                "field": self.field,
                "empty": self.empty}

    def __str__(self):
        if self.empty:
            return f"empty ({self.field})"
        parts = []
        for d in range(len(self.betti)):
            bits = ["Z" if self.field == "Z" else "F2"] * self.betti[d]
            bits += [f"Z/{t}" for t in self.torsion_at(d)]
            if bits:
                parts.append(f"H~{d}=" + "+".join(bits))
        return ", ".join(parts) if parts else f"trivial ({self.field})"


def homology_from_json(data: dict, field_name: str) -> HomologyResult:
    """Strict inverse of ``to_json`` over ``field_name``: a payload that is
    not exactly what ``to_json`` writes for the result it reads as raises
    ValueError, KeyError or TypeError."""
    if data["field"] != field_name:
        raise ValueError(f"holds {data['field']!r} homology, not {field_name}")
    if type(data["empty"]) is not bool:
        raise ValueError(f"empty must be a JSON bool, got {data['empty']!r}")
    result = HomologyResult(field_name, data["empty"], tuple(data["betti"]),
                            tuple(tuple(t) for t in data["torsion"]))
    if result.to_json() != data:
        raise ValueError(f"not the payload its result writes: {data!r}")
    return result


# counts and boundary columns, as (row, coefficient) pairs, of the Morse
# complex of an augmented complex: all that elimination reads, over either
# field
Coreduced = tuple[list[int], list[list[list[tuple[int, int]]]]]


def _coreduce(cc: ChainComplex,
              guards: Guards = DEFAULT_GUARDS) -> Coreduced:
    """Counts and boundary columns, as (row, coefficient) pairs, of the
    Morse complex of cc's augmented complex (Harker-Mischaikow-Mrozek-Nanda,
    FoCM 2014); the empty complex gives no counts.

    Vertex 0 is paired with the augmentation.  Then, in FIFO order, a cell
    with exactly one live face is removed with that face (Mrozek-Batko,
    DCG 2009); when none is left, a cell of the lowest live degree, which
    has no live face, is set aside as critical and removed.  A vertex set
    aside so is the free summand of H~0 of its component.  When a pair
    (a, b) goes, every other face of b went before, so the matching is
    acyclic.  The boundary of a critical cell flows down the gradient
    paths, latest-removed cell first: a lower half a of a pair (a, b) is
    cancelled against the column of b, an upper half drops out and a
    critical cell is kept.  Removal times must strictly decrease along
    every path a flow follows, else ValueError, and each cancelled cell
    counts against ``guards.search_nodes``.  No flow runs into a degree
    with no critical cell.  The columns and cofaces are the ones cc was
    built with, and every entry is +-1, so coefficients stay integers.
    """
    counts = cc.counts()
    if not counts:
        return [], []
    cols, cofaces = cc._columns, cc._cofaces
    top = len(counts)
    live = [bytearray(b"\1") * n for n in counts]
    faces_left = [[0] * counts[0]] + [list(map(len, level))
                                      for level in cols[1:]]
    # the removal time of each cell, the cell removed at each time, and for
    # the lower half a of a pair (a, b), +-(b + 1) with the sign of a in b
    when = [array("q", [0]) * n for n in counts]
    order = array("q")
    mate = [array("q", [0]) * n for n in counts]
    # each critical cell, by degree, and its row in the Morse complex
    critical: list[dict[int, int]] = [{} for _ in counts]
    queue: deque[tuple[int, int]] = deque()

    def remove(k: int, i: int) -> None:
        live[k][i] = 0
        when[k][i] = len(order)
        order.append(i)
        if k + 1 < top:
            up, up_live = faces_left[k + 1], live[k + 1]
            for j in cofaces[k][i]:
                up[j] -= 1
                if up[j] == 1 and up_live[j]:
                    queue.append((k + 1, j))

    remove(0, 0)
    d, at = 0, 0  # the lowest degree with a live cell, and where to look
    while True:
        while queue:
            k, j = queue.popleft()
            if not live[k][j] or faces_left[k][j] != 1:
                continue
            below = live[k - 1]
            for e in cols[k][j]:
                i = abs(e) - 1
                if below[i]:
                    break
            mate[k - 1][i] = j + 1 if e > 0 else -j - 1
            remove(k, j)
            remove(k - 1, i)
        at = live[d].find(1, at)
        while at < 0 and d + 1 < top:
            d += 1
            at = live[d].find(1)
        if at < 0:
            break
        critical[d][at] = len(critical[d])
        remove(d, at)

    out: list[list[list[tuple[int, int]]]] = [[[] for _ in critical[0]]]
    limit, cancelled = guards.search_nodes, 0
    for k in range(1, top):
        pos = critical[k - 1]
        if not pos:
            out.append([[] for _ in critical[k]])
            continue
        times, mates, level = when[k - 1], mate[k - 1], cols[k]
        flowed = []
        for c in critical[k]:
            coef = {}
            heap = []
            for e in level[c]:
                i = e - 1 if e > 0 else -e - 1
                coef[i] = 1 if e > 0 else -1
                heap.append(-times[i])
            heapify(heap)
            last, col = when[k][c], []
            while heap:
                t = -heappop(heap)
                if t >= last:
                    raise ValueError("a gradient path does not decrease "
                                     f"in removal time in degree {k - 1}")
                last = t
                i = order[t]
                x = coef.pop(i)
                if not x:
                    continue
                m = mates[i]
                if m:
                    cancelled += 1
                    if cancelled > limit:
                        raise GuardExceeded("search_nodes", limit, cancelled)
                    # subtract x times the sign of a in b, times column b
                    b, s = (m - 1, -x) if m > 0 else (-m - 1, x)
                    for e in level[b]:
                        r, v = (e - 1, s) if e > 0 else (-e - 1, -s)
                        if r in coef:
                            coef[r] += v
                        elif r != i:
                            coef[r] = v
                            heappush(heap, -times[r])
                elif i in pos:
                    col.append((pos[i], x))
            flowed.append(col)
        out.append(flowed)
    return list(map(len, critical)), out


def _eliminate(reduced: Coreduced, field_name: str,
               guards: Guards) -> HomologyResult:
    """Each boundary's rank over GF(2), or over Z with its elementary
    divisors, from the dense Smith normal form of its nonzero rows and
    columns, on a Morse complex whose columns it only reads."""
    counts, cols = reduced
    if not counts:
        return HomologyResult(field_name, True, ())
    dim = len(counts) - 1
    ranks = [0] * (dim + 2)
    divisors: list[list[int]] = [[] for _ in range(dim + 2)]
    for k in range(1, dim + 1):
        if field_name == "GF2":
            ranks[k] = gf2_rank(sum(1 << i for i, v in col if v % 2)
                                for col in cols[k])
            continue
        nonzero = [col for col in cols[k] if col]
        nnz = sum(map(len, nonzero))
        if nnz > guards.snf_nonzeros:
            raise GuardExceeded("snf_nonzeros", guards.snf_nonzeros, nnz)
        entries = [dict(col) for col in nonzero]
        rows = sorted({i for col in nonzero for i, _ in col})
        divisors[k] = smith_invariants([[col.get(i, 0) for col in entries]
                                        for i in rows])
        ranks[k] = len(divisors[k])
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))
    torsion = tuple(tuple(d for d in divisors[k + 1] if d > 1)
                    for k in range(dim + 1))
    return HomologyResult(field_name, False, betti, torsion)


def homology_integral(reduced: Coreduced,
                      guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    return _eliminate(reduced, "Z", guards)


def homology_gf2(reduced: Coreduced,
                 guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    return _eliminate(reduced, "GF2", guards)


def coreduced_homology(reduced: Coreduced, field_name: str,
                       guards: Guards) -> HomologyResult:
    """Homology over a field of a complex `_coreduce` already reduced."""
    return homology_integral(reduced, guards) if field_name == "Z" \
        else homology_gf2(reduced, guards)


def _chain_homology(cc: ChainComplex, field_name: str,
                    guards: Guards) -> HomologyResult:
    return coreduced_homology(_coreduce(cc, guards), field_name, guards)


def homology_of_complex(x: SimplicialComplex, field_name: str = "Z",
                        guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    return _chain_homology(chain_complex(x, guards), field_name, guards)


def poset_homology(p: Poset, field_name: str = "Z",
                   guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    """Homology of the order complex of any poset (one generator per chain)."""
    return _chain_homology(chain_complex_of_poset(p, guards), field_name,
                           guards)


def hom_homology(hp: HomPoset, field_name: str = "Z",
                 guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    """Homology of Hom(G,H) from its cellular complex.

    Hom(G,H) is the face poset of that complex, so this equals
    ``poset_homology(hp.poset)``, without materializing the order.
    """
    return _chain_homology(chain_complex_of_hom(hp), field_name, guards)


def homology_connectivity(h: HomologyResult):
    """Largest c with reduced homology zero in all degrees <= c.

    Homological connectivity only. Empty complex: -2. All computed
    degrees trivial: INFINITE marker (contractible at homology level).
    """
    if h.empty:
        return -2
    c = -1
    for d in range(len(h.betti)):
        if not h.is_trivial(d):
            return c
        c = d
    return INFINITE


def suspension_check(a: HomologyResult, b: HomologyResult) -> bool:
    """True iff b looks like the suspension of a: B~_{d+1} = A~_d, all d."""
    top = max(len(a.betti), len(b.betti)) + 1
    for d in range(-1, top):
        if b.reduced(d + 1) != a.reduced(d):
            return False
        if b.torsion_at(d + 1) != a.torsion_at(d):
            return False
    return not b.empty  # a suspension is never empty


def closure_reduce(c: PosetMap) -> tuple[Poset, tuple[int, ...]]:
    """Image subposet of a closure map (homology-preserving retract)."""
    if not (is_closure_map(c, "up") or is_closure_map(c, "down")):
        raise ValueError("not a closure map in either direction")
    return closure_image(c)


# ---------------------------------------------------------------------------
# verification fixtures


def simplex_boundary(k: int) -> SimplicialComplex:
    """Boundary of the k-simplex: a triangulated S^(k-1) on k+1 vertices."""
    if k < 1:
        raise ValueError("k must be >= 1")
    verts = tuple(range(k + 1))
    facets = tuple(verts[:i] + verts[i + 1:] for i in range(k + 1))
    return SimplicialComplex(k + 1, tuple(sorted(facets)))


def _grid_surface(flip: bool) -> SimplicialComplex:
    def vid(x: int, y: int) -> int:
        if y == 4:
            x, y = ((4 - x) % 4 if flip else x % 4), 0
        return 4 * (y % 4) + x % 4

    tris = []
    for x in range(4):
        for y in range(4):
            a, b = vid(x, y), vid(x + 1, y)
            c, d = vid(x, y + 1), vid(x + 1, y + 1)
            tris.append((a, b, d))
            tris.append((a, d, c))
    return SimplicialComplex(16, tuple(sorted(tuple(sorted(t)) for t in tris)))


def torus_complex() -> SimplicialComplex:
    """4x4 grid torus: 16 vertices, 48 edges, 32 triangles."""
    return _grid_surface(flip=False)


def klein_bottle_complex() -> SimplicialComplex:
    """4x4 grid Klein bottle (one seam reversed): H_1 = Z + Z/2."""
    return _grid_surface(flip=True)
