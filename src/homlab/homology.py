"""Chain complexes and exact reduced homology over Z and GF(2).

Two kinds of complex feed one pair of reduction engines: simplicial
complexes (including order complexes of posets, one generator per chain)
and the cellular complex of a Hom poset, one generator per
multihomomorphism.  Homology is always reduced, computed via the augmented
complex, so the empty complex gets rank 1 in degree -1 and a one-point
complex has no homology at all.

Both engines first coreduce the augmented complex (Mrozek-Batko, DCG 2009):
they pair the augmentation with a vertex and one vertex of each other
component with a free summand of H~0, then repeatedly remove a cell that
has exactly one face left, at incidence +-1, together with that face.
The cells left carry the original boundary restricted to them, with the
same homology over Z and GF(2).  On a Hom complex this leaves a few
percent of the cells.  Integral computation then runs a sparse
elimination phase on unit pivots and finishes any remainder with a dense
Smith normal form; GF(2) uses bit-packed column elimination.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import INFINITE, bits, count_from_json
from .homposets import HomPoset, rank_of
from .limits import DEFAULT_GUARDS, GuardExceeded, Guards
from .posets import (Poset, PosetMap, SimplicialComplex, closure_image,
                     is_closure_map, iter_chains)


class ChainComplex:
    """Bases of k-faces plus signed boundary maps, checked on construction.

    The faces here are simplices (sorted vertex tuples); a complex with
    other cells overrides ``_boundary``.
    """

    def __init__(self, faces: Sequence[Sequence[tuple[int, ...]]]):
        self.faces: tuple[tuple[tuple[int, ...], ...], ...] = \
            tuple(tuple(level) for level in faces)
        while self.faces and not self.faces[-1]:
            self.faces = self.faces[:-1]
        self._boundaries = [self._boundary(k) for k in range(len(self.faces))]
        self.check_boundary_squared()

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.counts()))

    def boundary(self, k: int) -> list[list[tuple[int, int]]]:
        """Columns of the boundary map on k-faces; k=0 is the augmentation."""
        return self._boundaries[k]

    def _boundary(self, k: int) -> list[list[tuple[int, int]]]:
        level = self.faces[k]
        for f in level:
            if len(f) != k + 1 or list(f) != sorted(set(f)):
                raise ValueError(f"bad {k}-face {f}")
        if list(level) != sorted(set(level)):
            raise ValueError(f"{k}-faces not sorted and unique")
        if k == 0:
            return [[(0, 1)] for _ in level]
        index = {f: i for i, f in enumerate(self.faces[k - 1])}
        cols = []
        for f in self.faces[k]:
            col = []
            for i in range(len(f)):
                sub = f[:i] + f[i + 1:]
                if sub not in index:
                    raise ValueError(f"complex not closed: missing face {sub}")
                col.append((index[sub], -1 if i % 2 else 1))
            cols.append(col)
        return cols

    def check_boundary_squared(self) -> None:
        """Raise ValueError unless the boundary of every boundary is zero.

        Every column of every degree k >= 1 is checked, so degree 1 is
        checked against the augmentation.
        """
        for k in range(1, len(self.faces)):
            low = self._boundaries[k - 1]
            for col in self._boundaries[k]:
                acc: dict[int, int] = {}
                for r, s in col:
                    for r2, s2 in low[r]:
                        acc[r2] = acc.get(r2, 0) + s * s2
                if any(acc.values()):
                    raise ValueError(
                        f"boundary squared is nonzero in degree {k}")


def chain_complex(x: SimplicialComplex,
                  guards: Guards = DEFAULT_GUARDS) -> ChainComplex:
    faces = x.all_faces(guards.complex_faces)
    top = len(faces[-1]) if faces else 0
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(top)]
    for f in faces:
        levels[len(f) - 1].append(f)
    return ChainComplex(levels)


class _HomCellComplex(ChainComplex):
    """Cellular chain complex of Hom(G,H) (Babson-Kozlov).

    The k-faces are the multihomomorphisms eta of rank k, each the cell
    prod_v Delta^(|eta(v)|-1).  Its facets drop one target vertex x from one
    eta(v) with |eta(v)| >= 2, with the sign (-1)^(sum of |eta(u)|-1 over
    u < v, plus the position of x in eta(v)): source vertices in index
    order, the bits of each set increasing.  Dropping a vertex from a set
    leaves a multihomomorphism (a subset of a looped-complete set is still
    looped-complete), so every facet is a (k-1)-face.
    """

    def _boundary(self, k: int) -> list[list[tuple[int, int]]]:
        if k == 0:
            return [[(0, 1)] for _ in self.faces[0]]
        index = {e: i for i, e in enumerate(self.faces[k - 1])}
        cols = []
        for eta in self.faces[k]:
            col = []
            before = 0
            for v, mask in enumerate(eta):
                if mask & (mask - 1):
                    for pos, x in enumerate(bits(mask), before):
                        sub = eta[:v] + (mask ^ (1 << x),) + eta[v + 1:]
                        if sub not in index:
                            raise ValueError(
                                f"complex not closed: missing cell {sub}")
                        col.append((index[sub], -1 if pos % 2 else 1))
                before += mask.bit_count() - 1
            cols.append(col)
        return cols


def chain_complex_of_hom(hp: HomPoset) -> ChainComplex:
    """Cellular chain complex of Hom(G,H): one generator per element."""
    levels: list[list[tuple[int, ...]]] = []
    for e in hp.elements:
        r = rank_of(e)
        while len(levels) <= r:
            levels.append([])
        levels[r].append(e)
    return _HomCellComplex(levels)


def chain_complex_of_poset(p: Poset,
                           guards: Guards = DEFAULT_GUARDS) -> ChainComplex:
    """Chain complex of the order complex, without materializing facets."""
    levels: dict[int, list[tuple[int, ...]]] = {}
    for c in iter_chains(p, guards.chain_elements):
        levels.setdefault(len(c) - 1, []).append(tuple(sorted(c)))
    top = max(levels) + 1 if levels else 0
    out = []
    for k in range(top):
        level = levels.get(k, [])
        level.sort()
        out.append(level)
    return ChainComplex(out)


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


def _sparse_rank_divisors(columns: Sequence[Sequence[tuple[int, int]]],
                          guards: Guards) -> tuple[int, list[int]]:
    """Rank and elementary divisors of an integer matrix given by columns.

    Unit-pivot elimination with lazy Markowitz costs; whatever survives
    (entries all >= 2 in absolute value) goes through the dense SNF,
    bounded by the snf_nonzeros guard.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    heap: list[tuple[int, int, int]] = []
    for j, entries in enumerate(columns):
        for i, v in entries:
            if v:
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
    for i, r in rows.items():
        for j, v in r.items():
            if v in (1, -1):
                heap.append((0, i, j))
    heapq.heapify(heap)
    rank = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        r = rows.get(i)
        if r is None or j not in r or r[j] not in (1, -1):
            continue
        cur = (len(r) - 1) * (len(cols[j]) - 1)
        if cur > cost:
            heapq.heappush(heap, (cur, i, j))
            continue
        piv = r[j]
        pivot_row = rows.pop(i)
        for jj in pivot_row:
            cols[jj].discard(i)
        for target in list(cols[j]):
            tr = rows[target]
            mult = tr[j] * piv
            for jj, pv in pivot_row.items():
                nv = tr.get(jj, 0) - mult * pv
                if nv:
                    if jj not in tr:
                        cols[jj].add(target)
                    tr[jj] = nv
                    if nv in (1, -1):
                        heapq.heappush(heap, (0, target, jj))
                else:
                    if jj in tr:
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
    """Strict inverse of ``to_json`` over ``field_name``; anything else
    raises ValueError, KeyError or TypeError."""
    if data["field"] != field_name:
        raise ValueError(f"holds {data['field']!r} homology, not {field_name}")
    if type(data["empty"]) is not bool:
        raise ValueError(f"empty must be a JSON bool, got {data['empty']!r}")
    torsion = tuple(tuple(count_from_json(v, "torsion order") for v in t)
                    for t in data["torsion"])
    if any(v < 2 for t in torsion for v in t):
        raise ValueError(f"torsion orders must be at least 2, got {torsion}")
    return HomologyResult(field_name, data["empty"],
                          tuple(count_from_json(b, "betti number")
                                for b in data["betti"]), torsion)


def _coreduce(cc: ChainComplex) -> tuple[list[int],
                                         list[list[list[tuple[int, int]]]]]:
    """Counts and boundary columns of cc's augmented complex after
    coreduction (Mrozek-Batko, DCG 2009).

    The augmentation is paired with vertex 0, and the lowest vertex of each
    other component is a free summand of H~0, put last in degree 0: a chain
    in a component nothing was removed from has a boundary whose
    coefficients sum to 0, so it never hits that vertex.  Then, in FIFO
    order, a cell with exactly one live face, at incidence +-1, is removed
    together with that face.  Each removed pair is an elementary collapse
    of a unit entry, so the boundary of the cells left is the original
    boundary restricted to them, over Z and GF(2) alike, with no fill-in.
    """
    counts = cc.counts()
    cols = [[[] for _ in range(counts[0])]] + \
        [cc.boundary(k) for k in range(1, len(counts))]
    live = [[True] * n for n in counts]
    faces_left = [[len(col) for col in level] for level in cols]
    cofaces: list[list[list[int]]] = [[[] for _ in range(n)] for n in counts]
    for k in range(1, len(counts)):
        below = cofaces[k - 1]
        for j, col in enumerate(cols[k]):
            for i, _ in col:
                below[i].append(j)
    queue: deque[tuple[int, int]] = deque()

    def remove(k: int, i: int) -> None:
        live[k][i] = False
        if k + 1 < len(counts):
            up, up_live = faces_left[k + 1], live[k + 1]
            for j in cofaces[k][i]:
                up[j] -= 1
                if up[j] == 1 and up_live[j]:
                    queue.append((k + 1, j))

    free, seen = -1, [False] * counts[0]
    for v in range(counts[0]):
        if not seen[v]:  # the lowest vertex of a component: vertex 0 goes
            remove(0, v)  # with the augmentation, the others are free
            free += 1
            todo = [v]
            while todo:
                u = todo.pop()
                if not seen[u]:
                    seen[u] = True
                    todo += [w for j in cofaces[0][u] for w, _ in cols[1][j]]
    while queue:
        k, j = queue.popleft()
        if not live[k][j] or faces_left[k][j] != 1:
            continue
        below = live[k - 1]
        i, v = next((i, v) for i, v in cols[k][j] if below[i])
        if v in (1, -1):
            remove(k, j)
            remove(k - 1, i)
    left: list[int] = []
    out: list[list[list[tuple[int, int]]]] = []
    pos: list[int] = []
    for k, level in enumerate(cols):
        keep = [j for j, alive in enumerate(live[k]) if alive]
        out.append([[(pos[i], v) for i, v in level[j] if live[k - 1][i]]
                    for j in keep])
        pos = [0] * counts[k]
        for new, j in enumerate(keep):
            pos[j] = new
        left.append(len(keep))
    left[0] += free
    out[0] += [[] for _ in range(free)]
    return left, out


def homology_integral(cc: ChainComplex,
                      guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    if not cc.counts():
        return HomologyResult("Z", True, ())
    counts, cols = _coreduce(cc)
    dim = len(counts) - 1
    ranks = [0] * (dim + 2)
    divisors: list[list[int]] = [[] for _ in range(dim + 2)]
    for k in range(1, dim + 1):
        ranks[k], divisors[k] = _sparse_rank_divisors(cols[k], guards)
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))
    torsion = tuple(tuple(d for d in divisors[k + 1] if d > 1)
                    for k in range(dim + 1))
    return HomologyResult("Z", False, betti, torsion)


def homology_gf2(cc: ChainComplex,
                 guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    if not cc.counts():
        return HomologyResult("GF2", True, ())
    counts, cols = _coreduce(cc)
    dim = len(counts) - 1
    ranks = [0] * (dim + 2)
    for k in range(1, dim + 1):
        ranks[k] = gf2_rank(sum(1 << i for i, v in col if v % 2)
                            for col in cols[k])
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))
    return HomologyResult("GF2", False, betti)


def _homology(cc: ChainComplex, field_name: str,
              guards: Guards) -> HomologyResult:
    return homology_integral(cc, guards) if field_name == "Z" \
        else homology_gf2(cc, guards)


def homology_of_complex(x: SimplicialComplex, field_name: str = "Z",
                        guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    return _homology(chain_complex(x, guards), field_name, guards)


def poset_homology(p: Poset, field_name: str = "Z",
                   guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    """Homology of the order complex of any poset (one generator per chain)."""
    return _homology(chain_complex_of_poset(p, guards), field_name, guards)


def hom_homology(hp: HomPoset, field_name: str = "Z",
                 guards: Guards = DEFAULT_GUARDS) -> HomologyResult:
    """Homology of Hom(G,H) from its cellular complex.

    Hom(G,H) is the face poset of that complex, so this equals
    ``poset_homology(hp.poset)``, without materializing the order.
    """
    return _homology(chain_complex_of_hom(hp), field_name, guards)


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


def universal_coefficients_ok(z: HomologyResult, f2: HomologyResult) -> bool:
    """dim_F2 H~_d = b~_d + #2-torsion(d) + #2-torsion(d-1)."""
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


def closure_reduce(p: Poset, c: PosetMap) -> tuple[Poset, tuple[int, ...]]:
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
