"""Experiment registry, content-addressed cache, and run reports.

This module ties the constructions together into named, reproducible
experiments.  Each experiment is a deterministic desk-scale computation with
a machine-comparable expected outcome; its runner yields one
``(passed, text)`` check per claim, and ``run_experiment`` alone turns the
checks into a ``RunReport``.  Its outcome is ``"pass"`` when there is at
least one check and all hold, else ``"fail"``, or ``"skipped (guard)"`` when
a size guard stopped an enumeration; its measured text joins the check
texts with ``"; "``.  Collections of reports render as an aligned text
table, JSON, or CSV with the header ``id,pass,expected,measured,seconds``.

Hom homology (on the cellular complex of the Hom poset) and poset homology
results can persist in a content-addressed cache: keys are SHA-256 digests
of the canonical JSON of the inputs and the guards, an entry is the result
alone, a header digest detects corruption, and a hit is refused unless it
holds a result over the requested field.  A result under given guards is
exact or a ``GuardExceeded``, so keying on the guards makes a warm call
return or raise what the cold one does; a call under other guards misses
and recomputes.  Hom posets are not cached: enumerating one is
faster than decoding it.  The cache directory is an explicit path; without
one, every computation runs fresh.

``RunContext.hom_homology`` is the one path from two graphs to Hom
homology for the registry and the CLI.  On a cache miss it enumerates
Hom(g,h), builds and checks its cellular complex and reduces it to its
Morse complex, then keeps only that complex's counts and columns, keyed by
source, target and guards.  A request for the other field of that pair then runs its own
elimination on them and nothing else; each field's guards, such as
``snf_nonzeros`` over Z, still apply to it.  Nothing here reads the
environment: guards, cache and report directory are all passed in.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (Callable, Iterable, Iterator, Mapping, Optional, Sequence,
                    Union)

from .actions import (GraphAction, check_chain_discontinuity,
                      equivariant_poset_maps, is_d_discontinuous, z2_group)
from .families import (cross_polytope_complex, csorba_graph, cycle_face_poset,
                       equivariant_coloring_step, iterated_mycielski,
                       mycielski, spherical_graph, subdivision_coloring,
                       twisted_toroidal, universality_graph)
from .graphs import (Graph, bits, check_homomorphism, chromatic_number,
                     complete_graph, count_from_json, cycle_graph,
                     exponential, graph_to_json, is_fine, is_isomorphic,
                     looped_path, odd_girth, product, reflexive_closure,
                     reflexive_cycle)
from .homology import (Coreduced, HomologyResult, _coreduce, chain_complex,
                       chain_complex_of_hom, closure_reduce,
                       coreduced_homology, hom_homology, homology_from_json,
                       homology_of_complex, klein_bottle_complex,
                       poset_homology, simplex_boundary, suspension_check,
                       torus_complex)
from .homposets import (HomPoset, adjunction_report, hom_poset,
                        induced_hom_action, loop_addition_maps,
                        poset_adjunction_report, quotient_compare)
from .limits import DEFAULT_GUARDS, GuardExceeded, Guards
from .posets import (Poset, PosetMap, SimplicialComplex, atom_graph,
                     chain_poset, face_poset, from_leq_pairs, make_complex,
                     order_complex, poset_to_json)

__all__ = [
    "Cache", "CacheCorrupt", "Experiment", "RunContext", "RunReport",
    "cached_poset_homology", "canonical_json",
    "content_key", "get_experiment", "guard_overrides",
    "hom_cache_key", "homology_cache_key", "list_experiments", "load_reports",
    "render_report", "report_from_json", "run_experiment", "run_experiments",
]


# ---------------------------------------------------------------------------
# guard configuration

_GUARD_FIELDS = frozenset(f.name for f in fields(Guards))


def guard_overrides(data: Mapping) -> dict[str, int]:
    """The guard fields a config object sets, as ints.

    A {"guards": ...} wrapper is removed, and any key beside it refused;
    unknown field names are refused, and each value is read by
    ``count_from_json``.
    The result stays sparse: a field it leaves out keeps the value of the
    guards it is laid over, such as an experiment's own raised defaults.
    """
    if not isinstance(data, Mapping):
        raise ValueError("guard config must be a JSON object")
    if "guards" in data and isinstance(data["guards"], Mapping):
        beside = sorted(set(data) - {"guards"})
        if beside:
            raise ValueError(f"keys beside the guards wrapper: "
                             f"{', '.join(beside)}")
        data = data["guards"]
    unknown = sorted(set(data) - _GUARD_FIELDS)
    if unknown:
        raise ValueError(f"unknown guard fields: {', '.join(unknown)}")
    return {k: count_from_json(v, f"guard field {k}") for k, v in data.items()}


# ---------------------------------------------------------------------------
# content-addressed cache

class CacheCorrupt(RuntimeError):
    """A cache file failed its integrity check."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_key(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


class Cache:
    """Content-addressed JSON-lines store for homology results.

    Every entry is one file ``<key>.jsonl``: a header line carrying the entry
    kind and the SHA-256 of the body, then one JSON line per record.  A load
    recomputes the body digest and raises :class:`CacheCorrupt` on mismatch,
    so a tampered or truncated file can never masquerade as a result.
    ``Cache()``, with no directory, is the one spelling of "no cache": it
    stores nothing and counts no hits or misses, so one can be shared.
    """

    def __init__(self, directory: Union[str, os.PathLike, None] = None):
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    def path_for(self, key: str) -> Path:
        if not self.enabled:
            raise ValueError("cache has no directory configured")
        return self.directory / f"{key}.jsonl"

    def store(self, key: str, kind: str, lines: Sequence[str]) -> None:
        if not self.enabled:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        body = "".join(line + "\n" for line in lines)
        header = canonical_json({
            "kind": kind,
            "lines": len(lines),
            "sha256": hashlib.sha256(body.encode()).hexdigest(),
        })
        target = self.path_for(key)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(header + "\n" + body, encoding="utf-8")
        tmp.replace(target)

    def load(self, key: str, kind: str) -> Optional[list[str]]:
        """Body lines of the entry, or None on a miss; corrupt entries raise."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        raw = path.read_text(encoding="utf-8")
        head, sep, body = raw.partition("\n")
        try:
            header = json.loads(head)
        except json.JSONDecodeError as exc:
            raise CacheCorrupt(f"unreadable header in {path.name}") from exc
        if not sep or not isinstance(header, dict):
            raise CacheCorrupt(f"malformed cache entry {path.name}")
        if header.get("kind") != kind:
            raise CacheCorrupt(
                f"cache entry {path.name} holds "
                f"'{header.get('kind')}', expected '{kind}'")
        if hashlib.sha256(body.encode()).hexdigest() != header.get("sha256"):
            raise CacheCorrupt(f"hash mismatch in cache entry {path.name}")
        lines = body.splitlines()
        if len(lines) != header.get("lines"):
            raise CacheCorrupt(f"line count mismatch in {path.name}")
        self.hits += 1
        return lines


def hom_cache_key(g: Graph, h: Graph, field_name: str,
                  guards: Guards) -> str:
    """Key of the entry holding the homology of Hom(g,h) over a field,
    computed under ``guards``.  Every guard field is an int, so ``vars``
    gives what ``asdict`` would, without its deep copy."""
    return content_key({"kind": "guarded-hom-homology", "field": field_name,
                        "guards": vars(guards),
                        "source": graph_to_json(g),
                        "target": graph_to_json(h)})


def cached_hom_poset(g: Graph, h: Graph,
                     guards: Guards = DEFAULT_GUARDS) -> HomPoset:
    # Nothing calls this.  It stays only because perfbench/tracing.py wraps
    # it by name; delete it when the tracer's table drops it.
    return hom_poset(g, h, guards)


def _load_homology(cache: Cache, key: str,
                   field_name: str) -> Optional[HomologyResult]:
    """The cached result, or None on a miss."""
    lines = cache.load(key, "homology")
    if lines is None:
        return None
    try:
        (line,) = lines
        return homology_from_json(json.loads(line), field_name)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheCorrupt(
            f"malformed homology entry {key}: {exc!r}") from None


def homology_cache_key(p: Poset, field_name: str, guards: Guards) -> str:
    """Key of the entry holding the order-complex homology of p over a
    field, computed under ``guards``."""
    return content_key({"kind": "guarded-poset-homology",
                        "field": field_name, "guards": vars(guards),
                        "poset": poset_to_json(p)})


def cached_poset_homology(p: Poset, field_name: str = "Z",
                          guards: Guards = DEFAULT_GUARDS,
                          cache: Cache = Cache()) -> HomologyResult:
    """Order-complex homology of p, cached by (poset, field, guards)."""
    key = homology_cache_key(p, field_name, guards)
    res = _load_homology(cache, key, field_name)
    if res is None:
        res = poset_homology(p, field_name, guards)
        cache.store(key, "homology", [canonical_json(res.to_json())])
    return res


# ---------------------------------------------------------------------------
# experiments

@dataclass
class RunContext:
    """Guards plus cache handed to every experiment runner, and the Morse
    complex of the cellular complex of the last Hom pair it built."""

    guards: Guards = DEFAULT_GUARDS
    cache: Cache = field(default_factory=Cache)
    # (source, target, guards, Morse complex): a one-entry memo, keyed
    # by the guards too because a caller may replace them
    _last_hom: Optional[tuple[Graph, Graph, Guards, Coreduced]] = field(
        default=None, init=False, repr=False, compare=False)

    def hom(self, g: Graph, h: Graph) -> HomPoset:
        return hom_poset(g, h, self.guards)

    def homology(self, p: Poset, field_name: str = "Z") -> HomologyResult:
        """Order-complex homology of a general poset; Hom(g,h) goes through
        ``hom_homology``, which needs no order relation."""
        return cached_poset_homology(p, field_name, self.guards, self.cache)

    def hom_homology(self, g: Graph, h: Graph,
                     field_name: str = "Z") -> HomologyResult:
        """Cellular homology of Hom(g,h), cached by (source, target, field,
        guards); a miss eliminates on the memo's Morse complex when it
        holds this pair under these guards."""
        key = hom_cache_key(g, h, field_name, self.guards)
        res = _load_homology(self.cache, key, field_name)
        if res is None:
            res = coreduced_homology(self._coreduced_hom(g, h), field_name,
                                     self.guards)
            self.cache.store(key, "homology", [canonical_json(res.to_json())])
        return res

    def _coreduced_hom(self, g: Graph, h: Graph) -> Coreduced:
        last = self._last_hom
        if last is not None and last[:3] == (g, h, self.guards):
            return last[3]
        # the full complex is freed once reduced; a GuardExceeded from the
        # enumeration or the reduction leaves the memo as it was
        reduced = _coreduce(chain_complex_of_hom(hom_poset(g, h,
                                                           self.guards)),
                            self.guards)
        self._last_hom = (g, h, self.guards, reduced)
        return reduced


Check = tuple[bool, str]
Runner = Callable[[RunContext], Iterator[Check]]


@dataclass(frozen=True)
class Experiment:
    """A registered, deterministic computation with a pinned expectation;
    its runner is a generator of one ``(passed, text)`` check per claim."""

    id: str
    criterion: int        # acceptance criterion number; 0 = extra example
    description: str
    expected: str         # machine-comparable expected outcome
    provenance: str       # where the expected value comes from
    runner: Runner = field(compare=False, repr=False)
    guards: Guards = field(default=DEFAULT_GUARDS, compare=False, repr=False)


_OUTCOMES = ("pass", "fail", "skipped (guard)")


@dataclass(frozen=True)
class RunReport:
    id: str
    outcome: str          # "pass" | "fail" | "skipped (guard)"
    expected: str
    measured: str
    seconds: float
    cache_hits: int = 0

    def __post_init__(self):
        if self.outcome not in _OUTCOMES:
            raise ValueError(f"unknown outcome '{self.outcome}'")

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_json(self) -> dict:
        return {"id": self.id, "outcome": self.outcome,
                "expected": self.expected, "measured": self.measured,
                "seconds": self.seconds, "cache_hits": self.cache_hits}


def report_from_json(data: dict) -> RunReport:
    """A report read back from JSON; a field of the wrong type is refused."""
    for key in ("id", "expected", "measured"):
        if not isinstance(data[key], str):
            raise ValueError(f"{key} must be a string, not {data[key]!r}")
    seconds = data["seconds"]
    if (isinstance(seconds, bool) or not isinstance(seconds, (int, float))
            or not 0 <= seconds < math.inf):
        raise ValueError("seconds must be a finite non-negative number, "
                         f"not {seconds!r}")
    return RunReport(data["id"], data["outcome"], data["expected"],
                     data["measured"], float(seconds),
                     count_from_json(data.get("cache_hits", 0), "cache_hits"))


# ---------------------------------------------------------------------------
# experiment runners

def _run_sphere_homology(ctx: RunContext) -> Iterator[Check]:
    k2 = complete_graph(2)
    for n in range(2, 6):
        res = ctx.hom_homology(k2, complete_graph(n))
        yield res.is_sphere(n - 2), f"Hom(K2,K{n}): {res}"


def _run_toroidal_invariants(ctx: RunContext) -> Iterator[Check]:
    for k in (1, 2):
        for m in (2, 3, 5):
            g = twisted_toroidal(k, m).graph
            chi = chromatic_number(g, ctx.guards)
            yield chi == k + 2, f"chi(T({k},{m}))={chi}"
            if m in (3, 5):
                og = odd_girth(g)
                deg = max(g.degree(v) for v in range(g.n))
                yield (og == m and deg == 3 ** k,
                       f"og(T({k},{m}))={og},maxdeg={deg}")


def _run_spherical_graphs(ctx: RunContext) -> Iterator[Check]:
    for m in (1, 2):
        chi = chromatic_number(spherical_graph(1, m, ctx.guards).graph,
                               ctx.guards)
        yield chi == 3, f"chi(S(1,{m}))={chi}"
    iso = is_isomorphic(spherical_graph(1, 0, ctx.guards).graph,
                        complete_graph(4))
    yield iso, f"S(1,0)~=K4:{iso}"
    res = ctx.hom_homology(complete_graph(2),
                           spherical_graph(1, 1, ctx.guards).graph)
    yield res.is_sphere(1), f"Hom(K2,S(1,1)): {res}"


def _run_toroidal_circles(ctx: RunContext) -> Iterator[Check]:
    for m in (5, 6):
        res = ctx.hom_homology(complete_graph(2),
                               twisted_toroidal(1, m).graph)
        yield res.is_sphere(1), f"Hom(K2,T(1,{m})): {res}"


def _run_mycielski_suite(ctx: RunContext) -> Iterator[Check]:
    k2 = complete_graph(2)
    iso = is_isomorphic(mycielski(k2, 2), cycle_graph(5))
    yield iso, f"M_2(K2)~=C5:{iso}"
    for k in (0, 1, 2):
        chi = chromatic_number(iterated_mycielski(k2, 2, k), ctx.guards)
        yield chi == k + 2, f"chi(M^{k}_2(K2))={chi}"
    for name, g in (("K2", k2), ("K3", complete_graph(3))):
        base = ctx.hom_homology(k2, g)
        for m in (2, 3):
            top = ctx.hom_homology(k2, mycielski(g, m))
            good = suspension_check(base, top)
            yield good, f"suspension(K2->{name},m={m}):{good}"


def _diagonal_flip_shift(m: int) -> tuple[Graph, GraphAction]:
    """K2 x C(2m) reflexive with the simultaneous swap/half-turn involution."""
    c = reflexive_cycle(2 * m)
    g = product(complete_graph(2), c)
    perm = tuple((1 - v // c.n) * c.n + (v % c.n + m) % c.n
                 for v in range(g.n))
    return g, GraphAction(z2_group(), g, (tuple(range(g.n)), perm))


def _run_quotient_commutation(ctx: RunContext) -> Iterator[Check]:
    for m in (3, 4, 5):
        g, act = _diagonal_flip_shift(m)
        qc = quotient_compare(complete_graph(2), g, act, ctx.guards)
        yield (qc.hypothesis_ok and qc.free and qc.strongly_regular
               and qc.iso and qc.rank_preserved and qc.warning is None,
               f"m={m}: hypothesis={qc.hypothesis_ok},free={qc.free},"
               f"strongly_regular={qc.strongly_regular},iso={qc.iso},"
               f"rank_preserved={qc.rank_preserved}")


def _run_adjunctions(ctx: RunContext) -> Iterator[Check]:
    # one helper per side, so each report is freed before the next is built
    yield _graph_adjunction_check(ctx)
    yield _poset_adjunction_check(ctx)


def _graph_adjunction_check(ctx: RunContext) -> Check:
    rep = adjunction_report(complete_graph(2), reflexive_cycle(6),
                            complete_graph(3), ctx.guards)
    return (rep.roundtrip_identity and rep.increasing and rep.closure_ok,
            f"graph side ({rep.hom_product.m} elements): "
            f"roundtrip={rep.roundtrip_identity},increasing={rep.increasing},"
            f"closure={rep.closure_ok}")


def _poset_adjunction_check(ctx: RunContext) -> Check:
    prep = poset_adjunction_report(cycle_face_poset(3).poset,
                                   reflexive_cycle(6), ctx.guards)
    return (prep.roundtrip_identity and prep.decreasing,
            f"poset side ({prep.maps_checked} maps): "
            f"roundtrip={prep.roundtrip_identity},"
            f"decreasing={prep.decreasing}")


def _run_equivariant_maps(ctx: RunContext) -> Iterator[Check]:
    k2, k3 = complete_graph(2), complete_graph(3)
    flip = GraphAction(z2_group(), k2, ((0, 1), (1, 0)))
    target = induced_hom_action(ctx.hom(k2, k3), source_action=flip)
    eq6 = equivariant_poset_maps(cycle_face_poset(3).antipodal, target,
                                 ctx.guards)
    left = ctx.homology(eq6)
    right = ctx.hom_homology(twisted_toroidal(1, 3).graph, k3)
    match = left == right
    yield match, (f"hexagon: {eq6.m} maps, homology {left} vs "
                  f"Hom(T(1,3),K3) {right}, equal={match}")
    eq4 = equivariant_poset_maps(cycle_face_poset(2).antipodal, target,
                                 ctx.guards)
    hom_k4_k3 = ctx.hom(complete_graph(4), k3)
    both_empty = eq4.m == 0 and hom_k4_k3.m == 0
    yield both_empty, (f"square: {eq4.m} maps, Hom(K4,K3) {hom_k4_k3.m} "
                       f"elements, both_empty={both_empty}")


def _polygon_face_poset(sides: int) -> Poset:
    edges = [[i, (i + 1) % sides] for i in range(sides)]
    return face_poset(make_complex(sides, edges))


def _run_fine_loop_addition(ctx: RunContext) -> Iterator[Check]:
    for m in (3, 4):
        fine = is_fine(reflexive_cycle(2 * m), ctx.guards)
        yield fine, f"fine(C{2 * m} reflexive)={fine}"
    for sides in (3, 4, 5):
        ag, _ = atom_graph(chain_poset(_polygon_face_poset(sides),
                                       ctx.guards))
        fine = is_fine(ag, ctx.guards)
        yield fine, f"fine(Chain({sides}-gon faces)^1)={fine}"
    a = ctx.hom_homology(reflexive_closure(complete_graph(2)),
                         reflexive_cycle(8))
    b = ctx.hom_homology(complete_graph(2), reflexive_cycle(8))
    yield a == b, (f"Hom(K2+loops,C8 reflexive)={a} vs Hom(K2,C8 "
                   f"reflexive)={b}, equal={a == b}")
    la = loop_addition_maps(complete_graph(2), reflexive_cycle(8), ctx.guards)
    flags = (la.j_dominates_reflexive_top and la.i_j_below_h
             and la.h_dominates_top)
    yield flags, f"comparison maps dominate:{flags}"


def _square_boundary() -> tuple[SimplicialComplex, tuple[int, ...]]:
    """The 4-gon boundary complex with its antipodal involution."""
    return make_complex(4, [[0, 1], [1, 2], [2, 3], [3, 0]]), (2, 3, 0, 1)


def _run_csorba_square(ctx: RunContext) -> Iterator[Check]:
    x, involution = _square_boundary()
    g = csorba_graph(x, involution, ctx.guards)
    res = ctx.hom_homology(complete_graph(2), g)
    yield res.is_sphere(1), f"graph on {g.n} vertices; Hom(K2,-): {res}"


def _run_k2_s21_sphere(ctx: RunContext) -> Iterator[Check]:
    # one context, so the second field eliminates on the first's complex
    g = spherical_graph(2, 1, ctx.guards).graph
    for field_name in ("Z", "GF2"):
        res = ctx.hom_homology(complete_graph(2), g, field_name)
        yield res.is_sphere(2), f"Hom(K2,S(2,1)) over {field_name}: {res}"


def _run_universality(ctx: RunContext) -> Iterator[Check]:
    for ok, text in _run_csorba_square(ctx):
        yield ok, f"square: {text}"
    points = make_complex(6, [[i] for i in range(6)])
    ug = universality_graph(points, 3, "regular", ctx.guards)
    iso = is_isomorphic(ug, complete_graph(3))
    yield iso, f"six points, n=3: graph~=K3:{iso}"
    hp = ctx.hom(complete_graph(3), ug)
    # every element lies above an atom, so all atoms means an antichain
    isolated = hp.m == 6 and len(hp.atoms) == hp.m
    res = ctx.hom_homology(complete_graph(3), ug)
    six_points = (not res.empty and res.betti == (5,)
                  and not any(res.torsion))
    yield (isolated and six_points,
           f"Hom(K3,K3): {hp.m} elements, isolated={isolated}, "
           f"homology={res}")


def _run_discontinuity(ctx: RunContext) -> Iterator[Check]:
    octagon = cycle_face_poset(4)
    for k in range(4):
        good = check_chain_discontinuity(octagon.antipodal, k, ctx.guards)
        yield good, (f"(Chain^{k} of octagon faces)^1 "
                     f"{2 ** k}-discontinuous:{good}")
    c10 = reflexive_cycle(10)
    act = GraphAction(z2_group(), c10,
                      (tuple(range(10)),
                       tuple((i + 5) % 10 for i in range(10))))
    good = is_d_discontinuous(act, 5)
    yield good, f"C10 reflexive antipodal 5-discontinuous:{good}"


def _equivariance_holds(coloring: Sequence[int], act: GraphAction,
                        ncolors: int) -> bool:
    """The involution swaps colors 0 and 1 and fixes the rest."""
    swap = (1, 0) + tuple(range(2, ncolors))
    tau = act.maps[1]
    return all(coloring[tau[v]] == swap[coloring[v]]
               for v in range(len(coloring)))


def _run_colorings(ctx: RunContext) -> Iterator[Check]:
    for name, k in (("square", 1), ("octahedron", 2)):
        cross = cross_polytope_complex(k, 0, ctx.guards)
        sc = subdivision_coloring(cross.poset, cross.antipodal, ctx.guards)
        proper = check_homomorphism(sc.coloring, sc.twisted.graph, sc.target)
        yield (proper and sc.target.n == k + 2,
               f"{name}: {sc.target.n} colors on "
               f"{sc.twisted.graph.n} vertices, proper={proper}")
    coloring: Sequence[int] = (0, 1)
    act = GraphAction(z2_group(), complete_graph(2), ((0, 1), (1, 0)))
    for k in (1, 2):
        ec = equivariant_coloring_step(act, coloring, k - 1, 3)
        same = ec.twisted.graph.adj == twisted_toroidal(k, 3).graph.adj
        proper = check_homomorphism(ec.coloring, ec.twisted.graph, ec.target)
        equi = _equivariance_holds(ec.coloring, ec.twisted.right_action,
                                   k + 2)
        yield (same and proper and equi and ec.target.n == k + 2,
               f"T({k},3)->K{k + 2}: graph_matches={same},"
               f"proper={proper},equivariant={equi}")
        coloring, act = ec.coloring, ec.twisted.right_action


def _symmetric(g: Graph) -> bool:
    return all((g.adj[v] >> w & 1) == (g.adj[w] >> v & 1)
               for v in range(g.n) for w in range(v, g.n))


def _euler_betti_ok(ctx: RunContext, x: SimplicialComplex) -> bool:
    cc = chain_complex(x, ctx.guards)
    res = homology_of_complex(x, "Z", ctx.guards)
    if res.empty:
        return cc.euler_characteristic() == 0
    reduced = sum((-1) ** d * b for d, b in enumerate(res.betti))
    return cc.euler_characteristic() == 1 + reduced


def _closure_invariance_ok(ctx: RunContext) -> bool:
    rep = adjunction_report(complete_graph(2), complete_graph(2),
                            complete_graph(3), ctx.guards)
    if not rep.closure_ok:
        return False
    p = rep.hom_curried.poset  # closure_reduce needs the order; it is small
    closure = PosetMap(p, p, tuple(rep.phi[j] for j in rep.psi))
    sub, _ = closure_reduce(closure)
    return ctx.homology(sub) == hom_homology(rep.hom_curried, "Z", ctx.guards)


def _comparability_identity_ok(ctx: RunContext, p: Poset) -> bool:
    ag, atoms = atom_graph(chain_poset(p, ctx.guards))
    if list(atoms) != list(range(p.m)):
        return False
    return all(bool(ag.adj[a] >> b & 1) == p.comparable(a, b)
               for a in range(p.m) for b in range(p.m))


def _chromatic_brute(g: Graph) -> int:
    edges = [(v, w) for v in range(g.n) for w in bits(g.adj[v]) if w > v]
    for k in range(1, g.n + 1):
        for col in itertools.product(range(k), repeat=g.n):
            if all(col[v] != col[w] for v, w in edges):
                return k
    return g.n


def _roster_graphs(ctx: RunContext) -> list[Graph]:
    return [
        complete_graph(1), complete_graph(2), complete_graph(3),
        complete_graph(4), cycle_graph(4), cycle_graph(5), cycle_graph(6),
        cycle_graph(7), reflexive_cycle(6), looped_path(3),
        product(complete_graph(2), cycle_graph(5)),
        exponential(complete_graph(2), complete_graph(3), ctx.guards),
        twisted_toroidal(1, 3).graph,
        spherical_graph(1, 1, ctx.guards).graph,
        mycielski(complete_graph(2), 2),
        csorba_graph(*_square_boundary(), ctx.guards),
    ]


def _roster_complexes() -> list[SimplicialComplex]:
    square, _ = _square_boundary()
    return [simplex_boundary(2), simplex_boundary(3), torus_complex(),
            klein_bottle_complex(), square,
            order_complex(cycle_face_poset(3).poset)]


def _roster_posets(ctx: RunContext) -> list[Poset]:
    return [cycle_face_poset(3).poset, face_poset(simplex_boundary(2)),
            from_leq_pairs(4, [(0, 1), (1, 2), (2, 3)]),
            from_leq_pairs(5, []),
            ctx.hom(complete_graph(2), complete_graph(3)).poset]


def _run_property_sweeps(ctx: RunContext) -> Iterator[Check]:
    graphs = _roster_graphs(ctx)
    sym = all(_symmetric(g) for g in graphs)
    yield sym, f"adjacency symmetric on {len(graphs)} graphs:{sym}"
    complexes = _roster_complexes()
    try:
        for x in complexes:
            chain_complex(x, ctx.guards)  # checks boundary^2 = 0
        dd = True
    except ValueError:
        dd = False
    yield dd, f"boundary^2=0 on {len(complexes)} complexes:{dd}"
    eb = all(_euler_betti_ok(ctx, x) for x in complexes)
    yield eb, (f"Euler=1+alternating Betti on {len(complexes)} "
               f"complexes:{eb}")
    cl = _closure_invariance_ok(ctx)
    yield cl, f"closure-map homology invariance:{cl}"
    posets = _roster_posets(ctx)
    comp = all(_comparability_identity_ok(ctx, p) for p in posets)
    yield comp, (f"chain atom graph = comparability on {len(posets)} "
                 f"posets:{comp}")
    small = [g for g in graphs
             if g.n <= 8 and not any(g.adj[v] >> v & 1 for v in range(g.n))]
    chi = all(chromatic_number(g, ctx.guards) == _chromatic_brute(g)
              for g in small)
    yield chi, (f"chromatic number matches brute force on {len(small)} "
                f"graphs:{chi}")


# ---------------------------------------------------------------------------
# registry

def _build_registry() -> dict[str, Experiment]:
    entries = (
        Experiment(
            "hom-k2-kn-sphere", 1,
            "Reduced integral homology of Hom(K2,Kn) for n=2..5 matches the "
            "(n-2)-sphere.",
            "Hom(K2,Kn) ~ S^(n-2) over Z for n=2..5",
            "closed form", _run_sphere_homology),
        Experiment(
            "tkm-invariants", 2,
            "Chromatic number, odd girth, and maximum degree of the twisted "
            "toroidal graphs T(k,m).",
            "chi(T(k,m))=k+2 for k in {1,2}, m in {2,3,5}; odd girth=m and "
            "max degree=3^k for odd m in {3,5}",
            "closed form", _run_toroidal_invariants),
        Experiment(
            "spherical-graphs", 3,
            "Chromatic numbers, the smallest isomorphism type, and circle "
            "Hom homology for the spherical graphs S(k,m).",
            "chi(S(1,m))=3 for m in {1,2}; S(1,0)~=K4; Hom(K2,S(1,1)) ~ S^1",
            "closed form", _run_spherical_graphs),
        Experiment(
            "hom-k2-t1m-circle", 4,
            "Hom(K2,T(1,m)) has the reduced integral homology of a circle.",
            "Hom(K2,T(1,m)) ~ S^1 over Z for m in {5,6}",
            "closed form", _run_toroidal_circles),
        Experiment(
            "mycielski-suite", 5,
            "Generalized Mycielski constructions: the C5 base case, "
            "chromatic growth, and suspension of Hom(K2,-) homology.",
            "M_2(K2)~=C5; chi(M^k_2(K2))=k+2 for k<=2; suspension check "
            "passes for G in {K2,K3}, m in {2,3}",
            "closed form", _run_mycielski_suite),
        Experiment(
            "quotient-commutation", 6,
            "Hom(K2,-) commutes with the quotient of K2 x C(2m) reflexive "
            "by the simultaneous swap/half-turn involution.",
            "walk hypothesis holds; induced action free and strongly "
            "regular; quotient comparison map a poset isomorphism for "
            "m in {3,4,5}",
            "independent enumeration", _run_quotient_commutation),
        Experiment(
            "adjunction-roundtrips", 7,
            "Currying and single-vertex adjunction round trips, checked on "
            "every element.",
            "psi(phi(x))=x everywhere; phi(psi(y)) comparable to the "
            "identity in the stated direction",
            "independent enumeration", _run_adjunctions),
        Experiment(
            "equivariant-poset-maps", 8,
            "Equivariant poset maps from subdivided cycle face posets into "
            "Hom(K2,K3), compared with Hom posets of twisted toroidal "
            "sources.",
            "hexagon map poset homology equals Hom(T(1,3),K3) homology; "
            "square map poset and Hom(K4,K3) both empty",
            "independent enumeration", _run_equivariant_maps),
        Experiment(
            "fine-loop-addition", 9,
            "Fineness of reflexive cycles and chain atom graphs; adding "
            "loops to the source preserves Hom homology for fine targets.",
            "is_fine true on all stated instances; Hom(K2+loops,C8 "
            "reflexive) and Hom(K2,C8 reflexive) homology equal; comparison "
            "maps dominate",
            "independent enumeration", _run_fine_loop_addition),
        Experiment(
            "universality", 10,
            "Universality constructions: the square boundary yields circle "
            "Hom homology; six free points with the regular action yield "
            "K3.",
            "Hom(K2,csorba(square)) ~ S^1; universality(6 points,n=3)~=K3 "
            "and Hom(K3,K3) is six isolated atoms",
            "closed form", _run_universality),
        Experiment(
            "discontinuity", 11,
            "Antipodal actions on iterated chain atom graphs are "
            "2^k-discontinuous.",
            "(Chain^k of octagon faces)^1 is 2^k-discontinuous for k=0..3; "
            "C10 reflexive antipodal is 5-discontinuous",
            "closed form", _run_discontinuity),
        Experiment(
            "colorings", 12,
            "Subdivision colorings of cross-polytope boundaries and the "
            "equivariant coloring tower for T(k,3).",
            "proper (n+2)-colorings for the square (n=1) and octahedron "
            "(n=2); validated equivariant homomorphisms T(k,3)->K(k+2) for "
            "k in {1,2}",
            "closed form", _run_colorings),
        Experiment(
            "property-suites", 13,
            "Deterministic property sweeps across a roster of constructed "
            "graphs, posets, and complexes.",
            "adjacency symmetry; boundary^2=0; Euler/Betti consistency; "
            "closure-map homology invariance; comparability identity; "
            "brute-force chromatic agreement for |V|<=8",
            "independent enumeration", _run_property_sweeps),
        Experiment(
            "csorba-square", 0,
            "Standalone square-boundary instance of the two-coloring "
            "universality construction.",
            "Hom(K2,csorba(square)) ~ S^1 over Z",
            "closed form", _run_csorba_square),
        Experiment(
            "hom-k2-s21-sphere", 0,
            "Hom(K2,S(2,1)) has the reduced homology of the 2-sphere over Z "
            "and over GF(2).",
            "Hom(K2,S(2,1)) ~ S^2 over Z and over GF(2)",
            "closed form", _run_k2_s21_sphere),
    )
    registry: dict[str, Experiment] = {}
    for exp in entries:
        if exp.id in registry:
            raise ValueError(f"duplicate experiment id '{exp.id}'")
        registry[exp.id] = exp
    return registry


EXPERIMENTS: dict[str, Experiment] = _build_registry()


def list_experiments() -> tuple[Experiment, ...]:
    return tuple(EXPERIMENTS.values())


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(f"unknown experiment id '{exp_id}'; known ids: "
                         f"{', '.join(EXPERIMENTS)}") from None


# ---------------------------------------------------------------------------
# running and reporting

def run_experiment(exp_id: str, overrides: Optional[Mapping] = None,
                   cache: Cache = Cache(),
                   report_dir: Union[str, os.PathLike, None] = None
                   ) -> RunReport:
    """Run one registered experiment and persist its report.

    ``overrides`` is a sparse guard mapping, read by ``guard_overrides`` and
    laid over the experiment's own guards.  Guard overflows are soft: a
    ``GuardExceeded`` from any enumeration, even after some checks were
    yielded, turns into the outcome ``"skipped (guard)"`` rather than an
    exception.  The report is written
    to ``report_dir`` when one is given, else nowhere.
    """
    exp = get_experiment(exp_id)
    guards = exp.guards.scaled(**guard_overrides(overrides or {}))
    hits_before = cache.hits
    ctx = RunContext(guards, cache)
    start = time.perf_counter()
    try:
        checks = list(exp.runner(ctx))
        outcome = "pass" if checks and all(ok for ok, _ in checks) else "fail"
        measured = "; ".join(text for _, text in checks)
    except GuardExceeded as exc:
        outcome, measured = "skipped (guard)", str(exc)
    seconds = round(time.perf_counter() - start, 3)
    rep = RunReport(exp.id, outcome, exp.expected, measured, seconds,
                    cache.hits - hits_before)
    if report_dir is not None:
        directory = Path(report_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{rep.id}.json").write_text(
            json.dumps(rep.to_json(), indent=2) + "\n", encoding="utf-8")
    return rep


def run_experiments(ids: Optional[Iterable[str]] = None,
                    overrides: Optional[Mapping] = None,
                    cache: Cache = Cache(),
                    report_dir: Union[str, os.PathLike, None] = None,
                    jobs: int = 1) -> list[RunReport]:
    """Run several experiments in order, in this process.

    Every id is checked before the first experiment runs, so an unknown id
    runs nothing.  ``jobs`` must be 1.
    """
    # Only perfbench/workloads.py passes jobs, and only jobs=1.  It stays for
    # that caller; delete it when the benchmark stops passing it.
    if jobs != 1:
        raise ValueError(f"experiments run in one process; jobs must be 1, "
                         f"not {jobs}")
    id_list = list(EXPERIMENTS) if ids is None else list(ids)
    for exp_id in id_list:
        get_experiment(exp_id)
    return [run_experiment(exp_id, overrides, cache, report_dir)
            for exp_id in id_list]


def load_reports(directory: Union[str, os.PathLike]) -> list[RunReport]:
    """Read persisted reports, ordered by registry position then id."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    reports = []
    for path in sorted(directory.glob("*.json")):
        try:
            reports.append(report_from_json(json.loads(
                path.read_text(encoding="utf-8"))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed report: {exc!r}") from None
    order = {exp_id: i for i, exp_id in enumerate(EXPERIMENTS)}
    reports.sort(key=lambda r: (order.get(r.id, len(order)), r.id))
    return reports


def _clip(text: str, width: int) -> str:
    return text if len(text) <= width else text[:width - 3] + "..."


def render_report(reports: Sequence[RunReport], fmt: str = "text") -> str:
    """Render reports as an aligned text table, JSON, or CSV."""
    if fmt == "json":
        return json.dumps([r.to_json() for r in reports], indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "pass", "expected", "measured", "seconds"])
        for r in reports:
            writer.writerow([r.id, r.outcome, r.expected, r.measured,
                             f"{r.seconds:.3f}"])
        return buf.getvalue()
    if fmt == "text":
        rows = [("id", "outcome", "seconds", "expected", "measured")]
        for r in reports:
            rows.append((r.id, r.outcome, f"{r.seconds:.3f}",
                         _clip(r.expected, 44), _clip(r.measured, 72)))
        widths = [max(len(row[i]) for row in rows) for i in range(5)]
        lines = []
        for k, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)).rstrip())
            if k == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format '{fmt}'")
