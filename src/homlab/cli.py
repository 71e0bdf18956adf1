"""Command-line interface.

Verbs
-----
construct        build a graph from an identifier and print it
hom              enumerate Hom(source, target) and print a summary
homology         reduced homology of the Hom poset of two graphs
chromatic        exact chromatic number of a graph
verify           run registered experiments in order, in one process, and
                 persist their reports
report           render persisted reports as text, JSON, or CSV
list-experiments show the experiment registry

Graph identifiers
-----------------
``K5`` complete, ``C6`` cycle, ``R8`` reflexive cycle, ``L3`` looped path,
``one`` single looped vertex, ``S(k,m)`` spherical, ``T(k,m)`` twisted
toroidal, ``M^k_m(<id>)`` iterated generalized Mycielski over any inner
identifier, ``csorba(FILE)`` and ``univ(FILE,n)`` for the universality
constructions (FILE is JSON), and ``@FILE`` for a plain graph JSON file.

All algorithms are deterministic; ``--seedless`` is accepted for interface
compatibility and changes nothing because no randomness exists to seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from .families import (csorba_graph, iterated_mycielski, spherical_graph,
                       twisted_toroidal, universality_graph)
from .graphs import (Graph, bits, chromatic_number, complete_graph,
                     count_from_json, cycle_graph, graph_from_json,
                     graph_to_json, graph_stats, looped_path, one_graph,
                     reflexive_cycle)
from .harness import (Cache, CacheCorrupt, RunContext, guard_overrides,
                      list_experiments, load_reports, render_report,
                      run_experiments)
from .homposets import hom_poset
from .limits import (DEFAULT_GUARDS, GuardExceeded, Guards,
                     check_graph_vertices)
from .posets import SimplicialComplex, make_complex

__all__ = ["main", "parse_graph_id"]

_FIELD_NAMES = {"z": "Z", "gf2": "GF2"}

_SIMPLE = re.compile(r"^([KCRL])(\d+)$")
_SPHERICAL = re.compile(r"^S\((\d+),(\d+)\)$")
_TOROIDAL = re.compile(r"^T\((\d+),(\d+)\)$")
_MYCIELSKI = re.compile(r"^M\^(\d+)_(\d+)\((.+)\)$")
_CSORBA = re.compile(r"^csorba\((.+)\)$")
_UNIV = re.compile(r"^univ\((.+),(\d+)\)$")


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _vertices(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of vertices, got {values!r}")
    return tuple(count_from_json(v, f"{what} vertex") for v in values)


def _complex_from_data(data: dict) -> SimplicialComplex:
    """Complex from {"n", "facets"}, normalizing face order and closure."""
    try:
        n = count_from_json(data["n"], "n")
        facets = [_vertices(f, "facet") for f in data["facets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("complex JSON needs 'n' and 'facets' as vertex "
                         f"lists: {exc!r}") from None
    return make_complex(n, facets)


def parse_graph_id(ident: str, guards: Guards = DEFAULT_GUARDS) -> Graph:
    """Build the graph a command-line identifier names."""
    ident = ident.strip()
    if ident == "one":
        return one_graph()
    if ident.startswith("@"):
        return graph_from_json(_load_json(ident[1:]))
    m = _SIMPLE.match(ident)
    if m:
        kind = {"K": complete_graph, "C": cycle_graph,
                "R": reflexive_cycle, "L": looped_path}[m.group(1)]
        size = int(m.group(2))
        check_graph_vertices(size + 1 if kind is looped_path else size)
        return kind(size)
    m = _SPHERICAL.match(ident)
    if m:
        return spherical_graph(int(m.group(1)), int(m.group(2)),
                               guards).graph
    m = _TOROIDAL.match(ident)
    if m:
        return twisted_toroidal(int(m.group(1)), int(m.group(2))).graph
    m = _MYCIELSKI.match(ident)
    if m:
        inner = parse_graph_id(m.group(3), guards)
        return iterated_mycielski(inner, int(m.group(2)), int(m.group(1)))
    m = _CSORBA.match(ident)
    if m:
        data = _load_json(m.group(1))
        if "complex" not in data or "involution" not in data:
            raise ValueError(
                f"{m.group(1)}: need keys 'complex' and 'involution'")
        return csorba_graph(_complex_from_data(data["complex"]),
                            _vertices(data["involution"], "involution"),
                            guards)
    m = _UNIV.match(ident)
    if m:
        data = _load_json(m.group(1))
        if "complex" not in data:
            raise ValueError(f"{m.group(1)}: need key 'complex'")
        maps = data.get("maps", "regular")
        if isinstance(maps, list):
            maps = tuple(_vertices(perm, "map") for perm in maps)
        elif maps != "regular":
            raise ValueError(f"{m.group(1)}: 'maps' must be \"regular\" or "
                             "a list of vertex maps")
        return universality_graph(_complex_from_data(data["complex"]),
                                  int(m.group(2)), maps, guards)
    raise ValueError(
        f"cannot parse graph identifier '{ident}'; see 'homlab --help'")


# ---------------------------------------------------------------------------
# argument plumbing

_OPTIONS = {
    "--json": dict(action="store_true", help="machine-readable JSON output"),
    "--config": dict(metavar="PATH", help="JSON file of guard settings"),
    "--guard-elements": dict(type=int, metavar="N",
                             help="cap on Hom poset elements per enumeration"),
    "--cache-dir": dict(metavar="PATH",
                        help="cache directory (overrides HOMLAB_CACHE_DIR)"),
    "--field": dict(choices=("gf2", "z"), default="z",
                    help="homology coefficients (default: z)"),
    "--report-dir": dict(metavar="PATH",
                         help="report directory (default: <cache-dir>/reports,"
                              " else ./homlab-reports)"),
    "--seedless": dict(action="store_true",
                       help="no-op: everything is deterministic already"),
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """The named options plus ``--seedless``, which every verb accepts."""
    for name in names + ("--seedless",):
        parser.add_argument(name, **_OPTIONS[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Exact Hom-poset constructions, homology, and "
                    "experiment verification for small graphs.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="build a graph and print it")
    p.add_argument("graph", help="graph identifier")
    _add_options(p, "--json", "--config")

    p = sub.add_parser("hom", help="enumerate Hom(source, target)")
    p.add_argument("source")
    p.add_argument("target")
    _add_options(p, "--json", "--config", "--guard-elements")

    p = sub.add_parser("homology",
                       help="reduced homology of Hom(source, target)")
    p.add_argument("source")
    p.add_argument("target")
    _add_options(p, "--json", "--config", "--guard-elements", "--cache-dir",
                 "--field")

    p = sub.add_parser("chromatic", help="exact chromatic number")
    p.add_argument("graph")
    _add_options(p, "--json", "--config")

    p = sub.add_parser("verify", help="run registered experiments")
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="experiment ids (default: all)")
    _add_options(p, "--json", "--config", "--guard-elements", "--cache-dir",
                 "--report-dir")

    p = sub.add_parser("report", help="render persisted reports")
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default="text")
    _add_options(p, "--cache-dir", "--report-dir")

    p = sub.add_parser("list-experiments", help="show the registry")
    _add_options(p, "--json")

    return parser


def _override_dict(args: argparse.Namespace) -> dict:
    """Only the guard fields the user explicitly set.

    Passing a sparse dict (rather than a full Guards value) keeps each
    experiment's own elevated defaults for the fields left untouched.
    """
    overrides = guard_overrides(_load_json(args.config)) if args.config else {}
    if getattr(args, "guard_elements", None) is not None:
        overrides |= guard_overrides({"hom_elements": args.guard_elements})
    return overrides


def _guards_from_args(args: argparse.Namespace) -> Guards:
    return DEFAULT_GUARDS.scaled(**_override_dict(args))


def _cache(args: argparse.Namespace) -> Cache:
    """``--cache-dir``, else ``HOMLAB_CACHE_DIR``, else no cache."""
    return Cache(args.cache_dir or os.environ.get("HOMLAB_CACHE_DIR") or None)


def _report_dir(args: argparse.Namespace, cache: Cache) -> Path:
    if args.report_dir:
        return Path(args.report_dir)
    if cache.enabled:
        return cache.directory / "reports"
    return Path("homlab-reports")


def _emit(args: argparse.Namespace, data: dict, text: str) -> None:
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(text)


# ---------------------------------------------------------------------------
# verbs

def _cmd_construct(args) -> int:
    guards = _guards_from_args(args)
    g = parse_graph_id(args.graph, guards)
    stats = graph_stats(g)
    edges = len(graph_to_json(g)["edges"])
    loops = sum(g.adj[v] >> v & 1 for v in range(g.n))
    _emit(args, graph_to_json(g),
          f"{args.graph}: vertices={g.n} edges={edges} loops={loops} "
          f"max_degree={stats.max_degree} connected={stats.connected}")
    return 0


def _cmd_hom(args) -> int:
    guards = _guards_from_args(args)
    src = parse_graph_id(args.source, guards)
    dst = parse_graph_id(args.target, guards)
    hp = hom_poset(src, dst, guards)
    elements = [[sorted(bits(mask)) for mask in e] for e in hp.elements]
    data = {"source": graph_to_json(src), "target": graph_to_json(dst),
            "count": hp.m, "atoms": len(hp.atoms), "elements": elements}
    _emit(args, data,
          f"Hom({args.source},{args.target}): {hp.m} elements, "
          f"{len(hp.atoms)} atoms")
    return 0


def _cmd_homology(args) -> int:
    guards = _guards_from_args(args)
    cache = _cache(args)
    src = parse_graph_id(args.source, guards)
    dst = parse_graph_id(args.target, guards)
    res = RunContext(guards, cache).hom_homology(src, dst,
                                                 _FIELD_NAMES[args.field])
    _emit(args, res.to_json(),
          f"Hom({args.source},{args.target}) over "
          f"{_FIELD_NAMES[args.field]}: {res}")
    return 0


def _cmd_chromatic(args) -> int:
    guards = _guards_from_args(args)
    g = parse_graph_id(args.graph, guards)
    chi = chromatic_number(g, guards)
    finite = chi != float("inf")
    data = {"id": args.graph, "chromatic": int(chi) if finite else None}
    _emit(args, data,
          f"chi({args.graph}) = {int(chi) if finite else 'unbounded'}")
    return 0


def _cmd_verify(args) -> int:
    overrides = _override_dict(args)
    cache = _cache(args)
    report_dir = _report_dir(args, cache)
    ids = args.ids or None
    reports = run_experiments(ids, overrides, cache=cache,
                              report_dir=report_dir)
    if args.json:
        print(render_report(reports, "json"), end="")
    else:
        print(render_report(reports, "text"), end="")
        failed = sum(r.outcome == "fail" for r in reports)
        skipped = sum(r.outcome == "skipped (guard)" for r in reports)
        print(f"\n{len(reports)} experiments: "
              f"{sum(r.passed for r in reports)} passed, {failed} failed, "
              f"{skipped} skipped; reports in {report_dir}")
    return 1 if any(r.outcome == "fail" for r in reports) else 0


def _cmd_report(args) -> int:
    reports = load_reports(_report_dir(args, _cache(args)))
    if not reports:
        print("no persisted reports found", file=sys.stderr)
        return 1
    print(render_report(reports, args.format), end="")
    return 0


def _cmd_list_experiments(args) -> int:
    exps = list_experiments()
    if args.json:
        print(json.dumps([{"id": e.id, "criterion": e.criterion,
                           "description": e.description,
                           "expected": e.expected,
                           "provenance": e.provenance} for e in exps],
                         indent=2))
        return 0
    width = max(len(e.id) for e in exps)
    for e in exps:
        tag = f"#{e.criterion}" if e.criterion else "extra"
        print(f"{e.id.ljust(width)}  {tag:>5}  {e.description}")
    return 0


_VERBS = {
    "construct": _cmd_construct,
    "hom": _cmd_hom,
    "homology": _cmd_homology,
    "chromatic": _cmd_chromatic,
    "verify": _cmd_verify,
    "report": _cmd_report,
    "list-experiments": _cmd_list_experiments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _VERBS[args.verb](args)
    except (GuardExceeded, CacheCorrupt, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # JSON errors are ValueErrors
        return 2


if __name__ == "__main__":
    sys.exit(main())
