"""Experiment harness: cache integrity, registry, reports, and the CLI."""

import json

import pytest

from homlab import harness
from homlab.cli import main, parse_graph_id
from homlab.graphs import (complete_graph, cycle_graph, graph_to_json,
                           is_isomorphic, looped_path, reflexive_cycle)
from homlab.harness import (Cache, CacheCorrupt, EXPERIMENTS, Experiment,
                            RunContext, RunReport, cached_hom_homology,
                            cached_poset_homology, canonical_json,
                            content_key, get_experiment, guard_overrides,
                            hom_cache_key, homology_cache_key,
                            list_experiments, load_reports, render_report,
                            report_from_json, run_experiment,
                            run_experiments)
from homlab.homposets import hom_poset
from homlab.homology import hom_homology, poset_homology
from homlab.limits import DEFAULT_GUARDS, GuardExceeded


# ---------------------------------------------------------------------------
# guard configuration

def test_load_guard_config(tmp_path):
    path = tmp_path / "guards.json"
    path.write_text(json.dumps({"guards": {"chain_elements": "123"}}))
    overrides = guard_overrides(json.loads(path.read_text()))
    assert overrides == {"chain_elements": 123}  # sparse, values int
    assert guard_overrides({"hom_elements": 0, "search_nodes": 7.0}) == \
        {"hom_elements": 0, "search_nodes": 7}
    with pytest.raises(ValueError, match="JSON object"):
        guard_overrides([1, 2])
    with pytest.raises(ValueError, match="unknown guard fields: clique_count"):
        guard_overrides({"clique_count": 5})


@pytest.mark.parametrize("value", [None, True, False, 2.9, -1, "-3", "7.5",
                                   "lots", [5], {"n": 5}, float("nan")])
def test_guard_config_refuses_non_counts(value, tmp_path, capsys):
    with pytest.raises(ValueError, match="guard field hom_elements"):
        guard_overrides({"hom_elements": value})
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"hom_elements": value}))
    assert main(["hom", "K2", "K3", "--config", str(cfg)]) == 2
    assert "error: guard field hom_elements" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cache

def test_cache_disabled_without_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("HOMLAB_CACHE_DIR", str(tmp_path))  # CLI-only setting
    cache = Cache()
    assert not cache.enabled
    assert cache.load("deadbeef", "homology") is None
    run_experiment("csorba-square")
    assert list(tmp_path.iterdir()) == []


def test_cli_cache_directory_from_environment(tmp_path, monkeypatch):
    env, flag = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("HOMLAB_CACHE_DIR", str(env))
    assert main(["homology", "K2", "K3"]) == 0
    assert len(list(env.glob("*.jsonl"))) == 1
    assert main(["homology", "K2", "K4", "--cache-dir", str(flag)]) == 0
    assert len(list(env.glob("*.jsonl"))) == 1
    assert len(list(flag.glob("*.jsonl"))) == 1


def test_hom_posets_are_never_cached(tmp_path):
    g, h = complete_graph(2), complete_graph(4)
    ctx = RunContext(cache=Cache(tmp_path))
    assert ctx.hom(g, h).m == 50
    assert list(tmp_path.iterdir()) == [] and ctx.cache.misses == 0
    cached_hom_homology(g, h, cache=ctx.cache)  # a miss: one entry
    (entry,) = tmp_path.iterdir()
    assert json.loads(entry.read_text().partition("\n")[0])["kind"] == \
        "homology"


def test_hom_cache_round_trip_is_bit_identical(tmp_path):
    g, h = complete_graph(2), complete_graph(4)
    fresh = hom_homology(hom_poset(g, h))
    # the key an entry written before Hom posets left the cache still has
    key = hom_cache_key(g, h, "Z")
    assert key == content_key({"kind": "hom-cell-homology", "field": "Z",
                               "source": graph_to_json(g),
                               "target": graph_to_json(h)})
    assert cached_hom_homology(g, h, cache=Cache(tmp_path)) == fresh
    path = Cache(tmp_path).path_for(key)
    stored = path.read_bytes()
    assert stored.decode().splitlines()[1:] == [
        "50", canonical_json(fresh.to_json())]
    cache = Cache(tmp_path)
    assert cached_hom_homology(g, h, cache=cache) == fresh
    assert cache.hits == 1 and cache.misses == 0
    assert path.read_bytes() == stored


def test_homology_cache_round_trip(tmp_path):
    p = hom_poset(complete_graph(2), complete_graph(3)).poset
    fresh = poset_homology(p)
    assert cached_poset_homology(p, cache=Cache(tmp_path)) == fresh
    assert cached_poset_homology(p, cache=Cache(tmp_path)) == fresh
    # different field means a different key
    gf2 = cached_poset_homology(p, "GF2", cache=Cache(tmp_path))
    assert gf2.field == "GF2"


def test_cache_detects_tampering(tmp_path):
    g, h = complete_graph(2), complete_graph(3)
    cached_hom_homology(g, h, cache=Cache(tmp_path))
    path = Cache(tmp_path).path_for(hom_cache_key(g, h, "Z"))
    head, _, body = path.read_text().partition("\n")
    lines = body.splitlines()
    lines[0] = "7"  # the element count
    path.write_text(head + "\n" + "\n".join(lines) + "\n")
    with pytest.raises(CacheCorrupt, match="hash mismatch"):
        cached_hom_homology(g, h, cache=Cache(tmp_path))


def test_cache_rejects_wrong_kind_and_garbage(tmp_path):
    g, h = complete_graph(2), complete_graph(3)
    cache = Cache(tmp_path)
    key = hom_cache_key(g, h, "Z")
    cache.store(key, "hom", ["[[0],[1]]"])  # the retired element kind
    with pytest.raises(CacheCorrupt, match="expected 'homology'"):
        cached_hom_homology(g, h, cache=cache)
    cache.path_for(key).write_text("not json at all")
    with pytest.raises(CacheCorrupt):
        cached_hom_homology(g, h, cache=cache)


def test_cache_hit_still_enforces_element_guard(tmp_path):
    # a warm cache never lets an experiment past a guard its cold run hits
    assert run_experiment("csorba-square",
                          cache=Cache(tmp_path)).outcome == "pass"
    tight = {"hom_elements": 5}
    warm = run_experiment("csorba-square", tight, cache=Cache(tmp_path))
    cold = run_experiment("csorba-square", tight)
    assert warm.outcome == cold.outcome == "skipped (guard)"
    assert warm.measured == cold.measured and warm.cache_hits == 1


def test_hom_homology_cache_round_trip(tmp_path):
    g, h = complete_graph(2), complete_graph(4)
    cold = cached_hom_homology(g, h, cache=Cache(tmp_path))
    cache = Cache(tmp_path)
    warm = cached_hom_homology(g, h, cache=cache)
    assert warm == cold == poset_homology(hom_poset(g, h).poset)
    assert cache.hits == 1 and cache.misses == 0
    # different field means a different key: one miss, nothing else read
    gf2 = cached_hom_homology(g, h, "GF2", cache=cache)
    assert gf2.field == "GF2" and gf2.is_sphere(2)
    assert cache.hits == 1 and cache.misses == 1


def test_hom_homology_cache_hit_still_enforces_element_guard(tmp_path):
    g, h = complete_graph(2), complete_graph(4)
    cache = Cache(tmp_path)
    cached_hom_homology(g, h, cache=cache)
    tight = DEFAULT_GUARDS.scaled(hom_elements=10)
    with pytest.raises(GuardExceeded) as warm:
        cached_hom_homology(g, h, "Z", tight, cache)
    with pytest.raises(GuardExceeded) as cold:
        cached_hom_homology(g, h, "Z", tight, Cache())
    assert warm.value.guard == "hom_elements"
    assert str(warm.value) == str(cold.value)


def test_hom_homology_cache_rejects_a_malformed_element_count(tmp_path):
    g, h = complete_graph(2), complete_graph(3)
    cache = Cache(tmp_path)
    cached_hom_homology(g, h, cache=cache)
    key = hom_cache_key(g, h, "Z")
    result = cache.load(key, "homology")[1]
    for bad in (["-1", result], ["true", result], ["x", result], ["6"]):
        cache.store(key, "homology", bad)
        with pytest.raises(CacheCorrupt, match="malformed Hom homology"):
            cached_hom_homology(g, h, cache=cache)


@pytest.mark.parametrize("entry", ["Hom", "poset"])
@pytest.mark.parametrize("change", [
    {"field": "GF2"}, {"betti": [0, -3, 2.7]}, {"empty": "no"},
    {"torsion": [[], [1], []]}, {"torsion": None},  # None: key dropped
], ids=["field", "counts", "empty", "torsion", "no-torsion"])
def test_homology_hit_is_checked_for_meaning(entry, change, tmp_path):
    """An entry whose digest holds is still refused unless it holds a
    result over the requested field."""
    g, h = complete_graph(2), complete_graph(4)
    p = hom_poset(g, h).poset
    cache = Cache(tmp_path)
    load, key = {
        "Hom": (lambda: cached_hom_homology(g, h, "Z", cache=cache),
                hom_cache_key(g, h, "Z")),
        "poset": (lambda: cached_poset_homology(p, "Z", cache=cache),
                  homology_cache_key(p, "Z")),
    }[entry]
    assert load().is_sphere(2)
    lines = cache.load(key, "homology")
    data = {k: v for k, v in {**json.loads(lines[-1]), **change}.items()
            if v is not None}
    cache.store(key, "homology", lines[:-1] + [canonical_json(data)])
    with pytest.raises(CacheCorrupt, match=f"malformed {entry} homology"):
        load()


def test_cold_cache_recomputes_identical_values(tmp_path):
    warm = run_experiment("csorba-square", cache=Cache(tmp_path))
    warm2 = run_experiment("csorba-square", cache=Cache(tmp_path))
    cold = run_experiment("csorba-square", cache=Cache())
    assert warm.measured == warm2.measured == cold.measured
    assert warm2.cache_hits > 0 and cold.cache_hits == 0


# ---------------------------------------------------------------------------
# registry

def test_every_acceptance_criterion_has_exactly_one_experiment():
    by_criterion = {}
    for exp in list_experiments():
        if exp.criterion:
            assert exp.criterion not in by_criterion
            by_criterion[exp.criterion] = exp.id
    assert sorted(by_criterion) == list(range(1, 14))


def test_registry_ids_are_stable():
    assert tuple(EXPERIMENTS) == (
        "hom-k2-kn-sphere", "tkm-invariants", "spherical-graphs",
        "hom-k2-t1m-circle", "mycielski-suite", "quotient-commutation",
        "adjunction-roundtrips", "equivariant-poset-maps",
        "fine-loop-addition", "universality", "discontinuity", "colorings",
        "property-suites", "csorba-square")
    assert get_experiment("csorba-square").criterion == 0
    with pytest.raises(ValueError, match="unknown experiment id"):
        get_experiment("nope")


def test_run_experiment_outcomes_and_persistence(tmp_path):
    rep = run_experiment("csorba-square", cache=Cache(tmp_path))
    assert rep.outcome == "pass"
    assert "H~1=Z" in rep.measured
    assert rep.seconds >= 0
    assert {p.suffix for p in tmp_path.iterdir()} == {".jsonl"}  # no report
    rep = run_experiment("csorba-square", cache=Cache(tmp_path),
                         report_dir=tmp_path / "reports")
    persisted = load_reports(tmp_path / "reports")
    assert [r.id for r in persisted] == ["csorba-square"]
    assert persisted[0] == rep


def test_guard_overflow_is_a_skip_not_a_crash():
    rep = run_experiment("hom-k2-kn-sphere", overrides={"hom_elements": 5})
    assert rep.outcome == "skipped (guard)"
    assert "hom_elements" in rep.measured


def test_guard_mapping_overlays_the_experiment_guards(monkeypatch):
    raised = DEFAULT_GUARDS.scaled(poset_relation=20_000)
    monkeypatch.setitem(EXPERIMENTS, "probe", Experiment(
        "probe", 0, "guards seen by the runner", "", "test",
        lambda ctx: (True, f"{ctx.guards.hom_elements} "
                           f"{ctx.guards.poset_relation}"), raised))
    assert run_experiment("probe").measured == "1000000 20000"
    for overrides in ({"hom_elements": 5}, {"guards": {"hom_elements": "5"}}):
        assert run_experiment("probe", overrides).measured == "5 20000"
    with pytest.raises(ValueError, match="unknown guard fields"):
        run_experiment("probe", {"hom_elments": 5})


def test_run_experiments_serial_order_and_unknown_id(tmp_path):
    ids = ["discontinuity", "csorba-square"]
    reports = run_experiments(ids, cache=Cache(tmp_path), jobs=1)
    assert [r.id for r in reports] == ids
    assert all(r.outcome == "pass" for r in reports)
    with pytest.raises(ValueError):
        run_experiments(["nope"], jobs=1)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    work in this process, so no worker is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_run_experiments_clamps_the_pool_to_the_experiments(monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    ids = ["csorba-square", "discontinuity"]
    reports = run_experiments(ids, jobs=64)
    assert RecordingPool.sizes == [2]
    assert [r.id for r in reports] == ids
    assert run_experiments(ids[:1], jobs=64)[0].id == ids[0]
    assert RecordingPool.sizes == [2]  # one experiment runs in process
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            run_experiments(ids, jobs=jobs)
    assert RecordingPool.sizes == [2]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_verify_refuses_jobs_below_one(jobs, monkeypatch, tmp_path,
                                          capsys):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    assert main(["verify", "csorba-square", "discontinuity", "--jobs", jobs,
                 "--report-dir", str(tmp_path)]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert RecordingPool.sizes == [] and not any(tmp_path.iterdir())


def test_run_experiments_parallel_matches_serial(tmp_path):
    ids = ["csorba-square", "discontinuity", "spherical-graphs"]
    serial = run_experiments(ids, jobs=1)
    parallel = run_experiments(ids, jobs=3)
    assert [r.id for r in parallel] == ids
    for a, b in zip(serial, parallel):
        assert (a.id, a.outcome, a.expected, a.measured) == \
            (b.id, b.outcome, b.expected, b.measured)


# ---------------------------------------------------------------------------
# reports

def _sample_reports():
    return [RunReport("a-first", "pass", "exp, a", "got \"a\"", 0.25, 2),
            RunReport("b-second", "skipped (guard)", "exp b", "guard", 1.5)]


def test_report_json_round_trip():
    reports = _sample_reports()
    parsed = json.loads(render_report(reports, "json"))
    assert [report_from_json(d) for d in parsed] == reports


def test_report_csv_header_and_quoting():
    text = render_report(_sample_reports(), "csv")
    lines = text.splitlines()
    assert lines[0] == "id,pass,expected,measured,seconds"
    assert lines[1] == 'a-first,pass,"exp, a","got ""a""",0.250'
    assert lines[2] == 'b-second,skipped (guard),exp b,guard,1.500'


def test_report_text_is_aligned():
    text = render_report(_sample_reports(), "text")
    lines = text.splitlines()
    assert lines[0].startswith("id")
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].index("pass") == lines[0].index("outcome")
    with pytest.raises(ValueError):
        render_report([], "yaml")


def test_invalid_outcome_rejected():
    with pytest.raises(ValueError):
        RunReport("x", "maybe", "e", "m", 0.0)


def test_load_reports_orders_by_registry(tmp_path):
    for exp_id in ("discontinuity", "csorba-square", "spherical-graphs"):
        run_experiment(exp_id, report_dir=tmp_path)
    got = [r.id for r in load_reports(tmp_path)]
    assert got == ["spherical-graphs", "discontinuity", "csorba-square"]
    assert load_reports(tmp_path / "absent") == []


def test_cli_report_names_a_malformed_report_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({"id": "x", "expected": "e", "measured": "m",
                               "seconds": 1.0}))
    with pytest.raises(ValueError, match="broken.json"):
        load_reports(tmp_path)
    assert main(["report", "--report-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "broken.json" in err
    assert "outcome" in err
    bad.write_text(json.dumps({"id": "x", "outcome": "pass", "expected": "e",
                               "measured": "m", "seconds": 1.0,
                               "cache_hits": 2.7}))
    with pytest.raises(ValueError, match="cache_hits must be"):
        load_reports(tmp_path)


# ---------------------------------------------------------------------------
# CLI identifiers

def test_parse_graph_id_standard_forms():
    assert is_isomorphic(parse_graph_id("K4"), complete_graph(4))
    assert is_isomorphic(parse_graph_id("C6"), cycle_graph(6))
    assert parse_graph_id("R8").adj == reflexive_cycle(8).adj
    assert parse_graph_id("L3").adj == looped_path(3).adj
    assert parse_graph_id("one").n == 1
    assert parse_graph_id("T(1,3)").n == 6
    assert is_isomorphic(parse_graph_id("S(1,0)"), complete_graph(4))
    assert sorted(parse_graph_id("L2").edges()) == [(0, 0), (0, 1), (1, 2)]
    assert parse_graph_id("M^2_2(K2)").n == 11
    assert is_isomorphic(parse_graph_id("M^1_2(K2)"), cycle_graph(5))
    # Parameter ranges are the constructors' own: T(0,m) is K2 and L0 is
    # the looped vertex.
    assert parse_graph_id("T(0,3)").adj == complete_graph(2).adj
    assert parse_graph_id("L0").edges() == [(0, 0)]


def test_parse_graph_id_rejects_unknown():
    for bad in ("Z9", "K", "S(1)", "M^1_2", ""):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_graph_id(bad)
    for bad in ("C2", "K0", "T(1,1)", "M^1_0(K2)"):
        with pytest.raises(ValueError, match="needs"):
            parse_graph_id(bad)


def test_parse_graph_id_files(tmp_path):
    square = tmp_path / "square.json"
    square.write_text(json.dumps({
        "complex": {"n": 4, "facets": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        "involution": [2, 3, 0, 1]}))
    g = parse_graph_id(f"csorba({square})")
    assert g.n == 8
    points = tmp_path / "points.json"
    points.write_text(json.dumps({
        "complex": {"n": 6, "facets": [[i] for i in range(6)]},
        "maps": "regular"}))
    assert is_isomorphic(parse_graph_id(f"univ({points},3)"),
                         complete_graph(3))
    with pytest.raises(ValueError, match="n >= 2"):
        parse_graph_id(f"univ({points},1)")
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(graph_to_json(cycle_graph(5))))
    assert is_isomorphic(parse_graph_id(f"@{plain}"), cycle_graph(5))


# ---------------------------------------------------------------------------
# CLI verbs

def test_cli_construct_and_chromatic(capsys):
    assert main(["construct", "T(1,3)"]) == 0
    out = capsys.readouterr().out
    assert "vertices=6" in out and "max_degree=3" in out
    assert main(["chromatic", "S(1,1)"]) == 0
    assert "= 3" in capsys.readouterr().out
    assert main(["chromatic", "R6"]) == 0
    assert "unbounded" in capsys.readouterr().out


def test_cli_construct_json(capsys):
    assert main(["construct", "K3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 3 and len(data["edges"]) == 3


def test_cli_hom_and_homology(capsys):
    assert main(["hom", "K2", "K3"]) == 0
    assert "12 elements, 6 atoms" in capsys.readouterr().out
    assert main(["homology", "K2", "K4"]) == 0
    assert "H~2=Z" in capsys.readouterr().out
    assert main(["homology", "K2", "K4", "--field", "gf2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["field"] == "GF2" and data["betti"] == [0, 0, 1]



def test_cli_hom_reaches_the_large_spherical_graph(capsys):
    assert main(["hom", "K2", "S(2,1)"]) == 0
    assert "10106 elements" in capsys.readouterr().out


def test_cli_search_node_guard_from_config(tmp_path, capsys):
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"search_nodes": 100}))
    assert main(["hom", "K2", "T(2,3)", "--config", str(cfg)]) == 2
    assert "guard 'search_nodes'" in capsys.readouterr().err


def test_cli_chromatic_search_node_guard_from_config(tmp_path, capsys):
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"search_nodes": 50}))
    assert main(["chromatic", "T(2,5)", "--config", str(cfg)]) == 2
    assert "guard 'search_nodes'" in capsys.readouterr().err


def test_cli_chromatic_twisted_toroidal_t27(capsys):
    assert main(["chromatic", "T(2,7)"]) == 0
    assert "chi(T(2,7)) = 4" in capsys.readouterr().out


def test_cli_config_unwraps_guards_and_refuses_unknown_fields(tmp_path,
                                                              capsys):
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"guards": {"search_nodes": 100}}))
    assert main(["hom", "K2", "T(2,3)", "--config", str(cfg)]) == 2
    assert "guard 'search_nodes'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"clique_count": 5}))
    assert main(["hom", "K2", "K3", "--config", str(cfg)]) == 2
    assert "unknown guard fields: clique_count" in capsys.readouterr().err

@pytest.mark.parametrize("ident,data,needs", [
    ("@", {"n": 3}, "'edges'"),
    ("@", {"n": 3, "edges": 5}, "'edges'"),
    ("csorba", {"complex": {"n": 4}, "involution": [2, 3, 0, 1]},
     "'facets'"),
    ("@", {"n": 3, "edges": [[0, 1.5]]}, "got 1.5"),
    ("csorba", {"complex": {"n": 4, "facets": [["a", "b"]]},
                "involution": [2, 3, 0, 1]}, "got 'a'"),
    ("csorba", {"complex": {"n": 4, "facets": [[0, 1], [1, 2], [2, 3],
                                               [0, 3]]},
                "involution": [2.7, 3, 0, 1]}, "got 2.7"),
    ("@", {"n": 2, "edges": [[0, 1]], "labels": 5}, "'labels'"),
])
def test_cli_malformed_input_file_is_an_error(ident, data, needs, tmp_path,
                                              capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    arg = f"@{path}" if ident == "@" else f"{ident}({path})"
    assert main(["construct", arg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needs in err
    assert "Traceback" not in err


def test_cli_hom_json_lists_assignments(capsys):
    assert main(["hom", "K2", "K2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 2
    assert [[0], [1]] in data["elements"]


def test_cli_guard_errors_are_exit_code_2(capsys):
    assert main(["hom", "K2", "K5", "--guard-elements", "10"]) == 2
    assert "guard" in capsys.readouterr().err
    assert main(["hom", "K2", "K3", "--guard-elements", "-1"]) == 2
    assert "guard field hom_elements" in capsys.readouterr().err
    assert main(["construct", "Z9"]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_cli_guard_applies_to_cached_results(tmp_path, capsys):
    assert main(["homology", "K2", "K5", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["homology", "K2", "K5", "--cache-dir", str(tmp_path),
                 "--guard-elements", "10"]) == 2
    assert "guard 'hom_elements'" in capsys.readouterr().err


def test_cli_reports_tampered_cache_as_error(tmp_path, capsys):
    assert main(["homology", "K2", "K3", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    entry = next(tmp_path.glob("*.jsonl"))
    body = entry.read_text().splitlines(keepends=True)
    body[1] = body[1].replace("2", "3", 1)  # the element count, 12
    entry.write_text("".join(body))
    assert main(["homology", "K2", "K3", "--cache-dir", str(tmp_path)]) == 2
    assert "hash mismatch" in capsys.readouterr().err


def test_cli_verify_report_cycle(tmp_path, capsys):
    code = main(["verify", "csorba-square", "discontinuity",
                 "--cache-dir", str(tmp_path), "--jobs", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 passed, 0 failed" in out
    assert main(["report", "--format", "csv",
                 "--cache-dir", str(tmp_path)]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0] == "id,pass,expected,measured,seconds"
    assert main(["report", "--format", "json",
                 "--cache-dir", str(tmp_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {d["id"] for d in data} == {"csorba-square", "discontinuity"}


def test_cli_verify_report_dir_and_skip(tmp_path, capsys):
    rdir = tmp_path / "reports"
    code = main(["verify", "hom-k2-kn-sphere", "--guard-elements", "5",
                 "--jobs", "1", "--report-dir", str(rdir)])
    assert code == 0  # a skip is not a failure
    out = capsys.readouterr().out
    assert "skipped (guard)" in out
    assert (rdir / "hom-k2-kn-sphere.json").exists()


def test_cli_report_without_reports_fails(tmp_path, capsys):
    assert main(["report", "--report-dir", str(tmp_path / "nope")]) == 1
    assert "no persisted reports" in capsys.readouterr().err


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for exp_id in EXPERIMENTS:
        assert exp_id in out
    assert main(["list-experiments", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == len(EXPERIMENTS)
    assert {d["criterion"] for d in data} == set(range(14))


@pytest.mark.parametrize("argv", [
    ["construct", "K3", "--field", "gf2"],
    ["chromatic", "K3", "--guard-elements", "1"],
    ["report", "--json"],
    ["list-experiments", "--config", "guards.json"],
    ["hom", "K2", "K3", "--cache-dir", "X"],
])
def test_cli_refuses_options_a_verb_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_seedless_is_accepted(capsys):
    assert main(["chromatic", "K3", "--seedless"]) == 0
    assert "= 3" in capsys.readouterr().out


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"hom_elements": 7}))
    assert main(["hom", "K2", "K3", "--config", str(cfg)]) == 2
    assert "guard" in capsys.readouterr().err
