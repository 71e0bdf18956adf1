"""Experiment harness: cache integrity, registry, reports, and the CLI."""

import ast
import inspect
import json
from dataclasses import asdict

import pytest

from homlab import cli, harness
from homlab.actions import left_regular_maps, symmetric_group
from homlab.cli import main, parse_graph_id
from homlab.families import twisted_toroidal
from homlab.graphs import (complete_graph, cycle_graph, graph_to_json,
                           is_isomorphic, looped_path, reflexive_cycle)
from homlab.harness import (Cache, CacheCorrupt, EXPERIMENTS, Experiment,
                            RunContext, RunReport, cached_poset_homology,
                            canonical_json, content_key, get_experiment,
                            guard_overrides, hom_cache_key,
                            homology_cache_key, list_experiments,
                            load_reports, render_report, report_from_json,
                            run_experiment, run_experiments)
from homlab.homposets import hom_poset
from homlab.homology import hom_homology, poset_homology
from homlab.limits import DEFAULT_GUARDS, GRAPH_VERTICES, GuardExceeded
from homlab.posets import poset_to_json


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
    for beside in ("hom_elements", "bogus"):
        with pytest.raises(ValueError, match=f"beside the guards wrapper: "
                                             f"{beside}"):
            guard_overrides({"guards": {"search_nodes": 100}, beside: 5})


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
    ctx.hom_homology(g, h)  # a miss: one entry
    (entry,) = tmp_path.iterdir()
    assert json.loads(entry.read_text().partition("\n")[0])["kind"] == \
        "homology"


def test_hom_cache_round_trip_is_bit_identical(tmp_path):
    g, h = complete_graph(2), complete_graph(4)
    fresh = hom_homology(hom_poset(g, h))
    key = hom_cache_key(g, h, "Z", DEFAULT_GUARDS)
    assert key == content_key({"kind": "guarded-hom-homology", "field": "Z",
                               "guards": asdict(DEFAULT_GUARDS),
                               "source": graph_to_json(g),
                               "target": graph_to_json(h)})
    assert RunContext(cache=Cache(tmp_path)).hom_homology(g, h) == fresh
    path = Cache(tmp_path).path_for(key)
    stored = path.read_bytes()
    assert stored.decode().splitlines()[1:] == [
        canonical_json(fresh.to_json())]
    cache = Cache(tmp_path)
    assert RunContext(cache=cache).hom_homology(g, h) == fresh
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
    RunContext(cache=Cache(tmp_path)).hom_homology(g, h)
    path = Cache(tmp_path).path_for(hom_cache_key(g, h, "Z", DEFAULT_GUARDS))
    head, _, body = path.read_text().partition("\n")
    lines = body.splitlines()
    lines[0] = lines[0].replace("[0,1]", "[0,7]")  # the Betti numbers
    path.write_text(head + "\n" + "\n".join(lines) + "\n")
    with pytest.raises(CacheCorrupt, match="hash mismatch"):
        RunContext(cache=Cache(tmp_path)).hom_homology(g, h)


def test_cache_rejects_wrong_kind_and_garbage(tmp_path):
    g, h = complete_graph(2), complete_graph(3)
    cache = Cache(tmp_path)
    key = hom_cache_key(g, h, "Z", DEFAULT_GUARDS)
    cache.store(key, "hom", ["[[0],[1]]"])  # the retired element kind
    with pytest.raises(CacheCorrupt, match="expected 'homology'"):
        RunContext(cache=cache).hom_homology(g, h)
    cache.path_for(key).write_text("not json at all")
    with pytest.raises(CacheCorrupt):
        RunContext(cache=cache).hom_homology(g, h)


def test_cache_hit_still_enforces_element_guard(tmp_path):
    # a warm cache never lets an experiment past a guard its cold run hits:
    # the tight guards key another entry, so the warm run misses
    assert run_experiment("csorba-square",
                          cache=Cache(tmp_path)).outcome == "pass"
    tight = {"hom_elements": 5}
    warm = run_experiment("csorba-square", tight, cache=Cache(tmp_path))
    cold = run_experiment("csorba-square", tight)
    assert warm.outcome == cold.outcome == "skipped (guard)"
    assert warm.measured == cold.measured and warm.cache_hits == 0


def test_poset_cache_hit_still_enforces_chain_guard(tmp_path):
    assert run_experiment("equivariant-poset-maps",
                          cache=Cache(tmp_path)).outcome == "pass"
    tight = {"chain_elements": 5}
    warm = run_experiment("equivariant-poset-maps", tight,
                          cache=Cache(tmp_path))
    cold = run_experiment("equivariant-poset-maps", tight)
    assert warm.outcome == cold.outcome == "skipped (guard)"
    assert warm.measured == cold.measured and warm.cache_hits == 0
    assert "chain_elements" in warm.measured


def test_a_homology_entry_holds_only_its_result(tmp_path):
    p = hom_poset(complete_graph(2), complete_graph(3)).poset  # a hexagon
    fresh = poset_homology(p)
    cache = Cache(tmp_path)
    # an entry under a key without guards, as written before keys held
    # them, is never read: the key now names a different kind
    old_key = content_key({"kind": "poset-chain-homology", "field": "Z",
                           "poset": poset_to_json(p)})
    cache.store(old_key, "homology", ["24", canonical_json(fresh.to_json())])
    assert cached_poset_homology(p, cache=cache) == fresh
    assert cache.hits == 0 and cache.misses == 1
    key = homology_cache_key(p, "Z", DEFAULT_GUARDS)
    assert key == content_key({"kind": "guarded-poset-homology",
                               "field": "Z", "guards": asdict(DEFAULT_GUARDS),
                               "poset": poset_to_json(p)})
    assert cache.load(key, "homology") == [canonical_json(fresh.to_json())]
    # other guards key another entry, even where they allow the result
    loose = DEFAULT_GUARDS.scaled(chain_elements=24)
    assert homology_cache_key(p, "Z", loose) != key
    assert cached_poset_homology(p, "Z", loose, cache) == fresh
    assert cache.hits == 1 and cache.misses == 2


def test_hom_homology_cache_round_trip(tmp_path):
    g, h = complete_graph(2), complete_graph(4)
    cold = RunContext(cache=Cache(tmp_path)).hom_homology(g, h)
    cache = Cache(tmp_path)
    warm = RunContext(cache=cache).hom_homology(g, h)
    assert warm == cold == poset_homology(hom_poset(g, h).poset)
    assert cache.hits == 1 and cache.misses == 0
    # different field means a different key: one miss, nothing else read
    gf2 = RunContext(cache=cache).hom_homology(g, h, "GF2")
    assert gf2.field == "GF2" and gf2.is_sphere(2)
    assert cache.hits == 1 and cache.misses == 1


def test_hom_homology_cache_hit_still_enforces_element_guard(tmp_path):
    g, h = complete_graph(2), complete_graph(4)
    cache = Cache(tmp_path)
    RunContext(cache=cache).hom_homology(g, h)
    tight = DEFAULT_GUARDS.scaled(hom_elements=10)
    with pytest.raises(GuardExceeded) as warm:
        RunContext(tight, cache).hom_homology(g, h)
    with pytest.raises(GuardExceeded) as cold:
        RunContext(tight).hom_homology(g, h)
    assert warm.value.guard == "hom_elements"
    assert str(warm.value) == str(cold.value)


def test_homology_cache_rejects_a_malformed_entry(tmp_path):
    g, h = complete_graph(2), complete_graph(3)
    cache = Cache(tmp_path)
    RunContext(cache=cache).hom_homology(g, h)
    key = hom_cache_key(g, h, "Z", DEFAULT_GUARDS)
    (result,) = cache.load(key, "homology")
    # the old shape, element count first, and empty or doubled bodies
    for bad in (["12", result], [result, result], [], ["12"]):
        cache.store(key, "homology", bad)
        with pytest.raises(CacheCorrupt, match="malformed homology entry"):
            RunContext(cache=cache).hom_homology(g, h)


@pytest.mark.parametrize("entry", ["Hom", "poset"])
@pytest.mark.parametrize("guard", ["hom_elements", "chain_elements",
                                   "search_nodes", "snf_nonzeros"])
def test_warm_and_cold_calls_agree_under_every_guard(entry, guard, tmp_path):
    """A cache filled under the default guards changes nothing under a
    tight one: the warm call returns the cold call's result, or raises its
    GuardExceeded with the same text.  Hom(C5,K4) reaches the dense Smith
    form, so a zero `snf_nonzeros` trips it."""
    g, h = cycle_graph(5), complete_graph(4)
    p = hom_poset(complete_graph(2), complete_graph(3)).poset
    call = {"Hom": lambda *a: RunContext(*a).hom_homology(g, h),
            "poset": lambda *a: cached_poset_homology(p, "Z", *a)}[entry]
    cache = Cache(tmp_path)
    call(DEFAULT_GUARDS, cache)
    tight = DEFAULT_GUARDS.scaled(**{guard: 0})

    def outcome(c):
        try:
            return call(tight, c)
        except GuardExceeded as exc:
            return str(exc)

    assert outcome(cache) == outcome(Cache())
    assert cache.hits == 0
    trips = {("Hom", "hom_elements"), ("Hom", "search_nodes"),
             ("Hom", "snf_nonzeros"), ("poset", "chain_elements")}
    assert isinstance(outcome(Cache()), str) == ((entry, guard) in trips)


@pytest.mark.parametrize("entry", ["Hom", "poset"])
@pytest.mark.parametrize("change", [
    {"field": "GF2"}, {"betti": [0, -3, 2.7]}, {"empty": "no"},
    {"torsion": [[], [1], []]}, {"torsion": None},  # None: key dropped
    # each read as some result before a hit had to be what to_json writes
    {"betti": "01", "torsion": [[], []], "dim": 1}, {"dim": 7},
    {"torsion": ["2"]},
    {"empty": True, "betti": [0, 1], "torsion": [[], []], "dim": 1},
    {"betti": {"0": 0, "1": 0, "2": 1}},
], ids=["field", "counts", "empty", "torsion", "no-torsion", "betti-string",
        "dim", "torsion-string", "empty-with-betti", "betti-object"])
def test_homology_hit_is_checked_for_meaning(entry, change, tmp_path):
    """An entry whose digest holds is still refused unless it is exactly
    the payload of a result over the requested field."""
    g, h = complete_graph(2), complete_graph(4)
    p = hom_poset(g, h).poset
    cache = Cache(tmp_path)
    load, key = {
        "Hom": (lambda: RunContext(cache=cache).hom_homology(g, h),
                hom_cache_key(g, h, "Z", DEFAULT_GUARDS)),
        "poset": (lambda: cached_poset_homology(p, "Z", cache=cache),
                  homology_cache_key(p, "Z", DEFAULT_GUARDS)),
    }[entry]
    assert load().is_sphere(2)
    lines = cache.load(key, "homology")
    data = {k: v for k, v in {**json.loads(lines[-1]), **change}.items()
            if v is not None}
    cache.store(key, "homology", lines[:-1] + [canonical_json(data)])
    with pytest.raises(CacheCorrupt, match="malformed homology entry"):
        load()


def test_cold_cache_recomputes_identical_values(tmp_path):
    warm = run_experiment("csorba-square", cache=Cache(tmp_path))
    warm2 = run_experiment("csorba-square", cache=Cache(tmp_path))
    cold = run_experiment("csorba-square", cache=Cache())
    assert warm.measured == warm2.measured == cold.measured
    assert warm2.cache_hits > 0 and cold.cache_hits == 0


# ---------------------------------------------------------------------------
# one build per Hom pair for both fields

# The benchmark's Hom-homology pairs, and Hom(K2,T(2,5)), whose H~1 has Z/2
# torsion that the dense Smith form finds.
MEMO_PAIRS = {
    "K2,K6": (complete_graph(2), complete_graph(6)),
    "C5,K4": (cycle_graph(5), complete_graph(4)),
    "K3,K5": (complete_graph(3), complete_graph(5)),
    "K2,K5": (complete_graph(2), complete_graph(5)),
    "K2,T(2,5)": (complete_graph(2), twisted_toroidal(2, 5).graph),
}


def count_calls(monkeypatch, name: str) -> list:
    """Replace ``harness.<name>`` by a wrapper that records each call."""
    calls, fn = [], getattr(harness, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(harness, name, wrapper)
    return calls


@pytest.mark.parametrize("pair", sorted(MEMO_PAIRS))
def test_one_context_builds_a_pair_once_for_both_fields(pair, monkeypatch):
    g, h = MEMO_PAIRS[pair]
    hp = hom_poset(g, h)
    fresh = {f: hom_homology(hp, f) for f in ("Z", "GF2")}
    del hp
    builds = count_calls(monkeypatch, "chain_complex_of_hom")
    for order in (("Z", "GF2", "Z"), ("GF2", "Z")):
        ctx = RunContext()
        assert [ctx.hom_homology(g, h, f) for f in order] == \
            [fresh[f] for f in order]
    assert len(builds) == 2  # one per context


def test_a_memo_hit_still_enforces_snf_nonzeros(monkeypatch):
    # Hom(C5,K4) over Z reaches the dense Smith form; over GF(2) it does not
    g, h = MEMO_PAIRS["C5,K4"]
    tight = DEFAULT_GUARDS.scaled(snf_nonzeros=0)
    builds = count_calls(monkeypatch, "chain_complex_of_hom")
    ctx = RunContext(tight)
    assert ctx.hom_homology(g, h, "GF2") == hom_homology(hom_poset(g, h),
                                                         "GF2")
    with pytest.raises(GuardExceeded) as hit:
        ctx.hom_homology(g, h, "Z")
    assert len(builds) == 1  # the Z request was a memo hit
    with pytest.raises(GuardExceeded) as cold:
        RunContext(tight).hom_homology(g, h, "Z")
    assert hit.value.guard == "snf_nonzeros"
    assert str(hit.value) == str(cold.value)


def test_a_guard_trip_leaves_the_memo_and_new_guards_miss(monkeypatch):
    g, h = MEMO_PAIRS["C5,K4"]
    enumerations = count_calls(monkeypatch, "hom_poset")
    ctx = RunContext()
    z = ctx.hom_homology(g, h)
    memo = ctx._last_hom
    ctx.guards = DEFAULT_GUARDS.scaled(hom_elements=10)
    for other in (h, complete_graph(5)):  # this pair and another
        with pytest.raises(GuardExceeded, match="hom_elements"):
            ctx.hom_homology(g, other, "GF2")
        assert ctx._last_hom is memo
    assert len(enumerations) == 3
    ctx.guards = DEFAULT_GUARDS
    gf2 = ctx.hom_homology(g, h, "GF2")
    assert len(enumerations) == 3  # a memo hit
    # any other guards miss, even where they allow the same result
    ctx.guards = DEFAULT_GUARDS.scaled(
        snf_nonzeros=DEFAULT_GUARDS.snf_nonzeros + 1)
    assert ctx.hom_homology(g, h, "GF2") == gf2
    assert ctx.hom_homology(g, h) == z
    assert len(enumerations) == 4


def hom_build_sites(source: str) -> list[str]:
    """Each call of ``chain_complex_of_hom`` in the module in ``source``,
    by its enclosing ``Class.function`` and line."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = scope + [child.name]
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name == "chain_complex_of_hom":
                    out.append(f"{'.'.join(scope)}:{child.lineno}")
            visit(child, inner)

    visit(ast.parse(source), [])
    return out


def test_one_path_builds_a_hom_complex():
    # the registry and the CLI reach Hom homology only through RunContext
    sites = [site for module in (harness, cli)
             for site in hom_build_sites(inspect.getsource(module))]
    assert len(sites) == 1, sites
    assert sites[0].startswith("RunContext._coreduced_hom:")


def test_scan_finds_every_hom_build():
    source = (
        "def homology(g, h):\n"
        "    return reduce(chain_complex_of_hom(hom_poset(g, h)))\n"
        "class Context:\n"
        "    def build(self, hp):\n"
        "        return homology.chain_complex_of_hom(hp)\n")
    assert hom_build_sites(source) == ["homology:2", "Context.build:5"]


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
        "property-suites", "csorba-square", "hom-k2-s21-sphere")
    assert get_experiment("csorba-square").criterion == 0
    assert get_experiment("hom-k2-s21-sphere").criterion == 0
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


def _register_probe(monkeypatch, runner, guards=DEFAULT_GUARDS):
    monkeypatch.setitem(EXPERIMENTS, "probe", Experiment(
        "probe", 0, "a probe runner", "", "test", runner, guards))


def test_every_runner_is_a_generator_function():
    # a runner that returns its verdict would fail in run_experiment
    assert [exp.id for exp in list_experiments()
            if not inspect.isgeneratorfunction(exp.runner)] == []


def test_one_failing_check_fails_and_every_text_is_joined(monkeypatch):
    def runner(ctx):
        yield True, "first"
        yield False, "second"
        yield True, "third"
    _register_probe(monkeypatch, runner)
    rep = run_experiment("probe")
    assert (rep.outcome, rep.measured) == ("fail", "first; second; third")


def test_a_runner_without_checks_fails(monkeypatch):
    def runner(ctx):
        yield from ()
    _register_probe(monkeypatch, runner)
    rep = run_experiment("probe")
    assert (rep.outcome, rep.measured) == ("fail", "")


def test_a_guard_tripped_after_a_check_is_a_skip(monkeypatch):
    def runner(ctx):
        yield True, "first"
        ctx.hom(complete_graph(2), complete_graph(4))
        yield True, "second"
    _register_probe(monkeypatch, runner)
    rep = run_experiment("probe", {"hom_elements": 5})
    assert rep.outcome == "skipped (guard)"
    with pytest.raises(GuardExceeded) as exc:
        hom_poset(complete_graph(2), complete_graph(4),
                  DEFAULT_GUARDS.scaled(hom_elements=5))
    assert rep.measured == str(exc.value)


def test_guard_mapping_overlays_the_experiment_guards(monkeypatch):
    def runner(ctx):
        yield True, f"{ctx.guards.hom_elements} {ctx.guards.poset_relation}"
    _register_probe(monkeypatch, runner,
                    DEFAULT_GUARDS.scaled(poset_relation=20_000))
    assert run_experiment("probe").measured == "1000000 20000"
    for overrides in ({"hom_elements": 5}, {"guards": {"hom_elements": "5"}}):
        assert run_experiment("probe", overrides).measured == "5 20000"
    with pytest.raises(ValueError, match="unknown guard fields"):
        run_experiment("probe", {"hom_elments": 5})


def test_quotient_commutation_runs_under_the_default_guards():
    # Hom(K2, K2 x R10), with 240 elements, is the largest order it builds
    assert get_experiment("quotient-commutation").guards == DEFAULT_GUARDS
    rep = run_experiment("quotient-commutation", {"poset_relation": 240})
    assert rep.outcome == "pass"
    assert rep.measured == run_experiment("quotient-commutation").measured
    rep = run_experiment("quotient-commutation", {"poset_relation": 239})
    assert (rep.outcome, rep.measured) == (
        "skipped (guard)",
        "guard 'poset_relation' exceeded (limit 239, needed > 240)")


def test_run_experiments_serial_order_and_unknown_id(tmp_path):
    ids = ["discontinuity", "csorba-square"]
    reports = run_experiments(ids, cache=Cache(tmp_path))
    assert [r.id for r in reports] == ids
    assert all(r.outcome == "pass" for r in reports)
    with pytest.raises(ValueError, match="unknown experiment id 'nope'"):
        run_experiments(["csorba-square", "nope"], report_dir=tmp_path / "r")
    assert not (tmp_path / "r").exists()  # every id is checked first


def test_run_experiments_runs_only_in_this_process(tmp_path):
    with pytest.raises(ValueError, match="jobs must be 1, not 2"):
        run_experiments(["csorba-square"], report_dir=tmp_path, jobs=2)
    assert not any(tmp_path.iterdir())
    reports = run_experiments(["csorba-square"], report_dir=tmp_path, jobs=1)
    assert [r.outcome for r in reports] == ["pass"]
    assert (tmp_path / "csorba-square.json").exists()


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
    good = {"id": "x", "outcome": "pass", "expected": "e", "measured": "m",
            "seconds": 1.0}
    for key, value in [("measured", 5), ("id", ["a"]), ("expected", None),
                       ("seconds", "nan"), ("seconds", True),
                       ("seconds", float("nan")), ("seconds", -1.0)]:
        bad.write_text(json.dumps(good | {key: value}))
        with pytest.raises(ValueError, match=f"broken.json.*{key} must be"):
            load_reports(tmp_path)
        assert main(["report", "--report-dir", str(tmp_path)]) == 2
        assert "broken.json" in capsys.readouterr().err


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


def test_parse_graph_id_refuses_graphs_past_the_vertex_guard(capsys):
    for ident, n in (("T(2,3)", 18), ("M^2_2(K2)", 11), ("L9", 10)):
        assert parse_graph_id(ident).n == n
    past = GRAPH_VERTICES + 1
    for ident, n in (("K10001", past), ("C10001", past), ("R10001", past),
                     ("L10000", past), ("T(13,2)", 16_384),
                     ("M^12_2(K2)", 12_287), ("M^1_1(K10001)", past)):
        with pytest.raises(GuardExceeded) as err:
            parse_graph_id(ident)
        assert (err.value.guard, err.value.attempted) == ("graph_vertices", n)
    assert main(["construct", "K200000"]) == 2
    assert "graph_vertices" in capsys.readouterr().err
    assert main(["hom", "C2000", "K2"]) == 0


def test_graph_file_past_the_vertex_guard_is_refused(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 20_000, "edges": []}))
    assert main(["construct", f"@{big}"]) == 2
    err = capsys.readouterr().err
    assert "graph_vertices" in err and "20000" in err
    with pytest.raises(GuardExceeded) as exc:
        parse_graph_id(f"@{big}")
    assert (exc.value.guard, exc.value.attempted) == ("graph_vertices",
                                                      20_000)
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"n": GRAPH_VERTICES, "edges": [[0, 1]]}))
    assert parse_graph_id(f"@{edge}").n == GRAPH_VERTICES


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


def test_complex_files_refuse_vertex_maps_of_the_wrong_length(tmp_path,
                                                              capsys):
    square = {"n": 4, "facets": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    points = {"n": 6, "facets": [[i] for i in range(6)]}
    regular = [list(p) for p in left_regular_maps(symmetric_group(3))]
    files = {
        "short.json": ("csorba", {"complex": square, "involution": [1, 0]}),
        "long.json": ("csorba", {"complex": square,
                                 "involution": [2, 3, 0, 1, 5]}),
        "univ-short.json": ("univ", {"complex": points,
                                     "maps": [p[:5] for p in regular]}),
        "univ-long.json": ("univ", {"complex": points,
                                    "maps": [p + [6] for p in regular]}),
    }
    for name, (kind, data) in files.items():
        path = tmp_path / name
        path.write_text(json.dumps(data))
        ident = f"csorba({path})" if kind == "csorba" else f"univ({path},3)"
        assert main(["construct", ident]) == 2
        assert "is not a permutation" in capsys.readouterr().err
    good = tmp_path / "square.json"
    good.write_text(json.dumps({"complex": square,
                                "involution": [2, 3, 0, 1]}))
    assert main(["construct", f"csorba({good})"]) == 0
    assert "vertices=8" in capsys.readouterr().out
    good.write_text(json.dumps({"complex": points, "maps": regular}))
    assert main(["construct", f"univ({good},3)"]) == 0
    assert "vertices=3" in capsys.readouterr().out


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


def test_cli_hom_t23_k4_fits_a_small_search_node_guard(tmp_path, capsys):
    # the connected vertex order needs 2,255 nodes; degree order needed
    # 1.77 M under the upward walk
    cfg = tmp_path / "guards.json"
    cfg.write_text(json.dumps({"search_nodes": 10_000}))
    assert main(["hom", "T(2,3)", "K4", "--config", str(cfg)]) == 0
    assert "Hom(T(2,3),K4): 96 elements" in capsys.readouterr().out


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
    cfg.write_text(json.dumps({"guards": {"search_nodes": 100},
                               "hom_elements": 5}))
    assert main(["hom", "K2", "K3", "--config", str(cfg)]) == 2
    assert "beside the guards wrapper: hom_elements" in \
        capsys.readouterr().err

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
    body[1] = body[1].replace("[0,1]", "[0,3]")  # the Betti numbers
    entry.write_text("".join(body))
    assert main(["homology", "K2", "K3", "--cache-dir", str(tmp_path)]) == 2
    assert "hash mismatch" in capsys.readouterr().err


def test_cli_verify_report_cycle(tmp_path, capsys):
    code = main(["verify", "csorba-square", "discontinuity",
                 "--cache-dir", str(tmp_path)])
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
                 "--report-dir", str(rdir)])
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
    ["verify", "csorba-square", "--jobs", "2"],
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
