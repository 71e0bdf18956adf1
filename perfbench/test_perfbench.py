"""Tests of the benchmark itself: pinned checks, relabeling, tracing.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from homlab.homology import HomologyResult  # noqa: E402
from homlab.homposets import HomPoset, hom_poset  # noqa: E402


def _instance(workload, seed, **match):
    """The one input of a workload whose pinned fields equal ``match``."""
    (found,) = [x for x in workload.setup(seed)
                if all(x[0][k] == v for k, v in match.items())]
    return found


def test_enum_check_flags_a_dropped_element():
    w = workloads.WORKLOADS["hom-enum"]
    inst, g, h = _instance(w, 0, source="C5", target="K4")
    hp = hom_poset(g, h)
    assert w.check([(inst, g, h)], [hp]) == [None]
    dropped = HomPoset(g, h, hp.elements[1:])
    repeated = HomPoset(g, h, hp.elements[1:] + hp.elements[-1:])
    invalid = HomPoset(g, h, ((1,) * g.n,) + hp.elements[1:])
    for bad in (dropped, repeated, invalid):
        (why,) = w.check([(inst, g, h)], [bad])
        assert why is not None
    r = run.Run(w, 0, None)
    known = r.check([(inst, g, h)], [hp])
    r.check([(inst, g, h)], [hom_poset(g, h)], known)
    r.check([(inst, g, h)], [dropped], known)
    assert r.attempted == 3 and len(r.failures) == 1


def test_homology_check_flags_an_altered_betti_number():
    w = workloads.WORKLOADS["hom-homology"]
    inst, g, h = _instance(w, 0, source="K2", target="K5", field="GF2")
    res = w.compute(workloads.RunContext(), inst, g, h)
    assert w.check([(inst, g, h)], [res]) == [None]
    betti = list(res.betti)
    betti[-1] += 1
    altered = HomologyResult(res.field, res.empty, tuple(betti))
    (why,) = w.check([(inst, g, h)], [altered])
    assert why is not None


def test_relabeling_keeps_every_expectation():
    enum = workloads.WORKLOADS["hom-enum"]
    inputs = enum.setup(7)
    assert inputs[0][2].adj != enum.setup(8)[0][2].adj
    assert inputs[0][2].adj == enum.setup(7)[0][2].adj
    ctx = workloads.RunContext()
    assert enum.check(inputs, [enum.compute(ctx, *x) for x in inputs]) \
        == [None] * len(inputs)
    homology = workloads.WORKLOADS["hom-homology"]
    for seed in (1, 2, 3):
        small = [x for x in homology.setup(seed)
                 if x[0]["target"] == "K5"]
        outputs = [homology.compute(ctx, *x) for x in small]
        assert homology.check(small, outputs) == [None] * len(small)


def _small_homology_run(tmp_path):
    w = workloads.WORKLOADS["hom-homology"]
    inputs = [_instance(w, 0, source="K2", target="K5", field="GF2")]
    return run.Run(w, 0, tmp_path), inputs


def test_timed_run_leaves_homlab_unwrapped(tmp_path, monkeypatch):
    before = tracing.originals()
    monkeypatch.setattr(tracing.Tracer, "install",
                        lambda self: pytest.fail("timed run traced"))
    seen = []
    w = workloads.WORKLOADS["hom-homology"]
    compute = type(w).compute

    def spy(self, *args):
        seen.append(tracing.originals() == before)
        return compute(self, *args)

    monkeypatch.setattr(type(w), "compute", spy)
    monkeypatch.setattr(run, "reference_loop", lambda: 2 * run.REFERENCE_S)
    r, inputs = _small_homology_run(tmp_path)
    metrics, samples = run.end_to_end(r, inputs, 0.01)
    assert seen and all(seen)
    assert metrics["wall_s"][0] == pytest.approx(samples["cold"][0] / 2)
    assert metrics["warm_s"][0] \
        == pytest.approx(statistics.median(samples["warm"]) / 2)
    assert tracing.originals() == before
    assert not r.failures
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == {k: unit for k, (_, unit) in metrics.items()}


def test_traced_run_names_its_layers_and_restores_functions(tmp_path):
    before = tracing.originals()
    r, inputs = _small_homology_run(tmp_path)
    start = time.perf_counter()
    metrics, _ = run.per_layer(r, inputs, 0.01)
    assert time.perf_counter() - start < 60
    assert tracing.originals() == before
    assert not r.failures
    assert metrics["homology.reduce_gf2_s"][0] > 0
    assert metrics["homology.chains"][0] > 0
    assert metrics["harness.cache_hits"][0] > 0
    assert metrics["bench.unattributed_s"][0] \
        < 0.1 * metrics["trace.wall_s"][0]
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == {k: unit for k, (_, unit) in metrics.items()}


def test_tracer_patches_every_module_that_imported_a_function():
    import homlab.graphs
    import homlab.harness

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert homlab.harness.chromatic_number \
            is homlab.graphs.chromatic_number
        assert homlab.graphs.chromatic_number.__wrapped__ is not None
        homlab.harness.chromatic_number(homlab.graphs.complete_graph(3))
    finally:
        tracer.uninstall()
    assert not hasattr(homlab.graphs.chromatic_number, "__wrapped__")
    layers, covered = tracer.self_times()
    assert tracer.counters["graphs.chromatic_calls"] == 1
    assert layers["graphs.chromatic"] == pytest.approx(covered)


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hom-enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
