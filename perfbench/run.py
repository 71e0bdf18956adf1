"""homlab benchmark: one workload per process, timed or traced.

  python3 perfbench/run.py --workload hom-enum --seed 1 --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  A run repeats passes while the
next pass's cold run would end within ``--seconds``; it always makes at least
one.  A pass runs the workload cold, checks every output against
``expected.json``, then replays it warm from a cache directory the cold work
filled, checking each replay; a replay whose outputs equal the cold ones gets
their verdicts.  A timed pass replays until its replays add up to as long as
its cold run took, or the next replay would end after the deadline, and makes
at least ``MIN_WARM``; so warm samples take about as much of every run as
cold ones, spread over all of it, and a short host slowdown moves few of
them.  A traced pass makes the workload's fixed ``warm_replays``, so every
traced pass does the same work.  Checks are never timed.  The cache directory
is fresh and empty for every pass, lives under ``.perfbench_tmp/`` in the
checkout and is removed after the pass.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of importing ``homlab`` and
  building the workload's input graphs;
* ``wall_s``: median cold pass;
* ``warm_s``: median warm replay;
* ``peak_rss_mb``: peak resident set of this process.

The three times are in seconds at reference host speed.  The host is a few
cores of a shared machine whose speed drifts by up to half within minutes,
for every process alike, so raw medians of runs minutes apart differ by more
than a regression bound.  The run therefore times ``reference_loop``, a fixed
piece of pure Python that uses no ``homlab`` code, in a block right before
and right after every timed region, and every ``SAMPLE_PERIOD`` seconds
inside it, from a ``SIGALRM`` handler whose time is taken out of the
region's.  It scales the region's time by ``REFERENCE_S`` over the median of
those loop times: a time reads as it would on a host where the loop takes
``REFERENCE_S``.  A cold run is one region per step (see ``workloads.py``),
and ``wall_s`` sums a pass's scaled steps.  No change to ``homlab`` moves the
loop, so a program that gets slower or faster reads so by the same share.
The ``samples`` line has every time both raw and scaled, and under ``raw``
the medians of the raw times.

Operations attempted and failed (outputs that differ from the pinned ones,
or that hit a size guard) are the result's ``attempted`` and ``failed``, and
are printed as ``ops`` and ``ops_failed``.

``--trace 1`` spends the first half of the time on passes without tracing
and the second half on passes with ``tracing.Tracer`` installed, and prints
the per-layer metrics, each per traced pass (one cold run plus its warm
replays).  Cache hits and misses count the timed regions only.  In trace
mode every pass also rebuilds the inputs, so ``families.build_s`` shows
set-up work.  ``trace.overhead_frac`` is the median traced pass over the
median untraced pass, minus 1.

Before the JSON result, which is the last line of standard output, come a
``provenance`` line (host, commit, seed, guards) and a ``samples`` line with
every timing the medians were taken from.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

SETUP_SAMPLES = 9
MIN_WARM = 3
COLD_REFERENCES = 10
WARM_REFERENCES = 2
SETUP_REFERENCES = 5
SAMPLE_PERIOD = 0.2

# Iterations of reference_loop, and its median seconds on the host the
# benchmark was defined on (2 cores of an Intel Xeon, Python 3.11).
REFERENCE_ITERATIONS = 50_000
REFERENCE_S = 0.0047

LAYER_TIMES = (
    "graphs.chromatic", "graphs.self",
    "homposets.hom_poset", "homposets.poset", "homposets.adjunction",
    "homposets.quotient_compare", "homposets.self",
    "posets.self", "actions.self",
    "homology.chain_complex", "homology.reduce_z", "homology.reduce_gf2",
    "homology.self",
    "families.build",
    "harness.cache_key", "harness.cache_load", "harness.cache_store",
    "harness.self",
    "trace.counting",
)
LAYER_COUNTS = ("graphs.chromatic_calls", "homposets.elements",
                "homology.chains", "homology.boundary_nnz")

# Imports and builds one workload's inputs between two blocks of reference
# loops; prints the seconds it took, then those of the loops.
SETUP_PROBE = """\
import sys, time
REFERENCE_ITERATIONS = {iterations!r}
{reference}
before = [reference_loop() for _ in range({references})]
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].setup({seed!r})
seconds = time.perf_counter() - start
after = [reference_loop() for _ in range({references})]
print(seconds, *before, *after)
"""


def use_checkout_source() -> None:
    """Import homlab from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "homlab" / "__init__.py").is_file():
        sys.exit(f"no homlab source under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import homlab
    if Path(homlab.__file__).resolve().parent != (SRC / "homlab").resolve():
        sys.exit(f"imported homlab from {homlab.__file__}, not {SRC}")


def reference_loop() -> float:
    """Seconds of a fixed integer loop: the host's speed, not the program's."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


# The loop as the set-up interpreters define it.
REFERENCE_SOURCE = inspect.getsource(reference_loop)


def scaled(seconds: float, references: list[float]) -> float:
    """``seconds`` at the host speed where the reference loop takes
    ``REFERENCE_S``, from loops timed around and inside them."""
    return seconds * REFERENCE_S / statistics.median(references)


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled setup times in fresh interpreters, after one untimed
    warm-up."""
    env = {k: v for k, v in os.environ.items() if k != "HOMLAB_CACHE_DIR"}
    code = SETUP_PROBE.format(
        src=str(SRC), bench=str(BENCH), name=name, seed=seed,
        iterations=REFERENCE_ITERATIONS,
        reference=REFERENCE_SOURCE,
        references=SETUP_REFERENCES)
    raw, scaled_times = [], []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, *loops = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled_times.append(scaled(seconds, loops))
    return raw[1:], scaled_times[1:]


class Meter:
    """Timed regions between blocks of reference loops.

    A block of ``samples`` loops runs when the meter is made and after every
    region, outside the regions; the block after one region is the block
    before the next.  Inside an untraced region a loop also runs every
    ``SAMPLE_PERIOD`` seconds, and its time is taken out of the region's.
    Each region's time is kept raw and scaled by the loops of its two blocks
    and of its inside.  Garbage is collected before every region, so
    collections that earlier, untimed work made due do not land in it.  With
    a tracer, the regions and only they are traced, and no loop runs inside
    a span.
    """

    def __init__(self, samples: int, tracer=None):
        self.samples = samples
        self.tracer = tracer
        self.block = self.references()
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.inside: list[float] = []
        self.spent = 0.0

    def references(self) -> list[float]:
        return [reference_loop() for _ in range(self.samples)]

    def sample(self, signum, frame) -> None:
        """SIGALRM handler: one reference loop inside the current region."""
        start = time.perf_counter()
        self.inside.append(reference_loop())
        self.spent += time.perf_counter() - start

    def __call__(self, step):
        """Run ``step()`` as one timed region and return its result."""
        self.inside, self.spent = [], 0.0
        gc.collect()
        if self.tracer:
            self.tracer.install()
        else:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            start = time.perf_counter()
            result = step()
        finally:
            if self.tracer:
                self.tracer.uninstall()
            else:
                # A sample already due runs as this call returns, before the
                # clock is read, so its time is in the region's and in spent.
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
        seconds = end - start - self.spent
        after = self.references()
        self.raw.append(seconds)
        self.scaled.append(scaled(seconds, self.block + self.inside + after))
        self.block = after
        return result


class Run:
    """Pass loop of one workload, with its checks and cache accounting."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.w = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, inputs, outputs, known=None) -> tuple:
        """Count the verdicts on ``outputs`` and return them.

        ``known`` is a ``(outputs, verdicts)`` pair already checked; outputs
        equal to those get the same verdicts without checking them again.
        """
        if known and outputs == known[0]:
            verdicts = known[1]
        else:
            verdicts = self.w.check(inputs, outputs)
        for why in verdicts:
            self.attempted += 1
            if why is not None:
                self.failures.append(why)
        return outputs, verdicts

    def more_warm(self, warm: list[float], cold: float, deadline) -> bool:
        """Whether a pass makes another warm replay; see the module doc."""
        if deadline is None:
            return len(warm) < self.w.warm_replays
        return len(warm) < MIN_WARM or (
            sum(warm) < cold
            and time.perf_counter() + statistics.median(warm) <= deadline)

    def one_pass(self, inputs, tracer=None, rebuild=False,
                 deadline=None) -> dict:
        """Cold pass, checks, warm replays; only timed regions are traced.

        With ``rebuild`` the pass first builds its inputs again, in a timed
        region of its own.  Without a ``deadline`` it makes the workload's
        ``warm_replays``.
        """
        from homlab.harness import Cache

        directory = Path(tempfile.mkdtemp(dir=self.scratch))
        caches = [Cache(directory)]
        try:
            build = Meter(COLD_REFERENCES, tracer)
            if rebuild:
                inputs = build(lambda: self.w.setup(self.seed))
            cold = Meter(COLD_REFERENCES, tracer)
            outputs = [out for step in self.w.cold_steps(inputs, caches[0])
                       for out in cold(step)]
            checked = self.check(inputs, outputs)
            if self.w.fill:
                self.check(inputs, self.w.fill(inputs, Cache(directory)))
            warm = Meter(WARM_REFERENCES, tracer)
            while self.more_warm(warm.raw, sum(cold.raw), deadline):
                caches.append(Cache(directory))
                self.check(inputs, warm(
                    lambda: self.w.warm(inputs, caches[-1])), checked)
            nbytes = sum(p.stat().st_size for p in directory.glob("*.jsonl"))
        finally:
            shutil.rmtree(directory)
        return {"cold": sum(cold.raw), "cold_scaled": sum(cold.scaled),
                "warm": warm.raw, "warm_scaled": warm.scaled,
                "region": sum(build.raw) + sum(cold.raw) + sum(warm.raw),
                "hits": sum(c.hits for c in caches),
                "misses": sum(c.misses for c in caches),
                "bytes": nbytes}

    def passes(self, inputs, deadline: float, tracer=None,
               rebuild=False, fixed_warm=False) -> list[dict]:
        """Passes while the next cold run would end by the deadline.

        Always at least one.  With ``fixed_warm`` every pass makes the
        workload's ``warm_replays``, as traced passes and the untraced ones
        they are compared with do; else replays stop at the deadline.
        """
        out = []
        while not out or time.perf_counter() + statistics.median(
                p["cold"] for p in out) <= deadline:
            out.append(self.one_pass(inputs, tracer, rebuild,
                                     None if fixed_warm else deadline))
        return out


def end_to_end(run: Run, inputs, seconds: float) -> tuple[dict, dict]:
    setup, setup_scaled = setup_seconds(run.w.name, run.seed)
    passes = run.passes(inputs, time.perf_counter() + seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = {
        "setup": setup, "setup_scaled": setup_scaled,
        "cold": [p["cold"] for p in passes],
        "cold_scaled": [p["cold_scaled"] for p in passes],
        "warm": [w for p in passes for w in p["warm"]],
        "warm_scaled": [w for p in passes for w in p["warm_scaled"]],
    }
    names = {"setup": "setup_s", "cold": "wall_s", "warm": "warm_s"}
    metrics = {name: (statistics.median(samples[f"{kind}_scaled"]), "s")
               for kind, name in names.items()}
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    raw = {name: statistics.median(samples[kind])
           for kind, name in names.items()}
    return metrics, dict(samples, raw=raw)


def per_layer(run: Run, inputs, seconds: float) -> tuple[dict, dict]:
    import tracing
    import workloads

    start = time.perf_counter()
    plain = run.passes(inputs, start + seconds / 2, rebuild=True,
                       fixed_warm=True)
    tracer = tracing.Tracer()
    traced = run.passes(inputs, start + seconds, tracer, rebuild=True,
                        fixed_warm=True)
    n = len(traced)
    layers, covered = tracer.self_times()
    metrics = {f"{name}_s": (layers.get(name, 0.0) / n, "s")
               for name in LAYER_TIMES}
    for exp_id in workloads.WORKLOADS["registry"].ids:
        name = f"harness.exp.{exp_id}"
        metrics[f"{name}_s"] = (layers.get(name, 0.0) / n, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counters.get(name, 0) / n, "count")
    hom_s = layers.get("homposets.hom_poset", 0.0)
    metrics["homposets.elements_per_s"] = (
        tracer.counters.get("homposets.elements", 0) / hom_s if hom_s else 0.0,
        "1/s")
    hits = sum(p["hits"] for p in traced)
    misses = sum(p["misses"] for p in traced)
    metrics["harness.cache_hits"] = (hits / n, "count")
    metrics["harness.cache_misses"] = (misses / n, "count")
    metrics["harness.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["harness.cache_bytes"] = (
        sum(p["bytes"] for p in traced) / n, "bytes")
    region = sum(p["region"] for p in traced)
    metrics["trace.wall_s"] = (region / n, "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(p["region"] for p in traced)
        / statistics.median(p["region"] for p in plain) - 1, "ratio")
    metrics["bench.unattributed_s"] = ((region - covered) / n, "s")
    return metrics, {"untraced": [p["region"] for p in plain],
                     "traced": [p["region"] for p in traced]}


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("registry", "hom-enum", "hom-homology"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    os.environ.pop("HOMLAB_CACHE_DIR", None)
    from homlab.limits import DEFAULT_GUARDS
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    TMP.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP))
    try:
        run = Run(workload, args.seed, scratch)
        inputs = workload.setup(args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, samples = measure(run, inputs, args.seconds)
    finally:
        shutil.rmtree(scratch)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seed_applies": workload.uses_seed, "trace": args.trace,
        "seconds": args.seconds,
        "warm_replays": (workload.warm_replays if args.trace else
                         "until as long as the cold run"),
        "loop": "closed, one caller",
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu_model(), "commit": read_commit(),
        "guards": asdict(DEFAULT_GUARDS),
        "guard_overrides": workload.guards(inputs),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"samples": samples}))
    for why in run.failures:
        print(f"FAILED {why}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit}")
    print(f"{'ops':44s} {run.attempted:16d} count")
    print(f"{'ops_failed':44s} {len(run.failures):16d} count")
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
