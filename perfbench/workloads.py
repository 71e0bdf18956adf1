"""The benchmark's workloads: inputs, timed passes and pinned-output checks.

Each workload is a closed loop with one caller, no threads and no pool.

* ``registry``: the 14 pinned experiments of the registry through
  ``run_experiments(jobs=1)`` with no cache directory, which is what a
  ``homlab verify`` user waits for.  Its warm replay reruns the experiments
  that read Hom posets or homology through ``RunContext`` against a cache a
  separate, untimed run of them filled.  The registry is fixed: it ignores
  the seed.
* ``hom-enum``: Hom posets whose targets are large and sparse next to the
  output, enumerated and counted only, so ``hom_poset`` does the cold work
  and the warm replay is cache read plus JSON decode of the elements.
* ``hom-homology``: homology of small Hom posets, where chain generation and
  elimination dominate; ``Hom(C5,K4)`` over Z has Z/2 torsion and reaches
  the dense Smith normal form.  The warm replay still materializes the order
  and hashes it for the homology cache key.

A cold run is a list of steps, one per experiment or Hom instance, each
timed on its own after a garbage collection; without that collection the
cyclic garbage one instance leaves is freed at a point that differs from run
to run, and so does peak memory.  Each workload fixes how many warm replays
follow a cold run in a traced pass, so every traced pass does the same work;
timed passes replay for as long as their cold run took.

On the ``hom-*`` workloads the seed relabels the vertices of every input
graph, which leaves every pinned expectation unchanged.  Expectations were
recorded with identity labels and live in ``expected.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict
from functools import partial
from pathlib import Path

from homlab.families import spherical_graph, twisted_toroidal
from homlab.graphs import (Graph, bits, complete_graph, cycle_graph, product,
                           reflexive_cycle)
from homlab.harness import Cache, RunContext, list_experiments, run_experiments
from homlab.homposets import multihom_violation
from homlab.limits import DEFAULT_GUARDS, GuardExceeded

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text(
    encoding="utf-8"))

GRAPHS = {
    "K2": lambda: complete_graph(2),
    "K3": lambda: complete_graph(3),
    "K4": lambda: complete_graph(4),
    "K5": lambda: complete_graph(5),
    "K6": lambda: complete_graph(6),
    "C5": lambda: cycle_graph(5),
    "T(2,3)": lambda: twisted_toroidal(2, 3).graph,
    "S(1,2)": lambda: spherical_graph(1, 2).graph,
    "K2xR10": lambda: product(complete_graph(2), reflexive_cycle(10)),
}


def relabel(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a permutation drawn from rng."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for w in bits(g.adj[v]):
            row |= 1 << perm[w]
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj))


class RegistryWorkload:
    name = "registry"
    uses_seed = False
    warm_replays = 20

    def __init__(self):
        spec = EXPECTED["registry"]
        self.ids = tuple(spec["experiments"])
        self.warm_ids = tuple(spec["warm_ids"])

    def setup(self, seed: int):
        return {exp.id: exp for exp in list_experiments()}

    def guards(self, inputs) -> dict:
        """Guards the pinned experiments override, by experiment id."""
        default = asdict(DEFAULT_GUARDS)
        out = {}
        for exp_id in self.ids:
            own = asdict(inputs[exp_id].guards)
            diff = {k: v for k, v in own.items() if v != default[k]}
            if diff:
                out[exp_id] = diff
        return out

    def cold_steps(self, inputs, cache: Cache):
        """The timed pass runs with no cache; filling one is untimed."""
        return [partial(run_experiments, [exp_id], cache=Cache(None), jobs=1)
                for exp_id in self.ids]

    def warm(self, inputs, cache: Cache):
        return run_experiments(self.warm_ids, cache=cache, jobs=1)

    fill = warm

    def check(self, inputs, outputs) -> list[str]:
        """One entry per output: None when it matches, else the reason."""
        pinned = EXPECTED["registry"]["experiments"]
        out = []
        for rep in outputs:
            want = pinned[rep.id]
            got = {"outcome": rep.outcome, "measured": rep.measured}
            out.append(None if got == want else
                       f"{rep.id}: got {got}, pinned {want}")
        return out


class HomWorkload:
    """Shared loop of the two ``hom-*`` workloads."""

    name = ""
    uses_seed = True
    fill = None

    def __init__(self):
        self.instances = EXPECTED[self.name]

    def setup(self, seed: int):
        rng = random.Random(seed)
        names = sorted({n for inst in self.instances
                        for n in (inst["source"], inst["target"])})
        graphs = {n: relabel(GRAPHS[n](), rng) for n in names}
        return [(inst, graphs[inst["source"]], graphs[inst["target"]])
                for inst in self.instances]

    def guards(self, inputs) -> dict:
        return {}

    def cold_steps(self, inputs, cache: Cache):
        ctx = RunContext(DEFAULT_GUARDS, cache)
        return [partial(self.run, ctx, [x]) for x in inputs]

    def warm(self, inputs, cache: Cache):
        return self.run(RunContext(DEFAULT_GUARDS, cache), inputs)

    def run(self, ctx: RunContext, inputs):
        out = []
        for inst, g, h in inputs:
            try:
                out.append(self.compute(ctx, inst, g, h))
            except GuardExceeded as exc:
                out.append(exc)
        return out

    def check(self, inputs, outputs) -> list[str]:
        out = []
        for (inst, g, h), res in zip(inputs, outputs):
            label = f"Hom({inst['source']},{inst['target']})"
            if isinstance(res, GuardExceeded):
                out.append(f"{label}: {res}")
            else:
                why = self.mismatch(inst, g, h, res)
                out.append(None if why is None else f"{label}: {why}")
        return out


class HomEnumWorkload(HomWorkload):
    name = "hom-enum"
    warm_replays = 10

    def compute(self, ctx, inst, g, h):
        return ctx.hom(g, h)

    def mismatch(self, inst, g, h, hp):
        """Count, atom count, distinctness and validity pin the exact set."""
        if hp.m != inst["elements"]:
            return f"{hp.m} elements, pinned {inst['elements']}"
        if len(hp.atoms) != inst["atoms"]:
            return f"{len(hp.atoms)} atoms, pinned {inst['atoms']}"
        if len(set(hp.elements)) != hp.m:
            return "repeated elements"
        for e in hp.elements:
            why = multihom_violation(g, h, e)
            if why is not None:
                return f"element {e}: {why}"
        return None


class HomHomologyWorkload(HomWorkload):
    name = "hom-homology"
    warm_replays = 20

    def compute(self, ctx, inst, g, h):
        return ctx.hom_homology(g, h, inst["field"])

    def mismatch(self, inst, g, h, res):
        got = res.to_json()
        return None if got == inst["homology"] else \
            f"homology {got}, pinned {inst['homology']}"


WORKLOADS = {w.name: w for w in (RegistryWorkload(), HomEnumWorkload(),
                                 HomHomologyWorkload())}
