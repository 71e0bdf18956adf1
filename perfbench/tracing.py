"""Spans around homlab's public functions, installed from outside the package.

A :class:`Tracer` replaces selected functions and methods with wrappers that
record a span (name, start, end, parent) per call and keep the spans in
memory.  A function is patched at every ``homlab`` module attribute that
holds it, because callers look it up there: ``homlab.harness`` calls the
``chromatic_number`` it imported from ``homlab.graphs``, so both attributes
are replaced.  :meth:`Tracer.uninstall` puts every original back; timed runs
never install a tracer.

Self time of a span is its duration minus the time its direct child spans
cover.  Each span carries a layer name; summing self time by layer gives the
per-layer metrics, and the traced wall time minus the top-level spans gives
the time no span covers.  Generator functions (``iter_chains``,
``enumerate_poset_maps``) and per-element helpers (``nu_mask``, ``bits``,
``Poset.leq``, ``is_colorable``) are not wrapped: the first would only time
generator creation, the second would add a call's overhead millions of
times.  Their work lands in the calling span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from functools import cached_property

# module -> {function name: layer}
FUNCTIONS = {
    "homlab.graphs": {
        "chromatic_number": "graphs.chromatic",
        "find_homomorphism": "graphs.self",
        "is_isomorphic": "graphs.self",
        "odd_girth": "graphs.self",
        "is_fine": "graphs.self",
        "exponential": "graphs.self",
    },
    "homlab.homposets": {
        "hom_poset": "homposets.hom_poset",
        "adjunction_report": "homposets.adjunction",
        "poset_adjunction_report": "homposets.adjunction",
        "quotient_compare": "homposets.quotient_compare",
        "loop_addition_maps": "homposets.self",
        "induced_hom_action": "homposets.self",
    },
    "homlab.posets": {
        "poset_maps": "posets.self",
        "chain_poset": "posets.self",
        "face_poset": "posets.self",
        "atom_graph": "posets.self",
        "order_complex": "posets.self",
        "closure_image": "posets.self",
    },
    "homlab.actions": {
        "equivariant_poset_maps": "actions.self",
        "quotient_poset_by_action": "actions.self",
        "quotient_graph_by_action": "actions.self",
        "check_chain_discontinuity": "actions.self",
        "is_d_discontinuous": "actions.self",
        "twisted_product": "actions.self",
        "fixed_subposet": "actions.self",
        "make_group": "actions.self",
    },
    "homlab.homology": {
        "chain_complex_of_poset": "homology.chain_complex",
        "chain_complex": "homology.chain_complex",
        "homology_integral": "homology.reduce_z",
        "homology_gf2": "homology.reduce_gf2",
        "poset_homology": "homology.self",
        "homology_of_complex": "homology.self",
        "closure_reduce": "homology.self",
    },
    "homlab.families": {
        "twisted_toroidal": "families.build",
        "spherical_graph": "families.build",
        "mycielski": "families.build",
        "iterated_mycielski": "families.build",
        "csorba_graph": "families.build",
        "universality_graph": "families.build",
        "cycle_face_poset": "families.build",
        "cross_polytope_complex": "families.build",
        "subdivision_coloring": "families.build",
        "equivariant_coloring_step": "families.build",
    },
    "homlab.harness": {
        "run_experiments": "harness.self",
        "run_experiment": "harness.exp",
        "hom_cache_key": "harness.cache_key",
        "homology_cache_key": "harness.cache_key",
        "cached_hom_poset": "harness.cache_codec",
        "cached_poset_homology": "harness.cache_codec",
    },
}

# (module, class, attribute) -> layer; methods and cached properties
ATTRIBUTES = {
    ("homlab.homposets", "HomPoset", "poset"): "homposets.poset",
    ("homlab.harness", "Cache", "load"): "harness.cache_load",
    ("homlab.harness", "Cache", "store"): "harness.cache_store",
    ("homlab.harness", "RunContext", "hom"): "harness.self",
    ("homlab.harness", "RunContext", "homology"): "harness.self",
    ("homlab.harness", "RunContext", "hom_homology"): "harness.self",
}


def originals() -> dict[str, object]:
    """Every wrapped target as found now, keyed ``module:qualname``."""
    out = {}
    for mod_name, table in FUNCTIONS.items():
        mod = importlib.import_module(mod_name)
        for fn_name in table:
            out[f"{mod_name}:{fn_name}"] = getattr(mod, fn_name)
    for (mod_name, cls_name, attr) in ATTRIBUTES:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        out[f"{mod_name}:{cls_name}.{attr}"] = cls.__dict__[attr]
    return out


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_load: str | None = None

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, float]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(("", 0.0, 0.0, parent))
        self._stack.append(idx)
        return idx, time.perf_counter()

    def _close(self, idx: int, start: float, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self.spans[idx][3])

    def _wrap(self, fn, layer: str):
        tracer = self

        if layer == "harness.exp":
            def name_of(args, kwargs, result):
                return f"harness.exp.{args[0] if args else kwargs['exp_id']}"
        elif layer == "harness.cache_codec":
            # Decoding a hit and encoding a miss happen inside these helpers;
            # with no cache directory they only forward the call.
            def name_of(args, kwargs, result):
                return {None: "harness.self", "hit": "harness.cache_load",
                        "miss": "harness.cache_store"}[tracer._last_load]
        elif layer == "harness.cache_load":
            def name_of(args, kwargs, result):
                tracer._last_load = "miss" if result is None else "hit"
                return layer
        else:
            def name_of(args, kwargs, result):
                return layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "harness.cache_codec":
                tracer._last_load = None
            idx, start = tracer._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(idx, start, name_of(args, kwargs, result))
                if result is not None:
                    tracer._count(layer, result)

        return wrapper

    def _count(self, layer: str, result) -> None:
        """Counters taken at the span boundary.

        Counting a chain complex walks its boundaries, so that walk gets a
        ``trace.counting`` span of its own and is not charged to the caller.
        """
        c = self.counters
        if layer == "graphs.chromatic":
            c["graphs.chromatic_calls"] += 1
        elif layer == "homposets.hom_poset":
            c["homposets.elements"] += result.m
        elif layer == "homology.chain_complex":
            idx, start = self._open()
            c["homology.chains"] += sum(result.counts())
            c["homology.boundary_nnz"] += sum(
                len(col) for k in range(result.dim + 1)
                for col in result.boundary(k))
            self._close(idx, start, "trace.counting")

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        homlab_modules = [m for name, m in sorted(sys.modules.items())
                          if (name == "homlab" or name.startswith("homlab."))
                          and m is not None]
        for mod_name, table in FUNCTIONS.items():
            mod = importlib.import_module(mod_name)
            for fn_name, layer in table.items():
                fn = getattr(mod, fn_name)
                wrapped = self._wrap(fn, layer)
                for m in homlab_modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapped)
        for (mod_name, cls_name, attr), layer in ATTRIBUTES.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, cached_property):
                new = cached_property(self._wrap(orig.func, layer))
                new.__set_name__(cls, attr)
            else:
                new = self._wrap(orig, layer)
            self._patch(cls, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summarizing -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per layer and top-level covered seconds.

        Spans named ``harness.exp.<id>`` report their whole duration under
        that name and their self time under ``harness.self``.
        """
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            own = end - start - child[k]
            if name.startswith("harness.exp."):
                out[name] += end - start
                out["harness.self"] += own
            else:
                out[name] += own
        return out, covered
