"""Outside-in layer timing: wrap each layer's public call sites, then undo.

Nothing in ``src/`` changes.  :class:`LayerProfiler` replaces functions and
methods where their callers look them up (``repro.protocols.lfgdpr
.perturb_graph_batch``, not ``repro.ldp.perturbation``; class methods on the
class) with wrappers that record **self time**: a wrapper's wall time minus
the wall time of wrapped calls made inside it.  Self times of all layers
therefore add up to at most the wall time of the step, and whatever is left
is ``other_s``.

Patch groups:

* ``scenario`` — scenario compilation and dataset loading (every scenario
  workload);
* ``compute`` — the trial computation of the in-process workloads;
* ``parent`` — the parent-side layers of a pooled run (store I/O, shared
  memory export, pool creation); worker-side compute arrives as the spans
  the program's own tracer adopts from its workers;
* ``stream`` — the streaming collection path.

:meth:`LayerProfiler.uninstall` restores every original object and
:meth:`LayerProfiler.leftovers` proves it: it lists any patched attribute
that is not the original again.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

#: Layer buckets whose values are self times in seconds.
TIMED_LAYERS = (
    "core.threat_s",
    "core.craft_s",
    "core.evaluate_s",
    "ldp.perturb_s",
    "graph.pack_s",
    "graph.triangles_s",
    "graph.triangles_incremental_s",
    "protocols.collect_s",
    "protocols.overrides_s",
    "protocols.estimate_s",
    "defenses.detect_s",
    "defenses.repair_s",
    "engine.store_get_s",
    "engine.store_put_s",
    "engine.shm_export_s",
    "engine.pool_create_s",
    "scenarios.compile_s",
    "graph.dataset_s",
    "graph.stream_blocks_s",
    "graph.stream_degrees_s",
    "graph.popcount_s",
)


def _methods_of(registry, method: str) -> List[Tuple[type, str]]:
    """``(class, method)`` for every class defining ``method`` along the MRO
    of each class a registry creates (each defining class wrapped once)."""
    owners: List[Tuple[type, str]] = []
    for name in registry.names():
        factory = registry.get(name)
        for klass in getattr(factory, "__mro__", ()):
            if method in vars(klass) and (klass, method) not in owners:
                owners.append((klass, method))
    return owners


def patch_plan(groups) -> List[Tuple[object, str, str, str]]:
    """``(owner, attribute, layer, kind)`` for every call site to wrap.

    ``kind`` is ``"timed"`` (self time into ``layer``), ``"dispatch"``
    (counts True/False returns of the packed-dispatch predicate, no time),
    ``"pack"`` (timed, plus computed bytes of the packed tensor) or
    ``"blocks"`` (timed call, and the returned generator's iteration timed
    block by block).
    """
    plan: List[Tuple[object, str, str, str]] = []
    if "scenario" in groups:
        run = importlib.import_module("repro.scenarios.run")
        plan += [
            (run, "prepare_scenario", "scenarios.compile_s", "timed"),
            (run, "load_dataset", "graph.dataset_s", "timed"),
        ]
    if "compute" in groups:
        from repro.core.threat_model import ThreatModel
        from repro.engine.registry import ATTACKS, DEFENSES
        from repro.graph.bittensor import BitTensor
        from repro.protocols.base import SharedGraphPairedCollection
        from repro.protocols.lfgdpr import LFGDPRProtocol

        lfgdpr = importlib.import_module("repro.protocols.lfgdpr")
        metrics = importlib.import_module("repro.graph.metrics")
        executors = importlib.import_module("repro.engine.executors")
        plan += [(ThreatModel, "sample", "core.threat_s", "timed")]
        plan += [(owner, attr, "core.craft_s", "timed")
                 for owner, attr in _methods_of(ATTACKS, "craft")]
        plan += [
            (executors, "evaluate_attack", "core.evaluate_s", "timed"),
            (executors, "evaluate_defended_attack", "core.evaluate_s", "timed"),
            (lfgdpr, "perturb_graph", "ldp.perturb_s", "timed"),
            (lfgdpr, "perturb_graph_batch", "ldp.perturb_s", "timed"),
            (lfgdpr, "perturb_degree", "ldp.perturb_s", "timed"),
            (BitTensor, "from_graphs", "graph.pack_s", "pack"),
            (BitTensor, "triangles_per_node", "graph.triangles_s", "timed"),
            (lfgdpr, "triangles_per_node_cached", "graph.triangles_s", "timed"),
            (lfgdpr, "triangles_per_node_incremental",
             "graph.triangles_incremental_s", "timed"),
            (lfgdpr, "should_use_packed", "graph.dispatch", "dispatch"),
            (metrics, "should_use_packed", "graph.dispatch", "dispatch"),
            (LFGDPRProtocol, "collect", "protocols.collect_s", "timed"),
            (LFGDPRProtocol, "collect_paired", "protocols.collect_s", "timed"),
            (LFGDPRProtocol, "collect_paired_batch", "protocols.collect_s", "timed"),
            (SharedGraphPairedCollection, "after", "protocols.overrides_s", "timed"),
        ]
        plan += [
            (LFGDPRProtocol, method, "protocols.estimate_s", "timed")
            for method in (
                "estimate_degrees",
                "estimate_degree_centrality",
                "estimate_clustering_coefficient",
                "estimate_modularity",
            )
        ]
        plan += [(owner, attr, "defenses.detect_s", "timed")
                 for owner, attr in _methods_of(DEFENSES, "detect")]
        plan += [(owner, attr, "defenses.repair_s", "timed")
                 for owner, attr in _methods_of(DEFENSES, "repair")]
    if "parent" in groups:
        from repro.engine.executors import PoolManager
        from repro.engine.graph_store import GraphStore
        from repro.engine.result_store import ShardedResultStore

        plan += [
            (ShardedResultStore, "get", "engine.store_get_s", "timed"),
            (ShardedResultStore, "put", "engine.store_put_s", "timed"),
            (GraphStore, "add", "engine.shm_export_s", "timed"),
            (GraphStore, "export_graph", "engine.shm_export_s", "timed"),
            (GraphStore, "export_labels", "engine.shm_export_s", "timed"),
            (PoolManager, "acquire", "engine.pool_create_s", "timed"),
        ]
    if "stream" in groups:
        from repro.protocols.lfgdpr import LFGDPRProtocol

        lfgdpr = importlib.import_module("repro.protocols.lfgdpr")
        plan += [
            (lfgdpr, "perturb_graph", "ldp.perturb_s", "timed"),
            (lfgdpr, "perturb_degree", "ldp.perturb_s", "timed"),
            (LFGDPRProtocol, "collect_blocks", "graph.stream_blocks_s", "blocks"),
            (importlib.import_module("repro.graph.streaming"), "streaming_degrees",
             "graph.stream_degrees_s", "timed"),
            (importlib.import_module("repro.graph.bitmatrix"), "_row_popcounts",
             "graph.popcount_s", "timed"),
        ]
    return plan


class LayerProfiler:
    """Self-time accounting over a set of patched call sites."""

    def __init__(self, groups, extra: Tuple[Tuple[object, str, str, str], ...] = ()):
        self.plan = patch_plan(groups) + list(extra)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._originals: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()
        self._stack.clear()

    def _timed(self, layer: str, call: Callable[[], object]):
        child_time = [0.0]
        self._stack.append(child_time)
        start = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.seconds[layer] += elapsed - child_time[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def _timed_blocks(self, layer: str, blocks: Iterator) -> Iterator:
        """Re-yield ``blocks``, timing each ``next`` (not the consumer)."""
        while True:
            try:
                block = self._timed(layer, lambda: next(blocks))
            except StopIteration:
                return
            self.counts["graph.stream_blocks"] += 1
            yield block

    def _wrap(self, function: Callable, layer: str, kind: str) -> Callable:
        profiler = self
        if kind == "dispatch":
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                packed = function(*args, **kwargs)
                key = "graph.dispatch_packed" if packed else "graph.dispatch_sparse"
                profiler.counts[key] += 1
                return packed
        elif kind == "pack":
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                tensor = profiler._timed(layer, lambda: function(*args, **kwargs))
                profiler.counts["graph.pack_bytes"] += tensor.planes.nbytes
                return tensor
        elif kind == "blocks":
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                blocks = profiler._timed(layer, lambda: function(*args, **kwargs))
                return profiler._timed_blocks(layer, blocks)
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                return profiler._timed(layer, lambda: function(*args, **kwargs))
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("profiler already installed")
        for owner, attr, layer, kind in self.plan:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, layer, kind))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(raw.__func__, layer, kind))
            else:
                patched = self._wrap(raw, layer, kind)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def leftovers(self, reference: Dict[Tuple[int, str], object]) -> List[str]:
        """Patched attributes that are not their original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in self.plan
            if vars(owner).get(attr) is not reference[(id(owner), attr)]
        ]

    def snapshot_originals(self) -> Dict[Tuple[int, str], object]:
        """The unpatched objects, for :meth:`leftovers` to compare against."""
        return {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in self.plan}
