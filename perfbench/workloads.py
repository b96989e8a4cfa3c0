"""The four benchmark workloads.

Each workload is built from ``--seed`` alone and splits into:

* :meth:`Workload.setup` — what a CLI user pays before the first task is
  dispatched (imports happen before it, in the child process): dataset
  surrogate generation, scenario compilation, store pre-fill.  Timed as
  ``setup_s``.
* :meth:`Workload.step` — the measured step, repeated for ``--seconds``;
  each repetition is timed as one ``run_s`` sample.  Returns a
  :class:`StepResult` whose gains (or degree vector) are digested.
* :meth:`Workload.before_rep` / :meth:`Workload.after_rep` — untimed
  per-repetition preparation and clean-up (fresh store copies).

Library calls go through module attributes (``scenario_run.prepare_scenario``,
``streaming.streaming_degrees``) so the traced run's wrappers see them.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.engine.result_store import ShardedResultStore
from repro.engine.session import EngineSession
from repro.experiments.config import ExperimentConfig
from repro.graph import bitmatrix, streaming
from repro.graph.adjacency import Graph
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.scenarios import get_scenario
from repro.scenarios import run as scenario_run
from repro.utils.sparse import pair_count


@dataclass
class StepResult:
    """One repetition's output: its operations and the values digested."""

    operations: int
    values: np.ndarray
    failed: int = 0
    notes: List[str] = field(default_factory=list)


def flatten_gains(results) -> np.ndarray:
    """Per-task gains of a ``run_scenarios`` result, in a fixed order.

    Scenario, panel, series and point order as the specs declare them; each
    point's per-trial gains in trial order (flat reference series repeat
    their trials at every grid value, as the aggregation does).
    """
    gains: List[float] = []
    for result in results.values():
        for sweep in result.panels.values():
            for samples in sweep.samples.values():
                for point in samples:
                    gains.extend(point)
    return np.asarray(gains, dtype=np.float64)


class Workload:
    """Base class; see the module docstring for the phase contract."""

    name = ""
    #: Patch groups of :mod:`layers` the traced run installs.
    layer_groups: tuple = ()
    #: Worker processes of the measured step (1 = in-process).
    jobs = 1

    def __init__(self, seed: int, tmp_root: Path):
        self.seed = int(seed)
        self.tmp_root = Path(tmp_root)

    def layer_extras(self) -> tuple:
        """Extra ``(owner, attribute, layer, kind)`` patches for the trace."""
        return ()

    def setup(self) -> None:
        pass

    def prepare_check(self) -> None:
        """Untimed reference work the output checks need."""

    def before_rep(self) -> None:
        pass

    def step(self) -> StepResult:
        raise NotImplementedError

    def after_rep(self) -> None:
        pass

    def close(self) -> None:
        pass


class ScenarioBatch(Workload):
    """Scenarios run as one ``run_scenarios`` batch, in-process, no cache."""

    layer_groups = ("scenario", "compute")
    scenarios: tuple = ()
    dataset = ""
    scale = 0.0
    trials = 1

    def config(self, **overrides) -> ExperimentConfig:
        params = dict(
            trials=self.trials, seed=self.seed, scale=self.scale,
            jobs=self.jobs, cache=False,
        )
        params.update(overrides)
        return ExperimentConfig(**params)

    def setup(self) -> None:
        self.specs = [get_scenario(name, dataset=self.dataset) for name in self.scenarios]
        self.run_config = self.config()
        self.tasks = 0
        for spec in self.specs:
            self.tasks += len(scenario_run.prepare_scenario(spec, self.run_config).tasks)

    def run_batch(self, specs, config, **kwargs) -> np.ndarray:
        results = scenario_run.run_scenarios(specs, config, **kwargs)
        return flatten_gains(results)

    def step(self) -> StepResult:
        gains = self.run_batch(self.specs, self.run_config)
        return StepResult(
            operations=self.tasks,
            values=gains,
            failed=int(np.count_nonzero(~np.isfinite(gains))),
        )


class CcEpsGplus(ScenarioBatch):
    """Fig. 9: clustering attacks across epsilon 1..8 on the gplus surrogate."""

    name = "cc-eps-gplus"
    scenarios = ("fig9",)
    dataset = "gplus"
    scale = 0.0078
    trials = 2


class DegreeDefenseFacebook(ScenarioBatch):
    """Figs. 12(a) and 12(b): Detect1/Detect2 against degree attacks."""

    name = "degree-defense-facebook"
    scenarios = ("fig12a", "fig12b")
    dataset = "facebook"
    scale = 0.2
    trials = 2


class ResumeMixedJobs2(ScenarioBatch):
    """Resume a fig6 + fig9 + fig12b sweep from a store pre-filled with fig6.

    Each repetition is one independent resume: a fresh copy of the pre-filled
    store, a fresh two-worker :class:`EngineSession` (pool creation and the
    shared-memory export included), the batch, and the session teardown.
    """

    name = "resume-mixed-jobs2"
    layer_groups = ("scenario", "parent")
    scenarios = ("fig6", "fig9", "fig12b")
    prefilled = ("fig6",)
    dataset = "facebook"
    scale = 0.2
    trials = 2
    jobs = 2

    def setup(self) -> None:
        super().setup()
        self.seed_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.tmp_root))
        prefill = [spec for spec in self.specs if spec.name in self.prefilled]
        self.expected_hits = sum(
            len(scenario_run.prepare_scenario(spec, self.run_config).tasks)
            for spec in prefill
        )
        self.run_batch(
            prefill, self.config(jobs=1), cache=ShardedResultStore(self.seed_dir)
        )
        self.rep_dir: Optional[Path] = None

    def before_rep(self) -> None:
        self.rep_dir = self.tmp_root / f"rep-{self.seed_dir.name}"
        shutil.copytree(self.seed_dir, self.rep_dir)

    def step(self) -> StepResult:
        store = ShardedResultStore(self.rep_dir)
        with EngineSession.from_config(self.run_config, cache=store) as session:
            gains = self.run_batch(self.specs, self.run_config, session=session)
        result = StepResult(
            operations=self.tasks,
            values=gains,
            failed=int(np.count_nonzero(~np.isfinite(gains))),
        )
        stats = store.stats()
        expected = {
            "hits": self.expected_hits,
            "appends": self.tasks - self.expected_hits,
            "corrupt": 0,
            "non_durable": 0,
        }
        wrong = {key: stats[key] for key, value in expected.items() if stats[key] != value}
        if wrong:
            result.failed = result.operations
            result.notes.append(f"store stats {wrong} != expected {expected}")
        return result

    def after_rep(self) -> None:
        if self.rep_dir is not None:
            shutil.rmtree(self.rep_dir, ignore_errors=True)
            self.rep_dir = None

    def close(self) -> None:
        self.after_rep()
        shutil.rmtree(self.seed_dir, ignore_errors=True)


#: Average degree of the streaming workload's synthetic graph.
STREAM_AVERAGE_DEGREE = 10.0


def synthetic_graph(num_nodes: int, seed: int) -> Graph:
    """Sparse uniform graph at :data:`STREAM_AVERAGE_DEGREE`, built vectorized
    (the construction of ``benchmarks/bench_scale.py``)."""
    rng = np.random.default_rng(seed)
    target = int(num_nodes * STREAM_AVERAGE_DEGREE / 2)
    codes = rng.integers(0, pair_count(num_nodes), size=int(target * 1.05), dtype=np.int64)
    codes = np.unique(codes)[:target]
    return Graph.from_codes(num_nodes, codes, assume_sorted_unique=True)


class StreamCollect(Workload):
    """LF-GDPR block-streamed collection over a 10^5-node synthetic graph.

    The step sweeps every report block of ``collect_blocks``, popcounts its
    packed rows into a perturbed-degree vector, then runs
    ``streaming_degrees`` on the same perturbed graph (collected in memory
    once, untimed) — the two must agree exactly.
    """

    name = "stream-collect-100k"
    layer_groups = ("stream",)
    num_nodes = 100_000
    epsilon = 16.0
    #: Packed bytes per report block: ten blocks at 10^5 nodes.
    block_bytes = 128 << 20

    def layer_extras(self) -> tuple:
        import sys

        return ((sys.modules[__name__], "synthetic_graph", "graph.dataset_s", "timed"),)

    def setup(self) -> None:
        self.graph = synthetic_graph(self.num_nodes, self.seed)
        self.protocol = LFGDPRProtocol(epsilon=self.epsilon)

    def prepare_check(self) -> None:
        self.reference = self.protocol.collect(self.graph, rng=self.seed).perturbed_graph

    def step(self) -> StepResult:
        observed = np.zeros(self.num_nodes, dtype=np.int64)
        blocks = 0
        for block in self.protocol.collect_blocks(
            self.graph, rng=self.seed, max_bytes=self.block_bytes
        ):
            observed[block.start : block.stop] = bitmatrix._row_popcounts(
                block.adjacency_rows
            )
            blocks += 1
        degrees = streaming.streaming_degrees(self.reference)
        result = StepResult(operations=blocks, values=observed)
        if not np.array_equal(observed, degrees):
            result.failed = blocks
            result.notes.append("block popcounts differ from streaming_degrees")
        return result


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (CcEpsGplus, DegreeDefenseFacebook, ResumeMixedJobs2, StreamCollect)
}
