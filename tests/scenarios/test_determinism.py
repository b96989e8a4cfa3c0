"""Executor determinism over full scenario batches.

The engine's core guarantee: because every compiled task derives its own
seed, a scenario's results are a pure function of its spec and config —
independent of the executor, the worker count, the scheduling order and the
cache state.  These tests pin that guarantee end to end by hashing the full
result vector of a scenario batch under every execution path.
"""

import hashlib
import json

import pytest

from repro.engine.cache import NullCache
from repro.engine.executors import ParallelExecutor, SerialExecutor
from repro.engine.result_store import ShardedResultStore
from repro.experiments.config import ExperimentConfig
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.run import load_scenario_graph, run_scenario
from tests.conftest import run_on_graph

CONFIG = ExperimentConfig(trials=2, scale=0.02, seed=0, cache=False)


def _sha256_of(gains):
    payload = json.dumps([float(g) for g in gains]).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def batch():
    """A full mixed scenario batch: defended, undefended and flat series."""
    spec = get_scenario("fig12a")
    graph = load_scenario_graph(spec, CONFIG)
    return spec, graph, compile_scenario(spec, graph, CONFIG)


class TestParallelMatchesSerial:
    def test_cold_cache_bitwise_identical(self, batch, tmp_path):
        """jobs=4 over a cold on-disk cache == serial without any cache."""
        _, graph, tasks = batch
        serial = run_on_graph(tasks, graph, executor=SerialExecutor(), cache=NullCache())
        parallel = run_on_graph(
            tasks, graph,
            executor=ParallelExecutor(jobs=4),
            cache=ShardedResultStore(tmp_path / "cold"),
        )
        assert _sha256_of(parallel) == _sha256_of(serial)

    def test_cache_hit_replay_bitwise_identical(self, batch, tmp_path):
        """A warm cache answers the whole batch with the same result vector."""
        _, graph, tasks = batch
        cache = ShardedResultStore(tmp_path / "warm")
        first = run_on_graph(tasks, graph, executor=SerialExecutor(), cache=cache)
        assert cache.misses == len(tasks)
        replay = run_on_graph(
            tasks, graph, executor=ParallelExecutor(jobs=4), cache=cache
        )
        assert cache.hits == len(tasks)
        assert _sha256_of(replay) == _sha256_of(first)

    def test_full_scenario_run_identical_across_jobs(self, tmp_path):
        """run_scenario(jobs=4) aggregates to byte-identical curves."""
        spec = get_scenario("fig12a")

        def digest(config):
            result = run_scenario(spec, config, cache=NullCache())
            sweep = result.sweep()
            payload = json.dumps(
                {"series": sweep.series, "stderr": sweep.stderr}, sort_keys=True
            ).encode("ascii")
            return hashlib.sha256(payload).hexdigest()

        assert digest(CONFIG) == digest(CONFIG.with_overrides(jobs=4))

    def test_partial_cache_mix_identical(self, batch, tmp_path):
        """Half-warm cache (hits + parallel misses) still reproduces serial."""
        _, graph, tasks = batch
        cache = ShardedResultStore(tmp_path / "half")
        half = tasks[: len(tasks) // 2]
        run_on_graph(half, graph, executor=SerialExecutor(), cache=cache)
        mixed = run_on_graph(
            tasks, graph, executor=ParallelExecutor(jobs=4), cache=cache
        )
        serial = run_on_graph(tasks, graph, executor=SerialExecutor(), cache=NullCache())
        assert _sha256_of(mixed) == _sha256_of(serial)
