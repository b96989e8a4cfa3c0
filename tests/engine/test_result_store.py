"""Tests for the sharded result store: round trips, concurrency, validation.

The store keeps every result in 256 append-only shards.  Pinned here:

* **one layout** — a file of the retired one-JSON-file-per-task layout is
  never read, counted or deleted;
* **concurrent appenders** — two processes appending to the same shard
  files interleave whole lines, never fragments;
* miss semantics — version bumps, identity mismatches and torn trailing
  lines degrade to misses, never wrong results.
"""

import json
import multiprocessing

import pytest

from repro.engine.cache import CACHE_VERSION, NullCache
from repro.engine.executors import run_batch
from repro.engine.graph_store import GraphStore
from repro.engine.integrity import gc_store, repair_store, verify_store
from repro.engine.result_store import ShardedResultStore
from repro.engine.tasks import (
    TrialTask,
    derive_trial_seed,
    graph_fingerprint,
    identity_payload,
)
from repro.graph.generators import powerlaw_cluster_graph
from tests.conftest import CountingExecutor


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(100, 3, 0.4, rng=0)


def make_tasks(graph, count, tag="store"):
    graph_key = graph_fingerprint(graph)
    return [
        TrialTask(
            graph_key=graph_key, metric="degree_centrality",
            attack="degree/rva", protocol="lfgdpr",
            epsilon=4.0, beta=0.05, gamma=0.05,
            seed=derive_trial_seed(0, f"{tag}|{index}"), trial=index,
        )
        for index in range(count)
    ]


class TestRetiredLegacyLayout:
    def test_per_task_file_is_ignored_and_kept(self, graph, tmp_path):
        """A valid ``<hh>/<hash>.json`` file is a miss, uncounted, never deleted."""
        task, stored = make_tasks(graph, 2)
        digest = task.content_hash()
        legacy = tmp_path / digest[:2] / f"{digest}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps({
            "cache_version": CACHE_VERSION,
            "task": identity_payload(task),
            "gain": 4.5,
        }))
        ShardedResultStore(tmp_path).put(stored, 1.0)

        store = ShardedResultStore(tmp_path)
        assert store.get(task) is None and store.misses == 1
        assert len(store) == 1
        report = verify_store(tmp_path)
        assert report.distinct_total == 1 and report.corrupt_total == 0
        repair_store(tmp_path)
        gc_store(tmp_path, lease_ttl=1e-9)
        assert store.clear() == 1
        assert json.loads(legacy.read_text())["gain"] == 4.5

    def test_unparseable_per_task_file_is_not_quarantined(self, graph, tmp_path):
        """A damaged retired-layout file is not store state: no count, no record."""
        (task,) = make_tasks(graph, 1)
        digest = task.content_hash()
        legacy = tmp_path / digest[:2] / f"{digest}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text("{not json")
        store = ShardedResultStore(tmp_path)
        assert store.get(task) is None
        assert store.corrupt == 0 and store.quarantine.entries() == []
        assert verify_store(tmp_path).corrupt_total == 0
        assert legacy.read_text() == "{not json"


class TestRoundTrip:
    def test_heterogeneous_batch_round_trip(self, tmp_path):
        """run_batch persists and replays a multi-graph batch."""
        graph_a = powerlaw_cluster_graph(60, 3, 0.4, rng=0)
        graph_b = powerlaw_cluster_graph(70, 3, 0.4, rng=1)
        tasks = make_tasks(graph_a, 3, tag="a") + make_tasks(graph_b, 3, tag="b")
        with GraphStore() as store:
            store.add(graph_a)
            store.add(graph_b)
            cold = CountingExecutor()
            first = run_batch(
                tasks, store, executor=cold, cache=ShardedResultStore(tmp_path)
            )
            warm = CountingExecutor()
            replay = run_batch(
                tasks, store, executor=warm, cache=ShardedResultStore(tmp_path)
            )
        assert cold.executed == len(tasks)
        assert warm.executed == 0
        assert replay == first


def _append_entries(root, start, count, barrier):
    """Worker: append ``count`` results, synchronised to maximise overlap."""
    graph = powerlaw_cluster_graph(100, 3, 0.4, rng=0)
    store = ShardedResultStore(root)
    tasks = make_tasks(graph, count, tag="concurrent")
    barrier.wait()
    for index, task in enumerate(tasks):
        store.put(task, float(start + index))


class TestConcurrentWriters:
    def test_two_processes_append_to_same_shards(self, graph, tmp_path):
        """Interleaved appends to one shard leave every line parseable."""
        count = 40
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        workers = [
            context.Process(target=_append_entries, args=(tmp_path, 0, count, barrier))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert all(worker.exitcode == 0 for worker in workers)

        # Both processes wrote the identical task set, so every shard line —
        # whatever the interleaving — must parse and carry a known hash.
        tasks = make_tasks(graph, count, tag="concurrent")
        expected_hashes = {task.content_hash() for task in tasks}
        lines = 0
        for shard in tmp_path.glob("shard-*.jsonl"):
            for line in shard.read_text(encoding="utf-8").splitlines():
                entry = json.loads(line)  # raises on a torn/fragmented line
                assert entry["hash"] in expected_hashes
                lines += 1
        assert lines == 2 * count, "each process appends one line per task"

        store = ShardedResultStore(tmp_path)
        gains = [store.get(task) for task in tasks]
        assert gains == [float(index) for index in range(count)]
        assert store.hits == count


class TestMissSemantics:
    def test_version_bump_is_a_miss(self, graph, tmp_path):
        task = make_tasks(graph, 1)[0]
        store = ShardedResultStore(tmp_path)
        digest = task.content_hash()
        entry = {
            "cache_version": CACHE_VERSION + 1,
            "hash": digest,
            "task": {},
            "gain": 1.0,
        }
        store._append(digest, entry)
        fresh = ShardedResultStore(tmp_path)
        assert fresh.get(task) is None and fresh.misses == 1

    def test_identity_mismatch_is_a_miss(self, graph, tmp_path):
        """A colliding hash with a different identity never answers."""
        task, other = make_tasks(graph, 2)
        store = ShardedResultStore(tmp_path)
        store.put(other, 3.0)
        forged = dict(store._index[other.content_hash()[:2]][other.content_hash()])
        forged["hash"] = task.content_hash()
        store._append(task.content_hash(), forged)
        fresh = ShardedResultStore(tmp_path)
        assert fresh.get(task) is None

    def test_torn_trailing_line_skipped(self, graph, tmp_path):
        tasks = make_tasks(graph, 2)
        store = ShardedResultStore(tmp_path)
        store.put(tasks[0], 1.5)
        shard = store.shard_path(tasks[0].content_hash()[:2])
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"cache_version": 1, "hash": "dead')  # torn write
        fresh = ShardedResultStore(tmp_path)
        assert fresh.get(tasks[0]) == 1.5

    def test_put_then_get_same_instance(self, graph, tmp_path):
        task = make_tasks(graph, 1)[0]
        store = ShardedResultStore(tmp_path)
        assert store.get(task) is None
        store.put(task, 2.25)
        assert store.get(task) == 2.25

    def test_clear_and_len(self, graph, tmp_path):
        tasks = make_tasks(graph, 3)
        store = ShardedResultStore(tmp_path)
        store.put(tasks[0], 1.0)
        store.put(tasks[1], 2.0)
        store.put(tasks[2], 3.0)
        assert len(ShardedResultStore(tmp_path)) == 3
        assert ShardedResultStore(tmp_path).clear() == 3
        assert len(ShardedResultStore(tmp_path)) == 0

    def test_null_cache_protocol(self, graph):
        task = make_tasks(graph, 1)[0]
        cache = NullCache()
        assert cache.get(task) is None
        cache.put(task, 1.0)
        assert cache.get(task) is None


class TestStalenessProbe:
    """A long-lived store must see what other processes append behind it."""

    def test_foreign_append_to_loaded_shard_becomes_visible(self, graph, tmp_path):
        tasks = make_tasks(graph, 4, "stale")
        reader = ShardedResultStore(tmp_path)
        for task in tasks:
            assert reader.get(task) is None  # shards now loaded (and empty)

        writer = ShardedResultStore(tmp_path)  # a "different process"
        for index, task in enumerate(tasks):
            writer.put(task, float(index))

        # Without the probe these would all miss forever: the reader's
        # in-memory indexes were parsed before the writer appended.
        for index, task in enumerate(tasks):
            assert reader.get(task) == float(index)
        assert reader.reloads >= 1
        assert reader.stats()["reloads"] == reader.reloads

    def test_own_appends_do_not_trigger_reloads(self, graph, tmp_path):
        store = ShardedResultStore(tmp_path)
        tasks = make_tasks(graph, 6, "selfstale")
        for index, task in enumerate(tasks):
            assert store.get(task) is None
            store.put(task, float(index))
        probe = make_tasks(graph, 12, "selfstale-miss")
        for task in probe:
            store.get(task)
        assert store.reloads == 0, "a store must not re-parse its own writes"

    def test_refresh_drops_probe_state_too(self, graph, tmp_path):
        store = ShardedResultStore(tmp_path)
        (task,) = make_tasks(graph, 1, "refresh-probe")
        store.put(task, 1.0)
        store.refresh()
        assert store._shard_stats == {}
        assert store.get(task) == 1.0


class TestAppendDurability:
    def test_short_writes_never_tear_lines(self, graph, tmp_path, monkeypatch):
        """os.write delivering partial lines must loop, not truncate.

        Simulated short writes (at most 7 bytes per call) must still land
        every entry whole — a torn line mid-shard would silently drop a
        result another worker already paid to compute.
        """
        import os as os_module

        real_write = os_module.write

        def dribble(descriptor, data):
            return real_write(descriptor, bytes(data)[:7])

        monkeypatch.setattr(
            "repro.engine.result_store.os.write", dribble
        )
        store = ShardedResultStore(tmp_path)
        tasks = make_tasks(graph, 5, "dribble")
        for index, task in enumerate(tasks):
            store.put(task, float(index))

        fresh = ShardedResultStore(tmp_path)
        for index, task in enumerate(tasks):
            assert fresh.get(task) == float(index)
        assert fresh.misses == 0

    def test_duplicate_put_appends_no_line(self, graph, tmp_path):
        store = ShardedResultStore(tmp_path)
        (task,) = make_tasks(graph, 1, "dedup")
        store.put(task, 0.25)
        shard = store.shard_path(task.content_hash()[:2])
        size_after_first = shard.stat().st_size
        store.put(task, 0.25)
        assert shard.stat().st_size == size_after_first
        assert store.appends == 1
