"""Disk-fault injection across the storage plane (via tests.engine.faultkit).

Pinned here:

* injected faults are scoped — only descriptors under the armed root fail;
* a two-process append race with a torn write mid-line loses nothing it
  shouldn't: the reader recovers every intact record (including the one a
  healthy writer appended *behind* the torn fragment) and quarantines
  exactly the fragment;
* ``ENOSPC`` mid-sweep degrades the store to the in-memory overlay: the
  sweep finishes, the session knows exactly which results are non-durable,
  and a resume against the same root recomputes only those;
* lease heartbeats ride out transient write/read failures without
  self-evicting, and a claim hitting a disk fault fails soft;
* a failed shared-memory export leaves the graph store closable with no
  leaked segments.

Set ``REPRO_CHAOS=1`` to widen the torn-write position matrix (the CI
chaos job does).
"""

import errno
import io
import json
import multiprocessing
import os
import time
import warnings

import pytest

from repro.engine.cache import CACHE_VERSION, NullCache
from repro.engine.distributed import DistributedExecutor, LeaseDirectory
from repro.engine.graph_store import GraphStore
from repro.engine.integrity import (
    REASON_TORN_LINE,
    Quarantine,
    canonical_json,
    stamp_checksum,
)
from repro.engine.result_store import ShardedResultStore
from repro.engine.tasks import (
    TrialTask,
    derive_trial_seed,
    graph_fingerprint,
    identity_payload,
)
from repro.graph.adjacency import Graph
from repro.graph.generators import powerlaw_cluster_graph
from tests.conftest import CountingExecutor, run_on_graph
from tests.engine import faultkit

#: REPRO_CHAOS=1 (the CI chaos matrix) sweeps many torn positions.
TORN_POSITIONS = (
    (3, 10, 25, 60, 120) if os.environ.get("REPRO_CHAOS") == "1" else (25,)
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(100, 3, 0.4, rng=0)


def make_task(graph_key, index, tag="fault"):
    return TrialTask(
        graph_key=graph_key, metric="degree_centrality",
        attack="degree/rva", protocol="lfgdpr",
        epsilon=4.0, beta=0.05, gamma=0.05,
        seed=derive_trial_seed(0, f"{tag}|{index}"), trial=index,
    )


def make_tasks(graph, count, tag="fault"):
    graph_key = graph_fingerprint(graph)
    return [make_task(graph_key, index, tag) for index in range(count)]


def same_shard_tasks(graph, tag="torn"):
    """Two tasks whose content hashes land in the same shard file."""
    graph_key = graph_fingerprint(graph)
    by_prefix = {}
    for index in range(4096):
        task = make_task(graph_key, index, tag)
        bucket = by_prefix.setdefault(task.content_hash()[:2], [])
        bucket.append(task)
        if len(bucket) == 2:
            return bucket
    raise AssertionError("unreachable: 4096 hashes must collide in 256 shards")


class TestInjectorScoping:
    def test_unmatched_descriptors_pass_through(self, tmp_path, monkeypatch):
        injector = (
            faultkit.FaultInjector(tmp_path / "cache").fail().install(monkeypatch)
        )
        outside = tmp_path / "outside.txt"
        descriptor = os.open(outside, os.O_WRONLY | os.O_CREAT, 0o644)
        assert os.write(descriptor, b"hello") == 5
        os.close(descriptor)
        assert outside.read_bytes() == b"hello"
        assert injector.tripped == 0

    def test_matched_write_fails_with_the_armed_errno(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        root.mkdir()
        injector = (
            faultkit.FaultInjector(root).fail(errno.EIO).install(monkeypatch)
        )
        descriptor = os.open(root / "victim", os.O_WRONLY | os.O_CREAT, 0o644)
        with pytest.raises(OSError) as excinfo:
            os.write(descriptor, b"doomed")
        os.close(descriptor)
        assert excinfo.value.errno == errno.EIO
        assert injector.tripped == 1

    def test_short_writes_exercise_the_store_write_loop(
        self, graph, tmp_path, monkeypatch
    ):
        injector = (
            faultkit.FaultInjector(tmp_path).short_writes(7).install(monkeypatch)
        )
        store = ShardedResultStore(tmp_path)
        tasks = make_tasks(graph, 5, "short")
        for index, task in enumerate(tasks):
            store.put(task, float(index))
        assert injector.tripped > 0, "the fault never engaged"
        fresh = ShardedResultStore(tmp_path)
        assert [fresh.get(task) for task in tasks] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert fresh.corrupt == 0


def _torn_then_healthy(root, torn_at, graph_seed, torn_done, healthy_done):
    """Fork target: tear one append, then (other process) append behind it."""
    graph = powerlaw_cluster_graph(100, 3, 0.4, rng=graph_seed)
    torn_task, healthy_task = same_shard_tasks(graph)
    store = ShardedResultStore(root)
    if torn_done is not None:
        injector = faultkit.FaultInjector(root).torn_write(torn_at)
        os.write = injector.write  # fork-local: only this child is broken
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store.put(torn_task, 1.0)  # tears mid-line, degrades in-memory
        assert injector.tripped == 1
        torn_done.set()
    else:
        healthy_done.wait(timeout=60)
        store.put(healthy_task, 2.0)


class TestTornWriteConcurrency:
    @pytest.mark.parametrize("torn_at", TORN_POSITIONS)
    def test_reader_recovers_intact_records_quarantines_the_fragment(
        self, graph, tmp_path, torn_at
    ):
        """Satellite: two-process appends, one torn mid-line.

        The torn fragment has no newline, so the healthy process's
        O_APPEND line lands directly behind it and both read back as one
        merged line.  The reader must salvage the healthy record and
        quarantine exactly the fragment.
        """
        context = multiprocessing.get_context("fork")
        torn_done = context.Event()
        workers = [
            context.Process(
                target=_torn_then_healthy,
                args=(tmp_path, torn_at, 0, torn_done, None),
            ),
            context.Process(
                target=_torn_then_healthy,
                args=(tmp_path, torn_at, 0, None, torn_done),
            ),
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)

        torn_task, healthy_task = same_shard_tasks(graph)
        reader = ShardedResultStore(tmp_path)
        assert reader.get(healthy_task) == 2.0, (
            "the record behind the torn fragment must be salvaged"
        )
        assert reader.get(torn_task) is None, (
            "the torn record was never durable; it must read as a miss"
        )
        assert reader.corrupt == 1
        (record,) = reader.quarantine.entries()
        assert record["reason"] == REASON_TORN_LINE
        assert len(record["raw"]) == torn_at, (
            "exactly the torn fragment is quarantined"
        )


class TestEnospcDegradation:
    def _line_sizes(self, tasks, gains):
        return [
            len(canonical_json(stamp_checksum({
                "cache_version": CACHE_VERSION,
                "hash": task.content_hash(),
                "task": identity_payload(task),
                "gain": float(gain),
            })).encode("utf-8")) + 1
            for task, gain in zip(tasks, gains)
        ]

    def test_sweep_finishes_and_resume_recomputes_only_missing(
        self, graph, tmp_path, monkeypatch
    ):
        tasks = make_tasks(graph, 10, "enospc")
        expected = run_on_graph(tasks, graph, cache=NullCache())
        durable = 3
        budget = sum(self._line_sizes(tasks, expected)[:durable])

        root = tmp_path / "cache"
        injector = (
            faultkit.FaultInjector(root).enospc_after(budget).install(monkeypatch)
        )
        store = ShardedResultStore(root)
        with pytest.warns(RuntimeWarning, match="NOT durable"):
            gains = run_on_graph(tasks, graph, cache=store)
        assert gains == expected, "the sweep must finish despite the full disk"
        assert store.degraded
        assert store.appends == durable
        assert store.non_durable_count == len(tasks) - durable
        assert {p["hash"] for p in store.non_durable_tasks()} == {
            task.content_hash() for task in tasks[durable:]
        }

        # Resume against the same root: only the non-durable tasks miss.
        injector.disarm()
        executor = CountingExecutor()
        replay = run_on_graph(
            tasks, graph, executor=executor, cache=ShardedResultStore(root)
        )
        assert executor.executed == len(tasks) - durable
        assert replay == expected

    def test_backlog_flushes_once_the_disk_recovers(
        self, graph, tmp_path, monkeypatch
    ):
        tasks = make_tasks(graph, 4, "flush")
        root = tmp_path / "cache"
        injector = (
            faultkit.FaultInjector(root).enospc_after(0).install(monkeypatch)
        )
        store = ShardedResultStore(root)
        with pytest.warns(RuntimeWarning, match="NOT durable"):
            for index, task in enumerate(tasks[:3]):
                store.put(task, float(index))
        assert store.non_durable_count == 3 and store.appends == 0

        injector.disarm()
        store.put(tasks[3], 3.0)  # first healthy append retries the backlog
        assert store.non_durable_count == 0
        assert store.appends == 4
        fresh = ShardedResultStore(root)
        assert [fresh.get(task) for task in tasks] == [0.0, 1.0, 2.0, 3.0]

    def test_degraded_results_survive_refresh(self, graph, tmp_path, monkeypatch):
        (task,) = make_tasks(graph, 1, "overlay")
        root = tmp_path / "cache"
        faultkit.FaultInjector(root).enospc_after(0).install(monkeypatch)
        store = ShardedResultStore(root)
        with pytest.warns(RuntimeWarning):
            store.put(task, 9.0)
        store.refresh()
        assert store.get(task) == 9.0, (
            "an overlay-held result exists nowhere else; refresh must keep it"
        )


class TestLeaseFaults:
    BOUNDS = (0, 255)

    def test_heartbeat_survives_write_faults_without_self_evicting(
        self, tmp_path, monkeypatch
    ):
        leases = LeaseDirectory(tmp_path, "steady", ttl=60)
        assert leases.try_claim(self.BOUNDS)
        injector = (
            faultkit.FaultInjector(tmp_path).fail(errno.ENOSPC).install(monkeypatch)
        )
        assert leases.heartbeat_all() == 0
        assert leases.skipped >= 1
        assert leases.lost == 0
        assert leases.holds(self.BOUNDS), "a write hiccup must not drop the lease"

        injector.disarm()
        assert leases.heartbeat_all() == 1
        assert leases.holds(self.BOUNDS)

    def test_heartbeat_survives_read_faults_without_self_evicting(
        self, tmp_path, monkeypatch
    ):
        leases = LeaseDirectory(tmp_path, "steady", ttl=60)
        assert leases.try_claim(self.BOUNDS)

        def refuse(*args, **kwargs):
            raise OSError(errno.EIO, "injected read failure")

        monkeypatch.setattr("repro.engine.distributed.json.load", refuse)
        assert leases.heartbeat_all() == 0
        assert leases.skipped == 1 and leases.lost == 0
        assert leases.holds(self.BOUNDS)
        monkeypatch.undo()
        assert leases.heartbeat_all() == 1

    def test_reclaim_hitting_disk_fault_fails_soft(self, tmp_path, monkeypatch):
        dead = LeaseDirectory(tmp_path, "dead", ttl=60)
        assert dead.try_claim(self.BOUNDS)
        vulture = LeaseDirectory(tmp_path, "vulture", ttl=0.05)
        assert not vulture.try_claim(self.BOUNDS)  # first sight starts the clock
        time.sleep(0.1)
        injector = (
            faultkit.FaultInjector(tmp_path).fail(errno.ENOSPC).install(monkeypatch)
        )
        assert not vulture.try_claim(self.BOUNDS), (
            "a reclaim that cannot write must fail soft, not raise"
        )
        injector.disarm()
        assert vulture.try_claim(self.BOUNDS)


class TestDistributedUnderDiskFaults:
    def test_drive_completes_with_non_durable_results(self, graph, tmp_path, monkeypatch):
        tasks = make_tasks(graph, 8, "distfault")
        expected = run_on_graph(tasks, graph, cache=NullCache())
        root = tmp_path / "cache"
        faultkit.FaultInjector(root).enospc_after(0).install(monkeypatch)
        store = ShardedResultStore(root)
        executor = DistributedExecutor(
            store, worker_id="faulty", lease_ttl=60, poll_interval=0.05
        )
        with pytest.warns(RuntimeWarning, match="NOT durable"), GraphStore() as graphs:
            graphs.add(graph)
            gains = executor.execute_batch(tasks, graphs)
        assert gains == expected
        assert store.non_durable_count == len(tasks)
        assert store.appends == 0


class TestGraphStoreFaults:
    def test_failed_export_leaks_no_segments(self, graph, monkeypatch):
        store = GraphStore()
        graph_key, _ = store.add(graph)

        def refuse(self):
            raise OSError(errno.ENOSPC, "injected shm exhaustion")

        monkeypatch.setattr(Graph, "to_shared", refuse)
        with pytest.raises(OSError):
            store.export_graph(graph_key)
        assert store._segments == [], "a failed export must not leak a segment"
        store.close()  # must not raise
        with pytest.raises(RuntimeError):
            store.export_graph(graph_key)
