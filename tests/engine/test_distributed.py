"""Tests for the lease-coordinated distributed executor.

Load-bearing guarantees pinned here:

* any fleet size, interleaving or crash pattern produces gains
  **bit-identical** to a serial run (tasks are self-seeded, the store is
  last-writer-wins);
* leases actually partition work — concurrent workers never duplicate a
  task's computation while both are alive;
* dead workers' ranges are reclaimed after the lease TTL, live workers'
  never are.
"""

import hashlib
import json
import threading
import time

import pytest

from repro.engine.cache import NullCache
from repro.engine.distributed import (
    PREFIX_SPACE,
    DistributedExecutor,
    LeaseDirectory,
    default_worker_id,
    shard_ranges,
)
from repro.engine.executors import SerialExecutor, run_batch
from repro.engine.graph_store import GraphStore
from repro.engine.integrity import gc_store
from repro.engine.result_store import ShardedResultStore
from repro.engine.tasks import TrialTask, derive_trial_seed, graph_fingerprint
from repro.graph.generators import powerlaw_cluster_graph


def _sha256_of(gains):
    return hashlib.sha256(
        json.dumps([float(g) for g in gains]).encode("ascii")
    ).hexdigest()


def make_tasks(graph, count, tag="dist"):
    graph_key = graph_fingerprint(graph)
    return [
        TrialTask(
            graph_key=graph_key, metric="degree_centrality",
            attack=("degree/mga" if index % 2 else "degree/rva"),
            protocol="lfgdpr", epsilon=4.0, beta=0.05, gamma=0.05,
            seed=derive_trial_seed(0, f"{tag}|{index}"), trial=index,
        )
        for index in range(count)
    ]


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(80, 3, 0.4, rng=0)


@pytest.fixture(scope="module")
def batch(graph):
    return make_tasks(graph, 16)


@pytest.fixture(scope="module")
def serial_sha(graph, batch):
    with GraphStore() as graphs:
        graphs.add(graph)
        return _sha256_of(
            run_batch(batch, graphs, executor=SerialExecutor(), cache=NullCache())
        )


class TestShardRanges:
    def test_ranges_tile_the_prefix_space(self):
        for count in (1, 2, 16, 100, 256):
            ranges = shard_ranges(count)
            covered = [
                prefix for lo, hi in ranges for prefix in range(lo, hi + 1)
            ]
            assert covered == list(range(PREFIX_SPACE)), count
            assert len(ranges) == count

    def test_degenerate_counts_clamp(self):
        assert shard_ranges(0) == [(0, 255)]
        assert shard_ranges(-5) == [(0, 255)]
        assert len(shard_ranges(10_000)) == PREFIX_SPACE


class TestLeaseDirectory:
    def test_claim_is_exclusive_and_readoptable(self, tmp_path):
        bounds = (0, 255)
        mine = LeaseDirectory(tmp_path, "alice", ttl=60)
        other = LeaseDirectory(tmp_path, "bob", ttl=60)
        assert mine.try_claim(bounds)
        assert mine.holds(bounds)
        assert not other.try_claim(bounds), "a live foreign lease was stolen"
        assert mine.try_claim(bounds), "re-claiming our own lease must work"
        mine.release(bounds)
        assert other.try_claim(bounds), "a released lease must be claimable"

    def test_expired_lease_is_reclaimed(self, tmp_path):
        bounds = (0, 255)
        dead = LeaseDirectory(tmp_path, "dead-worker", ttl=60)
        assert dead.try_claim(bounds)
        vulture = LeaseDirectory(tmp_path, "vulture", ttl=0.1)
        assert not vulture.try_claim(bounds), "first sight only starts the clock"
        time.sleep(0.15)
        assert vulture.try_claim(bounds), "a silent lease must expire"
        assert vulture.holds(bounds)

    def test_heartbeats_block_reclaim(self, tmp_path):
        bounds = (0, 255)
        alive = LeaseDirectory(tmp_path, "alive", ttl=60)
        assert alive.try_claim(bounds)
        vulture = LeaseDirectory(tmp_path, "vulture", ttl=0.2)
        deadline = time.monotonic() + 0.6
        with alive.heartbeats(interval=0.05):
            while time.monotonic() < deadline:
                assert not vulture.try_claim(bounds), (
                    "a heartbeating lease must never be reclaimed"
                )
                time.sleep(0.05)
        assert alive.beats > 0

    def test_lost_lease_is_detected_and_dropped(self, tmp_path):
        bounds = (0, 255)
        slow = LeaseDirectory(tmp_path, "slow", ttl=60)
        assert slow.try_claim(bounds)
        vulture = LeaseDirectory(tmp_path, "vulture", ttl=0.1)
        vulture.try_claim(bounds)
        time.sleep(0.15)
        assert vulture.try_claim(bounds)
        slow.heartbeat_all()
        assert slow.lost == 1
        assert not slow.holds(bounds), "a usurped lease must be abandoned"
        assert vulture.holds(bounds)

    def test_corrupt_lease_file_expires_like_a_silent_owner(self, tmp_path):
        bounds = (0, 255)
        directory = LeaseDirectory(tmp_path, "w", ttl=0.1)
        directory.root.mkdir(parents=True, exist_ok=True)
        directory.lease_path(bounds).write_text("not json{{{")
        assert not directory.try_claim(bounds)
        time.sleep(0.15)
        assert directory.try_claim(bounds)

    def test_default_worker_id_is_host_and_pid(self):
        import os

        assert default_worker_id().endswith(f":{os.getpid()}")

    def test_rejects_bad_ttl(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            LeaseDirectory(tmp_path, "w", ttl=0)

    @pytest.mark.parametrize("ttl", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda root, ttl: LeaseDirectory(root, "w", ttl=ttl),
            lambda root, ttl: DistributedExecutor(ShardedResultStore(root), lease_ttl=ttl),
            lambda root, ttl: gc_store(root, lease_ttl=ttl),
        ],
        ids=["LeaseDirectory", "DistributedExecutor", "gc_store"],
    )
    def test_every_entry_rejects_non_finite_or_non_positive_ttl(self, tmp_path, entry, ttl):
        """A TTL of 0 or below expires live leases at once; NaN and inf
        never expire a dead worker's lease."""
        with pytest.raises(ValueError, match="lease_ttl"):
            entry(tmp_path, ttl)


class TestDistributedExecution:
    def test_single_worker_matches_serial(self, graph, batch, serial_sha, tmp_path):
        store = ShardedResultStore(tmp_path)
        executor = DistributedExecutor(store, worker_id="solo")
        with GraphStore() as graphs:
            graphs.add(graph)
            gains = executor.execute_batch(batch, graphs)
        assert _sha256_of(gains) == serial_sha
        assert store.appends == len(batch)
        assert not list((tmp_path / "leases").glob("range-*")), (
            "every lease must be released on the way out"
        )

    def test_warm_store_computes_nothing(self, graph, batch, serial_sha, tmp_path):
        with GraphStore() as graphs:
            graphs.add(graph)
            DistributedExecutor(
                ShardedResultStore(tmp_path), worker_id="first"
            ).execute_batch(batch, graphs)
            replay_store = ShardedResultStore(tmp_path)
            gains = DistributedExecutor(
                replay_store, worker_id="second"
            ).execute_batch(batch, graphs)
        assert _sha256_of(gains) == serial_sha
        assert replay_store.appends == 0
        assert replay_store.hits == len(batch)

    def test_two_workers_partition_without_duplicating(
        self, graph, batch, serial_sha, tmp_path
    ):
        """Concurrent workers split the batch; appends sum exactly to it."""
        with GraphStore() as graphs:
            graphs.add(graph)
            stores = [ShardedResultStore(tmp_path) for _ in range(2)]
            workers = [
                DistributedExecutor(
                    store, worker_id=f"w{index}", lease_ttl=60,
                    range_count=8, poll_interval=0.05,
                )
                for index, store in enumerate(stores)
            ]
            appended = [None, None]

            def drain(index):
                appended[index] = workers[index].work(batch, graphs)

            threads = [
                threading.Thread(target=drain, args=(index,), daemon=True)
                for index in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert all(not thread.is_alive() for thread in threads)
            assert sum(appended) == len(batch), (
                "live leases must prevent duplicated work"
            )
            # The full batch is now answerable from the shared store.
            verify_store = ShardedResultStore(tmp_path)
            gains = DistributedExecutor(
                verify_store, worker_id="verify"
            ).execute_batch(batch, graphs)
        assert _sha256_of(gains) == serial_sha
        assert verify_store.appends == 0

    def test_driver_waits_out_a_foreign_range(self, graph, batch, serial_sha, tmp_path):
        """execute_batch must poll — not steal — a live foreign lease.

        The 'foreign worker' here is a thread holding the (single) range
        with heartbeats on; the driver can only finish by observing the
        results that thread appends through the shared store.
        """
        foreign_leases = LeaseDirectory(tmp_path, "foreign", ttl=60)
        assert foreign_leases.try_claim((0, 255))
        finished = {}

        def drive():
            store = ShardedResultStore(tmp_path)
            executor = DistributedExecutor(
                store, worker_id="driver", range_count=1,
                lease_ttl=60, poll_interval=0.02,
            )
            with GraphStore() as graphs:
                graphs.add(graph)
                finished["gains"] = executor.execute_batch(batch, graphs)
            finished["appends"] = store.appends

        driver = threading.Thread(target=drive, daemon=True)
        with foreign_leases.heartbeats(interval=0.05):
            driver.start()
            time.sleep(0.2)
            assert "gains" not in finished, "driver stole a heartbeating lease"
            # The foreign owner delivers through the shared store...
            foreign_store = ShardedResultStore(tmp_path)
            with GraphStore() as graphs:
                graphs.add(graph)
                run_batch(
                    batch, graphs, executor=SerialExecutor(), cache=foreign_store
                )
        foreign_leases.release_all()
        driver.join(timeout=60)
        assert not driver.is_alive(), "driver never observed the foreign results"
        assert _sha256_of(finished["gains"]) == serial_sha
        assert finished["appends"] == 0, "the driver had nothing left to compute"

    def test_dead_workers_range_is_reclaimed_and_finished(
        self, graph, batch, serial_sha, tmp_path
    ):
        """A lease with no heartbeat expires; a survivor finishes the range."""
        abandoned = LeaseDirectory(tmp_path, "crashed-worker", ttl=60)
        for bounds in shard_ranges(4):
            assert abandoned.try_claim(bounds)
        # No heartbeats — exactly what a SIGKILLed worker leaves behind.
        store = ShardedResultStore(tmp_path)
        survivor = DistributedExecutor(
            store, worker_id="survivor", range_count=4,
            lease_ttl=0.2, poll_interval=0.05,
        )
        with GraphStore() as graphs:
            graphs.add(graph)
            gains = survivor.execute_batch(batch, graphs)
        assert _sha256_of(gains) == serial_sha
        assert store.appends == len(batch)

    def test_parallel_inner_executor_matches_serial(
        self, graph, batch, serial_sha, tmp_path
    ):
        store = ShardedResultStore(tmp_path)
        executor = DistributedExecutor(store, worker_id="wide", jobs=2)
        with GraphStore() as graphs:
            graphs.add(graph)
            gains = executor.execute_batch(batch, graphs)
        assert _sha256_of(gains) == serial_sha

    def test_rejects_bad_parameters(self, tmp_path):
        store = ShardedResultStore(tmp_path)
        with pytest.raises(ValueError, match="jobs"):
            DistributedExecutor(store, jobs=0)
        with pytest.raises(ValueError, match="poll_interval"):
            DistributedExecutor(store, poll_interval=0)
