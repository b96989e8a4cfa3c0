"""Distributed, resumable, fault-tolerant execution over the sharded store.

The :class:`~repro.engine.result_store.ShardedResultStore` was built as a
multi-process-safe substrate — ``O_APPEND`` whole-line appends, last-writer-
wins dedup, torn-line tolerance — and this module makes it the coordination
plane for a fleet: N independent worker processes (same host, or many hosts
sharing a cache root over a network filesystem) execute one logical batch
together with **no coordinator process**.

Work partitioning — shard-range leases
--------------------------------------
Tasks are partitioned by the first two hex digits of their content hash —
the same prefix that selects their result shard — into contiguous *shard
ranges* (:func:`shard_ranges`).  A worker claims a range by atomically
creating a lease file next to the shards (``<root>/leases/range-<lo>-<hh>``,
``O_CREAT | O_EXCL``), executes the range's cache-missing tasks through the
ordinary kernel/paired machinery, appends the results to the shared store
and releases the lease.  While it computes, a daemon thread rewrites the
lease with a monotonically increasing ``beat``; observers track ``(owner,
beat)`` against their **own** monotonic clock, so expiry never depends on
cross-host wall-clock agreement.  A lease whose beat has not advanced for
``lease_ttl`` seconds is reclaimable by atomic rename.

Correctness never depends on lease exclusivity.  Tasks are self-seeded pure
functions, so if a reclaim races a slow-but-alive owner, both compute
bit-identical results and the store's last-writer-wins dedup makes the
duplicate append harmless — leases only prevent *wasted* work, they are not
a mutual-exclusion primitive the results rely on.

Crash recovery and resume
-------------------------
Everything a worker appends before dying is durable: a retry, another
worker reclaiming the dead worker's range, or a later ``scenario run
--resume`` all see those results as cache hits and recompute only what is
actually missing.  An interrupted sweep resumed to completion is therefore
bit-identical (sha256) to an uninterrupted serial run.

Two driving modes share the machinery:

* :meth:`DistributedExecutor.work` — *worker mode* (the ``repro worker``
  CLI): claim ranges, compute, append; exits once everything left is
  owned by demonstrably live peers (dead peers' leases are outwaited,
  reclaimed and finished first);
* :meth:`DistributedExecutor.execute_batch` — *driver mode*: additionally
  poll the store for ranges other workers own (the store's staleness probe
  makes their appends visible) and return the full gains vector, making
  this a drop-in :class:`~repro.engine.executors.Executor` sibling.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.executors import (
    Executor,
    ParallelExecutor,
    PoolManager,
    SerialExecutor,
    run_batch,
)
from repro.engine.graph_store import GraphStore
from repro.engine.integrity import check_lease_ttl, is_disk_fault, write_all
from repro.engine.result_store import SHARD_PREFIX_LEN, ShardedResultStore
from repro.engine.tasks import TrialTask
from repro.telemetry.core import current_tracer

#: Seconds a lease's beat may stand still before any observer may reclaim it.
DEFAULT_LEASE_TTL = 30.0

#: Seconds the driver sleeps between polls of foreign-owned ranges.
DEFAULT_POLL_INTERVAL = 0.2

#: Default number of contiguous shard ranges the prefix space is cut into.
DEFAULT_RANGE_COUNT = 16

#: Total shard prefixes (two hex digits).
PREFIX_SPACE = 16 ** SHARD_PREFIX_LEN


def default_worker_id() -> str:
    """A fleet-unique default owner id: ``<hostname>:<pid>``."""
    return f"{socket.gethostname()}:{os.getpid()}"


def shard_ranges(range_count: int = DEFAULT_RANGE_COUNT) -> List[Tuple[int, int]]:
    """Cut the shard-prefix space into ``range_count`` contiguous ranges.

    Returns inclusive ``(lo, hi)`` prefix bounds covering 0..255 exactly
    once; ``range_count`` is clamped to [1, 256].
    """
    count = max(1, min(PREFIX_SPACE, int(range_count)))
    bounds = [round(step * PREFIX_SPACE / count) for step in range(count + 1)]
    return [
        (bounds[step], bounds[step + 1] - 1)
        for step in range(count)
        if bounds[step + 1] > bounds[step]
    ]


class LeaseDirectory:
    """Lease files next to the shards: claim, heartbeat, reclaim, release.

    One instance per worker per drive.  All methods are safe to call with
    the heartbeat thread running (held-lease state is lock-guarded); the
    files themselves are only ever written atomically — ``O_EXCL`` create
    for the first claim, write-to-temp + ``rename`` for beats and reclaims
    — so observers never read a torn lease as anything but "corrupt",
    which ages toward reclaimable exactly like a silent owner.
    """

    def __init__(
        self,
        root,
        owner: Optional[str] = None,
        ttl: float = DEFAULT_LEASE_TTL,
    ):
        self.root = Path(root) / "leases"
        self.owner = owner if owner is not None else default_worker_id()
        self.ttl = check_lease_ttl(ttl)
        self.beats = 0
        self.lost = 0
        #: Heartbeats skipped over transient I/O trouble (lease kept).
        self.skipped = 0
        self._held: Dict[Tuple[int, int], int] = {}
        self._lock = threading.Lock()
        #: path -> ((owner, beat), first-seen monotonic seconds): staleness
        #: is judged against *our* clock watching the beat stand still.
        self._observed: Dict[str, Tuple[Tuple[object, object], float]] = {}

    # ------------------------------------------------------------------
    # File plumbing
    # ------------------------------------------------------------------
    def lease_path(self, bounds: Tuple[int, int]) -> Path:
        lo, hi = bounds
        return self.root / f"range-{lo:02x}-{hi:02x}.json"

    def _read_status(self, path: Path) -> Tuple[str, Optional[dict]]:
        """Read a lease, distinguishing *why* it did not parse.

        Returns ``("ok", entry)`` for a well-formed lease, ``("missing",
        None)`` when the file does not exist (released or usurped-and-
        released), ``("corrupt", None)`` for unparseable content, and
        ``("error", None)`` for any other I/O failure.  The distinction is
        what keeps heartbeats from self-evicting over a transient read
        hiccup: only *missing* and *foreign-owned* mean the lease is truly
        gone.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return "missing", None
        except json.JSONDecodeError:
            return "corrupt", None
        except OSError:
            return "error", None
        if not isinstance(entry, dict):
            return "corrupt", None
        return "ok", entry

    def _read(self, path: Path) -> Optional[dict]:
        return self._read_status(path)[1]

    def _write(self, path: Path, payload: dict) -> None:
        """Atomic lease (re)write: temp file + rename, never in place.

        os-level writes (not buffered handles) so a failure surfaces at
        the ``write`` call itself and the temp file can be removed — a
        buffered handle would defer an ``ENOSPC`` to ``close`` and leak
        half-written temps.
        """
        temporary = path.with_name(
            f".{path.name}.{self.owner.replace('/', '_')}.tmp"
        )
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        descriptor = os.open(
            temporary, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
        )
        try:
            write_all(descriptor, data)
        except BaseException:
            os.close(descriptor)
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
        os.close(descriptor)
        os.replace(temporary, path)

    def _payload(self, bounds: Tuple[int, int], beat: int) -> dict:
        return {"owner": self.owner, "beat": beat, "range": list(bounds)}

    # ------------------------------------------------------------------
    # Claim / heartbeat / release
    # ------------------------------------------------------------------
    def holds(self, bounds: Tuple[int, int]) -> bool:
        with self._lock:
            return bounds in self._held

    def try_claim(self, bounds: Tuple[int, int]) -> bool:
        """Claim a range: fresh, re-adopted (ours), or reclaimed (expired).

        Returns True when this worker now holds the lease.  A foreign,
        live lease returns False; a foreign lease whose beat stood still
        for ``ttl`` seconds (or whose file is unreadable that long) is
        stolen by atomic rename, then *verified* by re-reading — a reclaim
        race leaves exactly one winner, and the loser finds out here or at
        its next heartbeat.
        """
        path = self.lease_path(bounds)
        tracer = current_tracer()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            descriptor = os.open(
                path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            entry = self._read(path)
            if entry is not None and entry.get("owner") == self.owner:
                with self._lock:
                    self._held[bounds] = int(entry.get("beat", 0))
                return True
            if not self._expired(path, entry):
                return False
            try:
                self._write(path, self._payload(bounds, 0))
            except OSError as error:
                if not is_disk_fault(error):
                    raise
                tracer.counter("distributed.claim_fault")
                return False
            entry = self._read(path)
            if entry is not None and entry.get("owner") == self.owner:
                tracer.counter("distributed.lease_reclaim")
                self._observed.pop(str(path), None)
                with self._lock:
                    self._held[bounds] = 0
                return True
            return False
        except OSError as error:
            if not is_disk_fault(error):
                raise
            # A disk fault during the O_EXCL create (or the leases-dir
            # mkdir): the claim simply fails — results still flow through
            # the store, leases only prevent wasted work.
            tracer.counter("distributed.claim_fault")
            return False
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(self._payload(bounds, 0), handle, sort_keys=True)
        except OSError as error:
            if not is_disk_fault(error):
                raise
            # The lease file exists (possibly empty) and marks the claim;
            # the first successful heartbeat rewrites it whole.
            tracer.counter("distributed.claim_fault")
        tracer.counter("distributed.lease_acquire")
        with self._lock:
            self._held[bounds] = 0
        return True

    def _expired(self, path: Path, entry: Optional[dict]) -> bool:
        """Has this (foreign) lease's beat stood still for ``ttl`` seconds?"""
        identity = (
            (entry.get("owner"), entry.get("beat")) if entry is not None
            else (None, None)
        )
        key = str(path)
        observed = self._observed.get(key)
        now = time.monotonic()
        if observed is None or observed[0] != identity:
            self._observed[key] = (identity, now)
            return False
        return now - observed[1] >= self.ttl

    def heartbeat_all(self) -> int:
        """Bump every held lease's beat; detect and drop lost leases.

        Returns the number of beats written.  Called from the daemon
        thread while ranges compute; also safe from the driving thread.
        """
        with self._lock:
            held = list(self._held.items())
        sent = 0
        for bounds, beat in held:
            path = self.lease_path(bounds)
            status, entry = self._read_status(path)
            if status in ("error", "corrupt"):
                # Transient I/O trouble reading our own lease (or a torn
                # network-filesystem read): skip this beat but KEEP the
                # lease — self-evicting over a hiccup would abandon a
                # range we are actively computing.  Observers see a stale
                # beat that recovers on the next successful heartbeat.
                self.skipped += 1
                current_tracer().counter("distributed.heartbeat_skip")
                continue
            if status == "missing" or entry.get("owner") != self.owner:
                # Reclaimed out from under us (we were presumed dead).
                # Abandon the range: whoever took it recomputes the same
                # results, so dropping out is always safe.
                self.lost += 1
                with self._lock:
                    self._held.pop(bounds, None)
                continue
            try:
                self._write(path, self._payload(bounds, beat + 1))
            except OSError as error:
                if not is_disk_fault(error):
                    raise
                # A full/faulty disk must not kill the lease: the range's
                # results land through the store's own degradation path;
                # skip the beat and retry on the next pump cycle.
                self.skipped += 1
                current_tracer().counter("distributed.heartbeat_skip")
                continue
            with self._lock:
                if bounds in self._held:
                    self._held[bounds] = beat + 1
            sent += 1
        self.beats += sent
        return sent

    @contextmanager
    def heartbeats(self, interval: Optional[float] = None) -> Iterator[None]:
        """Run :meth:`heartbeat_all` on a daemon thread for the block."""
        period = interval if interval is not None else max(0.05, self.ttl / 4.0)
        stop = threading.Event()

        def pump() -> None:
            while not stop.wait(period):
                try:
                    self.heartbeat_all()
                except OSError:  # pragma: no cover - cache root went away
                    pass

        thread = threading.Thread(
            target=pump, name="repro-lease-heartbeat", daemon=True
        )
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=max(1.0, 2 * period))

    def release(self, bounds: Tuple[int, int]) -> None:
        """Drop one held lease (unlink, verified to still be ours)."""
        with self._lock:
            if self._held.pop(bounds, None) is None:
                return
        path = self.lease_path(bounds)
        entry = self._read(path)
        if entry is not None and entry.get("owner") == self.owner:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - lost a remove race
                pass
        current_tracer().counter("distributed.lease_release")

    def release_all(self) -> None:
        with self._lock:
            held = list(self._held)
        for bounds in held:
            self.release(bounds)


class DistributedExecutor(Executor):
    """Lease-coordinated executor over a shared :class:`ShardedResultStore`.

    Parameters
    ----------
    store:
        The shared result store (and, implicitly, the cache root the lease
        files live under).  Defaults to a store at the default cache dir —
        every participant of one sweep must point at the same root.
    worker_id:
        Fleet-unique owner id for leases (default ``<hostname>:<pid>``).
    jobs:
        Process-pool width for this worker's *own* computation; ``1``
        computes in-process.  The pool persists across claimed ranges.
    range_count / lease_ttl / poll_interval:
        Work-partition granularity, lease staleness horizon and driver
        poll cadence (see module docstring).
    max_retries / task_timeout:
        Passed to the inner :class:`ParallelExecutor`: crash-retry rounds
        and the stall deadline for worker chunks.
    """

    def __init__(
        self,
        store: Optional[ShardedResultStore] = None,
        *,
        worker_id: Optional[str] = None,
        jobs: int = 1,
        range_count: int = DEFAULT_RANGE_COUNT,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.store = store if store is not None else ShardedResultStore()
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.jobs = int(jobs)
        self.range_count = int(range_count)
        self.lease_ttl = check_lease_ttl(lease_ttl)
        self.poll_interval = float(poll_interval)
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.max_retries = max_retries
        self.task_timeout = task_timeout

    # ------------------------------------------------------------------
    # Executor surface
    # ------------------------------------------------------------------
    def execute_batch(
        self, tasks: Sequence[TrialTask], store: GraphStore
    ) -> List[float]:
        """Driver mode: participate, then wait out foreign ranges.

        Returns the full gains vector, in input order — computed by this
        worker for the ranges it could claim, collected from the shared
        store for ranges other workers delivered.
        """
        gains, _ = self._drive(tasks, store, wait_for_others=True)
        assert all(gain is not None for gain in gains)
        return [float(gain) for gain in gains]

    def work(self, tasks: Sequence[TrialTask], store: GraphStore) -> int:
        """Worker mode: compute every claimable range, then stop.

        Returns the number of results this worker appended to the shared
        store.  Ranges leased to foreign owners are left to them — but a
        worker only walks away once those owners prove they are alive: it
        keeps polling for up to two lease TTLs of zero progress, long
        enough for any dead peer's lease to expire and be reclaimed (and
        its range finished) here.  A fleet therefore drains a sweep and
        exits even when members were SIGKILLed mid-range, without ever
        blocking on a healthy-but-slow peer.
        """
        _, appended = self._drive(tasks, store, wait_for_others=False)
        return appended

    # ------------------------------------------------------------------
    # The drive loop
    # ------------------------------------------------------------------
    def _inner_executor(self, pools: Optional[PoolManager]) -> Executor:
        if pools is None:
            return SerialExecutor()
        return ParallelExecutor(
            jobs=self.jobs,
            pools=pools,
            max_retries=self.max_retries,
            task_timeout=self.task_timeout,
        )

    def _drive(
        self,
        tasks: Sequence[TrialTask],
        graphs: GraphStore,
        wait_for_others: bool,
    ) -> Tuple[List[Optional[float]], int]:
        tracer = current_tracer()
        store = self.store
        gains: List[Optional[float]] = [store.get(task) for task in tasks]

        # Partition the cache-missing tasks into contiguous shard ranges —
        # the same prefix keys the result shard, so one range's results
        # land in a bounded set of shard files.
        pending: Dict[Tuple[int, int], List[int]] = {}
        ranges = shard_ranges(self.range_count)
        for index, gain in enumerate(gains):
            if gain is not None:
                continue
            prefix = int(tasks[index].content_hash()[:SHARD_PREFIX_LEN], 16)
            for bounds in ranges:
                if bounds[0] <= prefix <= bounds[1]:
                    pending.setdefault(bounds, []).append(index)
                    break

        leases = LeaseDirectory(store.root, self.worker_id, ttl=self.lease_ttl)
        pools = PoolManager(self.jobs) if self.jobs > 1 else None
        appends_before = store.appends
        with tracer.span(
            "distributed.drive",
            worker=self.worker_id,
            tasks=len(tasks),
            pending=sum(len(indices) for indices in pending.values()),
            ranges=len(pending),
            wait=wait_for_others,
        ):
            try:
                with leases.heartbeats():
                    self._drain(
                        tasks, graphs, gains, pending, leases,
                        wait_for_others, tracer, pools,
                    )
            finally:
                leases.release_all()
                if pools is not None:
                    pools.shutdown()
                if leases.beats:
                    tracer.event("worker.heartbeat", worker=self.worker_id,
                                 beats=leases.beats)
                    tracer.counter("distributed.heartbeat", leases.beats)
                if leases.lost:
                    tracer.counter("distributed.lease_lost", leases.lost)
        return gains, store.appends - appends_before

    def _drain(
        self,
        tasks: Sequence[TrialTask],
        graphs: GraphStore,
        gains: List[Optional[float]],
        pending: Dict[Tuple[int, int], List[int]],
        leases: LeaseDirectory,
        wait_for_others: bool,
        tracer,
        pools: Optional[PoolManager],
    ) -> None:
        inner = self._inner_executor(pools)
        stalled_since: Optional[float] = None
        while pending:
            progressed = False
            for bounds in list(pending):
                if leases.try_claim(bounds):
                    self._compute_range(
                        bounds, pending.pop(bounds), tasks, graphs, gains,
                        inner, tracer,
                    )
                    leases.release(bounds)
                    progressed = True
                    continue
                # Foreign range: collect whatever its owner appended so
                # far (the store's staleness probe sees concurrent
                # writers); the range is done when every task answered.
                remaining = []
                for index in pending[bounds]:
                    gains[index] = self.store.get(tasks[index])
                    if gains[index] is None:
                        remaining.append(index)
                if len(remaining) < len(pending[bounds]):
                    progressed = True
                if remaining:
                    pending[bounds] = remaining
                else:
                    del pending[bounds]
            if not pending or progressed:
                stalled_since = None
                continue
            if not wait_for_others:
                # Drain mode: outlast a dead peer (its lease expires within
                # one TTL of our first failed claim and the reclaim lands
                # here), but don't block forever on a live one — two TTLs
                # of zero progress means every remaining lease heartbeated
                # through a full expiry window, so its owner is alive and
                # the range is its to finish.
                now = time.monotonic()
                if stalled_since is None:
                    stalled_since = now
                elif now - stalled_since > 2 * self.lease_ttl:
                    break
            tracer.counter("distributed.poll")
            time.sleep(self.poll_interval)

    def _compute_range(
        self,
        bounds: Tuple[int, int],
        indices: List[int],
        tasks: Sequence[TrialTask],
        graphs: GraphStore,
        gains: List[Optional[float]],
        inner: Executor,
        tracer,
    ) -> None:
        """Run one claimed range through the ordinary cache-aware driver.

        ``run_batch`` re-checks the store per task (results another worker
        appended before our claim are hits), computes only true misses
        through the kernel/paired machinery, and appends each computed
        gain — so everything this range produced is durable the moment it
        exists, whatever happens to this process afterwards.
        """
        lo, hi = bounds
        with tracer.span(
            "distributed.range",
            worker=self.worker_id, lo=lo, hi=hi, tasks=len(indices),
        ):
            computed = run_batch(
                [tasks[index] for index in indices], graphs,
                executor=inner, cache=self.store,
            )
            for index, gain in zip(indices, computed):
                gains[index] = gain
