"""Session-scoped registry of graphs (and labelings) behind shared memory.

A :class:`GraphStore` owns every graph a batch of
:class:`~repro.engine.tasks.TrialTask` may reference.  Graphs register under
their content fingerprint (the tasks' ``graph_key``) and community labelings
under theirs (``labels_key``), so a heterogeneous batch — tasks from several
figures, panels or datasets — resolves each task to its graph by value, not
by call-site convention.

For parallel execution the store exports each graph **once** into a POSIX
shared-memory segment (:meth:`repro.graph.adjacency.Graph.to_shared`).
Workers receive only the tiny picklable handles and map the segments
zero-copy, instead of unpickling a fresh edge-array copy per pool — the
dominant fan-out cost for large surrogates.

Lifecycle contract (create → attach → unlink): the store creates segments
lazily on first export, attachers never unlink, and :meth:`close` (also run
by the context manager and the finalizer) unlinks everything the store
created.  Closing while workers still hold attachments is safe on POSIX —
their mappings stay valid until they drop them.

Abnormal teardown: a process that dies mid-sweep without reaching
:meth:`close` would leak its ``/dev/shm`` segments (they survive the
process).  Every store therefore registers in a module-level weak set whose
entries are closed from an ``atexit`` hook (covers normal exits **and**
``KeyboardInterrupt``, which unwinds into a normal interpreter exit) and
from a chaining ``SIGTERM`` handler installed on first store creation when
the process had none (covers supervisor kills mid-sweep).  ``SIGKILL``
cannot be intercepted by design — the distributed layer's lease reclaim
covers the work, and the OS reclaims ``/dev/shm`` on reboot only, so
operators should prefer SIGTERM.  Forked children (pool workers) inherit
the registry but never unlink: ownership is pinned to the creating PID.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import weakref
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.engine.tasks import TrialTask, graph_fingerprint, labels_fingerprint
from repro.graph.adjacency import (
    Graph,
    SharedGraphHandle,
    attach_shared_memory,
)
from repro.telemetry.core import current_tracer


class SharedLabelsHandle:
    """Picklable reference to a labels array exported into shared memory."""

    __slots__ = ("shm_name", "size")

    def __init__(self, shm_name: str, size: int):
        self.shm_name = shm_name
        self.size = int(size)

    def __getstate__(self):
        return (self.shm_name, self.size)

    def __setstate__(self, state):
        self.shm_name, self.size = state


def _export_labels(labels: np.ndarray) -> Tuple[SharedLabelsHandle, object]:
    """Copy an int64 labels array into a fresh shared-memory segment."""
    from multiprocessing import shared_memory

    array = np.ascontiguousarray(labels, dtype=np.int64)
    segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    if array.size:
        np.ndarray(array.shape, dtype=np.int64, buffer=segment.buf)[:] = array
    return SharedLabelsHandle(segment.name, array.size), segment


def attach_labels(handle: SharedLabelsHandle) -> Tuple[np.ndarray, object]:
    """Map a labels array exported by :func:`_export_labels` (read-only)."""
    segment = attach_shared_memory(handle.shm_name)
    labels = np.frombuffer(segment.buf, dtype=np.int64, count=handle.size)
    labels.flags.writeable = False
    return labels, segment


#: Live stores whose segments the emergency hooks must unlink on abnormal
#: teardown.  Weak references: a garbage-collected store already ran its
#: finalizer and needs no emergency cleanup.
_LIVE_STORES: "weakref.WeakSet[GraphStore]" = weakref.WeakSet()
_HOOKS_INSTALLED = False


def _close_live_stores() -> None:
    """Close every registered store (emergency path; exceptions swallowed)."""
    for store in list(_LIVE_STORES):
        try:
            store.close()
        except Exception:  # pragma: no cover - nothing left to do mid-death
            pass


def _install_teardown_hooks() -> None:
    """One-time registration of the atexit and (chaining) SIGTERM hooks.

    The SIGTERM handler is only installed from the main thread and only
    when the process has no handler of its own (``SIG_DFL``): library code
    must never silently replace an application's signal handling.  After
    cleanup it restores the default disposition and re-raises SIGTERM, so
    the process still dies with the conventional 143 exit status.
    """
    global _HOOKS_INSTALLED
    if _HOOKS_INSTALLED:
        return
    _HOOKS_INSTALLED = True
    atexit.register(_close_live_stores)
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:

            def _on_sigterm(signum, frame):  # pragma: no cover - exercised
                # in a subprocess (tests/graph/test_shared.py)
                _close_live_stores()
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

            signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


class GraphStore:
    """Graphs and labelings addressable by the keys tasks carry.

    Registration is idempotent: adding the same graph (by content) twice is
    a no-op returning the same key, so several scenarios sharing a dataset
    surrogate register it once and the batch ships one segment.
    """

    def __init__(self):
        # Start the shared-memory resource tracker *now*, before any worker
        # process forks: forked workers then inherit this tracker, so their
        # attach-side registrations (unavoidable before Python 3.13) dedupe
        # against the exporter's instead of spawning a second tracker that
        # would unlink segments it never owned.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platform without a tracker
            pass
        self._graphs: Dict[str, Graph] = {}
        self._labels: Dict[str, Optional[np.ndarray]] = {"": None}
        self._graph_handles: Dict[str, SharedGraphHandle] = {}
        self._labels_handles: Dict[str, SharedLabelsHandle] = {}
        self._segments: list = []  # owned SharedMemory objects, unlinked on close
        self._closed = False
        # Segment ownership is per-process: a forked child inheriting this
        # store (pool workers, double-fork daemons) must never unlink
        # segments its parent still serves to other workers.
        self._owner_pid = os.getpid()
        _install_teardown_hooks()
        _LIVE_STORES.add(self)

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def add(self, graph: Graph, labels: Optional[np.ndarray] = None) -> Tuple[str, str]:
        """Register a graph (and optional labels); returns their task keys."""
        return self.add_graph(graph), self.add_labels(labels)

    def add_graph(self, graph: Graph) -> str:
        """Register ``graph`` under its content fingerprint."""
        key = graph_fingerprint(graph)
        self._graphs.setdefault(key, graph)
        return key

    def add_labels(self, labels: Optional[np.ndarray]) -> str:
        """Register a labelling under its fingerprint ('' for none)."""
        if labels is None:
            return ""
        key = labels_fingerprint(labels)
        self._labels.setdefault(key, np.ascontiguousarray(labels, dtype=np.int64))
        return key

    def graph(self, graph_key: str) -> Graph:
        """The registered graph for ``graph_key``; KeyError with context."""
        try:
            return self._graphs[graph_key]
        except KeyError:
            known = ", ".join(sorted(self._graphs)) or "<none>"
            raise KeyError(
                f"graph {graph_key!r} not registered in this store; have: {known}"
            ) from None

    def labels(self, labels_key: str) -> Optional[np.ndarray]:
        """The registered labels for ``labels_key`` (None for '')."""
        try:
            return self._labels[labels_key]
        except KeyError:
            raise KeyError(f"labels {labels_key!r} not registered in this store") from None

    def __contains__(self, graph_key: str) -> bool:
        return graph_key in self._graphs

    def __len__(self) -> int:
        return len(self._graphs)

    # ------------------------------------------------------------------
    # Shared-memory export
    # ------------------------------------------------------------------
    def export_graph(self, graph_key: str) -> SharedGraphHandle:
        """The shared-memory handle of one graph, exporting on first use."""
        self._check_open()
        handle = self._graph_handles.get(graph_key)
        if handle is None:
            tracer = current_tracer()
            with tracer.span("shm.graph_export", graph_key=graph_key):
                handle, segment = self.graph(graph_key).to_shared()
            tracer.counter("shm.graph_export")
            tracer.counter("shm.export_bytes", segment.size)
            self._graph_handles[graph_key] = handle
            self._segments.append(segment)
        return handle

    def export_labels(self, labels_key: str) -> Optional[SharedLabelsHandle]:
        """The shared-memory handle of one labelling (None for '')."""
        if not labels_key:
            return None
        self._check_open()
        handle = self._labels_handles.get(labels_key)
        if handle is None:
            labels = self.labels(labels_key)
            handle, segment = _export_labels(labels)
            tracer = current_tracer()
            tracer.counter("shm.labels_export")
            tracer.counter("shm.export_bytes", segment.size)
            self._labels_handles[labels_key] = handle
            self._segments.append(segment)
        return handle

    def handles_for(
        self, tasks: Iterable[TrialTask]
    ) -> Tuple[Dict[str, SharedGraphHandle], Dict[str, SharedLabelsHandle]]:
        """Handles for every graph/labelling a task batch references."""
        graph_handles: Dict[str, SharedGraphHandle] = {}
        labels_handles: Dict[str, SharedLabelsHandle] = {}
        for task in tasks:
            if task.graph_key not in graph_handles:
                graph_handles[task.graph_key] = self.export_graph(task.graph_key)
            if task.labels_key and task.labels_key not in labels_handles:
                labels_handles[task.labels_key] = self.export_labels(task.labels_key)
        return graph_handles, labels_handles

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every owned segment; the store stays usable for lookups.

        Idempotent.  Exports after ``close`` raise — a closed store must not
        silently re-create segments nobody will unlink.  In a forked child
        (a pool worker inheriting the exporter's store) close only drops
        the mappings: unlinking is reserved for the creating process, or
        the parent's later exports would vanish under its other workers.
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_STORES.discard(self)
        owns_segments = os.getpid() == self._owner_pid
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a view is still alive
                pass  # the mapping is released when the last view dies
            if not owns_segments:
                continue
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self._graph_handles.clear()
        self._labels_handles.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("GraphStore is closed; cannot export segments")

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
