"""Sharded, append-only result store keyed by task content hash.

:class:`ShardedResultStore` keeps every result in one of 256 append-only
shard files keyed by the first two hex digits of the task content hash, so
a sweep of thousands of trials costs a few file appends instead of one
inode per task:

* ``<root>/shard-<hh>.jsonl`` — one JSON line per result, appended with a
  single ``write`` on an ``O_APPEND`` descriptor (atomic on POSIX), so
  concurrent processes can append to the same shard without locks or torn
  reads; duplicate hashes resolve last-writer-wins.

Entries store the full task identity next to the gain: a
:data:`~repro.engine.cache.CACHE_VERSION` bump, an identity mismatch (hash
collision) or a torn trailing line all degrade to a miss, never to a wrong
result.  Files of the retired one-file-per-task layout
(``<root>/<hh>/<hash>.json``) are not read: their tasks miss and recompute.

Integrity (see :mod:`repro.engine.integrity`): every line appended here
carries a CRC32 checksum verified at parse time (pre-checksum lines stay
readable — the field is optional, no version bump); lines failing
verification are copied to ``<root>/quarantine/`` with a structured reason
and counted, never silently dropped; an append hitting ``ENOSPC``/``EIO``
degrades the store to a loud in-memory overlay so the sweep finishes, with
the non-durable results reported so ``--resume`` recomputes exactly those.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.engine.cache import CACHE_VERSION, default_cache_dir
from repro.engine.integrity import (
    REASON_TORN_LINE,
    CHECKSUM_FIELD,
    Quarantine,
    ensure_finite_gain,
    inspect_line,
    is_disk_fault,
    salvage_line,
    stamp_checksum,
    write_all,
)
from repro.engine.tasks import TrialTask, identity_payload
from repro.telemetry.core import current_tracer

#: Hex digits of the content hash selecting a shard (256 shards).
SHARD_PREFIX_LEN = 2


class ShardedResultStore:
    """Task-hash-keyed persistent gain store over append-only shards.

    Parameters
    ----------
    root:
        Cache directory; created lazily on first write.  Defaults to
        :func:`repro.engine.cache.default_cache_dir`.

    Shard indexes are loaded lazily, one file parse per touched prefix, and
    kept in memory for the store's lifetime; ``put`` updates both the file
    and the index.  Writers in other processes are picked up by a fresh
    store instance (or :meth:`refresh`).
    """

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.appends = 0
        self.shards_loaded = 0
        self.reloads = 0
        self.corrupt = 0
        #: True once an append hit a disk fault and the store switched to
        #: the in-memory overlay for the entries it could not persist.
        self.degraded = False
        self.quarantine = Quarantine(self.root)
        self._index: Dict[str, Dict[str, dict]] = {}
        self._loaded: Set[str] = set()
        #: hash -> entry this store computed but could NOT persist (disk
        #: fault).  Served from memory for the session; reported at close
        #: so ``--resume`` knows exactly what to recompute.
        self._non_durable: Dict[str, dict] = {}
        #: prefix -> (size, mtime_ns) of the shard file when last parsed;
        #: None when no file existed.  A mismatch on a miss means another
        #: process appended since — reload instead of recomputing its work.
        self._shard_stats: Dict[str, Optional[Tuple[int, int]]] = {}

    def stats(self) -> Dict[str, int]:
        """Lifetime counters of this store instance.

        ``hits``/``misses`` count :meth:`get` outcomes, ``appends`` counts
        :meth:`put` writes, ``shards_loaded`` counts shard files actually
        parsed, ``reloads`` counts staleness-probe re-parses that picked up
        other processes' appends, ``corrupt``/``quarantined`` count shard
        lines failing integrity verification (and the quarantine records
        written for them), and ``non_durable`` counts results held only in
        memory after a disk-fault degradation.
        :meth:`~repro.engine.session.EngineSession.close` logs this
        snapshot through telemetry.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "appends": self.appends,
            "shards_loaded": self.shards_loaded,
            "reloads": self.reloads,
            "corrupt": self.corrupt,
            "quarantined": self.quarantine.added,
            "non_durable": len(self._non_durable),
        }

    @property
    def non_durable_count(self) -> int:
        """Results this store computed but could not persist (disk fault)."""
        return len(self._non_durable)

    def non_durable_tasks(self) -> List[dict]:
        """Identity payloads of every non-durable result, for reporting."""
        return [
            dict(entry.get("task", {}), hash=digest)
            for digest, entry in sorted(self._non_durable.items())
        ]

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def shard_path(self, prefix: str) -> Path:
        """Where one shard's append-only file lives."""
        return self.root / f"shard-{prefix}.jsonl"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, task: TrialTask) -> Optional[float]:
        """The stored gain for ``task``, or None on any kind of miss.

        A miss on an already loaded shard probes the shard file's
        size/mtime first: if another process appended since this store
        parsed it, the shard is re-read and the lookup retried, so
        concurrent writers' results become visible without a full
        :meth:`refresh` — the probe is one ``stat`` and only runs on
        misses, hits stay pure dictionary lookups.
        """
        digest = task.content_hash()
        prefix = digest[:SHARD_PREFIX_LEN]
        self._load_shard(prefix)
        entry = self._index.get(prefix, {}).get(digest)
        if entry is None and self._reload_if_stale(prefix):
            entry = self._index.get(prefix, {}).get(digest)
        if entry is None or not self._valid(entry, task):
            self.misses += 1
            current_tracer().counter("result_store.miss")
            return None
        self.hits += 1
        current_tracer().counter("result_store.hit")
        return float(entry["gain"])

    def _valid(self, entry: dict, task: TrialTask) -> bool:
        return (
            entry.get("cache_version") == CACHE_VERSION
            and entry.get("task") == identity_payload(task)
        )

    def _record_corrupt(
        self, source: str, line_number: int, raw: str, reason: str
    ) -> None:
        """Count one damaged record and copy it into the quarantine."""
        self.corrupt += 1
        current_tracer().counter("integrity.corrupt")
        self.quarantine.add(source, line_number, raw, reason)

    def _shard_stat(self, prefix: str) -> Optional[Tuple[int, int]]:
        """The shard file's (size, mtime_ns), or None when absent."""
        try:
            status = os.stat(self.shard_path(prefix))
        except OSError:
            return None
        return (status.st_size, status.st_mtime_ns)

    def _load_shard(self, prefix: str) -> None:
        if prefix in self._loaded:
            return
        self._loaded.add(prefix)
        index = self._index.setdefault(prefix, {})
        # Stat *before* reading: a writer appending mid-parse then looks
        # stale on the next miss and triggers a (cheap, idempotent) reload
        # instead of being silently skipped forever.
        self._shard_stats[prefix] = self._shard_stat(prefix)
        source = f"shard-{prefix}.jsonl"
        try:
            content = self.shard_path(prefix).read_text(encoding="utf-8")
        except OSError:
            self._apply_overlay(prefix, index)
            return
        self.shards_loaded += 1
        lines = content.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
            terminated = True
        else:
            terminated = content.endswith("\n")
        for number, raw in enumerate(lines, start=1):
            if not raw.strip():
                continue
            if number == len(lines) and not terminated:
                # Unterminated trailing line: either a concurrent append
                # in flight (a reload after the writer finishes will parse
                # it) or an interrupted writer's torn tail (``cache
                # repair`` quarantines it).  Either way: lenient skip,
                # never poison reads, never quarantine a live write.
                current_tracer().counter("result_store.torn_tail")
                continue
            entry, reason = inspect_line(raw)
            if entry is None:
                # A torn fragment with a complete later line appended
                # behind it reads as one unparseable line; the trailing
                # record is intact and checksum-verified — recover it,
                # quarantine only the fragment.
                salvaged, fragment = salvage_line(raw)
                if salvaged is not None:
                    current_tracer().counter("integrity.salvaged")
                    self._record_corrupt(
                        source, number, fragment, REASON_TORN_LINE
                    )
                    index[salvaged["hash"]] = salvaged
                    continue
                self._record_corrupt(source, number, raw, reason)
                continue
            index[entry["hash"]] = entry  # duplicates: last writer wins
        self._apply_overlay(prefix, index)

    def _apply_overlay(self, prefix: str, index: Dict[str, dict]) -> None:
        """Re-impose non-durable in-memory results after a (re)load."""
        for digest, entry in self._non_durable.items():
            if digest.startswith(prefix):
                index[digest] = entry

    def _reload_if_stale(self, prefix: str) -> bool:
        """Re-parse a loaded shard iff its file changed since; True if so."""
        if self._shard_stat(prefix) == self._shard_stats.get(prefix):
            return False
        self._loaded.discard(prefix)
        self._index.pop(prefix, None)
        self._load_shard(prefix)
        self.reloads += 1
        current_tracer().counter("result_store.reload")
        return True

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, task: TrialTask, gain: float) -> None:
        """Append ``gain`` for ``task`` to its shard (atomic single write).

        The entry is checksummed (:func:`~repro.engine.integrity.
        stamp_checksum`) and the gain guarded — a non-finite value raises
        :class:`~repro.engine.integrity.NonFiniteGainError` before it can
        reach disk.  A disk fault (``ENOSPC``/``EIO``) degrades to the
        in-memory overlay instead of failing the sweep; a later successful
        append retries the backlog.

        Idempotent against what this store already knows: if the in-memory
        index holds an identical entry (a cache hit another layer re-put,
        or a distributed retry of work that did land), no shard line is
        appended — duplicate lines are harmless (last-writer-wins) but
        pure bloat.
        """
        digest = task.content_hash()
        value = ensure_finite_gain(task, gain)
        entry = stamp_checksum({
            "cache_version": CACHE_VERSION,
            "hash": digest,
            "task": identity_payload(task),
            "gain": value,
        })
        prefix = digest[:SHARD_PREFIX_LEN]
        existing = self._index.get(prefix, {}).get(digest)
        if existing is not None and self._same_result(existing, entry):
            current_tracer().counter("result_store.dedup")
            return
        try:
            with current_tracer().timer("result_store.append"):
                self._append(digest, entry)
        except OSError as error:
            if not is_disk_fault(error):
                raise
            self._degrade(digest, entry, error)
            return
        self.appends += 1
        if self._non_durable:
            self._flush_non_durable()

    def _same_result(self, existing: dict, entry: dict) -> bool:
        """Identical results modulo the checksum field (legacy lines lack it)."""
        strip = lambda e: {k: v for k, v in e.items() if k != CHECKSUM_FIELD}
        return strip(existing) == strip(entry)

    def _degrade(self, digest: str, entry: dict, error: OSError) -> None:
        """Keep a result the disk refused: serve it from memory, loudly."""
        prefix = digest[:SHARD_PREFIX_LEN]
        self._index.setdefault(prefix, {})[digest] = entry
        self._non_durable[digest] = entry
        current_tracer().counter("integrity.degraded")
        if not self.degraded:
            self.degraded = True
            current_tracer().event(
                "result_store.degraded", root=str(self.root), error=str(error)
            )
            warnings.warn(
                f"result store at {self.root} hit a disk fault ({error}); "
                "degrading to an in-memory overlay — the sweep will finish "
                "but these results are NOT durable; free space and rerun "
                "with --resume to recompute and persist exactly the "
                "non-durable tasks",
                RuntimeWarning,
                stacklevel=3,
            )

    def _flush_non_durable(self) -> None:
        """Retry persisting the overlay after a successful append."""
        for digest in sorted(self._non_durable):
            entry = self._non_durable[digest]
            try:
                self._append(digest, entry)
            except OSError as error:
                if is_disk_fault(error):
                    return  # still degraded; keep serving from memory
                raise
            del self._non_durable[digest]
            self.appends += 1
            current_tracer().counter("integrity.flushed")

    def _append(self, digest: str, entry: dict) -> None:
        prefix = digest[:SHARD_PREFIX_LEN]
        path = self.shard_path(prefix)
        path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        # One write-all on an O_APPEND descriptor: concurrent appenders from
        # separate processes interleave whole lines, never fragments (short
        # writes — rare but legal — loop until the full line landed).
        descriptor = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            write_all(descriptor, line.encode("utf-8"))
            # Remember our own append's stat so the next staleness probe
            # does not mistake it for a foreign write and re-parse for
            # nothing (fstat on the open descriptor is race-free enough:
            # a concurrent foreign append after it still flips the stat).
            status = os.fstat(descriptor)
            self._shard_stats[prefix] = (status.st_size, status.st_mtime_ns)
        finally:
            os.close(descriptor)
        self._index.setdefault(prefix, {})[digest] = entry

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Forget loaded indexes so other processes' appends become visible.

        The staleness probe in :meth:`get` already catches foreign appends
        to *grown* shard files; an explicit refresh additionally drops any
        in-memory-only state (:meth:`clear` calls it after deleting the
        shards).  Non-durable overlay entries survive — they exist nowhere
        else.
        """
        self._index.clear()
        self._loaded.clear()
        self._shard_stats.clear()

    def clear(self) -> int:
        """Delete every shard; returns the number of entries removed.

        Counts distinct stored results (same semantics as ``len``), not raw
        shard lines — duplicate appends and torn lines are not entries.
        Quarantined records are kept (they document damage, not state).
        """
        removed = len(self)
        if self.root.is_dir():
            for shard in self.root.glob("shard-*.jsonl"):
                shard.unlink()
        self.refresh()
        self._non_durable.clear()
        return removed

    def __len__(self) -> int:
        """Distinct stored results across all shards (plus the overlay)."""
        if not self.root.is_dir():
            return len(self._non_durable)
        digests = set(self._non_durable)
        for shard in self.root.glob("shard-*.jsonl"):
            prefix = shard.stem[len("shard-"):]
            self._load_shard(prefix)
        for index in self._index.values():
            digests.update(index)
        return len(digests)
