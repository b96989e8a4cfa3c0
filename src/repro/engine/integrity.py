"""End-to-end data integrity for the storage plane.

Every durable artifact the engine depends on — result shards, lease files,
goldens — used to be trusted byte for byte: a flipped bit in a gain digit
parsed fine and was silently *believed*, a torn or unparseable line was
silently *dropped* as a cache miss.  This module makes corruption
detectable, reportable and repairable:

* **Checksums** — every shard line gains an optional CRC32 field
  (:data:`CHECKSUM_FIELD`) stamped at append time over the entry's canonical
  JSON form and verified at parse time.  Lines written before this field
  existed stay readable (the field is optional), so no
  :data:`~repro.engine.cache.CACHE_VERSION` bump is needed — checksummed and
  unchecksummed lines coexist in one shard.
* **Quarantine** — a record failing verification is copied into
  ``<cache_root>/quarantine/`` with a structured reason
  (:data:`REASON_BAD_CHECKSUM`, :data:`REASON_TORN_LINE`,
  :data:`REASON_UNPARSEABLE`, :data:`REASON_NON_FINITE`) instead of
  vanishing; ``repro cache repair`` then removes it from the shard.
* **Salvage** — a torn append fragment that a later writer's complete line
  landed behind (O_APPEND keeps lines whole only when the *writer* finishes)
  merges both into one unparseable line; :func:`salvage_line` recovers the
  intact trailing record (checksum-verified) and quarantines exactly the
  torn fragment.
* **Numeric guards** — :func:`ensure_finite_gain` raises a structured
  :class:`NonFiniteGainError` naming the task key and seed at the
  estimator→store boundary, so a NaN/inf can never poison shards or
  goldens.
* **Offline maintenance** — :func:`verify_store` (full scan, per-shard
  report), :func:`repair_store` (write-temp+rename compaction preserving
  last-writer-wins winners bit-identically), :func:`gc_store` (expired
  leases and stale lease temp files).  These back the
  ``repro cache verify|repair|gc|stats`` CLI family and assume a quiesced
  store — run them between sweeps, not under one.  Each raises
  ``ValueError`` when the cache root is not a directory, so a mistyped root
  fails loudly instead of reporting an empty store as clean.

Counters flow through the telemetry tracer: ``integrity.corrupt`` (lines
failing verification), ``integrity.quarantined`` (quarantine copies
written), ``integrity.repaired`` (corrupt/superseded lines compacted away),
``integrity.salvaged`` (records recovered out of merged torn lines).
"""

from __future__ import annotations

import errno
import json
import math
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.engine.cache import default_cache_dir
from repro.engine.tasks import TrialTask
from repro.telemetry.core import current_tracer

#: Optional per-line checksum field: CRC32 (hex8) over the entry's canonical
#: JSON form with this field removed.  Lines written before it existed lack it.
CHECKSUM_FIELD = "crc"

#: Subdirectory of the cache root holding quarantined records.
QUARANTINE_DIR = "quarantine"

#: Structured quarantine reasons.
REASON_BAD_CHECKSUM = "bad-checksum"
REASON_TORN_LINE = "torn-line"
REASON_UNPARSEABLE = "unparseable"
REASON_NON_FINITE = "non-finite-gain"

#: The canonical first key of every entry (``sort_keys`` puts it first);
#: torn-fragment salvage scans for it to find an intact trailing record.
_ENTRY_PREFIX = '{"cache_version"'

#: ``errno`` values treated as disk faults the store degrades through
#: (in-memory overlay) instead of crashing the sweep.
DISK_FAULT_ERRNOS = frozenset({errno.ENOSPC, errno.EIO, errno.EDQUOT})


def is_disk_fault(exc: OSError) -> bool:
    """Is this the kind of I/O failure graceful degradation covers?"""
    return exc.errno in DISK_FAULT_ERRNOS


def write_all(descriptor: int, data: bytes) -> None:
    """Write every byte of ``data`` to ``descriptor``, looping on short writes.

    ``os.write`` may legitimately write fewer bytes than asked (signals,
    quotas, pipes/FUSE backends); a naive single call would then leave a
    torn line *mid-file*, where the store's torn-line tolerance — built for
    an interrupted trailing append — cannot help.
    """
    view = memoryview(data)
    while view:
        written = os.write(descriptor, view)
        view = view[written:]


# ---------------------------------------------------------------------------
# Checksums
# ---------------------------------------------------------------------------
def canonical_json(entry: dict) -> str:
    """The one serialization checksums are computed over (and shards store)."""
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def entry_checksum(entry: dict) -> str:
    """CRC32 (hex8) of the entry's canonical form without the crc field."""
    body = {key: value for key, value in entry.items() if key != CHECKSUM_FIELD}
    return format(zlib.crc32(canonical_json(body).encode("utf-8")) & 0xFFFFFFFF, "08x")


def stamp_checksum(entry: dict) -> dict:
    """A copy of ``entry`` carrying its own checksum field."""
    return {**entry, CHECKSUM_FIELD: entry_checksum(entry)}


def inspect_line(raw: str) -> Tuple[Optional[dict], Optional[str]]:
    """Parse and verify one shard line: ``(entry, None)`` or ``(None, reason)``.

    Verification layers, in order: JSON parse (a failure classifies as
    :data:`REASON_TORN_LINE` when the text is a truncated prefix, else
    :data:`REASON_UNPARSEABLE`), structural shape (a dict with a string
    ``hash``), checksum match when the line carries one, and gain finiteness
    (``json.loads`` happily parses ``NaN``/``Infinity`` literals).
    """
    try:
        entry = json.loads(raw)
    except json.JSONDecodeError:
        stripped = raw.rstrip()
        reason = REASON_UNPARSEABLE if stripped.endswith("}") else REASON_TORN_LINE
        return None, reason
    if not isinstance(entry, dict) or not isinstance(entry.get("hash"), str):
        return None, REASON_UNPARSEABLE
    stored = entry.get(CHECKSUM_FIELD)
    if stored is not None and stored != entry_checksum(entry):
        return None, REASON_BAD_CHECKSUM
    gain = entry.get("gain")
    if not isinstance(gain, (int, float)) or isinstance(gain, bool) or not math.isfinite(gain):
        return None, REASON_NON_FINITE
    return entry, None


def salvage_line(raw: str) -> Tuple[Optional[dict], Optional[str]]:
    """Recover an intact record from a merged torn line.

    A writer dying (or hitting ``EIO``) mid-append leaves a line fragment
    with no newline; the next O_APPEND writer's complete line lands directly
    behind it and both read back as one unparseable line.  The fragment is
    garbage, but the trailing record is byte-intact — find the last
    occurrences of the canonical entry prefix and return the first suffix
    that passes full verification, together with the torn leading fragment.

    Returns ``(entry, fragment)``; ``(None, None)`` when nothing inside the
    line verifies.
    """
    position = raw.rfind(_ENTRY_PREFIX)
    while position > 0:
        entry, reason = inspect_line(raw[position:])
        if entry is not None and reason is None:
            return entry, raw[:position]
        position = raw.rfind(_ENTRY_PREFIX, 0, position)
    return None, None


# ---------------------------------------------------------------------------
# Numeric guards
# ---------------------------------------------------------------------------
class NonFiniteGainError(ValueError):
    """A computed gain was NaN/inf at the estimator→store boundary.

    Raised *before* the value can reach a shard, a golden fixture or an
    aggregate; carries the full task coordinates so the offending trial can
    be replayed in isolation.
    """

    def __init__(self, task: TrialTask, gain: float):
        self.task = task
        self.gain = gain
        super().__init__(
            f"non-finite gain {gain!r} for task {task.content_hash()} "
            f"(figure={task.figure!r}, series={task.series!r}, "
            f"metric={task.metric!r}, attack={task.attack!r}, "
            f"value={task.value!r}, trial={task.trial}, seed={task.seed}); "
            "refusing to store it — replay this task in isolation to debug "
            "the estimator"
        )


def ensure_finite_gain(task: TrialTask, gain: float) -> float:
    """``float(gain)`` if finite; :class:`NonFiniteGainError` otherwise."""
    value = float(gain)
    if not math.isfinite(value):
        current_tracer().counter("integrity.non_finite")
        raise NonFiniteGainError(task, value)
    return value


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------
class Quarantine:
    """Append-only record of corrupt lines under ``<root>/quarantine/``.

    One JSONL file per damaged source (``shard-ab.jsonl`` quarantines into
    ``quarantine/shard-ab.jsonl``); each record carries the source name,
    1-based line number, structured reason and the raw damaged text, so
    nothing ever silently vanishes.  Writes are best-effort — quarantining
    happens on read paths too, and a read-only or full cache root must
    degrade to counting, never to failing the read.  Per-instance dedup
    keeps shard reloads from re-recording the same damage.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root) / QUARANTINE_DIR
        self.added = 0
        self.failed = 0
        self._seen: Set[Tuple[str, int]] = set()

    def path_for(self, source: str) -> Path:
        """Where one source's quarantined records accumulate."""
        return self.root / (source.replace("/", "__") + ".jsonl")

    def add(self, source: str, line_number: int, raw: str, reason: str) -> bool:
        """Record one damaged line; returns True when a record was written."""
        key = (source, zlib.crc32(raw.encode("utf-8", "replace")))
        if key in self._seen:
            return False
        self._seen.add(key)
        record = {
            "source": source,
            "line": int(line_number),
            "reason": reason,
            "raw": raw,
        }
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            descriptor = os.open(
                self.path_for(source), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                write_all(descriptor, data)
            finally:
                os.close(descriptor)
        except OSError:
            self.failed += 1
            return False
        self.added += 1
        current_tracer().counter("integrity.quarantined")
        return True

    def entries(self) -> List[dict]:
        """Every quarantined record on disk (torn quarantine lines skipped)."""
        records: List[dict] = []
        if not self.root.is_dir():
            return records
        for path in sorted(self.root.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        return records

    def __len__(self) -> int:
        return len(self.entries())


# ---------------------------------------------------------------------------
# Full-store scans: verify / repair / gc / stats
# ---------------------------------------------------------------------------
@dataclass
class ShardReport:
    """One shard file's scan outcome."""

    name: str
    lines: int = 0
    valid: int = 0
    distinct: int = 0
    superseded: int = 0
    checksummed: int = 0
    unchecksummed: int = 0
    salvaged: int = 0
    #: reason -> count of lines failing verification.
    corrupt: Dict[str, int] = field(default_factory=dict)
    #: (1-based line number, reason) of every corrupt line.
    corrupt_lines: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def corrupt_total(self) -> int:
        return sum(self.corrupt.values())


@dataclass
class StoreReport:
    """A full-store integrity scan (``repro cache verify``)."""

    root: Path
    shards: List[ShardReport] = field(default_factory=list)
    quarantined: int = 0

    @property
    def corrupt_total(self) -> int:
        return sum(shard.corrupt_total for shard in self.shards)

    @property
    def distinct_total(self) -> int:
        return sum(shard.distinct for shard in self.shards)

    def format(self) -> str:
        lines = [f"cache root: {self.root}"]
        damaged = [shard for shard in self.shards if shard.corrupt_total]
        for shard in damaged:
            reasons = ", ".join(
                f"{reason}={count}" for reason, count in sorted(shard.corrupt.items())
            )
            where = ", ".join(
                f"line {number} ({reason})" for number, reason in shard.corrupt_lines
            )
            lines.append(f"  {shard.name}: CORRUPT {reasons} [{where}]")
        lines.append(
            f"shards: {len(self.shards)} files, "
            f"{sum(s.lines for s in self.shards)} lines, "
            f"{self.distinct_total} distinct results "
            f"({sum(s.checksummed for s in self.shards)} checksummed, "
            f"{sum(s.unchecksummed for s in self.shards)} legacy-unchecksummed, "
            f"{sum(s.superseded for s in self.shards)} superseded, "
            f"{sum(s.salvaged for s in self.shards)} salvaged)"
        )
        lines.append(f"quarantine: {self.quarantined} records")
        lines.append(
            f"verdict: {self.corrupt_total} corrupt record(s)"
            + ("" if self.corrupt_total else " — store is clean")
        )
        return "\n".join(lines)


def _shard_lines(path: Path) -> List[str]:
    """A shard's raw lines (text, no terminators); empty tail dropped."""
    content = path.read_text(encoding="utf-8")
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _scan_shard(path: Path) -> Tuple[ShardReport, Dict[str, int], List[Tuple[int, str, Optional[str]]]]:
    """Scan one shard file.

    Returns the report, the winners map (``hash`` -> 1-based line number of
    its last valid occurrence) and the keepable lines as
    ``(line_number, raw_text, salvage_fragment)`` — ``salvage_fragment`` is
    the torn prefix to quarantine when the line's record had to be salvaged
    out of a merged torn line.
    """
    report = ShardReport(name=path.name)
    winners: Dict[str, int] = {}
    keepable: List[Tuple[int, str, Optional[str]]] = []
    for number, raw in enumerate(_shard_lines(path), start=1):
        if not raw.strip():
            continue
        report.lines += 1
        entry, reason = inspect_line(raw)
        fragment: Optional[str] = None
        if entry is None:
            salvaged, fragment = salvage_line(raw)
            if salvaged is None:
                report.corrupt[reason] = report.corrupt.get(reason, 0) + 1
                report.corrupt_lines.append((number, reason))
                continue
            entry = salvaged
            report.salvaged += 1
            report.corrupt[REASON_TORN_LINE] = report.corrupt.get(REASON_TORN_LINE, 0) + 1
            report.corrupt_lines.append((number, REASON_TORN_LINE))
        report.valid += 1
        if CHECKSUM_FIELD in entry:
            report.checksummed += 1
        else:
            report.unchecksummed += 1
        if entry["hash"] in winners:
            report.superseded += 1
        winners[entry["hash"]] = number
        keepable.append((number, raw, fragment))
    report.distinct = len(winners)
    return report, winners, keepable


def _store_root(root: Union[str, Path, None]) -> Path:
    """The cache root to scan; ``ValueError`` naming it if not a directory."""
    root = Path(root) if root is not None else default_cache_dir()
    if not root.is_dir():
        raise ValueError(f"cache root {str(root)!r} is not a directory")
    return root


def verify_store(root: Union[str, Path, None] = None) -> StoreReport:
    """Full-store integrity scan: every line of every shard.

    Read-only — reports damage (``integrity.corrupt`` counters fire) but
    quarantines nothing; :func:`repair_store` is the mutating counterpart.
    Run it quiesced: an append in flight reads as a torn trailing line.
    """
    root = _store_root(root)
    tracer = current_tracer()
    report = StoreReport(root=root)
    for path in sorted(root.glob("shard-*.jsonl")):
        shard, _, _ = _scan_shard(path)
        report.shards.append(shard)
        if shard.corrupt_total:
            tracer.counter("integrity.corrupt", shard.corrupt_total)
    report.quarantined = len(Quarantine(root))
    return report


@dataclass
class RepairReport:
    """Outcome of a ``repro cache repair`` compaction pass."""

    root: Path
    shards_rewritten: int = 0
    quarantined: int = 0
    superseded_dropped: int = 0
    salvaged: int = 0
    entries_kept: int = 0

    def format(self) -> str:
        return (
            f"repair of {self.root}: rewrote {self.shards_rewritten} shard(s); "
            f"kept {self.entries_kept} winning entries, quarantined "
            f"{self.quarantined} corrupt line(s) (of which {self.salvaged} had "
            f"an intact record salvaged), dropped {self.superseded_dropped} "
            "superseded duplicate(s)"
        )


def repair_store(root: Union[str, Path, None] = None) -> RepairReport:
    """Compact every shard: drop corrupt and superseded lines, keep winners.

    Each damaged or duplicate-carrying shard is rewritten via write-temp +
    ``rename``; the surviving last-writer-wins lines are preserved **bit
    identically** (the original raw text is copied, never re-serialized, so
    legacy-unchecksummed winners stay unchecksummed and replay byte-equal).
    Corrupt lines move to the quarantine with their structured reason; a
    record salvaged out of a merged torn line is kept (re-serialized from
    its verified bytes) while its torn fragment is quarantined.  Clean
    shards are left untouched.  Run quiesced — a concurrent append between
    scan and rename would be lost.
    """
    root = _store_root(root)
    tracer = current_tracer()
    quarantine = Quarantine(root)
    report = RepairReport(root=root)
    for path in sorted(root.glob("shard-*.jsonl")):
        shard, winners, keepable = _scan_shard(path)
        report.superseded_dropped += shard.superseded
        report.salvaged += shard.salvaged
        raw_lines = _shard_lines(path)
        salvaged_numbers = {number for number, _, fragment in keepable if fragment}
        for number, reason in shard.corrupt_lines:
            if number in salvaged_numbers:
                continue  # salvaged lines are quarantined via their fragment
            if quarantine.add(path.name, number, raw_lines[number - 1], reason):
                report.quarantined += 1
        survivors: List[str] = []
        for number, raw, fragment in keepable:
            entry, _ = inspect_line(raw)
            if entry is None:
                entry, fragment = salvage_line(raw)
            if winners.get(entry["hash"]) != number:
                continue  # superseded by a later line
            if fragment is not None:
                if quarantine.add(path.name, number, fragment, REASON_TORN_LINE):
                    report.quarantined += 1
                survivors.append(canonical_json(entry))
            else:
                survivors.append(raw)
        report.entries_kept += len(survivors)
        if len(survivors) == shard.lines and not shard.corrupt_total:
            continue  # nothing to drop: leave the file byte-untouched
        dropped = shard.lines - len(survivors)
        temporary = path.with_name(f".{path.name}.repair.tmp")
        data = "".join(line + "\n" for line in survivors).encode("utf-8")
        descriptor = os.open(
            temporary, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
        )
        try:
            write_all(descriptor, data)
            os.fsync(descriptor)
        except BaseException:
            os.close(descriptor)
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
        os.close(descriptor)
        os.replace(temporary, path)
        report.shards_rewritten += 1
        tracer.counter("integrity.repaired", dropped)
    return report


@dataclass
class GcReport:
    """Outcome of a ``repro cache gc`` pass."""

    root: Path
    leases_pruned: int = 0
    temp_files_pruned: int = 0

    def format(self) -> str:
        return (
            f"gc of {self.root}: pruned {self.leases_pruned} expired lease(s), "
            f"{self.temp_files_pruned} stale temp file(s)"
        )


def check_lease_ttl(lease_ttl: float) -> float:
    """``lease_ttl`` as a float; ``ValueError`` unless finite and positive.

    A zero, negative or NaN horizon makes a lease expire the moment it is
    claimed (gc prunes live leases); NaN and infinity also make a dead
    worker's lease never expire (its range is never reclaimed).
    """
    ttl = float(lease_ttl)
    if not (math.isfinite(ttl) and ttl > 0):
        raise ValueError(
            f"lease_ttl must be a finite positive number of seconds, got {lease_ttl!r}"
        )
    return ttl


def gc_store(
    root: Union[str, Path, None] = None, lease_ttl: float = 30.0
) -> GcReport:
    """Prune expired leases and stale lease temp files.

    A lease (or lease temp file) whose mtime is older than ``lease_ttl``
    has not been heartbeated for at least that long — heartbeats rewrite
    the file — so it is dead weight from a crashed worker.  Live data is
    never touched.
    """
    import time

    lease_ttl = check_lease_ttl(lease_ttl)
    root = _store_root(root)
    report = GcReport(root=root)
    now = time.time()
    leases = root / "leases"
    if leases.is_dir():
        for path in sorted(leases.iterdir()):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age < lease_ttl:
                continue
            is_temp = path.name.startswith(".") and path.name.endswith(".tmp")
            try:
                path.unlink()
            except OSError:
                continue
            if is_temp:
                report.temp_files_pruned += 1
            else:
                report.leases_pruned += 1
    return report
