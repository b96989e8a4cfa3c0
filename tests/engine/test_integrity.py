"""Tests for the storage-plane integrity layer.

Pinned here:

* every appended shard line carries a CRC32 checksum; pre-checksum lines
  stay readable (no ``CACHE_VERSION`` bump);
* a flipped byte is **detected** (``cache verify``, exit 1), **quarantined**
  (``cache repair``) and **recomputed exactly once** — the replayed sweep is
  bit-identical (sha256) to the original;
* repair preserves last-writer-wins winners byte for byte and leaves clean
  shards untouched;
* a non-finite gain raises a structured error naming the task at the
  estimator→store boundary, before it can reach disk;
* gc prunes expired leases and stale temps — and nothing live;
* verify, repair and gc refuse a cache root that is not a directory, so a
  mistyped root can never pass an integrity gate.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time

import pytest

from repro.engine import integrity
from repro.engine.cache import CACHE_VERSION, NullCache
from repro.engine.distributed import LeaseDirectory
from repro.engine.executors import SerialExecutor
from repro.engine.integrity import (
    REASON_BAD_CHECKSUM,
    REASON_NON_FINITE,
    REASON_TORN_LINE,
    REASON_UNPARSEABLE,
    CHECKSUM_FIELD,
    NonFiniteGainError,
    Quarantine,
    canonical_json,
    ensure_finite_gain,
    entry_checksum,
    gc_store,
    inspect_line,
    repair_store,
    salvage_line,
    stamp_checksum,
    verify_store,
)
from repro.engine.result_store import ShardedResultStore
from repro.engine.tasks import (
    TrialTask,
    derive_trial_seed,
    graph_fingerprint,
    identity_payload,
)
from repro.experiments.cli import run as cli_run
from repro.graph.generators import powerlaw_cluster_graph
from tests.conftest import CountingExecutor, run_on_graph


class NaNExecutor(SerialExecutor):
    """An estimator gone wrong: returns NaN for every task."""

    def execute_batch(self, tasks, store):
        return [float("nan")] * len(tasks)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(100, 3, 0.4, rng=0)


def make_tasks(graph, count, tag="integrity"):
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


def _sha256_of(gains):
    return hashlib.sha256(
        json.dumps([float(g) for g in gains]).encode("ascii")
    ).hexdigest()


def _flip_gain_digit(shard_path):
    """Flip one gain digit in the first shard line: valid JSON, wrong CRC."""
    lines = shard_path.read_text(encoding="utf-8").splitlines(keepends=True)
    target = lines[0]
    start = target.index('"gain":') + len('"gain":')
    for offset in range(start, len(target)):
        if target[offset].isdigit():
            flipped = "7" if target[offset] != "7" else "3"
            lines[0] = target[:offset] + flipped + target[offset + 1:]
            break
    else:  # pragma: no cover - gains always carry digits
        raise AssertionError("no digit to flip")
    shard_path.write_text("".join(lines), encoding="utf-8")


class TestChecksums:
    def test_stamp_and_inspect_roundtrip(self):
        entry = {"cache_version": 1, "hash": "ab" * 32, "task": {}, "gain": 0.5}
        stamped = stamp_checksum(entry)
        assert stamped[CHECKSUM_FIELD] == entry_checksum(entry)
        parsed, reason = inspect_line(canonical_json(stamped))
        assert reason is None and parsed == stamped

    def test_put_stamps_a_verifiable_crc(self, graph, tmp_path):
        store = ShardedResultStore(tmp_path)
        (task,) = make_tasks(graph, 1, "crc")
        store.put(task, 1.25)
        (line,) = store.shard_path(task.content_hash()[:2]).read_text().splitlines()
        entry = json.loads(line)
        assert entry[CHECKSUM_FIELD] == entry_checksum(entry)

    def test_unchecksummed_lines_stay_readable(self, graph, tmp_path):
        """Pre-integrity shards answer unchanged — no CACHE_VERSION bump."""
        (task,) = make_tasks(graph, 1, "legacyline")
        digest = task.content_hash()
        legacy_entry = {
            "cache_version": CACHE_VERSION, "hash": digest,
            "task": identity_payload(task),
            "gain": 2.5,
        }
        store = ShardedResultStore(tmp_path)
        store._append(digest, legacy_entry)  # exactly what old code wrote
        fresh = ShardedResultStore(tmp_path)
        assert fresh.get(task) == 2.5
        assert fresh.stats()["corrupt"] == 0

    def test_flipped_byte_is_a_counted_quarantined_miss(self, graph, tmp_path):
        (task,) = make_tasks(graph, 1, "flip")
        store = ShardedResultStore(tmp_path)
        store.put(task, 1.5)
        _flip_gain_digit(store.shard_path(task.content_hash()[:2]))
        fresh = ShardedResultStore(tmp_path)
        assert fresh.get(task) is None, "a corrupt entry must never answer"
        assert fresh.corrupt == 1
        records = fresh.quarantine.entries()
        assert len(records) == 1
        assert records[0]["reason"] == REASON_BAD_CHECKSUM
        assert records[0]["source"] == f"shard-{task.content_hash()[:2]}.jsonl"


class TestInspectAndSalvage:
    def test_torn_prefix_classified_as_torn(self):
        entry, reason = inspect_line('{"cache_version":1,"hash":"de')
        assert entry is None and reason == REASON_TORN_LINE

    def test_garbage_object_classified_unparseable(self):
        entry, reason = inspect_line('{"cache_version": oops}')
        assert entry is None and reason == REASON_UNPARSEABLE
        entry, reason = inspect_line('{"cache_version":1,"hash":42,"gain":1.0}')
        assert entry is None and reason == REASON_UNPARSEABLE

    def test_nonfinite_gain_literal_rejected(self):
        raw = '{"cache_version":1,"gain":NaN,"hash":"ab","task":{}}'
        entry, reason = inspect_line(raw)
        assert entry is None and reason == REASON_NON_FINITE

    def test_salvage_recovers_record_behind_torn_fragment(self):
        good = stamp_checksum(
            {"cache_version": 1, "hash": "ff" * 32, "task": {}, "gain": 3.0}
        )
        merged = '{"cache_version":1,"hash":"dead' + canonical_json(good)
        entry, fragment = salvage_line(merged)
        assert entry == good
        assert fragment == '{"cache_version":1,"hash":"dead'

    def test_salvage_refuses_corrupt_suffix(self):
        good = stamp_checksum(
            {"cache_version": 1, "hash": "ff" * 32, "task": {}, "gain": 3.0}
        )
        tampered = canonical_json(good).replace('"gain":3.0', '"gain":4.0')
        entry, fragment = salvage_line('{"cache_version":1,"x' + tampered)
        assert entry is None and fragment is None


class TestQuarantine:
    def test_layout_and_roundtrip(self, tmp_path):
        quarantine = Quarantine(tmp_path)
        assert quarantine.add("shard-ab.jsonl", 3, '{"torn', REASON_TORN_LINE)
        path = tmp_path / "quarantine" / "shard-ab.jsonl.jsonl"
        assert path.is_file()
        (record,) = quarantine.entries()
        assert record == {
            "source": "shard-ab.jsonl", "line": 3,
            "reason": REASON_TORN_LINE, "raw": '{"torn',
        }

    def test_same_damage_recorded_once(self, tmp_path):
        quarantine = Quarantine(tmp_path)
        assert quarantine.add("shard-ab.jsonl", 3, "xyz", REASON_UNPARSEABLE)
        assert not quarantine.add("shard-ab.jsonl", 3, "xyz", REASON_UNPARSEABLE)
        assert quarantine.added == 1


class TestNonFiniteGuard:
    def test_error_names_the_task_and_seed(self, graph):
        (task,) = make_tasks(graph, 1, "nan")
        with pytest.raises(NonFiniteGainError) as excinfo:
            ensure_finite_gain(task, float("inf"))
        message = str(excinfo.value)
        assert task.content_hash() in message
        assert f"seed={task.seed}" in message
        assert excinfo.value.task is task

    def test_store_put_refuses_nan(self, graph, tmp_path):
        store = ShardedResultStore(tmp_path)
        (task,) = make_tasks(graph, 1, "nanput")
        with pytest.raises(NonFiniteGainError):
            store.put(task, float("nan"))
        assert store.appends == 0
        assert not list(tmp_path.glob("shard-*.jsonl"))

    def test_estimator_boundary_guard_fires_even_uncached(self, graph):
        (task,) = make_tasks(graph, 1, "nanexec")
        with pytest.raises(NonFiniteGainError):
            run_on_graph([task], graph, executor=NaNExecutor(), cache=NullCache())


class TestVerifyRepairAcceptance:
    def test_flip_detect_repair_replay_bit_identical(self, graph, tmp_path):
        """The ISSUE's acceptance flow, end to end."""
        tasks = make_tasks(graph, 8, "accept")
        store = ShardedResultStore(tmp_path)
        original = run_on_graph(tasks, graph, cache=store)
        clean_sha = _sha256_of(original)

        # Flip one byte in a warm shard.
        victim = tasks[0].content_hash()[:2]
        _flip_gain_digit(store.shard_path(victim))

        # verify detects (exit 1, names the shard and reason)...
        out = io.StringIO()
        assert cli_run(["cache", "verify", "--dir", str(tmp_path)], out=out) == 1
        report = out.getvalue()
        assert f"shard-{victim}.jsonl" in report and REASON_BAD_CHECKSUM in report

        # ...repair quarantines...
        out = io.StringIO()
        assert cli_run(["cache", "repair", "--dir", str(tmp_path)], out=out) == 0
        assert "quarantined 1 corrupt line(s)" in out.getvalue()
        assert len(Quarantine(tmp_path).entries()) == 1

        # ...the store is clean again...
        assert cli_run(["cache", "verify", "--dir", str(tmp_path)], out=io.StringIO()) == 0

        # ...and the replay recomputes exactly the quarantined task,
        # landing bit-identical to the clean run.
        executor = CountingExecutor()
        replay = run_on_graph(
            tasks, graph, executor=executor, cache=ShardedResultStore(tmp_path)
        )
        assert executor.executed == 1
        assert _sha256_of(replay) == clean_sha

    def test_repair_preserves_winners_bit_identically(self, graph, tmp_path):
        """Superseded duplicates drop; the winning raw line's bytes survive."""
        (task,) = make_tasks(graph, 1, "winner")
        digest = task.content_hash()
        store = ShardedResultStore(tmp_path)
        loser = stamp_checksum({
            "cache_version": CACHE_VERSION, "hash": digest, "task": {}, "gain": 1.0,
        })
        store._append(digest, loser)
        store.put(task, 2.0)  # the last writer: must win repair verbatim
        shard = store.shard_path(digest[:2])
        winning_line = shard.read_text().splitlines()[-1]

        report = repair_store(tmp_path)
        assert report.superseded_dropped == 1 and report.shards_rewritten == 1
        assert shard.read_text() == winning_line + "\n"
        assert ShardedResultStore(tmp_path).get(task) == 2.0

    def test_repair_leaves_clean_shards_untouched(self, graph, tmp_path):
        tasks = make_tasks(graph, 4, "clean")
        store = ShardedResultStore(tmp_path)
        for index, task in enumerate(tasks):
            store.put(task, float(index))
        before = {
            path.name: path.read_bytes()
            for path in tmp_path.glob("shard-*.jsonl")
        }
        report = repair_store(tmp_path)
        assert report.shards_rewritten == 0 and report.quarantined == 0
        after = {
            path.name: path.read_bytes()
            for path in tmp_path.glob("shard-*.jsonl")
        }
        assert after == before

    def test_verify_reports_unchecksummed_and_superseded(self, graph, tmp_path):
        (task,) = make_tasks(graph, 1, "mixed")
        digest = task.content_hash()
        store = ShardedResultStore(tmp_path)
        store._append(digest, {
            "cache_version": CACHE_VERSION, "hash": digest, "task": {}, "gain": 1.0,
        })
        store.put(task, 2.0)
        report = verify_store(tmp_path)
        assert report.corrupt_total == 0
        assert report.distinct_total == 1
        (shard,) = report.shards
        assert shard.superseded == 1
        assert shard.unchecksummed == 1 and shard.checksummed == 1


class TestGc:
    def test_gc_prunes_expired_not_live(self, graph, tmp_path):
        leases = tmp_path / "leases"
        leases.mkdir(parents=True)
        dead = leases / "range-00-7f.json"
        dead.write_text('{"owner": "crashed", "beat": 3}')
        stale_temp = leases / ".range-80-ff.json.crashed.tmp"
        stale_temp.write_text("{")
        old = time.time() - 3600
        os.utime(dead, (old, old))
        os.utime(stale_temp, (old, old))
        live = leases / "range-80-ff.json"
        live.write_text('{"owner": "alive", "beat": 9}')

        (stored,) = make_tasks(graph, 1, "gc")
        ShardedResultStore(tmp_path).put(stored, 1.0)

        report = gc_store(tmp_path, lease_ttl=30.0)
        assert report.leases_pruned == 1 and report.temp_files_pruned == 1
        assert live.is_file() and not dead.exists() and not stale_temp.exists()
        fresh = ShardedResultStore(tmp_path)
        assert fresh.get(stored) == 1.0, "stored results must survive gc"

    @pytest.mark.parametrize("lease_ttl", [30.0, 0.0, -1.0, float("nan")])
    def test_fresh_lease_survives_gc(self, tmp_path, lease_ttl):
        """Whatever TTL gc is given, it never prunes a lease just claimed:
        a valid one leaves it alone, an invalid one is refused."""
        leases = LeaseDirectory(tmp_path, "alive", ttl=30)
        assert leases.try_claim((0, 255))
        with contextlib.suppress(ValueError):
            assert gc_store(tmp_path, lease_ttl=lease_ttl).leases_pruned == 0
        assert leases.lease_path((0, 255)).is_file()

    def test_cli_gc_rejects_zero_lease_ttl(self, tmp_path):
        out = io.StringIO()
        args = ["cache", "gc", "--dir", str(tmp_path), "--lease-ttl", "0"]
        assert cli_run(args, out=out) == 2
        assert "lease_ttl" in out.getvalue()

    def test_cli_gc_and_stats(self, tmp_path):
        out = io.StringIO()
        assert cli_run(["cache", "gc", "--dir", str(tmp_path)], out=out) == 0
        assert "pruned 0 expired lease(s)" in out.getvalue()
        out = io.StringIO()
        assert cli_run(["cache", "stats", "--dir", str(tmp_path)], out=out) == 0
        assert "store is clean" in out.getvalue()


class TestMissingRoot:
    """A cache root that is not a directory is an error, never a clean store."""

    @pytest.fixture(params=["missing", "file"])
    def bad_root(self, request, tmp_path):
        root = tmp_path / "no-such-root"
        if request.param == "file":
            root.write_text("")
        return root

    def test_verify_store_rejects_bad_root(self, bad_root):
        with pytest.raises(ValueError, match="no-such-root"):
            verify_store(bad_root)

    def test_repair_store_rejects_bad_root(self, bad_root):
        with pytest.raises(ValueError, match="no-such-root"):
            repair_store(bad_root)

    def test_gc_store_rejects_bad_root(self, bad_root):
        with pytest.raises(ValueError, match="no-such-root"):
            gc_store(bad_root)

    @pytest.mark.parametrize("action", ["verify", "repair", "gc", "stats"])
    def test_cli_exits_2_naming_the_root(self, tmp_path, action):
        root = tmp_path / "no-such-root"
        out = io.StringIO()
        assert cli_run(["cache", action, "--dir", str(root)], out=out) == 2
        assert str(root) in out.getvalue()
        assert "clean" not in out.getvalue()
        assert not root.exists()
