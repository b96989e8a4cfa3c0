"""Tests for the cache constants, the cache root and the null cache."""

from repro.engine import cache as cache_module
from repro.engine.cache import NullCache
from repro.engine.result_store import ShardedResultStore
from tests.engine.test_tasks import make_task


class TestStoreKeys:
    def test_miss_then_round_trip(self, tmp_path):
        cache = ShardedResultStore(tmp_path)
        task = make_task()
        assert cache.get(task) is None
        cache.put(task, 1.25)
        assert cache.get(task) == 1.25
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_distinct_tasks_do_not_collide(self, tmp_path):
        cache = ShardedResultStore(tmp_path)
        cache.put(make_task(), 1.0)
        cache.put(make_task(seed=999), 2.0)
        assert cache.get(make_task()) == 1.0
        assert cache.get(make_task(seed=999)) == 2.0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ShardedResultStore(tmp_path)
        task = make_task()
        cache.put(task, 3.0)
        shard = cache.shard_path(task.content_hash()[:2])
        shard.write_text("{not json\n")
        fresh = ShardedResultStore(tmp_path)
        assert fresh.get(task) is None
        assert fresh.corrupt == 1

    def test_clear(self, tmp_path):
        cache = ShardedResultStore(tmp_path)
        cache.put(make_task(), 1.0)
        cache.put(make_task(seed=5), 2.0)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(make_task()) is None

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_module.CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert ShardedResultStore().root == tmp_path / "custom"

    def test_display_fields_share_entries(self, tmp_path):
        """Two tasks differing only in display coordinates hit the same entry."""
        cache = ShardedResultStore(tmp_path)
        cache.put(make_task(figure="Fig6", trial=0), 4.0)
        assert cache.get(make_task(figure="Fig9", trial=3)) == 4.0


class TestNullCache:
    def test_never_stores(self):
        cache = NullCache()
        task = make_task()
        cache.put(task, 1.0)
        assert cache.get(task) is None
        assert cache.clear() == 0
