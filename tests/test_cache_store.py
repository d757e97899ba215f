"""Result-cache store behaviour: memory/disk layers, invalidation,
corruption self-healing, ambient scoping and the memoize helper.

The store's contract is "never a wrong answer": a hit must round-trip
the payload byte-exactly; anything suspicious (KB mismatch, digest
mismatch, unreadable file) must degrade to a recompute and be counted.
"""

import hashlib
import json

import pytest

from repro.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    cache_from_env,
    cache_scope,
    content_key,
    current_cache,
    memoize,
)
from repro.cache.store import MemoryCache


KEY = content_key("the", "answer")


class TestMemoryLayer:
    def test_round_trip(self):
        cache = ResultCache()
        assert cache.get("t", KEY) is None
        cache.put("t", KEY, {"x": [1, 2.5, None]})
        assert cache.get("t", KEY) == {"x": [1, 2.5, None]}

    def test_payload_round_trips_exactly(self):
        # 5.0 must come back as 5.0, not 5: a hit replaces a recompute
        # byte-for-byte (the golden-run suite depends on it).
        cache = ResultCache()
        cache.put("t", KEY, {"dc": 5.0, "n": 5})
        hit = cache.get("t", KEY)
        assert json.dumps(hit, sort_keys=True) == '{"dc": 5.0, "n": 5}'

    def test_hits_are_fresh_copies(self):
        cache = ResultCache()
        cache.put("t", KEY, {"a": [1]})
        first = cache.get("t", KEY)
        first["a"].append(2)
        assert cache.get("t", KEY) == {"a": [1]}

    def test_lru_eviction(self):
        memory = MemoryCache(max_entries=2)
        memory.put("k1", ("kb", "d", "{}"))
        memory.put("k2", ("kb", "d", "{}"))
        memory.get("k1")  # refresh k1
        memory.put("k3", ("kb", "d", "{}"))  # evicts k2
        assert memory.get("k1") is not None
        assert memory.get("k2") is None
        assert memory.get("k3") is not None

    def test_stats_accounting(self):
        cache = ResultCache()
        cache.get("t", KEY)
        cache.put("t", KEY, 1)
        cache.get("t", KEY)
        stats = cache.stats()["t"]
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)
        assert "t" in cache.render_stats()


class TestDiskLayer:
    def test_survives_a_new_cache_instance(self, tmp_path):
        ResultCache(disk_dir=tmp_path).put("t", KEY, {"v": 42})
        assert ResultCache(disk_dir=tmp_path).get("t", KEY) == {"v": 42}

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ResultCache(disk_dir=tmp_path).put("t", KEY, 7)
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get("t", KEY) == 7
        assert len(cache.memory) == 1

    def test_tampered_file_heals_to_recompute(self, tmp_path):
        writer = ResultCache(disk_dir=tmp_path)
        writer.put("t", KEY, {"v": 1})
        [path] = list(tmp_path.rglob("*.json"))
        entry = json.loads(path.read_text())
        entry["payload"] = '{"v": 999}'  # bit rot with a valid shape
        path.write_text(json.dumps(entry))

        reader = ResultCache(disk_dir=tmp_path)
        assert reader.get("t", KEY) is None  # never the wrong answer
        assert reader.stats()["t"].corruptions == 1
        # The poisoned entry was dropped: a fresh put works again.
        reader.put("t", KEY, {"v": 2})
        assert reader.get("t", KEY) == {"v": 2}

    def test_unparseable_file_is_a_miss(self, tmp_path):
        writer = ResultCache(disk_dir=tmp_path)
        writer.put("t", KEY, 1)
        [path] = list(tmp_path.rglob("*.json"))
        path.write_text("not json at all {")
        assert ResultCache(disk_dir=tmp_path).get("t", KEY) is None

    def test_kb_version_bump_invalidates(self, tmp_path, monkeypatch):
        import repro.kb as kb
        from repro.cache.keys import kb_fingerprint

        ResultCache(disk_dir=tmp_path).put("t", KEY, {"v": 1})
        monkeypatch.setattr(kb, "KB_VERSION", "9999.99.9")
        kb_fingerprint(refresh=True)
        try:
            stale = ResultCache(disk_dir=tmp_path)
            assert stale.get("t", KEY) is None
            assert stale.stats()["t"].invalidations == 1
        finally:
            monkeypatch.undo()
            kb_fingerprint(refresh=True)

    def test_clear(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put("a", KEY, 1)
        cache.put("b", KEY, 2)
        cache.clear("a")
        assert ResultCache(disk_dir=tmp_path).get("a", KEY) is None
        assert ResultCache(disk_dir=tmp_path).get("b", KEY) == 2


class TestAmbientScope:
    def test_default_is_uncached(self):
        assert current_cache() is None

    def test_scope_installs_and_restores(self):
        cache = ResultCache()
        with cache_scope(cache) as active:
            assert active is cache
            assert current_cache() is cache
            with cache_scope(None):  # explicit off inside a scope
                assert current_cache() is None
            assert current_cache() is cache
        assert current_cache() is None

    def test_cache_from_env(self, tmp_path):
        assert cache_from_env(env={}) is None
        cache = cache_from_env(env={CACHE_DIR_ENV: str(tmp_path)})
        assert cache is not None and cache.disk is not None
        cache.put("t", KEY, 3)
        assert ResultCache(disk_dir=tmp_path).get("t", KEY) == 3

    def test_memoize_computes_once_per_key(self):
        calls = []

        def compute():
            calls.append(1)
            return {"n": len(calls)}

        with cache_scope(ResultCache()):
            first = memoize("t", KEY, compute)
            second = memoize("t", KEY, compute)
        assert first == second == {"n": 1}
        assert len(calls) == 1

    def test_memoize_without_cache_always_computes(self):
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        assert memoize("t", KEY, compute) == 1
        assert memoize("t", KEY, compute) == 2


def _hammer_key(root: str, payload_value: int, rounds: int) -> None:
    """Worker for the concurrent-writer test: re-publish one key."""
    cache = ResultCache(disk_dir=root, kb="race-kb")
    for _ in range(rounds):
        cache.put("race", KEY, {"who": payload_value, "blob": "x" * 2048})


class TestConcurrentWriters:
    """Two processes writing the same key never expose a torn entry."""

    def test_no_torn_entries_under_concurrent_writers(self, tmp_path):
        import multiprocessing

        rounds = 60
        writers = [
            multiprocessing.Process(
                target=_hammer_key, args=(str(tmp_path), who, rounds)
            )
            for who in (1, 2)
        ]
        for proc in writers:
            proc.start()
        probe = ResultCache(disk_dir=tmp_path, kb="race-kb")
        assert probe.disk is not None
        raw_path = probe.disk._path("race", KEY)
        observed = 0
        try:
            while any(proc.is_alive() for proc in writers):
                try:
                    raw = raw_path.read_bytes()
                except OSError:
                    continue
                # Every observed byte string must be one complete
                # record: parseable, and carrying a digest that matches
                # its own payload (what ResultCache verifies on read).
                entry = json.loads(raw.decode("utf-8"))
                assert entry["kb"] == "race-kb"
                payload_json = json.dumps(
                    entry["payload"], sort_keys=True, separators=(",", ":")
                )
                digest = hashlib.sha256(payload_json.encode("utf-8")).hexdigest()
                assert entry["sha256"] == digest, "torn/mixed entry on disk"
                assert entry["payload"]["who"] in (1, 2)
                observed += 1
        finally:
            for proc in writers:
                proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers)
        assert observed > 0, "reader never saw a published entry"
        # The final state is a digest-verified hit for one writer...
        final = ResultCache(disk_dir=tmp_path, kb="race-kb").get("race", KEY)
        assert final is not None and final["who"] in (1, 2)
        # ...and no temp debris survives the race.
        assert not list(raw_path.parent.glob("*.tmp.*"))

    def test_stale_tmp_from_dead_writer_is_reclaimed(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path, kb="race-kb")
        assert cache.disk is not None
        path = cache.disk._path("race", KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        stale = path.with_suffix(".tmp.99999999")
        stale.write_text('{"kb": "race-kb", "pay', encoding="utf-8")
        cache.put("race", KEY, {"who": 3})
        assert not stale.exists()
        assert cache.get("race", KEY) == {"who": 3}
