"""Tests for the content-addressed result cache
(:mod:`repro.service.cache`)."""

import os
import subprocess
import sys

import pytest

from repro.analysis.sweep import sweep_use_case
from repro.core.config import SystemConfig
from repro.regression.fuzzer import _diff_exact
from repro.resilience import faults
from repro.resilience.report import FAILURE_KIND_TIMEOUT, JobFailure
from repro.service.cache import (
    ENTRY_SUFFIX,
    STAGING_PREFIX,
    CacheWarning,
    ResultCache,
    resolve_cache,
)
from repro.telemetry import Telemetry
from repro.usecase.levels import level_by_name

KEY = "a" * 64
SCALE = 1 / 256


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestRoundTrip:
    def test_put_get(self, cache):
        cache.put(KEY, {"answer": 42}, coords={"channels": 2})
        assert cache.get(KEY) == {"answer": 42}
        stats = cache.stats()
        assert stats["writes"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 0

    def test_missing_key_is_a_miss(self, cache):
        assert cache.get(KEY) is None
        assert cache.stats()["misses"] == 1

    def test_contains_is_stat_neutral(self, cache):
        assert not cache.contains(KEY)
        cache.put(KEY, 1)
        assert cache.contains(KEY)
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0

    def test_len_and_clear(self, cache):
        cache.put(KEY, 1)
        cache.put("b" * 64, 2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_discard_removes_one_entry_stat_neutrally(self, cache):
        cache.put(KEY, 1)
        cache.put("b" * 64, 2)
        cache.discard(KEY)
        cache.discard(KEY)  # already gone: a no-op
        cache.discard("c" * 64)  # never stored: a no-op
        assert not cache.contains(KEY)
        assert cache.get("b" * 64) == 2
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 0

    def test_entry_the_caller_does_not_serve_is_a_miss(self, cache):
        cache.put(KEY, {"answer": 42})
        # Still returned, so the caller can act on what it read...
        assert cache.get(KEY, lambda payload: False) == {"answer": 42}
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 1
        # ...and a served read is a hit as before.
        assert cache.get(KEY, lambda payload: True) == {"answer": 42}
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_clear_removes_staging_debris(self, cache):
        # A writer killed between staging and the atomic rename leaves
        # a staging file that no lookup ever reads or replaces.
        cache.put(KEY, 1)
        debris = cache.directory / f"{STAGING_PREFIX}x1y2z3{ENTRY_SUFFIX}.tmp"
        debris.write_bytes(b"half an entry")
        assert len(cache) == 1  # debris is not an entry
        cache.clear()
        assert sorted(cache.directory.iterdir()) == []

    def test_malformed_key_rejected(self, cache):
        for bad in ("", "../escape", "a/b", "a\\b"):
            with pytest.raises(ValueError):
                cache.entry_path(bad)

    def test_resolve_cache(self, tmp_path, cache):
        assert resolve_cache(None) is None
        assert resolve_cache(cache) is cache
        built = resolve_cache(tmp_path / "other")
        assert isinstance(built, ResultCache)


class TestFailurePolicy:
    def test_job_failure_refused(self, cache):
        failure = JobFailure(
            index=0,
            item="job",
            error_type="SimulationError",
            message="boom",
            traceback="",
        )
        with pytest.raises(ValueError):
            cache.put(KEY, failure)
        assert len(cache) == 0

    def test_quarantined_failure_round_trips(self, cache):
        failure = JobFailure.from_quarantine(
            3, "job", FAILURE_KIND_TIMEOUT, "hung past its deadline"
        ).with_coords({"channels": 2})
        cache.put(KEY, failure, coords={"channels": 2})
        assert cache.get(KEY) == failure
        assert cache.get(KEY).quarantined

    def test_unwritable_directory_degrades_to_warning(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        store = ResultCache(target)
        with pytest.warns(CacheWarning):
            store.put(KEY, {"x": 1})
        assert store.stats()["writes"] == 0


class TestCorruption:
    def _put_one(self, cache):
        cache.put(KEY, {"x": 1})
        return cache.entry_path(KEY)

    def test_truncated_entry_degrades_and_self_heals(self, cache):
        path = self._put_one(cache)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.warns(CacheWarning):
            assert cache.get(KEY) is None
        stats = cache.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1
        # The damaged entry deletes itself, so it cannot warn forever.
        assert not path.exists()

    def test_garbage_entry_degrades(self, cache):
        path = cache.entry_path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a cache entry at all")
        with pytest.warns(CacheWarning):
            assert cache.get(KEY) is None
        assert cache.stats()["corrupt"] == 1

    def test_headerless_blob_degrades(self, cache):
        path = cache.entry_path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"no newline anywhere")
        with pytest.warns(CacheWarning):
            assert cache.get(KEY) is None

    def test_entry_under_wrong_key_degrades(self, cache):
        self._put_one(cache)
        other = "b" * 64
        os.replace(cache.entry_path(KEY), cache.entry_path(other))
        with pytest.warns(CacheWarning):
            assert cache.get(other) is None

    def test_nothing_raises_out_of_get(self, cache):
        path = self._put_one(cache)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # bit rot in the payload
        path.write_bytes(bytes(raw))
        with pytest.warns(CacheWarning):
            assert cache.get(KEY) is None


class TestEviction:
    def test_bound_enforced_oldest_first(self, tmp_path):
        store = ResultCache(tmp_path / "cache", max_entries=2)
        keys = ["a" * 64, "b" * 64, "c" * 64]
        for index, key in enumerate(keys):
            store.put(key, index)
            entry = store.entry_path(key)
            # mtime granularity on some filesystems is coarse; force a
            # strictly increasing write order for the LRW eviction.
            os.utime(entry, (1000.0 + index, 1000.0 + index))
        assert len(store) == 2
        assert store.stats()["evictions"] == 1
        assert not store.contains(keys[0])
        assert store.contains(keys[1]) and store.contains(keys[2])

    def test_bound_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)

    def test_same_tick_ties_evict_deterministically(self, tmp_path):
        # A grid written within one filesystem clock tick: every entry
        # carries the *identical* mtime, so the write-time order is all
        # ties.  Eviction must still pick the same victims on every run
        # -- the entry name (the content key) breaks ties -- and must
        # not depend on insertion or directory-listing order.
        keys = [ch * 64 for ch in "fbdace"]
        expected_survivors = sorted(keys)[3:]
        tick_ns = 1_700_000_000_000_000_000
        for run, order in enumerate((keys, list(reversed(keys)))):
            store = ResultCache(tmp_path / f"cache{run}")
            for index, key in enumerate(order):
                store.put(key, index)
            for key in order:
                os.utime(store.entry_path(key), ns=(tick_ns, tick_ns))
            store._evict_over(3)
            assert store.stats()["evictions"] == 3
            kept = sorted(key for key in keys if store.contains(key))
            assert kept == expected_survivors


class TestSweepIntegration:
    LEVELS = [level_by_name("3.1")]
    CONFIGS = [SystemConfig(channels=1), SystemConfig(channels=2)]

    def test_warm_cache_serves_every_point_bit_identically(self, tmp_path):
        fresh = sweep_use_case(self.LEVELS, self.CONFIGS, scale=SCALE)
        cold = sweep_use_case(
            self.LEVELS, self.CONFIGS, scale=SCALE, cache=tmp_path / "cache"
        )
        warm = sweep_use_case(
            self.LEVELS, self.CONFIGS, scale=SCALE, cache=tmp_path / "cache"
        )
        assert cold.cached == 0
        assert warm.cached == len(warm) == 2
        for a, b in zip(fresh, warm):
            # The fuzzer's exact comparator: any field-level divergence
            # between a cached and a freshly simulated result is a diff.
            assert _diff_exact(a.result, b.result) == []
            assert a.power == b.power and a.verdict == b.verdict

    def test_cross_process_hits(self, tmp_path):
        """A cache warmed by another process must serve this one."""
        cache_dir = tmp_path / "cache"
        script = (
            "from repro.analysis.sweep import sweep_use_case\n"
            "from repro.core.config import SystemConfig\n"
            "from repro.usecase.levels import level_by_name\n"
            "report = sweep_use_case([level_by_name('3.1')],"
            f" [SystemConfig(channels=1), SystemConfig(channels=2)],"
            f" scale={SCALE!r}, cache={str(cache_dir)!r},"
            " backend='reference')\n"
            "assert report.cached == 0, report.cached\n"
        )
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        warm = sweep_use_case(
            self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache_dir,
            backend="reference",
        )
        assert warm.cached == 2

    def test_changing_any_key_ingredient_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_use_case(
            self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache,
            backend="reference",
        )
        # Different config field.
        report = sweep_use_case(
            self.LEVELS, [SystemConfig(channels=4)], scale=SCALE, cache=cache,
            backend="reference",
        )
        assert report.cached == 0
        # Different backend, same grid.
        report = sweep_use_case(
            self.LEVELS,
            self.CONFIGS,
            scale=SCALE,
            cache=cache,
            backend="batch",
        )
        assert report.cached == 0
        # Same grid again: still warm (the misses above wrote entries,
        # they did not clobber the originals).
        report = sweep_use_case(
            self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache,
            backend="reference",
        )
        assert report.cached == 2

    def test_engine_version_changes_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        sweep_use_case(self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache)
        import repro.keys as keys_module

        monkeypatch.setattr(keys_module, "ENGINE_VERSION", "999-test")
        report = sweep_use_case(
            self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache
        )
        assert report.cached == 0

    def test_failed_points_never_cached(self, tmp_path):
        # A deterministic error is never stored (only quarantines are).
        cache = ResultCache(tmp_path / "cache")
        with faults.injected(faults.FaultPlan(site="sweep", index=0, once=False)):
            report = sweep_use_case(
                self.LEVELS,
                self.CONFIGS,
                scale=SCALE,
                cache=cache,
                strict=False,
            )
        assert len(report.failures) == 1
        assert len(cache) == 1  # only the healthy point landed
        # With the fault disarmed the failed point is recomputed, not
        # served: exactly one hit (the healthy point), one fresh write.
        report = sweep_use_case(
            self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache
        )
        assert report.ok
        assert report.cached == 1

    def test_corrupt_entry_recomputed_and_rewritten(self, tmp_path):
        cache_dir = tmp_path / "cache"
        sweep_use_case(self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache_dir)
        victim = sorted(cache_dir.glob("*.rc"))[0]
        victim.write_bytes(b"garbage")
        with pytest.warns(CacheWarning):
            report = sweep_use_case(
                self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache_dir
            )
        assert report.ok
        assert report.cached == 1  # the intact entry still served
        # The recompute healed the store: fully warm again.
        report = sweep_use_case(
            self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache_dir
        )
        assert report.cached == 2

    def test_foreign_payload_recomputed(self, tmp_path):
        """An entry holding something that is not a sweep point (e.g.
        written by other tooling under a colliding key) is recomputed,
        not trusted."""
        from repro.analysis.sweep import job_keys
        from repro.load.model import DEFAULT_BLOCK_BYTES
        from repro.load.scaling import DEFAULT_CHUNK_BUDGET
        from repro.workloads.registry import resolve_workload

        cache = ResultCache(tmp_path / "cache")
        workload = resolve_workload()
        jobs = [
            (
                index,
                self.LEVELS[0],
                config,
                SCALE,
                DEFAULT_CHUNK_BUDGET,
                DEFAULT_BLOCK_BYTES,
                workload,
            )
            for index, config in enumerate(self.CONFIGS)
        ]
        for key in job_keys(jobs):
            cache.put(key, {"not": "a sweep point"})
        with pytest.warns(CacheWarning):
            report = sweep_use_case(
                self.LEVELS, self.CONFIGS, scale=SCALE, cache=cache
            )
        assert report.ok
        assert report.cached == 0

    def test_telemetry_counters(self, tmp_path):
        cache_dir = tmp_path / "cache"
        telemetry = Telemetry.enabled()
        sweep_use_case(
            self.LEVELS,
            self.CONFIGS,
            scale=SCALE,
            cache=cache_dir,
            telemetry=telemetry,
        )
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["cache.misses"] == 2
        assert counters["cache.hits"] == 0
        assert counters["sweep.points_cached"] == 0
        telemetry = Telemetry.enabled()
        sweep_use_case(
            self.LEVELS,
            self.CONFIGS,
            scale=SCALE,
            cache=cache_dir,
            telemetry=telemetry,
        )
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["cache.hits"] == 2
        assert counters["cache.misses"] == 0
        assert counters["sweep.points_cached"] == 2
