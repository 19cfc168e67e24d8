"""The sweep's checkpoint: the result cache as the store of completed
points, and sweep resume through it.

A sweep writes each point to the store as it finishes, so an
interrupted sweep re-run against the same store recomputes only the
missing points; a damaged entry is a warned recompute, never an error;
and a quarantined point is a negative entry that ``resume=True`` serves
as its recorded failure.
"""

import hashlib
import json
import zlib

import pytest

import repro.analysis.sweep as sweep_mod
from repro.analysis.sweep import (
    SweepPoint,
    point_key,
    simulate_use_case,
    sweep_use_case,
)
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError
from repro.resilience import faults
from repro.resilience.report import (
    FAILURE_KIND_ERROR,
    FAILURE_KIND_TIMEOUT,
    JobFailure,
)
from repro.service.cache import CacheWarning, ResultCache
from repro.usecase.levels import level_by_name

BUDGET = 2000
LEVEL = level_by_name("3.1")
CONFIGS = [SystemConfig(channels=m) for m in (1, 2, 4)]


@pytest.fixture
def simulated(monkeypatch):
    """The configurations this test's sweeps actually simulate."""
    calls = []
    real = simulate_use_case

    def counting(level, config, *args, **kwargs):
        calls.append(config.channels)
        return real(level, config, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "simulate_use_case", counting)
    return calls


def _key(config):
    return point_key(LEVEL, config, chunk_budget=BUDGET)


def _quarantine():
    return JobFailure.from_quarantine(
        0, "job", FAILURE_KIND_TIMEOUT, "hung past its deadline"
    )


class TestStore:
    def test_missing_file_loads_empty(self, tmp_path):
        store = ResultCache(tmp_path / "none")
        assert len(store) == 0
        assert store.get(_key(CONFIGS[0])) is None
        # Resuming from a store that was never written computes every
        # point and creates the store on the way.
        report = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store, resume=True
        )
        assert report.ok and report.cached == 0
        assert len(store) == len(CONFIGS)

    def test_round_trip(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        point = simulate_use_case(LEVEL, CONFIGS[0], chunk_budget=BUDGET)
        store.put(_key(CONFIGS[0]), point, coords={"channels": 1})
        assert store.get(_key(CONFIGS[0])) == point
        assert len(store) == 1

    def test_key_is_stable_and_distinct(self):
        assert _key(CONFIGS[0]) == _key(SystemConfig(channels=1))
        keys = {_key(config) for config in CONFIGS}
        assert len(keys) == len(CONFIGS)
        # The budget is part of the job, so it is part of the key.
        assert _key(CONFIGS[0]) != point_key(
            LEVEL, CONFIGS[0], chunk_budget=BUDGET * 2
        )

    def test_truncated_tail_is_skipped_with_warning(self, tmp_path, simulated):
        store = ResultCache(tmp_path / "store")
        fresh = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store
        )
        # Killed mid-write: only the first half of the entry is on disk.
        path = store.entry_path(_key(CONFIGS[2]))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        simulated.clear()
        with pytest.warns(CacheWarning, match="recomputed"):
            resumed = sweep_use_case(
                [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store,
                resume=True,
            )
        assert simulated == [4]  # exactly the torn point
        assert resumed.cached == 2
        assert list(resumed) == list(fresh)

    def test_undecodable_payload_is_skipped(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        key = _key(CONFIGS[0])
        store.put(key, {"x": 1})
        # A header whose digest matches a payload that is not a pickle
        # (an entry from an incompatible tree): skipped, not raised.
        path = store.entry_path(key)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        blob = zlib.compress(b"not a pickle")
        header["sha256"] = hashlib.sha256(blob).hexdigest()
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.warns(CacheWarning, match="unpickle"):
            assert store.get(key) is None
        assert not path.exists()

    def test_clear_removes_file(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store)
        assert len(store) == len(CONFIGS)
        store.clear()
        assert len(store) == 0
        assert list(store.directory.iterdir()) == []
        store.clear()  # idempotent


class TestSweepResume:
    def test_checkpoint_records_points_as_they_finish(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        report = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store
        )
        assert report.ok and report.cached == 0
        assert len(store) == len(CONFIGS)
        # Each entry's header is one line of greppable plain JSON.
        coords = [
            json.loads(path.read_bytes().split(b"\n", 1)[0])["coords"]
            for path in sorted(store.directory.glob("*.rc"))
        ]
        assert {c["channels"] for c in coords} == {1, 2, 4}

    def test_resume_skips_completed_points(self, tmp_path, simulated):
        store = ResultCache(tmp_path / "store")
        first = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store
        )
        simulated.clear()
        second = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store, resume=True
        )
        assert simulated == []  # nothing recomputed
        assert second.cached == len(CONFIGS)
        assert list(second) == list(first)

    def test_partial_checkpoint_recomputes_only_missing(
        self, tmp_path, simulated
    ):
        store = ResultCache(tmp_path / "store")
        sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store)
        # Drop the middle point, as if the run had been killed before
        # writing it.
        store.entry_path(_key(CONFIGS[1])).unlink()
        simulated.clear()
        resumed = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store, resume=True
        )
        assert simulated == [2]  # exactly the missing point
        assert resumed.cached == 2
        # Bit-identical to an uninterrupted sequential sweep.
        fresh = sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET)
        assert list(resumed) == list(fresh)

    def test_changed_parameters_share_nothing(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store)
        # A different budget is a different job: nothing is served.
        report = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET * 2, cache=store, resume=True
        )
        assert report.cached == 0

    def test_sweep_without_checkpoint_is_unchanged(self):
        report = sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET)
        assert report.ok
        assert report.cached == 0 and report.resumed == 0
        assert [p.config.channels for p in report] == [1, 2, 4]

    def test_resume_requires_a_store(self):
        with pytest.raises(ConfigurationError, match="cache"):
            sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET, resume=True)


class TestNegativeEntries:
    def test_resume_serves_the_recorded_failure(self, tmp_path, simulated):
        store = ResultCache(tmp_path / "store")
        store.put(_key(CONFIGS[1]), _quarantine())
        report = sweep_use_case(
            [LEVEL],
            CONFIGS,
            chunk_budget=BUDGET,
            cache=store,
            resume=True,
            strict=False,
        )
        assert simulated == [1, 4]  # the quarantined point is not retried
        assert report.resumed == 1
        assert [p.config.channels for p in report] == [1, 4]
        (failure,) = report.failures
        assert failure.kind == FAILURE_KIND_TIMEOUT
        assert failure.index == 1
        assert failure.coords["channels"] == 2
        assert "1 quarantine(s) restored from cache" in report.summary()

    def test_without_resume_negative_entry_is_retried_and_overwritten(
        self, tmp_path, simulated
    ):
        store = ResultCache(tmp_path / "store")
        store.put(_key(CONFIGS[1]), _quarantine())
        report = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store
        )
        assert simulated == [1, 2, 4]  # a silent miss: retried
        assert report.ok and report.resumed == 0 and report.cached == 0
        # The new outcome replaced the negative entry...
        assert isinstance(store.get(_key(CONFIGS[1])), SweepPoint)
        # ...so a resume now serves the point, not the old failure.
        resumed = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store, resume=True
        )
        assert resumed.ok and resumed.cached == len(CONFIGS)
        assert list(resumed) == list(report)

    @pytest.mark.parametrize("resume", [False, True])
    def test_hits_count_only_served_entries(self, tmp_path, resume):
        store = ResultCache(tmp_path / "store")
        sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store)
        store.put(_key(CONFIGS[1]), _quarantine())
        before = store.stats()
        report = sweep_use_case(
            [LEVEL],
            CONFIGS,
            chunk_budget=BUDGET,
            cache=store,
            resume=resume,
            strict=False,
        )
        hits = store.stats()["hits"] - before["hits"]
        misses = store.stats()["misses"] - before["misses"]
        assert hits == report.cached + report.resumed
        assert (hits, misses) == ((3, 0) if resume else (2, 1))

    def test_deterministic_retry_removes_the_stale_quarantine(
        self, tmp_path, simulated
    ):
        store = ResultCache(tmp_path / "store")
        store.put(_key(CONFIGS[1]), _quarantine())
        # Retried without resume, the point now ends in a deterministic
        # error, which is never stored...
        with faults.injected(faults.FaultPlan(site="sweep", index=1, once=False)):
            retried = sweep_use_case(
                [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store, strict=False
            )
        (failure,) = retried.failures
        assert failure.kind == FAILURE_KIND_ERROR
        # ...so the old quarantine goes with it: a resume recomputes the
        # point instead of serving the stale timeout.
        assert not store.contains(_key(CONFIGS[1]))
        del simulated[:]
        resumed = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store, resume=True
        )
        assert simulated == [2]
        assert resumed.ok and resumed.resumed == 0
        assert resumed.cached == len(CONFIGS) - 1
