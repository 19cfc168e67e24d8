"""End-to-end tests for :class:`repro.oracle.api.FeasibilityOracle`."""

import dataclasses

import pytest

import repro.analysis.sweep as sweep_module
import repro.keys as keys_module
import repro.oracle.api as api_module
from repro.analysis.sweep import point_key, sweep_use_case
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError
from repro.oracle import FeasibilityOracle
from repro.regression.fuzzer import _diff_exact
from repro.resilience.report import FAILURE_KIND_TIMEOUT, JobFailure
from repro.service.cache import ResultCache
from repro.telemetry import Telemetry
from repro.usecase.levels import level_by_name
from repro.workloads.registry import get_workload, resolve_workload

LEVEL = level_by_name("3.1")
SCALE = 1 / 256
GRID_FREQS = (200.0, 266.0, 333.0, 400.0)


def _warm_cache(directory, channels=(1, 2), backend="batch", workload=None):
    cache = ResultCache(directory)
    configs = [
        SystemConfig(channels=m, freq_mhz=f)
        for m in channels
        for f in GRID_FREQS
    ]
    sweep_use_case(
        [LEVEL], configs, scale=SCALE, cache=cache, backend=backend,
        workload=workload,
    )
    return cache


@pytest.fixture
def warm_oracle(tmp_path):
    cache = _warm_cache(tmp_path / "cache")
    return FeasibilityOracle(cache=cache, scale=SCALE)


class TestHarvest:
    def test_warm_counts_grid_points(self, warm_oracle):
        assert warm_oracle.warm(LEVEL) == 2 * len(GRID_FREQS)

    def test_cold_store_harvests_nothing(self, tmp_path):
        oracle = FeasibilityOracle(cache=tmp_path / "empty", scale=SCALE)
        assert oracle.warm(LEVEL) == 0

    def test_mismatched_scale_harvests_nothing(self, tmp_path):
        # scale is part of the canonical key: points computed under a
        # different simulation context must not seed the surface.
        cache = _warm_cache(tmp_path / "cache")
        oracle = FeasibilityOracle(cache=cache, scale=SCALE / 2)
        assert oracle.warm(LEVEL) == 0

    def test_workload_keying_separates_surfaces(self, tmp_path):
        # A cache warmed only under vvc_encoder must not answer
        # default-workload queries (canonical keys carry workload
        # identity), and vice versa the vvc surface must be warm.
        cache = _warm_cache(tmp_path / "cache", workload="vvc_encoder")
        oracle = FeasibilityOracle(cache=cache, scale=SCALE)
        assert oracle.warm(LEVEL) == 0
        assert oracle.warm(LEVEL, workload="vvc_encoder") == 2 * len(GRID_FREQS)

    def test_bound_params_separate_surfaces(self, tmp_path):
        # Same workload name, different resolved parameters: the
        # variant gets its own surface and harvests nothing from a
        # cache warmed under the defaults.
        cache = _warm_cache(tmp_path / "cache", workload="vvc_encoder")
        oracle = FeasibilityOracle(cache=cache, scale=SCALE)
        default = resolve_workload("vvc_encoder")
        variant = default.with_params(ref_lists=1)
        assert oracle.warm(LEVEL, workload=default) == 2 * len(GRID_FREQS)
        assert oracle.warm(LEVEL, workload=variant) == 0
        assert oracle.surface_for(LEVEL, variant) is not oracle.surface_for(
            LEVEL, default
        )

    def test_spec_structure_separates_surfaces(self, tmp_path):
        # Same name and parameters, different traffic structure: a
        # separate surface that harvests nothing from the original's
        # points.
        cache = _warm_cache(tmp_path / "cache", workload="vvc_encoder")
        oracle = FeasibilityOracle(cache=cache, scale=SCALE)
        spec = get_workload("vvc_encoder")
        restructured = dataclasses.replace(
            spec,
            derived=spec.derived[:-1]
            + (("stream_bytes", "max(32, int(v_frame / 8) + 16)"),),
        )
        assert restructured.name == spec.name
        assert restructured.structure_digest() != spec.structure_digest()
        assert oracle.warm(LEVEL, workload=spec) == 2 * len(GRID_FREQS)
        assert oracle.warm(LEVEL, workload=restructured) == 0
        assert oracle.surface_for(LEVEL, restructured) is not oracle.surface_for(
            LEVEL, spec
        )

    def test_negative_entry_is_not_harvested(self, tmp_path):
        # A quarantined point is stored as its failure, not as a point:
        # the surface must skip it, not interpolate through it.
        cache = _warm_cache(tmp_path / "cache")
        config = SystemConfig(channels=2, freq_mhz=GRID_FREQS[0], backend="batch")
        cache.put(
            point_key(LEVEL, config, scale=SCALE),
            JobFailure.from_quarantine(0, "job", FAILURE_KIND_TIMEOUT, "hung"),
        )
        oracle = FeasibilityOracle(cache=cache, scale=SCALE)
        assert oracle.warm(LEVEL) == 2 * len(GRID_FREQS) - 1


class TestQueryTiers:
    def test_grid_hit_answers_exact_from_surface(self, warm_oracle):
        answer = warm_oracle.query(LEVEL, 2, 266.0)
        assert answer.tier == "exact"
        assert answer.error_bound == 0.0
        assert answer.access_low_ms == answer.access_time_ms == answer.access_high_ms
        assert answer.verdict_certain
        assert answer.escalations == 0
        assert answer.latency_s >= 0.0

    def test_exact_tier_is_bit_identical_to_sweep(self, warm_oracle):
        answer = warm_oracle.query(LEVEL, 2, 266.0, accuracy=0.0)
        fresh = sweep_use_case(
            [LEVEL],
            [SystemConfig(channels=2, freq_mhz=266.0)],
            scale=SCALE,
            backend="batch",
        )[0]
        assert _diff_exact(answer.point.result, fresh.result) == []
        assert answer.access_time_ms == fresh.access_time_ms
        assert answer.total_power_mw == fresh.total_power_mw
        assert answer.verdict is fresh.verdict

    def test_offgrid_interpolates_on_surrogate_tier(self, warm_oracle):
        answer = warm_oracle.query(LEVEL, 2, 300.0, accuracy=0.5)
        assert answer.tier == "surrogate"
        assert answer.point is None
        # Never masquerades as exact: positive bound, real interval.
        assert answer.error_bound > 0.0
        assert answer.access_low_ms < answer.access_high_ms
        assert (
            answer.access_low_ms <= answer.access_time_ms <= answer.access_high_ms
        )

    def test_surrogate_interval_brackets_the_truth(self, warm_oracle):
        answer = warm_oracle.query(LEVEL, 2, 300.0, accuracy=0.5)
        truth = sweep_use_case(
            [LEVEL],
            [SystemConfig(channels=2, freq_mhz=300.0)],
            scale=SCALE,
            backend="batch",
        )[0]
        assert answer.access_low_ms <= truth.access_time_ms <= answer.access_high_ms

    def test_tight_accuracy_escalates_past_surrogate(self, warm_oracle):
        answer = warm_oracle.query(LEVEL, 2, 300.0, accuracy=0.001)
        assert answer.tier == "exact"
        assert answer.error_bound == 0.0
        assert answer.escalations == 2

    def test_cold_cache_screens_on_analytic(self, tmp_path):
        oracle = FeasibilityOracle(cache=tmp_path / "cache", scale=SCALE)
        answer = oracle.query(LEVEL, 4, 300.0, accuracy=0.5)
        assert answer.tier == "analytic"
        assert answer.error_bound == pytest.approx(0.15)
        assert answer.escalations == 0
        assert answer.access_low_ms < answer.access_time_ms < answer.access_high_ms

    def test_cold_cache_degrades_analytic_then_exact(self, tmp_path):
        oracle = FeasibilityOracle(cache=tmp_path / "cache", scale=SCALE)
        screening = oracle.query(LEVEL, 2, 300.0, accuracy=0.5)
        exact = oracle.query(LEVEL, 2, 300.0, accuracy=0.0)
        assert screening.tier == "analytic"
        assert exact.tier == "exact"
        # The analytic estimate is within its tolerance of the truth.
        assert screening.access_low_ms <= exact.access_time_ms
        assert exact.access_time_ms <= screening.access_high_ms

    def test_exact_answers_fold_back_into_cache_and_surface(self, tmp_path):
        cache_dir = tmp_path / "cache"
        oracle = FeasibilityOracle(cache=cache_dir, scale=SCALE)
        first = oracle.query(LEVEL, 2, 400.0, accuracy=0.0)
        assert first.escalations == 1  # no surface data -> analytic rejected
        # Same oracle: the computed point now sits on the surface.
        second = oracle.query(LEVEL, 2, 400.0, accuracy=0.0)
        assert second.escalations == 0
        assert second.access_time_ms == first.access_time_ms
        # Fresh oracle over the same cache: harvested from disk.
        rebuilt = FeasibilityOracle(cache=cache_dir, scale=SCALE)
        assert rebuilt.warm(LEVEL) == 1
        third = rebuilt.query(LEVEL, 2, 400.0, accuracy=0.0)
        assert third.tier == "exact"
        assert third.access_time_ms == first.access_time_ms


class TestPointKeys:
    """Each point is keyed once per oracle, under the canonical key."""

    @pytest.fixture
    def swept(self, monkeypatch):
        """(config, keys handed over) of every sweep the oracle runs."""
        calls = []
        real = api_module.sweep_use_case

        def recording(levels, configs, *args, **kwargs):
            calls.append((configs[0], kwargs.get("_keys")))
            return real(levels, configs, *args, **kwargs)

        monkeypatch.setattr(api_module, "sweep_use_case", recording)
        return calls

    @pytest.mark.parametrize("workload", [None, "vvc_encoder"])
    @pytest.mark.parametrize("exact_backend", ["batch", "reference"])
    def test_memo_key_is_the_canonical_point_key(
        self, tmp_path, swept, workload, exact_backend
    ):
        oracle = FeasibilityOracle(
            cache=tmp_path / "cache", scale=SCALE, exact_backend=exact_backend
        )
        screening = oracle.query(LEVEL, 2, 300.0, workload=workload)
        again = oracle.query(LEVEL, 2, 300.0, workload=workload)
        exact = oracle.query(LEVEL, 2, 300.0, accuracy=0.0, workload=workload)
        assert (screening.tier, again.tier, exact.tier) == (
            "analytic", "analytic", "exact",
        )
        assert [config.backend for config, _ in swept] == [
            "analytic", "analytic", exact_backend,
        ]
        for config, keys in swept:
            assert keys == [
                point_key(LEVEL, config, scale=SCALE, workload=workload)
            ]
        assert again.to_json() == screening.to_json()

    def test_repeated_point_projects_its_config_once(
        self, tmp_path, monkeypatch
    ):
        oracle = FeasibilityOracle(cache=tmp_path / "cache", scale=SCALE)
        oracle.warm(LEVEL)
        projected = []
        real = sweep_module.canonical_key

        def counting(description, *args, **kwargs):
            projected.append(description["config"])
            return real(description, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "canonical_key", counting)
        for _ in range(3):
            oracle.query(LEVEL, 4, 300.0)
        assert len(projected) == 1
        assert oracle.cache.stats()["hits"] == 2

    def test_engine_version_bump_rekeys_and_misses(
        self, tmp_path, swept, monkeypatch
    ):
        oracle = FeasibilityOracle(cache=tmp_path / "cache", scale=SCALE)
        oracle.query(LEVEL, 4, 300.0)
        oracle.query(LEVEL, 4, 300.0)
        assert oracle.cache.stats()["hits"] == 1
        monkeypatch.setattr(keys_module, "ENGINE_VERSION", "999-test")
        oracle.query(LEVEL, 4, 300.0)
        stats = oracle.cache.stats()
        assert (stats["hits"], stats["misses"], stats["writes"]) == (1, 2, 2)
        (_, first), _, (config, bumped) = swept
        assert bumped != first
        assert bumped == [point_key(LEVEL, config, scale=SCALE)]

    def test_memo_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(api_module, "POINT_KEY_MEMO_SIZE", 2)
        oracle = FeasibilityOracle(cache=tmp_path / "cache", scale=SCALE)
        for freq in (300.0, 310.0, 320.0):
            oracle.query(LEVEL, 4, freq)
        assert [memo[2] for memo in oracle._point_keys] == [310.0, 320.0]


class TestValidation:
    @pytest.mark.parametrize("accuracy", [-0.1, float("nan"), float("inf")])
    def test_bad_accuracy_refused(self, warm_oracle, accuracy):
        with pytest.raises(ConfigurationError):
            warm_oracle.query(LEVEL, 2, 300.0, accuracy=accuracy)

    def test_bad_channels_refused(self, warm_oracle):
        with pytest.raises(ConfigurationError):
            warm_oracle.query(LEVEL, 3, 300.0)

    def test_bad_frequency_refused(self, warm_oracle):
        with pytest.raises(ConfigurationError):
            warm_oracle.query(LEVEL, 2, 50.0)

    def test_level_resolved_by_name(self, warm_oracle):
        assert warm_oracle.query("3.1", 2, 300.0).level == "3.1"


class TestTelemetry:
    def test_counters_and_latency(self, tmp_path):
        cache = _warm_cache(tmp_path / "cache")
        telemetry = Telemetry.enabled()
        oracle = FeasibilityOracle(
            cache=cache, scale=SCALE, telemetry=telemetry
        )
        oracle.query(LEVEL, 2, 300.0, accuracy=0.5)   # surrogate
        oracle.query(LEVEL, 2, 266.0)                 # exact (surface)
        oracle.query(LEVEL, 4, 300.0, accuracy=0.5)   # analytic (no 4ch data)
        registry = telemetry.registry
        assert registry.counter("oracle.queries").value == 3
        assert registry.counter("oracle.tier_hits.surrogate").value == 1
        assert registry.counter("oracle.tier_hits.exact").value == 1
        assert registry.counter("oracle.tier_hits.analytic").value == 1
        assert registry.histogram("oracle.latency_seconds").count == 3

    def test_counters_pre_registered_at_zero(self):
        telemetry = Telemetry.enabled()
        FeasibilityOracle(telemetry=telemetry)
        assert telemetry.registry.counter("oracle.queries").value == 0
        assert telemetry.registry.counter("oracle.escalations").value == 0

    def test_escalations_counted(self, tmp_path):
        telemetry = Telemetry.enabled()
        oracle = FeasibilityOracle(
            cache=tmp_path / "cache", scale=SCALE, telemetry=telemetry
        )
        oracle.query(LEVEL, 2, 300.0, accuracy=0.0)  # analytic rejected
        assert telemetry.registry.counter("oracle.escalations").value == 1
