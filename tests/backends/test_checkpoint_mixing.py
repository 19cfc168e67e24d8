"""Resume across backends: the sweep's checkpoint never blends fidelities.

A store written under one backend holds that backend's numbers.  The
backend is part of every point's canonical key, so resuming the sweep
under another backend recomputes its points instead of splicing e.g.
analytic estimates into a reference figure; resuming under the same
backend serves every stored point.
"""

import pytest

from repro.analysis.sweep import sweep_use_case
from repro.core.config import SystemConfig
from repro.service.cache import ResultCache
from repro.usecase.levels import level_by_name

BUDGET = 5_000


@pytest.fixture
def level():
    return level_by_name("3.1")


@pytest.fixture
def configs():
    return [SystemConfig(channels=2, freq_mhz=400.0)]


def _sweep(level, configs, store, **kwargs):
    return sweep_use_case(
        [level], configs, chunk_budget=BUDGET, cache=store, resume=True,
        **kwargs,
    )


class TestBackendMixingGuard:
    def test_same_backend_resume_allowed(self, tmp_path, level, configs):
        store = ResultCache(tmp_path / "store")
        first = _sweep(level, configs, store, backend="reference")
        resumed = _sweep(level, configs, store, backend="reference")
        assert resumed.cached == len(configs)
        assert resumed.points[0].access_time_ms == first.points[0].access_time_ms

    def test_distinct_backends_do_not_share_points(
        self, tmp_path, level, configs
    ):
        """Backend is part of the job key: a store holding the other
        backend's points recomputes (rather than reuses) them."""
        store = ResultCache(tmp_path / "store")
        ref = _sweep(level, configs, store, backend="reference")
        batch = _sweep(level, configs, store, backend="batch")
        assert batch.cached == 0
        # Bit-identical backends, but independently keyed entries.
        assert batch.points[0].access_time_ms == ref.points[0].access_time_ms
        assert len(store) == 2
