"""Every in-process fallback reason yields identical results.

``parallel_map`` promises that abandoning the pool never changes the
answer -- only a :class:`~repro.parallel.PoolFallbackWarning` tells
the caller the pool was lost.  The three documented fallback
reasons are pinned here, each against real simulations parametrized
over all three backends:

- the mapped function cannot cross the process boundary (a lambda);
- the job items cannot cross the process boundary;
- the pool itself fails to start (``OSError`` from the executor).
"""

import pickle

import pytest

import repro.parallel as parallel_mod
from repro.analysis.sweep import simulate_use_case
from repro.core.config import SystemConfig
from repro.parallel import PoolFallbackWarning, parallel_map
from repro.resilience.retry import NO_RETRY
from repro.usecase.levels import level_by_name

ALL_BACKENDS = ["reference", "batch", "analytic"]

BUDGET = 2000
LEVEL = level_by_name("3.1")


def _point(config):
    return simulate_use_case(LEVEL, config, chunk_budget=BUDGET)


class UnpicklableConfig(SystemConfig):
    """A config that refuses to cross the process boundary."""

    def __reduce__(self):
        raise pickle.PicklingError("deliberately unpicklable test config")


def _configs(backend, cls=SystemConfig):
    return [cls(channels=m, backend=backend) for m in (1, 2)]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_unpicklable_function_falls_back_identically(backend):
    configs = _configs(backend)
    baseline = [_point(config) for config in configs]
    unpicklable_fn = lambda config: _point(config)  # noqa: E731
    with pytest.warns(
        PoolFallbackWarning, match="cannot cross the process boundary"
    ):
        out = parallel_map(unpicklable_fn, configs, workers=2)
    assert out == baseline


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_unpicklable_items_fall_back_identically(backend):
    configs = _configs(backend, cls=UnpicklableConfig)
    baseline = [_point(config) for config in configs]
    with pytest.warns(PoolFallbackWarning, match="PicklingError"):
        out = parallel_map(_point, configs, workers=2, retry=NO_RETRY)
    assert out == baseline


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_pool_start_failure_falls_back_identically(backend, monkeypatch):
    def _broken_pool(*args, **kwargs):
        raise OSError("pool start refused (test)")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _broken_pool)
    configs = _configs(backend)
    baseline = [_point(config) for config in configs]
    with pytest.warns(PoolFallbackWarning, match="OSError"):
        out = parallel_map(_point, configs, workers=2, retry=NO_RETRY)
    assert out == baseline
