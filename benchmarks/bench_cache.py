"""Warm-cache replay speed and bit-identity on the Fig. 3 sweep.

Not a paper artifact -- this times the persistent content-addressed
result cache (:mod:`repro.service.cache`) on the workflow it exists
for: re-plotting a figure whose points were already simulated once.
The claims pinned here:

- a fully warm cache replays the Fig. 3 grid >= 10x faster than
  computing it (the warm run does no simulation at all -- only key
  hashing, file reads and pickle decode);
- every cache-served point is *bit-identical* to the freshly computed
  one (checked field by field with the differential-fuzzing
  comparator, the strictest equality the repo has);
- the hit/miss counters account for exactly the grid: a cold run is
  all misses, a warm run all hits, nothing unaccounted.

The speedup bound is algorithmic (a disk read vs a DRAM simulation),
not worker processes, so no CPU-count skip is needed.
"""

import time

from benchmarks.conftest import show
from repro.analysis.sweep import sweep_use_case
from repro.core.config import PAPER_CHANNEL_COUNTS, PAPER_FREQUENCIES_MHZ, SystemConfig
from repro.load.scaling import choose_scale
from repro.regression.fuzzer import _diff_exact
from repro.service.cache import ResultCache
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase

#: The Fig. 3 grid: 720p30 across the paper's channel counts and
#: clock frequencies.
LEVEL = level_by_name("3.1")


def _fig3_grid():
    return [
        SystemConfig(channels=m, freq_mhz=f)
        for f in PAPER_FREQUENCIES_MHZ
        for m in PAPER_CHANNEL_COUNTS
    ]


def _timed_sweep(configs, scale, cache):
    t0 = time.perf_counter()
    report = sweep_use_case([LEVEL], configs, scale=scale, cache=cache)
    return time.perf_counter() - t0, report


def test_warm_cache_replay_speed_and_bit_identity(budget, tmp_path):
    """cold vs warm Fig. 3: >= 10x faster, bit-identical, counters
    match the grid size exactly."""
    configs = _fig3_grid()
    scale = choose_scale(
        VideoRecordingUseCase(LEVEL).total_bytes_per_frame(), budget
    )
    cache = ResultCache(tmp_path / "cache")

    t_cold, cold = _timed_sweep(configs, scale, cache)
    t_warm, warm = _timed_sweep(configs, scale, cache)

    grid = len(configs)
    stats = cache.stats()
    assert cold.cached == 0
    assert warm.cached == grid, "warm run must be served entirely from cache"
    assert stats["misses"] == grid, "cold run must miss exactly once per point"
    assert stats["hits"] == grid, "warm run must hit exactly once per point"
    assert stats["writes"] == grid
    assert stats["corrupt"] == 0
    assert len(cache) == grid

    for fresh, cached in zip(cold, warm):
        assert (fresh.config, fresh.level) == (cached.config, cached.level)
        assert _diff_exact(fresh.result, cached.result) == [], (
            f"cache-served point {cached.config.channels}ch@"
            f"{cached.config.freq_mhz:g}MHz differs from the computed one"
        )
        assert cached.power == fresh.power

    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    show(
        "result cache on the Fig. 3 sweep",
        f"cold {t_cold * 1e3:.0f} ms ({grid} misses), "
        f"warm {t_warm * 1e3:.0f} ms ({grid} hits): {speedup:.1f}x, "
        "bit-identical on every point",
    )
    assert speedup >= 10.0, (
        f"expected a warm replay >= 10x faster than computing, "
        f"measured {speedup:.2f}x"
    )
