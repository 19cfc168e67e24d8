"""Feasibility-oracle query latency over a warm cache.

Not a paper artifact -- this times the interactive query front door
(:mod:`repro.oracle`) on the workflow it exists for: answering
"can m channels at f MHz sustain this level?" from results a sweep
already paid for.  The claims pinned here:

- with a warm surface, the median query (grid hits plus interpolated
  off-grid points) is >= 100x faster than cold-simulating one
  reference point -- the oracle answers from memory, not simulation;
- every answer names its tier and carries an explicit error bound and
  a confidence interval that brackets its own estimate;
- an exact-tier answer is *bit-identical* to the corresponding
  ``sweep_use_case`` point (checked with the differential-fuzzing
  comparator, the strictest equality the repo has).

The speedup bound is algorithmic (a dict lookup or a two-point
interpolation vs a DRAM simulation), not worker processes, so no
CPU-count skip is needed.
"""

import statistics
import time

from benchmarks.conftest import show
from repro.analysis.sweep import simulate_use_case, sweep_use_case
from repro.core.config import (
    PAPER_CHANNEL_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    SystemConfig,
)
from repro.oracle import FeasibilityOracle, TIERS
from repro.regression.fuzzer import _diff_exact
from repro.service.cache import ResultCache
from repro.usecase.levels import level_by_name

#: The query mix: 720p30 against the paper grid, plus off-grid
#: frequencies that exercise the surrogate interpolation tier.
LEVEL = level_by_name("3.1")
OFFGRID_FREQS = (233.0, 300.0, 366.0, 500.0)


def _warm_oracle(tmp_path, budget):
    cache = ResultCache(tmp_path / "oracle-cache")
    grid = [
        SystemConfig(channels=m, freq_mhz=f)
        for m in PAPER_CHANNEL_COUNTS
        for f in PAPER_FREQUENCIES_MHZ
    ]
    sweep_use_case([LEVEL], grid, chunk_budget=budget, cache=cache)
    oracle = FeasibilityOracle(cache=cache, chunk_budget=budget)
    harvested = oracle.warm(LEVEL)
    assert harvested == len(grid)
    return oracle


def test_warm_query_latency_vs_cold_reference(tmp_path, budget):
    """Warm-oracle p50 is >= 100x faster than one cold reference sim."""
    oracle = _warm_oracle(tmp_path, budget)

    # The cost a caller would otherwise pay: simulate one off-grid
    # point from scratch on the reference backend.
    t0 = time.perf_counter()
    simulate_use_case(
        LEVEL,
        SystemConfig(channels=4, freq_mhz=366.0, backend="reference"),
        chunk_budget=budget,
    )
    t_ref = time.perf_counter() - t0

    queries = [(m, f) for m in PAPER_CHANNEL_COUNTS for f in PAPER_FREQUENCIES_MHZ]
    queries += [(m, f) for m in PAPER_CHANNEL_COUNTS for f in OFFGRID_FREQS]
    # Generous accuracy keeps every query on the warm tiers; the
    # latency being measured is the oracle's own, not a simulation's.
    answers, latencies = [], []
    for _ in range(5):
        for channels, freq in queries:
            answer = oracle.query(LEVEL, channels, freq, accuracy=0.5)
            answers.append(answer)
            latencies.append(answer.latency_s)
    p50 = statistics.median(latencies)

    for answer in answers:
        assert answer.tier in TIERS
        assert answer.error_bound >= 0.0
        assert answer.access_low_ms <= answer.access_time_ms <= answer.access_high_ms
        assert answer.power_low_mw <= answer.total_power_mw <= answer.power_high_mw

    tiers = {tier: sum(1 for a in answers if a.tier == tier) for tier in TIERS}
    show(
        "Oracle query latency (720p30, warm cache)",
        "\n".join(
            [
                f"cold reference point: {t_ref * 1e3:9.3f} ms",
                f"warm query p50:       {p50 * 1e6:9.3f} us "
                f"({t_ref / p50:,.0f}x faster)",
                f"warm query p95:       "
                f"{sorted(latencies)[int(0.95 * len(latencies))] * 1e6:9.3f} us",
                f"tier mix over {len(answers)} queries: "
                + ", ".join(f"{tier}={tiers[tier]}" for tier in TIERS),
            ]
        ),
    )
    assert p50 <= t_ref / 100.0


def test_exact_tier_is_bit_identical_to_sweep(tmp_path, budget):
    """accuracy=0 answers reproduce the sweep point bit for bit."""
    oracle = _warm_oracle(tmp_path, budget)
    answer = oracle.query(LEVEL, 2, 333.0, accuracy=0.0)
    assert answer.tier == "exact"
    assert answer.error_bound == 0.0
    fresh = sweep_use_case(
        [LEVEL],
        [SystemConfig(channels=2, freq_mhz=333.0)],
        chunk_budget=budget,
    )[0]
    assert _diff_exact(answer.point.result, fresh.result) == []
    assert answer.access_time_ms == fresh.access_time_ms
    assert answer.total_power_mw == fresh.total_power_mw
    assert answer.verdict is fresh.verdict
