"""Parallel execution layer: in-process vs pooled sweep.

Not a paper artifact -- this times the :mod:`repro.parallel` layer on
a Fig. 3-shaped grid (level 3.1, 720p@30, over every paper clock and
channel count) and pins its two contracts:

- the pooled sweep is *bit-identical* to the in-process one, point by
  point, and
- on a machine with enough cores it is actually faster (>= 2x with
  four or more workers).

The sweep point is the one unit of parallel work, so the pool fans
whole points out; each point's channels are simulated together in the
worker that owns it.  The speedup assertion is skipped on small
machines and wherever the process pool is unavailable (the layer then
falls back in-process by design); the identity assertion always runs.
"""

import time

import pytest

from benchmarks.conftest import show
from repro.analysis.sweep import sweep_use_case
from repro.core.config import (
    PAPER_CHANNEL_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    SystemConfig,
)
from repro.parallel import available_cpus, pool_supported
from repro.usecase.levels import level_by_name

#: The Fig. 3 grid: every paper clock on every paper channel count.
LEVEL = level_by_name("3.1")
CONFIGS = [
    SystemConfig(channels=channels, freq_mhz=freq)
    for freq in PAPER_FREQUENCIES_MHZ
    for channels in PAPER_CHANNEL_COUNTS
]

#: Workers for the pooled benchmarks: one per CPU, and at least two so
#: the pool actually engages.
POOL_WORKERS = max(2, available_cpus())


def _sweep(budget, workers=None):
    return list(
        sweep_use_case([LEVEL], CONFIGS, chunk_budget=budget, workers=workers)
    )


def test_sequential_sweep(benchmark, budget):
    """Baseline: the grid's points simulated in-process."""
    points = benchmark(_sweep, budget)
    assert len(points) == len(CONFIGS)
    show(
        "in-process Fig. 3 grid",
        f"{len(points)} points, 3.1 on 1-8 channels  [workers=1]",
    )


@pytest.mark.skipif(not pool_supported(), reason="process pool unavailable")
def test_pooled_sweep(benchmark, budget):
    """Pooled run: the same points fanned over worker processes.

    Asserts bit-identity against the in-process baseline on every
    machine; speed is what the benchmark clock records.
    """
    baseline = _sweep(budget)
    points = benchmark(_sweep, budget, workers=POOL_WORKERS)
    assert points == baseline
    show(
        "pooled Fig. 3 grid",
        f"{len(points)} points, bit-identical  [workers={POOL_WORKERS}]",
    )


@pytest.mark.skipif(not pool_supported(), reason="process pool unavailable")
def test_pooled_sweep_speedup(budget):
    """Wall-clock speedup of the pooled sweep over the in-process one.

    The >= 2x acceptance bound only binds on machines with >= 4 CPUs;
    elsewhere the run still exercises the pool end to end and reports
    the measured ratio.
    """
    t0 = time.perf_counter()
    sequential = _sweep(budget)
    t_seq = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = _sweep(budget, workers=POOL_WORKERS)
    t_par = time.perf_counter() - t0

    assert pooled == sequential
    speedup = t_seq / t_par if t_par > 0 else float("inf")
    show(
        "pooled sweep speedup",
        f"in-process {t_seq * 1e3:.0f} ms, pooled {t_par * 1e3:.0f} ms "
        f"with {POOL_WORKERS} workers on {available_cpus()} CPUs: "
        f"{speedup:.2f}x",
    )
    if available_cpus() >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {POOL_WORKERS} workers on "
            f"{available_cpus()} CPUs, measured {speedup:.2f}x"
        )
