"""Backend speedup and parity on the Fig. 3 frequency sweep.

Not a paper artifact -- this times the pluggable simulation backends
(:mod:`repro.backends`) against each other on the paper's Fig. 3 axis
(720p30 frame, single channel, 200-533 MHz) and pins their contracts:

- ``batch`` (closed-form batching over a segment decode cached across
  sweep points) is >= 10x faster than ``reference`` on the sweep while
  staying bit-identical on every compared field;
- ``analytic`` (closed form) lands within its documented 15 %
  access-time tolerance at a fraction of the cost.

The speedup bounds bind everywhere: they are algorithmic (fewer loop
iterations), not worker processes, so no CPU-count skip is needed.
"""

import time

from benchmarks.conftest import show
from repro.core.config import PAPER_FREQUENCIES_MHZ, SystemConfig
from repro.core.system import MultiChannelMemorySystem
from repro.load.model import VideoRecordingLoadModel
from repro.load.scaling import choose_scale
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase

#: The Fig. 3 workload: one 720p30 frame on a single channel.
LEVEL = level_by_name("3.1")

#: Documented analytic access-time tolerance (docs/architecture.md).
ANALYTIC_TOLERANCE = 0.15


def _frame_transactions(budget):
    use_case = VideoRecordingUseCase(LEVEL)
    load = VideoRecordingLoadModel(use_case)
    scale = choose_scale(use_case.total_bytes_per_frame(), budget)
    return load.generate_frame(scale=scale), scale


def _sweep(txns, scale, backend):
    """Run the Fig. 3 frequency axis under ``backend``; return
    (elapsed seconds, results in frequency order)."""
    results = []
    t0 = time.perf_counter()
    for freq in PAPER_FREQUENCIES_MHZ:
        config = SystemConfig(channels=1, freq_mhz=freq, backend=backend)
        results.append(MultiChannelMemorySystem(config).run(txns, scale=scale))
    return time.perf_counter() - t0, results


def test_batch_backend_speedup_and_bit_identity(budget):
    """batch vs reference: >= 10x on the sweep, bit-identical results.

    The cross-point decode cache is what the sweep shape buys: all six
    frequency points share one segment decode of the frame's access
    stream, so only the frequency-dependent timing recurrences re-run.
    """
    from repro.backends.batch import clear_decode_cache

    txns, scale = _frame_transactions(budget)
    _sweep(txns, scale, "reference")  # warm caches before timing
    t_ref, ref = _sweep(txns, scale, "reference")
    clear_decode_cache()
    _sweep(txns, scale, "batch")  # warm: first point pays the decode
    t_batch, batch = _sweep(txns, scale, "batch")

    for r, b in zip(ref, batch):
        assert b.merged_counters().as_dict() == r.merged_counters().as_dict()
        assert b.access_time_ms == r.access_time_ms
        for ch_r, ch_b in zip(r.channels, b.channels):
            assert ch_b.finish_cycle == ch_r.finish_cycle
            assert ch_b.bank_accesses == ch_r.bank_accesses
            assert ch_b.states == ch_r.states

    speedup = t_ref / t_batch if t_batch > 0 else float("inf")
    show(
        "batch backend on the Fig. 3 sweep",
        f"reference {t_ref * 1e3:.0f} ms, batch {t_batch * 1e3:.0f} ms: "
        f"{speedup:.2f}x, bit-identical on all six points",
    )
    assert speedup >= 10.0, (
        f"expected >= 10x over the reference engine, measured {speedup:.2f}x"
    )


def test_analytic_backend_tolerance(budget):
    """analytic vs reference: within the documented 15 % tolerance."""
    txns, scale = _frame_transactions(budget)
    t_ref, ref = _sweep(txns, scale, "reference")
    t_ana, ana = _sweep(txns, scale, "analytic")

    worst_dev = 0.0
    for r, a in zip(ref, ana):
        counters_r, counters_a = r.merged_counters(), a.merged_counters()
        assert counters_a.reads == counters_r.reads
        assert counters_a.writes == counters_r.writes
        dev = abs(a.access_time_ms - r.access_time_ms) / r.access_time_ms
        worst_dev = max(worst_dev, dev)
    assert worst_dev < ANALYTIC_TOLERANCE, (
        f"analytic deviates {worst_dev:.2%}, documented tolerance is "
        f"{ANALYTIC_TOLERANCE:.0%}"
    )

    show(
        "analytic backend on the Fig. 3 sweep",
        f"reference {t_ref * 1e3:.0f} ms, analytic {t_ana * 1e3:.0f} ms "
        f"({t_ref / max(t_ana, 1e-9):.0f}x), worst deviation {worst_dev:.2%}",
    )
