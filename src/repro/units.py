"""Time and clock conversions used throughout the simulator.

DRAM timings are quoted in nanoseconds and resolve to whole interface
clock cycles; the paper's Figs. 3/4 plot access time in milliseconds
against a per-frame real-time budget.  Keeping the conversions here
gives every experiment the same rounding rule (:func:`ns_to_cycles`).

All helpers are plain functions over ``float``/``int`` so they can be
used in performance-sensitive inner loops without object overhead.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time.
# ---------------------------------------------------------------------------

NS_PER_MS = 10**6


def ns_to_ms(ns: float) -> float:
    """Convert nanoseconds to milliseconds (Fig. 3/4 plot access time in ms)."""
    return ns / NS_PER_MS


def clock_period_ns(freq_mhz: float) -> float:
    """Return the clock period in nanoseconds for a frequency in MHz.

    >>> clock_period_ns(200.0)
    5.0
    """
    if freq_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_mhz} MHz")
    return 1000.0 / freq_mhz


def ns_to_cycles(ns: float, freq_mhz: float) -> int:
    """Convert a duration in ns to a (ceiling) number of clock cycles.

    DRAM timing constraints expressed in nanoseconds always round *up*
    to whole interface clock cycles — a controller cannot issue a
    command a fraction of a cycle early.

    >>> ns_to_cycles(15.0, 200.0)   # 15 ns at a 5 ns period
    3
    >>> ns_to_cycles(15.0, 266.0)   # 15 ns at ~3.76 ns -> 4 cycles
    4
    """
    if ns <= 0:
        return 0
    period = clock_period_ns(freq_mhz)
    cycles = int(ns / period)
    if cycles * period < ns - 1e-9:
        cycles += 1
    return cycles
