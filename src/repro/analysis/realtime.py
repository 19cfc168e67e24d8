"""Real-time requirement verdicts.

The paper's feasibility language has three levels:

- a configuration **fails** when the frame's memory access time
  exceeds the frame period outright (Fig. 3: 200 and 266 MHz
  single-channel are "clearly over the real-time requirement");
- it is **marginal** when it meets the raw requirement but cannot
  leave the 15 % data-processing margin the paper demands ("the memory
  access time cannot in reality be driven too close to real-time
  requirements ... some margin is needed also for data processing";
  Fig. 3 marks 333 MHz single-channel MARGINAL);
- it **passes** when it meets the requirement with the margin intact.

Fig. 5 draws failing configurations as zero-height bars and annotates
marginal ones.
"""

from __future__ import annotations

import enum
import math
import sys

from repro.errors import ConfigurationError

#: The paper's data-processing margin: 15 % of the frame period.
PAPER_MARGIN = 0.15

#: Relative width of the boundary snap: an access time within a few
#: ulps of a verdict threshold classifies as exactly *at* it.  Backends
#: that agree to within float rounding noise (the batch engine
#: reassociates sums the reference engine accumulates serially) must
#: agree on the verdict too -- without the snap, an access time one ulp
#: past the frame period flips feasible into FAIL.
BOUNDARY_REL_TOL = 4.0 * sys.float_info.epsilon


def _beyond(value: float, threshold: float) -> bool:
    """Strictly past ``threshold``, outside the boundary snap."""
    return value > threshold and not math.isclose(
        value, threshold, rel_tol=BOUNDARY_REL_TOL
    )


class RealTimeVerdict(enum.Enum):
    """Feasibility of a configuration against a frame-rate target."""

    PASS = "pass"
    MARGINAL = "marginal"
    FAIL = "fail"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value.upper()

    @property
    def feasible(self) -> bool:
        """Whether the raw real-time requirement is met at all."""
        return self is not RealTimeVerdict.FAIL


def realtime_verdict(
    access_time_ms: float,
    frame_period_ms: float,
    margin: float = PAPER_MARGIN,
) -> RealTimeVerdict:
    """Classify an access time against a frame period.

    >>> realtime_verdict(20.0, 33.3)
    <RealTimeVerdict.PASS: 'pass'>
    >>> realtime_verdict(30.0, 33.3)
    <RealTimeVerdict.MARGINAL: 'marginal'>
    >>> realtime_verdict(40.0, 33.3)
    <RealTimeVerdict.FAIL: 'fail'>
    """
    # Finiteness first: a NaN access time compares False against every
    # threshold below, which would fall through to PASS -- the one
    # verdict a corrupted measurement must never earn.
    if not math.isfinite(access_time_ms):
        raise ConfigurationError(
            f"access time must be finite, got {access_time_ms}"
        )
    if access_time_ms < 0:
        raise ConfigurationError(
            f"access time must be >= 0, got {access_time_ms}"
        )
    if not math.isfinite(frame_period_ms):
        raise ConfigurationError(
            f"frame period must be finite, got {frame_period_ms}"
        )
    if frame_period_ms <= 0:
        raise ConfigurationError(
            f"frame period must be positive, got {frame_period_ms}"
        )
    if not 0.0 <= margin < 1.0:
        raise ConfigurationError(f"margin must be in [0, 1), got {margin}")
    # Boundary classification uses the snapped comparison: an access
    # time exactly at (or within BOUNDARY_REL_TOL of) a threshold gets
    # the verdict of the threshold's feasible side, deterministically,
    # on every backend.  In particular ``access == frame_period`` is
    # always feasible, and with ``margin=0`` it is a PASS.
    if _beyond(access_time_ms, frame_period_ms):
        return RealTimeVerdict.FAIL
    if _beyond(access_time_ms, frame_period_ms * (1.0 - margin)):
        return RealTimeVerdict.MARGINAL
    return RealTimeVerdict.PASS
