"""Paced (real-time) arrival of the use-case traffic.

The default load model is *backlogged*: every transaction is ready at
t=0 and the measured quantity is the pure memory access time (the
paper's Fig. 3/4 metric).  A real camcorder is different: the sensor
delivers lines at its own pace, stages run concurrently across the
frame period, and the memory sees request bursts separated by compute
gaps.  Those gaps are exactly where the paper's immediate power-down
policy earns its keep ("bank clusters go to power down states after
the first idle clock cycle").

:func:`pace_transactions` rewrites a frame's transaction stream with
arrival times that spread each *stage's* traffic uniformly over a
window of the frame period.  With ``duty`` < 1 the stream finishes its
injection early in each window, creating idle gaps; the engine's
power-down machinery (and the tXP exit penalty) then become active
*within* the frame rather than only after it.

This module is an extension beyond the paper's evaluated setup,
supporting its Section V discussion of energy-efficient operation.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.controller.request import MasterTransaction
from repro.errors import ConfigurationError


def pace_transactions(
    transactions: Sequence[MasterTransaction],
    frame_period_ms: float,
    duty: float = 0.85,
) -> List[MasterTransaction]:
    """Assign paced arrival times to a frame's transaction stream.

    Parameters
    ----------
    transactions:
        One frame's transactions in program order (arrival times are
        overwritten).
    frame_period_ms:
        The frame period to spread the traffic over.
    duty:
        Fraction of the frame period the injection occupies; the paper
        reserves a 15 % margin for data processing, matching the
        default ``duty = 0.85``.

    Returns a new list; the input is not modified.
    """
    if frame_period_ms <= 0:
        raise ConfigurationError(
            f"frame period must be positive, got {frame_period_ms}"
        )
    if not 0.0 < duty <= 1.0:
        raise ConfigurationError(f"duty must be in (0, 1], got {duty}")
    if not transactions:
        return []

    total_bytes = sum(t.size for t in transactions)
    if total_bytes <= 0:
        raise ConfigurationError("transactions carry no bytes")
    window_ns = frame_period_ms * 1e6 * duty

    paced: List[MasterTransaction] = []
    progress = 0
    for txn in transactions:
        arrival = window_ns * (progress / total_bytes)
        paced.append(dataclasses.replace(txn, arrival_ns=arrival))
        progress += txn.size
    return paced
