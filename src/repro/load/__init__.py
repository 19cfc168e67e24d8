"""Load models: turning the use case into memory traffic.

Fig. 2's load model "encapsulates everything else but the memory
controllers, DRAM interconnects, and bank clusters": the SMP, caches
and accelerators are abstracted into a state machine that "generates
just read and write access requests to the memory subsystem".

- :mod:`repro.load.addressmap` -- buffer layout in the global space,
- :mod:`repro.load.model` -- the video-recording load model,
- :mod:`repro.load.trace` -- trace file reader/writer,
- :mod:`repro.load.generators` -- synthetic baseline traffic,
- :mod:`repro.load.scaling` -- fractional-workload scaling,
- :mod:`repro.load.pacing` -- real-time (just-in-time) arrival times,
- :mod:`repro.load.locality` -- static row-buffer locality prediction.
"""

from repro.load.addressmap import AddressMap, Region
from repro.load.model import VideoRecordingLoadModel, TrafficSummary
from repro.load.trace import read_trace, write_trace
from repro.load.generators import (
    sequential_stream,
    strided_stream,
    random_stream,
    alternating_rw_stream,
)
from repro.load.scaling import choose_scale, DEFAULT_CHUNK_BUDGET
from repro.load.pacing import pace_transactions

__all__ = [
    "pace_transactions",
    "AddressMap",
    "Region",
    "VideoRecordingLoadModel",
    "TrafficSummary",
    "read_trace",
    "write_trace",
    "sequential_stream",
    "strided_stream",
    "random_stream",
    "alternating_rw_stream",
    "choose_scale",
    "DEFAULT_CHUNK_BUDGET",
]
