"""Power analysis: interface power, frame power reports, XDR comparison.

- :mod:`repro.power.interface` -- the paper's equation (1) for
  chip-to-chip interface power,
- :mod:`repro.power.report` -- frame-average power assembly (Fig. 5),
- :mod:`repro.power.xdr` -- the Cell BE XDR comparison point.
"""

from repro.power.interface import InterfaceParameters, interface_power_w
from repro.power.report import FramePowerReport, compute_frame_power
from repro.power.xdr import XdrReference, XDR_CELL_BE

__all__ = [
    "InterfaceParameters",
    "interface_power_w",
    "FramePowerReport",
    "compute_frame_power",
    "XdrReference",
    "XDR_CELL_BE",
]
