"""DRAM device models.

This subpackage models the paper's theoretical *next-generation mobile
DDR SDRAM*: a 512 Mb, four-bank, 32-bit-wide double-data-rate device
whose interface clock spans 200-533 MHz.  It provides:

- :mod:`repro.dram.commands` -- the DRAM command set,
- :mod:`repro.dram.timing` -- timing parameters and their frequency
  extrapolation,
- :mod:`repro.dram.datasheet` -- the calibrated base parameter/current
  sets (the paper's Micron Mobile DDR extrapolation),
- :mod:`repro.dram.device` -- bank-cluster geometry,
- :mod:`repro.dram.refresh` -- refresh parameters,
- :mod:`repro.dram.powerstate` -- power-down policies,
- :mod:`repro.dram.power` -- the current-integration power model.
"""

from repro.dram.commands import Command
from repro.dram.timing import TimingParameters, TimingCycles
from repro.dram.datasheet import (
    CurrentSet,
    DeviceDescriptor,
    next_gen_mobile_ddr,
    NEXT_GEN_MOBILE_DDR,
)
from repro.dram.device import BankClusterGeometry
from repro.dram.refresh import RefreshParameters
from repro.dram.powerstate import (
    PowerDownPolicy,
    ImmediatePowerDown,
    TimeoutPowerDown,
    NoPowerDown,
)
from repro.dram.power import EnergyBreakdown, PowerModel
from repro.dram.protocol import CommandRecord, ProtocolChecker, ProtocolViolation

__all__ = [
    "CommandRecord",
    "ProtocolChecker",
    "ProtocolViolation",
    "Command",
    "TimingParameters",
    "TimingCycles",
    "CurrentSet",
    "DeviceDescriptor",
    "next_gen_mobile_ddr",
    "NEXT_GEN_MOBILE_DDR",
    "BankClusterGeometry",
    "RefreshParameters",
    "PowerDownPolicy",
    "ImmediatePowerDown",
    "TimeoutPowerDown",
    "NoPowerDown",
    "EnergyBreakdown",
    "PowerModel",
]
