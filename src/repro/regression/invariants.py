"""Metamorphic invariants: relations that must hold across runs.

Differential fuzzing catches backends disagreeing with the reference;
it cannot catch the reference being wrong in a way every backend
reproduces.  Metamorphic testing closes part of that gap with
relations between *pairs* of runs that follow from the system's
physics, not from any oracle's opinion of the right answer:

- **channel monotonicity** -- doubling the channel count splits every
  channel's access stream across two channels (the Table II
  interleaving refines ``chunk % c`` into ``chunk % 2c``), so no
  channel does more work and the slowest channel can only finish
  sooner.  Adding channels must never increase access time (beyond
  :data:`CHANNEL_SLACK_REL` of rounding headroom).  The relation is
  checked on *single-region contiguous* traffic shapes only: a
  degenerate stride can alias the whole stream onto one channel in
  both configurations, and the doubled config's re-mapped bank bits
  can then serialise accesses that previously pipelined across banks
  (tRC-limited instead of tRRD-limited) -- genuinely slower, not a
  simulator bug, so strided and uniform-random shapes are out of the
  invariant's domain.  Alternating R/W traffic is out for the same
  reason despite its per-region contiguity: its two blocks sit at
  distant base addresses, and halving the per-channel chunk index
  when channels double shifts which address bits select the bank, so
  regions that occupied distinct banks can collapse onto one and
  row-thrash (fuzz seed 5 case 302: 2ch pipelines the read and write
  regions across banks 0/1; 4ch maps both to bank 0, 35 conflicts
  per channel, 1879.8 ns -> 2188.8 ns).
- **frequency monotonicity** -- *doubling* the clock maps every
  timing parameter's cycle count through ``ceil(2x) <= 2*ceil(x)``,
  so each constraint's wall-clock cost can only shrink.  (Arbitrary
  clock steps do **not** carry this guarantee: stepping 200 to
  266 MHz re-rounds every ``ceil(t_ns * f)`` and a parameter can get
  fractionally *slower*, which is rounding, not a bug -- so the check
  only compares f against 2f.)
- **prefix consistency** -- a prefix of a traffic stream must not
  finish later than the full stream: per-channel service is FIFO and
  refresh fires on schedule regardless of future arrivals, so the
  prefix's commands are timed identically in both runs.  (A general
  *subset* carries no such guarantee -- removing a middle transaction
  changes which rows later accesses find open.)
- **FR-FCFS degeneracy** -- a one-entry scheduling window leaves the
  FR-FCFS engine nothing to reorder, so on each channel's share of the
  traffic it must equal the in-order
  :class:`~repro.controller.engine.ChannelEngine` on every
  :class:`~repro.controller.engine.ChannelResult` field, bank
  statistics included.  FR-FCFS is open-page only, so the relation is
  checked under the open page policy whatever the case's own policy.

Each case is additionally run through the cross-checking oracles of
:func:`repro.analysis.validate.check_traffic_oracles`: the protocol
audit always, the locality oracle only under the open page policy (the
static analyzer predicts row re-opens, which closed page makes
unconditional).  The coarse whole-stream analytic oracle is *not*
applied here -- the differential fuzzer already pins the analytic
*backend* (which models arrival gaps and per-channel streams) to the
reference on the workloads its tolerance is documented for, and the
whole-stream closed form is strictly cruder than that.

All checks run under the ``reference`` backend: invariants are about
the physics of the model, and the differential fuzzer separately pins
every other backend to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.analysis.validate import check_traffic_oracles
from repro.backends.reference import build_engine
from repro.controller.frfcfs import ReorderingChannelEngine
from repro.controller.pagepolicy import PagePolicy
from repro.controller.queue import CommandQueueModel
from repro.core.system import MultiChannelMemorySystem
from repro.regression.fuzzer import FuzzCase

#: Highest channel count the doubling check will step up to.
MAX_CHECK_CHANNELS = 32

#: Highest clock the doubling check will step up to, MHz (the device's
#: validated range tops out at 533).
MAX_CHECK_FREQ_MHZ = 533.0

#: Relative rounding headroom on channel monotonicity for the
#: contiguous shapes (cycle quantisation at block boundaries).
CHANNEL_SLACK_REL = 0.05

#: Traffic shapes in the channel-doubling relation's domain: a single
#: contiguous block stream both spreads its chunks across channels
#: under the Table II interleaving *and* keeps its bank footprint
#: contiguous after the doubled config re-maps bank bits.  Strided and
#: uniform-random shapes can alias onto a channel subset, and
#: alternating R/W's two distant regions can collapse onto one bank
#: after the re-map (row-thrash, tRC-limited) -- genuinely slower, so
#: all three are out of the domain; see the module docstring.
CONTIGUOUS_KINDS = frozenset({"sequential", "paced"})


@dataclass(frozen=True)
class InvariantViolation:
    """One metamorphic relation that failed to hold."""

    invariant: str
    case: FuzzCase
    detail: str
    repro: str

    def describe(self) -> str:
        """Multi-line report: invariant, case, evidence, repro."""
        return (
            f"invariant '{self.invariant}' violated on {self.case.describe()}:\n"
            f"  {self.detail}\n"
            f"  repro: {self.repro}"
        )


def _access_time_ns(case: FuzzCase) -> float:
    system = MultiChannelMemorySystem(case.config.with_backend("reference"))
    return system.run(list(case.transactions)).sample_access_time_ns


def check_channel_monotonicity(case: FuzzCase) -> List[InvariantViolation]:
    """Doubling the channel count must not increase access time
    (contiguous traffic shapes; :data:`CHANNEL_SLACK_REL` headroom)."""
    if case.kind not in CONTIGUOUS_KINDS:
        return []
    if case.config.channels * 2 > MAX_CHECK_CHANNELS:
        return []
    base = _access_time_ns(case)
    doubled_case = replace(
        case, config=case.config.with_channels(case.config.channels * 2)
    )
    doubled = _access_time_ns(doubled_case)
    if doubled > base * (1.0 + CHANNEL_SLACK_REL):
        return [
            InvariantViolation(
                invariant="channel monotonicity",
                case=case,
                detail=(
                    f"{case.config.channels} -> {case.config.channels * 2} "
                    f"channels slowed the run: {base:.1f} ns -> {doubled:.1f} ns"
                ),
                repro=case.repro(),
            )
        ]
    return []


def check_frequency_monotonicity(case: FuzzCase) -> List[InvariantViolation]:
    """Doubling the interface clock must not increase access time."""
    if case.config.freq_mhz * 2 > MAX_CHECK_FREQ_MHZ:
        return []
    base = _access_time_ns(case)
    faster_case = replace(
        case, config=case.config.with_frequency(case.config.freq_mhz * 2)
    )
    faster = _access_time_ns(faster_case)
    if faster > base:
        return [
            InvariantViolation(
                invariant="frequency monotonicity",
                case=case,
                detail=(
                    f"{case.config.freq_mhz:g} -> {case.config.freq_mhz * 2:g} "
                    f"MHz slowed the run: {base:.1f} ns -> {faster:.1f} ns"
                ),
                repro=case.repro(),
            )
        ]
    return []


def check_prefix_consistency(case: FuzzCase) -> List[InvariantViolation]:
    """A traffic prefix must not finish later than the full stream."""
    if len(case.transactions) < 2:
        return []
    prefix_case = replace(
        case, transactions=case.transactions[: len(case.transactions) // 2]
    )
    full = _access_time_ns(case)
    prefix = _access_time_ns(prefix_case)
    if prefix > full:
        return [
            InvariantViolation(
                invariant="prefix consistency",
                case=case,
                detail=(
                    f"prefix of {len(prefix_case.transactions)} txns finished "
                    f"at {prefix:.1f} ns, after the full "
                    f"{len(case.transactions)}-txn stream's {full:.1f} ns"
                ),
                repro=case.repro(),
            )
        ]
    return []


def check_frfcfs_degeneracy(case: FuzzCase) -> List[InvariantViolation]:
    """FR-FCFS with a one-entry window must equal the in-order engine
    on every :class:`~repro.controller.engine.ChannelResult` field, on
    every channel (open page policy).

    FR-FCFS models no command queue, so it equals the in-order engine
    only where the queue cannot bind.  It is held to the in-order
    engine at the depth the case draws wherever
    :meth:`~repro.controller.queue.CommandQueueModel.can_bind` says
    that depth cannot bind -- there the in-order engine skips its ring,
    and the queue-less FR-FCFS witnesses the skip -- and at the default
    depth otherwise."""
    timing = case.config.device.timing.at_frequency(case.config.freq_mhz)
    queue = case.config.queue
    if queue.can_bind(timing):
        queue = CommandQueueModel()
    config = replace(case.config, page_policy=PagePolicy.OPEN, queue=queue)
    in_order = build_engine(config)
    reordering = ReorderingChannelEngine(
        config.device,
        config.freq_mhz,
        multiplexing=config.multiplexing,
        power_down=config.power_down,
        interconnect=config.interconnect,
        window=1,
    )
    split = MultiChannelMemorySystem(config).split(case.transactions)
    violations: List[InvariantViolation] = []
    for channel, runs in enumerate(split.runs):
        expected = in_order.run(runs)
        got = reordering.run(runs)
        if got != expected:
            fields = [
                name
                for name in expected.__dataclass_fields__
                if getattr(got, name) != getattr(expected, name)
            ]
            violations.append(
                InvariantViolation(
                    invariant="FR-FCFS degeneracy",
                    case=case,
                    detail=(
                        f"window=1 FR-FCFS differs from the in-order engine "
                        f"on channel {channel} in {', '.join(fields)}"
                    ),
                    repro=case.repro(),
                )
            )
    return violations


def check_oracles(case: FuzzCase) -> List[InvariantViolation]:
    """Run the validation oracles on the case's own configuration.

    Protocol audit always; locality only under open page (the static
    analyzer's domain); the whole-stream analytic oracle never -- the
    fuzzer's backend differential covers the closed form with a model
    that actually sees per-channel streams and arrival gaps.
    """
    checks = check_traffic_oracles(
        case.transactions,
        case.config.with_backend("reference"),
        analytic_tolerance=None,
        include_locality=case.config.page_policy.keeps_rows_open,
    )
    return [
        InvariantViolation(
            invariant=f"oracle: {check.name}",
            case=case,
            detail=check.detail,
            repro=case.repro(),
        )
        for check in checks
        if not check.passed
    ]


def check_case_invariants(case: FuzzCase) -> List[InvariantViolation]:
    """Every metamorphic relation and oracle for one case."""
    violations: List[InvariantViolation] = []
    violations.extend(check_channel_monotonicity(case))
    violations.extend(check_frequency_monotonicity(case))
    violations.extend(check_prefix_consistency(case))
    violations.extend(check_frfcfs_degeneracy(case))
    violations.extend(check_oracles(case))
    return violations
