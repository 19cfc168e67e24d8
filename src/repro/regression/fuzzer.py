"""Differential fuzzing: every backend against the reference engine.

A seeded, wall-clock-free deterministic generator samples the
configuration space the paper sweeps -- channel counts, interface
clocks, page policies, address multiplexings, power-down policies --
crossed with synthetic traffic shapes (sequential streams, strided
walks, uniform random access, alternating read/write pairs, paced
arrivals) drawn from :mod:`repro.load.generators`, plus scaled-down
frames of the registered workload zoo (:mod:`repro.workloads`) so the
campaign also exercises the exact multi-buffer block-interleaved shape
the sweeps run.  Every case runs under the ``reference`` engine and
each backend under test:

- a backend declaring
  :attr:`~repro.backends.base.ChannelBackend.reference_tolerance` of
  ``0`` (``batch``) must be **bit-identical** -- access time, command
  counters, per-channel finish cycles, bank accesses and power-state
  residencies all compared exactly;
- a screening backend (``analytic``) must track the reference access
  time within its declared tolerance.  The closed-form model documents
  that tolerance *for streaming workloads only*, so screening checks
  run on the streaming traffic shapes and are skipped (not silently
  passed) on the row-locality worst cases.

A failing case is **shrunk** -- greedy delta-debugging over the
transaction list -- to a minimal still-failing input, and reported as
a one-line repro string (config fields plus trace-format transactions)
that :func:`run_repro` replays directly.

Determinism: the only entropy source is ``random.Random`` seeded from
``(seed, index)``; no wall clock, no host state.  The same seed and
case count always produce the same cases, on any machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.controller.mapping import AddressMultiplexing
from repro.controller.pagepolicy import PagePolicy
from repro.controller.queue import CommandQueueModel
from repro.controller.request import MasterTransaction, Op
from repro.core.config import SystemConfig
from repro.core.results import SimulationResult
from repro.core.system import MultiChannelMemorySystem
from repro.dram.powerstate import (
    ImmediatePowerDown,
    NoPowerDown,
    TimeoutPowerDown,
)
from repro.errors import RegressionError, TraceFormatError
from repro.load.generators import (
    alternating_rw_stream,
    random_stream,
    sequential_stream,
    strided_stream,
)
from repro.load.trace import parse_trace_line

#: Traffic shapes the generator samples.  The flag marks the shapes
#: that *can* qualify as streaming for the analytic screening check
#: (uniform random access never does; see :func:`generate_case` for
#: the further open-page and minimum-size conditions).
TRAFFIC_KINDS: Tuple[Tuple[str, bool], ...] = (
    ("sequential", True),
    # Large strides open a new row on every access, often in the same
    # bank (tRC-serialised), which the closed form's queue-hiding
    # assumption cannot see (observed up to ~80% deviation); and
    # alternating R/W ping-pongs direction on every block, far more
    # turnaround-dominated than the paper's workloads (observed
    # 28-40%).  Both are differential-checked against the bit-identical
    # backends only.
    ("strided", False),
    ("alternating", False),
    ("random", False),
    ("paced", True),
    # A scaled-down frame of a registered zoo workload (see
    # :mod:`repro.workloads`): block-interleaved multi-buffer streams
    # with per-stage direction switches, the shape the paper's sweeps
    # actually run.  At fuzzing scale the per-stage streams are short
    # enough that startup/turnaround costs dominate, outside the
    # analytic model's documented streaming regime, so these cases are
    # differential-checked against the bit-identical backends only.
    ("workload", False),
)

#: Zoo specs the ``workload`` traffic kind samples.  Deliberately a
#: frozen list of built-ins rather than ``available_workloads()``:
#: case generation must not depend on what a host process registered
#: at runtime (same seed, same cases, any machine).
FUZZ_WORKLOADS = (
    "h264_camcorder",
    "vvc_encoder",
    "h264_lossy_ec",
    "vdcm_display",
)

#: Minimum *per-channel* traffic (16-byte chunks) for the analytic
#: screening check: below this the fixed startup costs (first
#: activation, interconnect address phase) dominate and a *relative*
#: tolerance is meaningless -- a single-burst case is ~40 ns of fixed
#: overhead against a ~10 ns estimate, an "error" of 80% that says
#: nothing about the model.  Scaled by the channel count because the
#: startup cost is paid per channel stream.
ANALYTIC_MIN_CHUNKS_PER_CHANNEL = 64

#: Clocks sampled by the fuzzer (the device's supported range).
FUZZ_FREQUENCIES_MHZ = (200.0, 266.0, 333.0, 400.0, 466.0, 533.0)

#: Channel counts sampled (the paper's plus the 16-wide extrapolation).
FUZZ_CHANNELS = (1, 2, 4, 8, 16)

#: Command-queue depths sampled; the analytic screening runs only at
#: the default depth (see :func:`generate_case`).
FUZZ_QUEUE_DEPTHS = (1, 2, 4, 8)

#: Queue depth of a case that names none (the model's default).
DEFAULT_QUEUE_DEPTH = CommandQueueModel().depth

#: Upper bound on per-case traffic, in 16-byte chunks, so a 100-case
#: campaign stays interactive even on one CPU.
MAX_CASE_CHUNKS = 2_048


@dataclass(frozen=True)
class FuzzCase:
    """One generated differential-test case."""

    index: int
    seed: int
    config: SystemConfig
    transactions: Tuple[MasterTransaction, ...]
    kind: str
    #: Whether screening backends (documented-tolerance) are checked
    #: on this case; the analytic tolerance only covers streaming.
    streaming: bool

    @property
    def chunks(self) -> int:
        """Total 16-byte chunks the case touches."""
        return sum(len(txn.chunk_span()) for txn in self.transactions)

    def describe(self) -> str:
        """One line: coordinates + traffic shape."""
        return (
            f"case {self.index} (seed {self.seed}): {self.kind}, "
            f"{len(self.transactions)} txns / {self.chunks} chunks on "
            f"{self.config.channels}ch @ {self.config.freq_mhz:g} MHz, "
            f"{self.config.multiplexing.value}, "
            f"{self.config.page_policy.value}-page, "
            f"pd={self.config.power_down.name}, "
            f"queue={self.config.queue.depth}"
        )

    def repro(self) -> str:
        """Canonical repro string: config fields, then the transaction
        list in the trace-file format, ``;``-joined.  Replay with
        :func:`run_repro` or ``repro-sim fuzz --repro STRING``."""
        head = (
            f"channels={self.config.channels} freq={self.config.freq_mhz:g} "
            f"map={self.config.multiplexing.value} "
            f"page={self.config.page_policy.value} "
            f"pd={self.config.power_down.name} "
            f"queue={self.config.queue.depth}"
        )
        body = ";".join(_txn_line(txn) for txn in self.transactions)
        return f"{head} | {body}"


def _txn_line(txn: MasterTransaction) -> str:
    op = "R" if txn.op is Op.READ else "W"
    if txn.arrival_ns is not None:
        return f"{op} {txn.address:#x} {txn.size} {txn.arrival_ns!r}"
    return f"{op} {txn.address:#x} {txn.size}"


def _power_down_from_name(name: str):
    if name == "immediate":
        return ImmediatePowerDown()
    if name == "never":
        return NoPowerDown()
    if name.startswith("timeout-"):
        return TimeoutPowerDown(timeout_cycles=int(name.split("-", 1)[1]))
    raise RegressionError(f"unknown power-down policy {name!r} in repro string")


def parse_repro(spec: str) -> FuzzCase:
    """Parse a :meth:`FuzzCase.repro` string back into a case."""
    try:
        head, body = spec.split("|", 1)
        fields = dict(part.split("=", 1) for part in head.split())
        config = SystemConfig(
            channels=int(fields["channels"]),
            freq_mhz=float(fields["freq"]),
            multiplexing=AddressMultiplexing(fields["map"]),
            page_policy=PagePolicy(fields["page"]),
            power_down=_power_down_from_name(fields["pd"]),
            # Repro strings from before the depth was fuzzed name none.
            queue=CommandQueueModel(
                depth=int(fields.get("queue", DEFAULT_QUEUE_DEPTH))
            ),
        )
        transactions = tuple(
            parse_trace_line(line.strip(), lineno=i + 1)
            for i, line in enumerate(body.split(";"))
            if line.strip()
        )
    except RegressionError:
        raise
    except (ValueError, KeyError, TraceFormatError) as exc:
        raise RegressionError(f"malformed repro string {spec!r}: {exc}") from exc
    if not transactions:
        raise RegressionError(f"repro string {spec!r} carries no transactions")
    return FuzzCase(
        index=-1,
        seed=-1,
        config=config,
        transactions=transactions,
        kind="repro",
        streaming=False,
    )


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------


def _case_rng(seed: int, index: int) -> random.Random:
    # Mix with a large odd constant so neighbouring (seed, index) pairs
    # do not collide; pure integer arithmetic keeps it hash-free and
    # stable across platforms and PYTHONHASHSEED values.
    return random.Random(seed * 1_000_003 + index)


def _generate_traffic(
    rng: random.Random, kind: str, span_limit: int
) -> List[MasterTransaction]:
    if kind == "sequential":
        total = rng.randrange(1, MAX_CASE_CHUNKS) * 16
        return sequential_stream(
            total_bytes=total,
            block_bytes=rng.choice((64, 256, 1024, 4096)),
            op=rng.choice((Op.READ, Op.WRITE)),
            base_address=rng.randrange(0, span_limit // 2 // 16) * 16,
        )
    if kind == "strided":
        accesses = rng.randrange(4, 128)
        return strided_stream(
            accesses=accesses,
            stride_bytes=rng.choice((64, 256, 2048, 4096, 8192)),
            access_bytes=rng.choice((16, 64, 128)),
            op=rng.choice((Op.READ, Op.WRITE)),
            base_address=rng.randrange(0, 1024) * 16,
        )
    if kind == "alternating":
        return alternating_rw_stream(
            pairs=rng.randrange(2, 24),
            block_bytes=rng.choice((256, 1024, 4096)),
            read_base=0,
            write_base=span_limit // 2,
        )
    if kind == "random":
        return random_stream(
            accesses=rng.randrange(8, 192),
            span_bytes=rng.choice((1 << 16, 1 << 20, span_limit // 4)),
            access_bytes=rng.choice((16, 64, 256)),
            read_fraction=rng.choice((0.25, 0.5, 0.75)),
            seed=rng.randrange(1 << 30),
        )
    if kind == "workload":
        return _workload_traffic(rng, span_limit)
    if kind == "paced":
        # Sequential stream with monotonically increasing arrival
        # stamps: opens idle gaps, exercising power-down entry/exit.
        blocks = rng.randrange(4, 48)
        block = rng.choice((256, 1024, 4096))
        gap_ns = rng.choice((50.0, 500.0, 5000.0))
        out: List[MasterTransaction] = []
        arrival = 0.0
        for i in range(blocks):
            out.append(
                MasterTransaction(
                    op=Op.READ if i % 2 else Op.WRITE,
                    address=i * block,
                    size=block,
                    arrival_ns=arrival,
                )
            )
            arrival += gap_ns * (1 + rng.random())
        return out
    raise RegressionError(f"unknown traffic kind {kind!r}")


def _workload_traffic(
    rng: random.Random, span_limit: int
) -> List[MasterTransaction]:
    """One scaled-down frame of a deterministically drawn zoo workload.

    The spec, level and intra/inter variant come from ``rng``; the
    frame is scaled so the traffic stays within
    :data:`MAX_CASE_CHUNKS` and the buffer layout fits a single
    channel's capacity (the smallest configuration a repro may be
    replayed on).
    """
    from repro.load.model import VideoRecordingLoadModel
    from repro.usecase.levels import PAPER_LEVELS
    from repro.workloads.registry import get_workload

    spec = get_workload(rng.choice(FUZZ_WORKLOADS))
    params = {}
    if "intra_only" in spec.param_defaults():
        params["intra_only"] = rng.random() < 0.25
    block_bytes = rng.choice((256, 1024, 4096))
    # Try levels smallest-first from a random start: the drawn level
    # usually fits one channel, and when a big format's buffers do
    # not, the fallback is still deterministic in (seed, index).
    start = rng.randrange(len(PAPER_LEVELS))
    ordering = PAPER_LEVELS[start:] + PAPER_LEVELS[:start]
    for level in ordering:
        use_case = spec.instantiate(level, **params)
        model = VideoRecordingLoadModel(use_case, block_bytes=block_bytes)
        if not model.address_map.fits_in(span_limit):
            continue
        frame_bytes = use_case.total_bytes_per_frame()
        scale = min(1.0, (MAX_CASE_CHUNKS * 16) / frame_bytes)
        # A too-small scale can round every stage below one 16-byte
        # granule; grow it (deterministically) until traffic appears.
        for _ in range(8):
            transactions = model.generate_frame(scale=scale)
            if transactions:
                return transactions
            scale = min(1.0, scale * 4)
    raise RegressionError(
        f"workload {spec.name!r} fits no paper level in {span_limit} bytes"
    )


def generate_case(seed: int, index: int) -> FuzzCase:
    """Deterministically generate case ``index`` of campaign ``seed``."""
    rng = _case_rng(seed, index)
    channels = rng.choice(FUZZ_CHANNELS)
    config = SystemConfig(
        channels=channels,
        freq_mhz=rng.choice(FUZZ_FREQUENCIES_MHZ),
        multiplexing=rng.choice(tuple(AddressMultiplexing)),
        page_policy=rng.choice(tuple(PagePolicy)),
        power_down=rng.choice(
            (
                ImmediatePowerDown(),
                NoPowerDown(),
                TimeoutPowerDown(timeout_cycles=rng.choice((4, 16, 64))),
            )
        ),
    )
    kind, kind_streams = TRAFFIC_KINDS[rng.randrange(len(TRAFFIC_KINDS))]
    # Traffic must fit the smallest configuration it may be replayed
    # on (1 channel = one bank cluster), so invariant checks can move
    # it across channel counts freely.
    span_limit = SystemConfig(channels=1).total_capacity_bytes
    transactions = _generate_traffic(rng, kind, span_limit)
    case = FuzzCase(
        index=index,
        seed=seed,
        config=config,
        transactions=tuple(transactions),
        kind=kind,
        streaming=False,
    )
    # The analytic tolerance is documented for the paper's workloads:
    # streaming-shaped traffic, open page policy, enough data that the
    # per-stream startup costs amortise.  Closed-page serialises every
    # burst behind its own activate/precharge, a regime the closed
    # form does not model to screening fidelity.
    streaming = (
        kind_streams
        and config.page_policy.keeps_rows_open
        and case.chunks >= ANALYTIC_MIN_CHUNKS_PER_CHANNEL * config.channels
    )
    # The queue depth is the last draw, so every earlier draw (and so
    # every case of a campaign apart from its depth) is what it was
    # before the depth was fuzzed.  A screened case keeps the default
    # depth, the regime the analytic tolerance was measured in; the
    # others exercise the exact engines' live command-queue bound.
    depth = rng.choice(FUZZ_QUEUE_DEPTHS)
    if not streaming:
        config = replace(config, queue=CommandQueueModel(depth=depth))
    return replace(case, config=config, streaming=streaming)


def generate_cases(seed: int, count: int) -> List[FuzzCase]:
    """The first ``count`` cases of campaign ``seed``."""
    if count < 1:
        raise RegressionError(f"case count must be >= 1, got {count}")
    return [generate_case(seed, index) for index in range(count)]


# ---------------------------------------------------------------------------
# Differential execution
# ---------------------------------------------------------------------------


def run_case(case: FuzzCase, backend: str) -> SimulationResult:
    """Run one case's traffic under ``backend``."""
    system = MultiChannelMemorySystem(case.config.with_backend(backend))
    return system.run(list(case.transactions))


def _diff_exact(ref: SimulationResult, other: SimulationResult) -> List[str]:
    """Bit-identity diff: every timing/counter/state field."""
    problems: List[str] = []
    if other.sample_access_time_ns != ref.sample_access_time_ns:
        problems.append(
            f"access_time_ns {other.sample_access_time_ns!r} != "
            f"{ref.sample_access_time_ns!r}"
        )
    if other.merged_counters().as_dict() != ref.merged_counters().as_dict():
        problems.append(
            f"counters {other.merged_counters().as_dict()} != "
            f"{ref.merged_counters().as_dict()}"
        )
    for index, (ch_ref, ch_other) in enumerate(zip(ref.channels, other.channels)):
        for field in (
            "finish_cycle",
            "data_cycles",
            "counters",
            "bank_accesses",
            "states",
        ):
            ref_v, other_v = getattr(ch_ref, field), getattr(ch_other, field)
            if ref_v != other_v:
                problems.append(
                    f"channel {index} {field}: {other_v!r} != {ref_v!r}"
                )
    return problems


def _diff_tolerance(
    ref: SimulationResult, other: SimulationResult, rel_tol: float
) -> List[str]:
    """Screening diff: access time within ``rel_tol``, data movement
    exact (the closed form models timing, never traffic)."""
    problems: List[str] = []
    ref_t = ref.sample_access_time_ns
    deviation = (
        abs(other.sample_access_time_ns - ref_t) / ref_t if ref_t > 0 else 0.0
    )
    if deviation > rel_tol:
        problems.append(
            f"access time off by {deviation:.1%} (> {rel_tol:.0%}): "
            f"{other.sample_access_time_ns:.0f} ns vs {ref_t:.0f} ns"
        )
    ref_counters = ref.merged_counters()
    other_counters = other.merged_counters()
    if (other_counters.reads, other_counters.writes) != (
        ref_counters.reads,
        ref_counters.writes,
    ):
        problems.append(
            f"data movement differs: R/W {other_counters.reads}/"
            f"{other_counters.writes} vs {ref_counters.reads}/"
            f"{ref_counters.writes}"
        )
    return problems


def compare_case(case: FuzzCase, backend: str) -> List[str]:
    """Differential check of one case under one backend; returns the
    list of discrepancies (empty = agreement)."""
    from repro.backends.registry import get_backend

    resolved = get_backend(backend)
    ref = run_case(case, "reference")
    other = run_case(case, backend)
    if resolved.bit_identical:
        return _diff_exact(ref, other)
    return _diff_tolerance(ref, other, resolved.reference_tolerance)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def shrink_case(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    max_rounds: int = 8,
) -> FuzzCase:
    """Greedy delta-debugging: drop transaction blocks, then halve
    sizes, while the case keeps failing.  Deterministic and bounded."""
    txns = list(case.transactions)

    def candidate(new_txns: Sequence[MasterTransaction]) -> FuzzCase:
        return replace(case, transactions=tuple(new_txns))

    for _ in range(max_rounds):
        shrunk = False
        block = max(1, len(txns) // 2)
        while block >= 1:
            index = 0
            while index < len(txns):
                trial = txns[:index] + txns[index + block :]
                if trial and still_fails(candidate(trial)):
                    txns = trial
                    shrunk = True
                else:
                    index += block
            block //= 2
        # Size reduction: halve each transaction (chunk-aligned).
        for index, txn in enumerate(txns):
            half = max(16, (txn.size // 2) // 16 * 16)
            if half < txn.size:
                trial = list(txns)
                trial[index] = replace(txn, size=half)
                if still_fails(candidate(trial)):
                    txns = trial
                    shrunk = True
        if not shrunk:
            break
    return candidate(txns)


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzMismatch:
    """One backend disagreement, shrunk to a minimal repro."""

    case: FuzzCase
    backend: str
    problems: Tuple[str, ...]
    repro: str

    def describe(self) -> str:
        """Multi-line report: case, discrepancies, repro string."""
        lines = [f"{self.case.describe()} under backend={self.backend}:"]
        lines += [f"  {p}" for p in self.problems]
        lines.append(f"  repro: {self.repro}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    seed: int
    cases: int
    checks: int
    skipped_screening: int
    mismatches: Tuple[FuzzMismatch, ...]
    violations: Tuple["InvariantViolation", ...]  # noqa: F821 - fwd ref

    @property
    def passed(self) -> bool:
        """Whether the campaign found nothing."""
        return not self.mismatches and not self.violations

    def format(self) -> str:
        """Campaign summary plus every finding."""
        lines = [
            f"fuzz campaign seed={self.seed}: {self.cases} cases, "
            f"{self.checks} differential checks "
            f"({self.skipped_screening} screening checks skipped on "
            f"non-streaming traffic), {len(self.mismatches)} mismatch(es), "
            f"{len(self.violations)} invariant violation(s)"
        ]
        lines += [m.describe() for m in self.mismatches]
        lines += [v.describe() for v in self.violations]
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def run_fuzz(
    cases: int = 100,
    seed: int = 0,
    backends: Optional[Sequence[str]] = None,
    check_invariants: bool = True,
    shrink: bool = True,
    telemetry=None,
) -> FuzzReport:
    """Run a differential-fuzzing campaign.

    ``backends`` defaults to every built-in backend other than the
    reference itself: ``batch`` and ``analytic``.  ``check_invariants``
    additionally evaluates the metamorphic oracles of
    :mod:`repro.regression.invariants` on every case.  ``telemetry``
    counts ``regression.cases`` and ``regression.mismatches``.
    """
    from repro.regression.invariants import check_case_invariants

    if backends is None:
        backends = ("batch", "analytic")
    from repro.backends.registry import get_backend

    resolved = {name: get_backend(name) for name in backends}

    generated = generate_cases(seed, cases)
    mismatches: List[FuzzMismatch] = []
    violations: List = []
    checks = 0
    skipped = 0
    for case in generated:
        for name, backend in resolved.items():
            if not backend.bit_identical and not case.streaming:
                skipped += 1
                continue
            checks += 1
            problems = compare_case(case, name)
            if not problems:
                continue
            minimal = case
            if shrink:
                minimal = shrink_case(
                    case, lambda c, _n=name: bool(compare_case(c, _n))
                )
                problems = compare_case(minimal, name) or problems
            mismatches.append(
                FuzzMismatch(
                    case=minimal,
                    backend=name,
                    problems=tuple(problems),
                    repro=minimal.repro(),
                )
            )
        if check_invariants:
            violations.extend(check_case_invariants(case))
    report = FuzzReport(
        seed=seed,
        cases=len(generated),
        checks=checks,
        skipped_screening=skipped,
        mismatches=tuple(mismatches),
        violations=tuple(violations),
    )
    if telemetry is not None:
        telemetry.registry.counter("regression.cases").add(report.cases)
        telemetry.registry.counter("regression.mismatches").add(
            len(report.mismatches) + len(report.violations)
        )
    return report


def run_repro(spec: str, backend: str = "batch") -> List[str]:
    """Replay a repro string under ``backend``; returns discrepancies
    (empty = the repro no longer fails)."""
    return compare_case(parse_repro(spec), backend)
