"""Backend parity: batch vs reference (exact), analytic (tolerance).

The contracts pinned here are the ones docs/architecture.md (Backends)
documents:

- ``batch`` returns *identical command counts* and access time within
  1 % of ``reference`` (it is in fact designed to be bit-identical --
  one test class pins the stronger property on a full streaming
  frame);
- ``analytic`` tracks the reference access time within 15 % on the
  paper's streaming workloads;
- all hold across the Fig. 3 frequency sweep and the Fig. 4 format
  sweep configurations.
"""

import pytest

from repro.core.channel import Channel
from repro.core.config import PAPER_FREQUENCIES_MHZ, SystemConfig
from repro.core.system import MultiChannelMemorySystem
from repro.load.model import VideoRecordingLoadModel
from repro.load.scaling import choose_scale
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase

#: Simulated-burst budget for parity runs: small enough to keep the
#: suite quick, large enough that every config sees refresh windows,
#: direction switches and bank conflicts.
PARITY_BUDGET = 20_000

#: Documented analytic access-time tolerance (docs/architecture.md).
ANALYTIC_TOLERANCE = 0.15

#: The backends documented as bit-identical to the reference.
EXACT_BACKENDS = ["batch"]

_TRAFFIC_CACHE = {}
_RESULT_CACHE = {}


def _frame_traffic(level_name):
    """One (scaled) frame of streaming traffic for ``level_name``."""
    if level_name not in _TRAFFIC_CACHE:
        use_case = VideoRecordingUseCase(level_by_name(level_name))
        load = VideoRecordingLoadModel(use_case)
        scale = choose_scale(use_case.total_bytes_per_frame(), PARITY_BUDGET)
        _TRAFFIC_CACHE[level_name] = (load.generate_frame(scale=scale), scale)
    return _TRAFFIC_CACHE[level_name]


def _run(level_name, config, backend):
    # Results are pure values and the sweep axes repeat across test
    # classes, so memoise: three exact backends over the same grid
    # would otherwise re-run the slow reference point per comparison.
    key = (level_name, config.channels, config.freq_mhz, backend)
    if key not in _RESULT_CACHE:
        txns, scale = _frame_traffic(level_name)
        system = MultiChannelMemorySystem(config.with_backend(backend))
        _RESULT_CACHE[key] = system.run(txns, scale=scale)
    return _RESULT_CACHE[key]


#: Fig. 3 axis: the single-channel frequency sweep on 720p30.
FIG3_CONFIGS = [
    ("3.1", SystemConfig(channels=1, freq_mhz=f)) for f in PAPER_FREQUENCIES_MHZ
]

#: Fig. 4 axis: the format (level) sweep at the paper's 400 MHz point.
FIG4_CONFIGS = [
    (name, SystemConfig(channels=channels, freq_mhz=400.0))
    for name, channels in (("3.1", 1), ("3.2", 2), ("4", 4), ("4.2", 8))
]

SWEEP = FIG3_CONFIGS + FIG4_CONFIGS
SWEEP_IDS = [
    f"{name}-{config.channels}ch-{config.freq_mhz:g}MHz"
    for name, config in SWEEP
]


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("level_name, config", SWEEP, ids=SWEEP_IDS)
class TestExactParity:
    def test_identical_command_counts(self, level_name, config, backend):
        ref = _run(level_name, config, "reference")
        out = _run(level_name, config, backend)
        assert out.merged_counters().as_dict() == ref.merged_counters().as_dict()

    def test_access_time_within_one_percent(self, level_name, config, backend):
        ref = _run(level_name, config, "reference")
        out = _run(level_name, config, backend)
        assert out.access_time_ms == pytest.approx(ref.access_time_ms, rel=0.01)


@pytest.mark.parametrize("level_name, config", SWEEP, ids=SWEEP_IDS)
class TestAnalyticParity:
    def test_access_time_within_documented_tolerance(self, level_name, config):
        ref = _run(level_name, config, "reference")
        analytic = _run(level_name, config, "analytic")
        assert analytic.access_time_ms == pytest.approx(
            ref.access_time_ms, rel=ANALYTIC_TOLERANCE
        )

    def test_chunk_accounting_exact(self, level_name, config):
        ref = _run(level_name, config, "reference")
        analytic = _run(level_name, config, "analytic")
        counters_ref = ref.merged_counters()
        counters_ana = analytic.merged_counters()
        # Data movement is exact by construction; only timing is modelled.
        assert counters_ana.reads == counters_ref.reads
        assert counters_ana.writes == counters_ref.writes


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
class TestBitIdentity:
    """The stronger property the design actually delivers: batch
    applies its shortcuts only when provably exact, so whole
    results -- finish cycles, per-bank balance, power-state residencies
    -- match the reference bit for bit."""

    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig(channels=1, freq_mhz=400.0),
            SystemConfig(channels=4, freq_mhz=200.0),
            SystemConfig(channels=4, freq_mhz=533.0),
        ],
        ids=["1ch-400", "4ch-200", "4ch-533"],
    )
    def test_full_result_identical(self, config, backend):
        ref = _run("4", config, "reference")
        out = _run("4", config, backend)
        assert out.access_time_ms == ref.access_time_ms
        assert out.engine_stats() == ref.engine_stats()
        for ch_ref, ch_out in zip(ref.channels, out.channels):
            assert ch_out.finish_cycle == ch_ref.finish_cycle
            assert ch_out.data_cycles == ch_ref.data_cycles
            assert ch_out.counters.as_dict() == ch_ref.counters.as_dict()
            assert ch_out.bank_accesses == ch_ref.bank_accesses
            assert ch_out.states == ch_ref.states

    def test_command_log_identical(self, backend):
        """With a command log attached the engine falls back to
        stepping, so the logged command stream matches exactly."""
        config = SystemConfig(channels=1, freq_mhz=400.0)
        runs = [(0, 0, 512), (1, 4096, 512), (0, 64, 256)]
        ref_log, out_log = [], []
        Channel(config.with_backend("reference")).run(runs, command_log=ref_log)
        Channel(config.with_backend(backend)).run(runs, command_log=out_log)
        assert out_log == ref_log
        assert len(ref_log) > 0
