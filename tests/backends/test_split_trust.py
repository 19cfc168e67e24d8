"""The split is the trust boundary: one check per split, none per run.

:meth:`MultiChannelMemorySystem.split` checks every run once and
:meth:`~MultiChannelMemorySystem.run_split` hands the runs to each
simulator's non-validating ``run_trusted``.  Pinned here, for every
built-in backend: that entry gives exactly what the validating
``Channel.run`` gives over the same runs, and batch's decode cache
keys a shared split once per channel, by a digest that holds no run
tuple and that the split computes once per channel for all its
clocks.  The rejection of malformed runs lives in
``tests/resilience/test_faults.py``.
"""

import pytest

from repro import PAPER_LEVELS
from repro.analysis.sweep import sweep_use_case
from repro.backends import batch as batch_module
from repro.backends.base import ChannelBackend, ChannelSimulator
from repro.backends.registry import register_backend, unregister_backend
from repro.controller.engine import runs_digest
from repro.controller.request import MasterTransaction, Op
from repro.core.channel import Channel
from repro.core.config import (
    PAPER_CHANNEL_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    SystemConfig,
)
import repro.core.system as system_module
from repro.core.system import MultiChannelMemorySystem
from repro.load.model import VideoRecordingLoadModel
from repro.load.pacing import pace_transactions
from repro.load.scaling import choose_scale
from repro.telemetry import Telemetry
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase

BACKENDS = ("reference", "batch", "analytic")

CAPACITY = SystemConfig(channels=2).total_capacity_bytes


def _backlogged():
    """One scaled frame of the 720p30 use case: mixed reads and writes,
    every transaction ready at cycle 0."""
    use_case = VideoRecordingUseCase(level_by_name("3.1"))
    scale = choose_scale(use_case.total_bytes_per_frame(), 4000)
    return list(VideoRecordingLoadModel(use_case).generate_frame(scale=scale))


def _paced():
    """The same frame with arrival times spread over a frame period."""
    return pace_transactions(_backlogged(), frame_period_ms=0.05)


def _wrapping():
    """Transactions past the end of memory, which wrap_capacity folds
    back to address 0 (one straddles the end)."""
    return [
        MasterTransaction(Op.READ, CAPACITY - 2048, 8192),
        MasterTransaction(Op.WRITE, 3 * CAPACITY + 4096, 4096),
        MasterTransaction(Op.READ, 0, 4096),
    ]


STREAMS = {"backlogged": _backlogged, "paced": _paced, "wrapping": _wrapping}


@pytest.fixture
def fresh_cache():
    batch_module.clear_decode_cache()
    yield
    batch_module.clear_decode_cache()


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("freq", (200.0, 400.0))
def test_trusted_entry_equals_channel_run(backend, stream, freq):
    config = SystemConfig(channels=2, freq_mhz=freq, backend=backend)
    system = MultiChannelMemorySystem(config)
    split = system.split(STREAMS[stream]())
    arrivals = {run[3] for runs in split.runs for run in runs}
    assert (arrivals != {0}) == (stream == "paced")
    validated = [
        Channel(config, index=i).run(runs) for i, runs in enumerate(split.runs)
    ]
    assert sum(result.total_chunks for result in validated) == split.chunks
    assert system.run_split(split).channels == validated
    telemetry = Telemetry.enabled()
    assert system.run_split(split, telemetry=telemetry).channels == validated
    phases = {p.name: p.calls for p in telemetry.profiler.report().phases}
    assert phases == {"system.engine": 1}


def _holds_runs(key):
    """Whether a decode-cache key keeps any tuple alive."""
    return any(isinstance(part, tuple) for part in key)


def test_shared_split_keys_the_decode_cache_by_its_own_runs(fresh_cache):
    split = MultiChannelMemorySystem(
        SystemConfig(channels=2, backend="batch")
    ).split(_backlogged())
    for freq in PAPER_FREQUENCIES_MHZ:
        MultiChannelMemorySystem(
            SystemConfig(channels=2, freq_mhz=freq, backend="batch")
        ).run_split(split)
    keys = list(batch_module._DECODE_CACHE)
    assert len(keys) == len(split.runs)
    assert not any(_holds_runs(key) for key in keys)
    stats = batch_module.decode_cache_stats()
    assert (stats["lookups"], stats["misses"]) == (
        2 * len(PAPER_FREQUENCIES_MHZ), 2
    )


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_split_digest_is_each_channels_runs_digest(stream):
    split = MultiChannelMemorySystem(SystemConfig(channels=4)).split(
        STREAMS[stream]()
    )
    assert [split.runs_digest(i) for i in range(4)] == [
        runs_digest(runs) for runs in split.runs
    ]


def test_shared_split_hashes_each_channel_once(fresh_cache, monkeypatch):
    hashed = []

    def counting(runs):
        hashed.append(runs)
        return runs_digest(runs)

    monkeypatch.setattr(batch_module, "runs_digest", counting)
    monkeypatch.setattr(system_module, "runs_digest", counting)
    split = MultiChannelMemorySystem(
        SystemConfig(channels=2, backend="batch")
    ).split(_backlogged())
    results = [
        MultiChannelMemorySystem(
            SystemConfig(channels=2, freq_mhz=freq, backend="batch")
        ).run_split(split)
        for freq in PAPER_FREQUENCIES_MHZ
    ]
    assert hashed == list(split.runs)
    # A direct run() still hashes its own runs, to the same result.
    config = SystemConfig(
        channels=2, freq_mhz=PAPER_FREQUENCIES_MHZ[-1], backend="batch"
    )
    direct = [
        Channel(config, index=i).run(runs) for i, runs in enumerate(split.runs)
    ]
    assert direct == results[-1].channels
    assert hashed == 2 * list(split.runs)
    stats = batch_module.decode_cache_stats()
    assert (stats["lookups"], stats["misses"]) == (
        2 * len(PAPER_FREQUENCIES_MHZ) + 2, 2
    )


def test_grid_ledger_and_keys_come_from_the_splits(fresh_cache, monkeypatch):
    """The paper grid's decode ledger is unchanged, and every cached
    key is the digest of one of the sweep's split channels, holding no
    run tuple."""
    made = []
    split = MultiChannelMemorySystem.split

    def recording_split(self, *args, **kwargs):
        made.append(split(self, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(MultiChannelMemorySystem, "split", recording_split)
    configs = [
        SystemConfig(channels=m, freq_mhz=f, backend="batch")
        for m in PAPER_CHANNEL_COUNTS
        for f in PAPER_FREQUENCIES_MHZ
    ]
    sweep_use_case(PAPER_LEVELS, configs, chunk_budget=2000)
    stats = batch_module.decode_cache_stats()
    assert (stats["lookups"], stats["hits"], stats["evictions"]) == (450, 375, 43)
    assert len(made) == len(PAPER_LEVELS) * len(PAPER_CHANNEL_COUNTS)
    channel_keys = {
        runs_digest(runs) for s in made for runs in s.runs
    }
    assert len(channel_keys) == stats["misses"]
    keys = list(batch_module._DECODE_CACHE)
    assert all(key[0] in channel_keys for key in keys)
    assert not any(_holds_runs(key) for key in keys)


class _RecordingSimulator(ChannelSimulator):
    """A custom simulator that implements only the validating run."""

    calls = []

    def __init__(self, inner):
        self.inner = inner

    def run(self, runs, command_log=None):
        self.calls.append(runs)
        return self.inner.run(runs)


class _RecordingBackend(ChannelBackend):
    name = "test-recording"

    def create(self, config, index=0):
        reference = Channel(config.with_backend("reference"), index)
        return _RecordingSimulator(reference.simulator)


def test_custom_backend_defaults_to_its_validating_run():
    register_backend(_RecordingBackend())
    try:
        config = SystemConfig(channels=2, backend="test-recording")
        system = MultiChannelMemorySystem(config)
        split = system.split(_backlogged())
        _RecordingSimulator.calls.clear()
        result = system.run_split(split)
        assert _RecordingSimulator.calls == list(split.runs)
        reference = MultiChannelMemorySystem(config.with_backend("reference"))
        assert result.channels == reference.run_split(split).channels
    finally:
        unregister_backend("test-recording")
