"""Tests for the static row-locality analyzer."""

import pytest

from repro.controller.mapping import AddressMultiplexing
from repro.controller.request import MasterTransaction, Op
from repro.core.config import SystemConfig
from repro.core.system import MultiChannelMemorySystem
from repro.dram.datasheet import NEXT_GEN_MOBILE_DDR
from repro.errors import ConfigurationError
from repro.load.generators import random_stream, sequential_stream
from repro.load.locality import predict_locality
from repro.load.model import VideoRecordingLoadModel
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase

GEO = NEXT_GEN_MOBILE_DDR.geometry


class TestPrediction:
    def test_sequential_high_hit_rate(self):
        txns = sequential_stream(2**20, block_bytes=4096)
        pred = predict_locality(txns, channels=1, geometry=GEO)
        # 1 MB over 4 KB rows: 256 activates over 65536 chunks.
        assert pred.total_chunks == 2**16
        assert pred.total_activates == 256
        assert pred.row_hit_rate > 0.99

    def test_random_low_hit_rate(self):
        # 64-byte random accesses: the 4 chunks inside each access hit,
        # but essentially every *access* opens a new row, so the hit
        # rate pins to ~3/4 -- far below sequential's ~1.
        txns = random_stream(5_000, 32 * 2**20, access_bytes=64, seed=1)
        pred = predict_locality(txns, channels=1, geometry=GEO)
        assert pred.row_hit_rate < 0.8
        assert pred.total_activates > 0.95 * 5_000

    def test_chunks_split_evenly_across_channels(self):
        txns = sequential_stream(2**18, block_bytes=4096)
        pred = predict_locality(txns, channels=4, geometry=GEO)
        assert len(set(pred.chunks_per_channel)) == 1

    def test_empty_stream(self):
        pred = predict_locality([], channels=2, geometry=GEO)
        assert pred.total_chunks == 0
        assert pred.row_hit_rate == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            predict_locality([], channels=0, geometry=GEO)

    def test_wraps_capacity_like_the_system(self):
        capacity = GEO.capacity_bytes  # single channel
        txn = MasterTransaction(Op.READ, capacity - 64, 128)  # straddles top
        pred = predict_locality([txn], channels=1, geometry=GEO)
        assert pred.total_chunks == 8


class TestEngineCrossValidation:
    """The prediction must match the engine exactly on refresh-free
    windows -- two independent implementations of the same state walk."""

    @pytest.mark.parametrize("channels", [1, 2, 4])
    @pytest.mark.parametrize(
        "scheme", list(AddressMultiplexing), ids=lambda s: s.value
    )
    def test_activates_match_engine(self, channels, scheme):
        import dataclasses

        # Small enough that no tREFI boundary is crossed on any
        # channel count (refresh would add re-activations).
        txns = sequential_stream(16 * 1024, block_bytes=4096)
        config = dataclasses.replace(
            SystemConfig(channels=channels, freq_mhz=400.0), multiplexing=scheme
        )
        sim = MultiChannelMemorySystem(config).run(txns)
        pred = predict_locality(txns, channels, GEO, scheme)
        # Short run: no refresh interference.
        assert sim.merged_counters().refreshes == 0
        assert sim.merged_counters().activates == pred.total_activates
        assert sim.row_hit_rate == pytest.approx(pred.row_hit_rate)

    def test_use_case_fragment_matches(self):
        load = VideoRecordingLoadModel(VideoRecordingUseCase(level_by_name("3.1")))
        txns = load.generate_frame(scale=1 / 256)
        config = SystemConfig(channels=2, freq_mhz=400.0)
        sim = MultiChannelMemorySystem(config).run(txns, scale=1 / 256)
        pred = predict_locality(txns, 2, GEO)
        refreshes = sim.merged_counters().refreshes
        measured = sim.merged_counters().activates
        # Engine adds at most geometry.banks re-activations per refresh.
        assert pred.total_activates <= measured
        assert measured <= pred.total_activates + refreshes * GEO.banks * 2
