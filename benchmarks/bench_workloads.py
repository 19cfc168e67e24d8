"""Benchmark: the declarative workload zoo end to end.

Not a paper artifact -- this pins the workloads extension (ROADMAP
item 3, docs/architecture.md section 12):

- spec instantiation is cheap enough to sit inside every sweep job
  (thousands of instantiations per second);
- the declarative ``h264_camcorder`` is bit-identical to the legacy
  imperative facade at benchmark fidelity;
- every zoo spec sweeps end to end, and the zoo's traffic ordering is
  stable (vvc_encoder > h264_camcorder > h264_lossy_ec > vdcm_display
  per frame at 1080p30).
"""

import pytest

from benchmarks.conftest import show
from repro.analysis.sweep import sweep_use_case
from repro.core.config import SystemConfig
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase
from repro.workloads.registry import get_workload

LEVEL = level_by_name("4")
ZOO = ("h264_camcorder", "vvc_encoder", "h264_lossy_ec", "vdcm_display")


def test_instantiation_throughput(benchmark):
    """Binding + instantiating a spec (expression evaluation, buffer
    expansion, traffic resolution) must stay negligible next to the
    simulation it feeds."""
    spec = get_workload("vvc_encoder")

    def instantiate():
        return spec.instantiate(LEVEL).total_bits_per_frame()

    total = benchmark(instantiate)
    assert total > 0


def test_camcorder_matches_legacy(benchmark):
    """The spec's traffic equals the legacy formulas exactly."""
    spec = get_workload("h264_camcorder")

    def both():
        legacy = VideoRecordingUseCase(LEVEL)
        ours = spec.instantiate(LEVEL)
        return legacy, ours

    legacy, ours = benchmark(both)
    assert ours.total_bits_per_frame() == legacy.total_bits_per_frame()
    assert [(b.name, b.size_bytes) for b in ours.buffers()] == [
        (b.name, b.size_bytes) for b in legacy.buffers()
    ]


def test_zoo_sweeps_and_orders(benchmark, budget):
    """One design point per zoo spec through the real sweep path."""
    config = SystemConfig(channels=4, backend="batch")

    def sweep_zoo():
        return {
            name: sweep_use_case(
                [LEVEL], [config], chunk_budget=budget, workload=name
            )[0]
            for name in ZOO
        }

    points = benchmark(sweep_zoo)
    lines = [
        f"{name:<16} {point.access_time_ms:8.2f} ms  "
        f"{get_workload(name).instantiate(LEVEL).total_bits_per_frame() / 1e6:10.1f} Mb/frame"
        for name, point in points.items()
    ]
    show("Workload zoo at 1080p30 on 4ch @ 400 MHz", "\n".join(lines))

    frame_bits = {
        name: get_workload(name).instantiate(LEVEL).total_bits_per_frame()
        for name in ZOO
    }
    assert (
        frame_bits["vvc_encoder"]
        > frame_bits["h264_camcorder"]
        > frame_bits["h264_lossy_ec"]
        > frame_bits["vdcm_display"]
    )
    # Access time orders the same way (same memory, heavier traffic).
    assert (
        points["vvc_encoder"].access_time_ms
        > points["h264_camcorder"].access_time_ms
        > points["vdcm_display"].access_time_ms
    )
    assert all(point.access_time_ms > 0 for point in points.values())
