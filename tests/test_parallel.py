"""Determinism suite for the parallel execution layer.

The contract under test (docs/architecture.md, "parallel execution
layer"): running sweep points across worker processes is an
implementation detail -- every observable result is bit-identical
to the sequential path, in the same order, for any worker count.
"""

import os
import pickle
import time
import warnings

import pytest

from repro.core.config import SystemConfig
from repro.core.system import MultiChannelMemorySystem
from repro.errors import ConfigurationError
from repro.load.generators import sequential_stream
from repro.parallel import (
    AUTO_WORKERS,
    MAX_WORKERS,
    PoolFallbackWarning,
    available_cpus,
    parallel_map,
    pool_supported,
    resolve_workers,
)
from repro.resilience.report import JobFailure

needs_pool = pytest.mark.skipif(
    not pool_supported(), reason="process pool unavailable on this platform"
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"worker failure on {x}")


# ---------------------------------------------------------------------------
# Worker-count semantics


class TestResolveWorkers:
    def test_none_means_in_process(self):
        assert resolve_workers(None, 8) == 1

    def test_one_means_in_process(self):
        assert resolve_workers(1, 8) == 1

    def test_auto_uses_cpu_count(self):
        assert resolve_workers(AUTO_WORKERS, 10**6) == available_cpus()

    def test_capped_by_job_count(self):
        assert resolve_workers(16, 4) == 4

    def test_zero_jobs_still_one_worker(self):
        assert resolve_workers(4, 0) == 1

    @pytest.mark.parametrize("bad", [-1, MAX_WORKERS + 1, 2.0, "4", True])
    def test_invalid_counts_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_workers(bad, 8)


# ---------------------------------------------------------------------------
# parallel_map


class TestParallelMap:
    def test_in_process_preserves_order(self):
        assert parallel_map(_square, range(10), workers=1) == [
            n * n for n in range(10)
        ]

    @needs_pool
    def test_pooled_preserves_order(self):
        assert parallel_map(_square, range(50), workers=4) == [
            n * n for n in range(50)
        ]

    @needs_pool
    def test_worker_exceptions_propagate(self):
        with pytest.raises(ValueError, match="worker failure"):
            parallel_map(_boom, [1, 2, 3], workers=2)

    @needs_pool
    def test_unpicklable_function_falls_back_in_process(self):
        # A lambda cannot cross the process boundary; the layer must
        # catch the PicklingError and deliver the identical result
        # in-process instead of failing.
        assert parallel_map(lambda x: x + 1, [1, 2, 3], workers=2) == [2, 3, 4]

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=4) == []


# ---------------------------------------------------------------------------
# Callback (on_result / on_failure) semantics


def _mark_and_square(arg):
    """Square ``value``, dropping one marker file per simulation.

    The marker name embeds pid and a monotonic stamp so *every*
    execution of a job leaves a distinct file -- counting the markers
    for one value counts how many times that job was simulated.
    """
    value, mark_dir = arg
    name = f"{value}-{os.getpid()}-{time.monotonic_ns()}"
    with open(os.path.join(mark_dir, name), "w"):
        pass
    return value * value


def _disk_full(index, value):
    raise OSError("disk full (test)")


def _simulation_counts(mark_dir, values):
    return {
        value: sum(
            1
            for name in os.listdir(mark_dir)
            if name.startswith(f"{value}-")
        )
        for value in values
    }


class TestCallbackSemantics:
    """A raising ``on_result``/``on_failure`` is a *caller* error.

    The trap this guards: a result-cache write failing with ``OSError``
    -- which is also a pool-error type -- must abort the map as the
    caller's exception, never be retried as a "transient pool failure"
    that re-simulates jobs whose results were already delivered.
    """

    @needs_pool
    def test_pooled_on_result_error_propagates_without_resimulation(
        self, tmp_path
    ):
        values = list(range(4))
        jobs = [(value, str(tmp_path)) for value in values]
        with warnings.catch_warnings():
            # A misclassification would surface as retry-then-fallback;
            # escalating the fallback warning makes it unmissable.
            warnings.simplefilter("error", PoolFallbackWarning)
            with pytest.raises(OSError, match="disk full"):
                parallel_map(
                    _mark_and_square, jobs, workers=2, on_result=_disk_full
                )
        counts = _simulation_counts(tmp_path, values)
        assert all(count <= 1 for count in counts.values()), (
            f"a failing on_result re-ran completed jobs: {counts}"
        )

    def test_serial_on_result_error_propagates_and_aborts(self, tmp_path):
        values = list(range(4))
        jobs = [(value, str(tmp_path)) for value in values]
        with pytest.raises(OSError, match="disk full"):
            parallel_map(_mark_and_square, jobs, on_result=_disk_full)
        # The first delivery aborted the map: one simulation, ever.
        counts = _simulation_counts(tmp_path, values)
        assert sum(counts.values()) == 1

    def test_on_result_sees_successes_in_completion_order(self):
        seen = {}
        parallel_map(
            _square, range(5), on_result=lambda i, v: seen.__setitem__(i, v)
        )
        assert seen == {i: i * i for i in range(5)}

    def test_on_failure_receives_captured_failures(self):
        seen = {}
        out = parallel_map(
            _boom,
            [1, 2],
            capture_failures=True,
            on_failure=lambda i, f: seen.__setitem__(i, f),
        )
        assert set(seen) == {0, 1}
        assert all(isinstance(f, JobFailure) for f in seen.values())
        assert out == [seen[0], seen[1]]

    def test_on_failure_error_propagates_as_caller_error(self):
        def explode(index, failure):
            raise RuntimeError("failure sink broke (test)")

        with pytest.raises(RuntimeError, match="failure sink broke"):
            parallel_map(
                _boom, [1], capture_failures=True, on_failure=explode
            )

    @needs_pool
    def test_pooled_on_failure_error_propagates_as_caller_error(self):
        def explode(index, failure):
            raise RuntimeError("failure sink broke (test)")

        with pytest.raises(RuntimeError, match="failure sink broke"):
            parallel_map(
                _boom,
                [1, 2, 3],
                workers=2,
                capture_failures=True,
                on_failure=explode,
            )


# ---------------------------------------------------------------------------
# Channel-level determinism


def _fingerprint(result):
    """Every observable field of a SimulationResult, channel by channel."""
    return [
        (
            ch.finish_cycle,
            ch.data_cycles,
            ch.chunks_read,
            ch.chunks_written,
            ch.counters,
            ch.states,
            ch.bank_accesses,
        )
        for ch in result.channels
    ]


def _write_read_mix(total_bytes, block_bytes=4096):
    """Alternating timed writes and backlogged reads."""
    from repro.controller.request import MasterTransaction, Op

    txns = []
    for i, addr in enumerate(range(0, total_bytes, block_bytes)):
        if i % 2:
            txns.append(MasterTransaction(Op.READ, addr, block_bytes))
        else:
            txns.append(
                MasterTransaction(
                    Op.WRITE, addr, block_bytes, arrival_ns=i * 100.0
                )
            )
    return txns


def _run_system(job):
    """Simulate one point's channels (module-level: a pool job)."""
    channels, txns = job
    return MultiChannelMemorySystem(SystemConfig(channels=channels)).run(txns)


class TestChannelDeterminism:
    """A point's channels are simulated together in the process that
    owns the point; a pool worker must reproduce them exactly."""

    @needs_pool
    @pytest.mark.parametrize("channels", [1, 2, 4, 8])
    def test_parallel_matches_sequential(self, channels):
        txns = sequential_stream(2 * 2**20, block_bytes=4096)
        sequential = _run_system((channels, txns))
        for parallel in parallel_map(
            _run_system, [(channels, txns)] * 2, workers=2
        ):
            assert _fingerprint(parallel) == _fingerprint(sequential)
            assert parallel.channels == sequential.channels
            assert parallel.access_time_ms == sequential.access_time_ms

    @needs_pool
    def test_mixed_timed_workload_matches_sequential(self):
        txns = _write_read_mix(2 * 2**20)
        sequential = _run_system((4, txns))
        for parallel in parallel_map(_run_system, [(4, txns)] * 2, workers=2):
            assert _fingerprint(parallel) == _fingerprint(sequential)

    def test_results_are_picklable(self):
        # The pool round trip relies on lossless pickling of results.
        txns = sequential_stream(64 * 1024, block_bytes=4096)
        result = MultiChannelMemorySystem(SystemConfig(channels=2)).run(txns)
        clone = pickle.loads(pickle.dumps(result))
        assert _fingerprint(clone) == _fingerprint(result)


# ---------------------------------------------------------------------------
# Sweep-level determinism


class TestSweepDeterminism:
    @needs_pool
    def test_sweep_parallel_matches_sequential(self):
        from repro.analysis.sweep import sweep_use_case
        from repro.usecase.levels import level_by_name

        levels = [level_by_name("3.1")]
        configs = [SystemConfig(channels=m) for m in (1, 2, 4)]
        sequential = sweep_use_case(levels, configs, chunk_budget=20_000)
        parallel = sweep_use_case(
            levels, configs, chunk_budget=20_000, workers=2
        )
        assert [p.config for p in parallel] == [p.config for p in sequential]
        for par, seq in zip(parallel, sequential):
            assert _fingerprint(par.result) == _fingerprint(seq.result)
            assert par.power == seq.power
            assert par.verdict is seq.verdict

    @needs_pool
    def test_sweep_order_independence(self):
        from repro.analysis.sweep import sweep_use_case
        from repro.usecase.levels import level_by_name

        levels = [level_by_name("3.1")]
        configs = [SystemConfig(channels=m) for m in (1, 2, 4)]
        forward = sweep_use_case(
            levels, configs, chunk_budget=20_000, workers=2
        )
        backward = sweep_use_case(
            levels, list(reversed(configs)), chunk_budget=20_000, workers=2
        )
        by_channels = {p.config.channels: p for p in backward}
        for point in forward:
            twin = by_channels[point.config.channels]
            assert _fingerprint(point.result) == _fingerprint(twin.result)
            assert point.power == twin.power

    @needs_pool
    def test_explorer_answers_unchanged_by_workers(self):
        from repro.analysis.explorer import minimum_channels
        from repro.usecase.levels import level_by_name

        level = level_by_name("3.2")
        assert minimum_channels(
            level, chunk_budget=20_000, workers=2
        ) == minimum_channels(level, chunk_budget=20_000)
