"""Tests for the differential fuzzer: determinism, repro strings,
shrinking against a deliberately-wrong backend, campaign reporting."""

import hashlib
import re
from dataclasses import replace

import pytest

from repro.backends.base import ChannelBackend, ChannelSimulator
from repro.backends.registry import register_backend, unregister_backend
from repro.controller.request import MasterTransaction, Op
from repro.errors import RegressionError
from repro.regression import (
    FuzzCase,
    compare_case,
    generate_case,
    generate_cases,
    parse_repro,
    run_fuzz,
    run_repro,
    shrink_case,
)
from repro.regression.fuzzer import (
    DEFAULT_QUEUE_DEPTH,
    FUZZ_QUEUE_DEPTHS,
    TRAFFIC_KINDS,
)
from repro.telemetry import Telemetry


class TestDeterminism:
    def test_same_seed_same_cases(self):
        # The whole design rests on this: a campaign is identified by
        # (seed, count) alone -- no wall clock, no hash randomisation.
        assert generate_cases(7, 12) == generate_cases(7, 12)

    def test_case_independent_of_count(self):
        # Case i of a campaign does not depend on how many cases were
        # requested, so a failure from a 1000-case run replays as
        # generate_case(seed, i) directly.
        assert generate_cases(7, 12)[3] == generate_case(7, 3)

    def test_different_seeds_differ(self):
        assert generate_cases(1, 8) != generate_cases(2, 8)

    def test_campaign_samples_the_space(self):
        cases = generate_cases(0, 60)
        assert len({c.config.channels for c in cases}) >= 4
        assert len({c.config.freq_mhz for c in cases}) >= 5
        assert {c.kind for c in cases} == {kind for kind, _ in TRAFFIC_KINDS}
        assert any(c.streaming for c in cases)
        assert any(not c.streaming for c in cases)

    def test_campaign_samples_queue_depths(self):
        cases = generate_cases(5, 100)
        assert {
            c.config.queue.depth for c in cases if not c.streaming
        } == set(FUZZ_QUEUE_DEPTHS)
        # Screened cases stay at the depth the analytic tolerance covers.
        assert {c.config.queue.depth for c in cases if c.streaming} == {
            DEFAULT_QUEUE_DEPTH
        }

    def test_queue_depth_is_the_last_draw(self):
        # Apart from the depth, every case is the one the generator made
        # before it drew depths (digest of seed 5's first 50 repro
        # strings at that generator).
        text = "\n".join(
            re.sub(r" queue=\d+", "", generate_case(5, index).repro())
            for index in range(50)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b4408af224e25e84e1a613367c1a39c1061a201a066e37596f064fecb4056c26"
        )

    def test_rejects_empty_campaign(self):
        with pytest.raises(RegressionError, match="count"):
            generate_cases(0, 0)


class TestReproStrings:
    def test_round_trip(self):
        for case in generate_cases(11, 10):
            back = parse_repro(case.repro())
            assert back.config == case.config
            assert back.transactions == case.transactions

    def test_round_trip_carries_queue_depth(self):
        case = next(
            c for c in generate_cases(5, 20) if c.config.queue.depth != 8
        )
        assert f" queue={case.config.queue.depth} |" in case.repro()
        assert parse_repro(case.repro()).config == case.config

    def test_repro_without_queue_replays_at_default_depth(self):
        case = parse_repro("channels=2 freq=400 map=rbc page=open pd=never | R 0x0 64")
        assert case.config.queue.depth == DEFAULT_QUEUE_DEPTH == 8

    def test_round_trip_preserves_float_arrivals(self):
        case = generate_case(5, 0)
        txns = tuple(
            replace(t, arrival_ns=1670.5952745453149) for t in case.transactions
        )
        case = replace(case, transactions=txns)
        assert parse_repro(case.repro()).transactions == txns

    def test_malformed_string_rejected(self):
        with pytest.raises(RegressionError, match="malformed"):
            parse_repro("channels=2 | R nope 16")
        with pytest.raises(RegressionError, match="malformed"):
            parse_repro("no pipe at all")

    def test_empty_transaction_list_rejected(self):
        with pytest.raises(RegressionError, match="no transactions"):
            parse_repro("channels=2 freq=400 map=rbc page=open pd=never | ")

    def test_unknown_power_down_rejected(self):
        spec = generate_case(5, 0).repro().replace(
            f"pd={generate_case(5, 0).config.power_down.name}", "pd=sometimes"
        )
        with pytest.raises(RegressionError, match="power-down"):
            parse_repro(spec)


class _OffByOneSimulator(ChannelSimulator):
    """Reference simulator with the finish cycle nudged: the smallest
    possible lie a backend can tell, which bit-identity must catch."""

    def __init__(self, inner):
        self._inner = inner

    def run(self, runs, command_log=None):
        result = self._inner.run(runs, command_log)
        return replace(result, finish_cycle=result.finish_cycle + 1)


class _OffByOneBackend(ChannelBackend):
    name = "test-off-by-one"
    supports_command_log = True
    description = "reference plus one cycle (deliberately wrong)"
    reference_tolerance = 0.0

    def create(self, config, index=0):
        from repro.backends.registry import get_backend

        return _OffByOneSimulator(
            get_backend("reference").create(config, index)
        )


@pytest.fixture
def off_by_one_backend():
    register_backend(_OffByOneBackend())
    try:
        yield "test-off-by-one"
    finally:
        unregister_backend("test-off-by-one")


class TestDifferentialChecks:
    def test_batch_backend_agrees(self):
        for case in generate_cases(3, 5):
            assert compare_case(case, "batch") == []

    def test_off_by_one_backend_caught(self, off_by_one_backend):
        case = generate_case(3, 0)
        problems = compare_case(case, off_by_one_backend)
        assert problems
        assert any("finish_cycle" in p for p in problems)

    def test_screening_backend_counters_must_match(self, off_by_one_backend):
        # A screening (tolerance) backend still may not move different
        # data: only its *timing* is approximate.
        class WrongTraffic(_OffByOneBackend):
            name = "test-wrong-traffic"
            reference_tolerance = 0.5

            def create(self, config, index=0):
                from repro.backends.registry import get_backend
                from repro.dram.commands import CommandCounters

                inner = get_backend("reference").create(config, index)

                class Sim(ChannelSimulator):
                    def run(self, runs, command_log=None):
                        result = inner.run(runs, command_log)
                        counters = result.counters
                        return replace(
                            result,
                            counters=CommandCounters(
                                **{
                                    **counters.as_dict(),
                                    "reads": counters.reads + 1,
                                }
                            ),
                        )

                return Sim()

        register_backend(WrongTraffic())
        try:
            problems = compare_case(generate_case(3, 0), "test-wrong-traffic")
            assert any("data movement" in p for p in problems)
        finally:
            unregister_backend("test-wrong-traffic")


class TestShrinking:
    def test_shrinks_to_single_transaction(self, off_by_one_backend):
        # The off-by-one lie fails on *every* input, so the minimal
        # still-failing case is one transaction.
        case = generate_case(9, 1)
        assert len(case.transactions) > 1
        minimal = shrink_case(
            case, lambda c: bool(compare_case(c, off_by_one_backend))
        )
        assert len(minimal.transactions) == 1
        assert compare_case(minimal, off_by_one_backend)

    def test_shrink_halves_sizes(self):
        case = replace(
            generate_case(9, 1),
            transactions=(MasterTransaction(Op.READ, 0, 4096),),
        )
        minimal = shrink_case(case, lambda c: True)
        assert len(minimal.transactions) == 1
        assert minimal.transactions[0].size == 16

    def test_shrink_keeps_failure_alive(self):
        # A predicate that only fails on streams with >= 3 txns must
        # not be shrunk below 3.
        case = generate_case(4, 2)
        if len(case.transactions) < 4:
            case = replace(case, transactions=case.transactions * 4)
        minimal = shrink_case(case, lambda c: len(c.transactions) >= 3)
        assert len(minimal.transactions) == 3


class TestCampaign:
    def test_clean_tree_campaign_passes(self):
        telemetry = Telemetry.enabled()
        report = run_fuzz(cases=10, seed=1, telemetry=telemetry)
        assert report.passed, report.format()
        assert report.cases == 10
        # Every (case, default backend) pair is either checked or
        # screening-skipped; the defaults are batch and analytic.
        assert report.checks + report.skipped_screening == 10 * 2
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["regression.cases"] == 10
        assert counters["regression.mismatches"] == 0
        assert report.format().endswith("PASS")

    def test_campaign_finds_and_shrinks_wrong_backend(self, off_by_one_backend):
        telemetry = Telemetry.enabled()
        report = run_fuzz(
            cases=3,
            seed=2,
            backends=[off_by_one_backend],
            check_invariants=False,
            telemetry=telemetry,
        )
        assert not report.passed
        assert len(report.mismatches) == 3
        for mismatch in report.mismatches:
            assert mismatch.backend == off_by_one_backend
            assert len(mismatch.case.transactions) == 1  # shrunk
            # The repro string replays to the same failure.
            assert run_repro(mismatch.repro, off_by_one_backend)
            assert "repro:" in mismatch.describe()
        assert telemetry.registry.as_dict()["counters"][
            "regression.mismatches"
        ] == 3
        assert report.format().endswith("FAIL")

    def test_repro_of_fixed_bug_comes_back_clean(self):
        # Replaying a repro string against a correct backend returns no
        # discrepancies -- the workflow for confirming a fix.
        case = generate_case(6, 0)
        assert run_repro(case.repro(), "batch") == []

    def test_no_shrink_keeps_original_case(self, off_by_one_backend):
        report = run_fuzz(
            cases=1,
            seed=2,
            backends=[off_by_one_backend],
            check_invariants=False,
            shrink=False,
        )
        (mismatch,) = report.mismatches
        assert mismatch.case == generate_case(2, 0)
