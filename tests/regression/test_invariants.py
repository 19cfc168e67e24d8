"""Tests for the metamorphic invariant checks."""

from dataclasses import replace

from repro.controller.queue import CommandQueueModel
from repro.regression import (
    check_case_invariants,
    check_channel_monotonicity,
    check_frequency_monotonicity,
    check_prefix_consistency,
    generate_case,
    generate_cases,
)
from repro.regression.invariants import (
    CONTIGUOUS_KINDS,
    MAX_CHECK_CHANNELS,
    MAX_CHECK_FREQ_MHZ,
    InvariantViolation,
    check_frfcfs_degeneracy,
)


class TestDomainGates:
    def test_channel_check_skips_non_contiguous_kinds(self):
        # Strided/random traffic can alias onto a channel subset where
        # doubling genuinely does not help -- out of the invariant's
        # domain, so the check must skip, not fail.
        case = next(
            c for c in generate_cases(0, 40) if c.kind not in CONTIGUOUS_KINDS
        )
        assert check_channel_monotonicity(case) == []

    def test_channel_check_skips_at_channel_ceiling(self):
        case = next(c for c in generate_cases(0, 40) if c.kind == "sequential")
        wide = replace(
            case, config=case.config.with_channels(MAX_CHECK_CHANNELS)
        )
        assert check_channel_monotonicity(wide) == []

    def test_frequency_check_skips_above_device_range(self):
        case = generate_case(0, 0)
        fast_clock = replace(
            case, config=case.config.with_frequency(MAX_CHECK_FREQ_MHZ)
        )
        assert check_frequency_monotonicity(fast_clock) == []

    def test_prefix_check_skips_single_transaction(self):
        case = generate_case(0, 0)
        single = replace(case, transactions=case.transactions[:1])
        assert check_prefix_consistency(single) == []


class TestInvariantsHold:
    def test_generated_cases_satisfy_all_invariants(self):
        # The real engine must satisfy its own physics on a seeded
        # sample; the full campaign runs under ``repro-sim fuzz``.
        for case in generate_cases(13, 6):
            violations = check_case_invariants(case)
            assert violations == [], "\n".join(
                v.describe() for v in violations
            )


class TestFrfcfsDegeneracy:
    def test_holds_on_generated_cases(self):
        # Cases span the three mappings, every fuzz clock and paced
        # traffic whose gaps exercise power-down and refresh.
        for case in generate_cases(5, 40):
            violations = check_frfcfs_degeneracy(case)
            assert violations == [], "\n".join(
                v.describe() for v in violations
            )

    def test_holds_at_the_drawn_depth_where_the_queue_cannot_bind(
        self, monkeypatch
    ):
        from repro.regression import invariants

        depths = []
        real_build = invariants.build_engine

        def recording_build(config):
            depths.append(config.queue.depth)
            return real_build(config)

        monkeypatch.setattr(invariants, "build_engine", recording_build)
        case = next(c for c in generate_cases(5, 40) if c.kind == "sequential")
        # At 200 MHz only depth 1 can bind; at 533 MHz depths 1, 2 and 4.
        for freq, depth, held_at in (
            (200.0, 1, 8),
            (200.0, 2, 2),
            (200.0, 4, 4),
            (533.0, 4, 8),
            (533.0, 8, 8),
        ):
            config = replace(
                case.config.with_frequency(freq),
                queue=CommandQueueModel(depth=depth),
            )
            depths.clear()
            violations = check_frfcfs_degeneracy(replace(case, config=config))
            assert violations == [], "\n".join(v.describe() for v in violations)
            assert depths == [held_at]

    def test_names_the_diverging_fields(self, monkeypatch):
        from repro.controller import frfcfs

        real_run = frfcfs.ReorderingChannelEngine.run

        def without_bank_stats(self, runs, command_log=None):
            return replace(real_run(self, runs, command_log), bank_accesses=())

        monkeypatch.setattr(
            frfcfs.ReorderingChannelEngine, "run", without_bank_stats
        )
        case = next(c for c in generate_cases(5, 40) if c.kind == "sequential")
        violations = check_frfcfs_degeneracy(case)
        assert violations
        assert violations[0].invariant == "FR-FCFS degeneracy"
        assert "bank_accesses" in violations[0].detail


class TestViolationReporting:
    def test_describe_names_invariant_and_repro(self):
        case = generate_case(0, 0)
        violation = InvariantViolation(
            invariant="channel monotonicity",
            case=case,
            detail="2 -> 4 channels slowed the run: 10.0 ns -> 20.0 ns",
            repro=case.repro(),
        )
        text = violation.describe()
        assert "channel monotonicity" in text
        assert "slowed the run" in text
        assert "repro: channels=" in text
