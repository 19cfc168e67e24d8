"""Repro strings surfaced by ``repro-sim fuzz`` campaigns, pinned.

Each case here came out of a real fuzz campaign (seed and case number
noted inline).  The test replays the shrunk one-line repro and asserts
the *diagnosed* behaviour, so a regression flips the test rather than
waiting for the next campaign to stumble over the same seed.
"""

from repro.regression.fuzzer import compare_case, parse_repro
from repro.regression.invariants import (
    CONTIGUOUS_KINDS,
    check_channel_monotonicity,
)
from repro.core.system import MultiChannelMemorySystem

# Fuzz seed 5, case 302 (2026-08): alternating R/W over two distant
# regions.  Doubling 2ch -> 4ch halves the per-channel chunk index,
# shifting which address bits select the bank; the read region (base
# 0x0) and write region (base 0x2000000) that pipelined across banks
# 0/1 at 2ch both land in bank 0 at 4ch and row-thrash (35 conflicts
# per channel, 1879.8 ns -> 2188.8 ns).  Correct model physics -- the
# bug was the channel-monotonicity invariant claiming alternating
# traffic for its domain.
ALTERNATING_BANK_ALIAS = (
    "channels=2 freq=466 map=brc page=open pd=immediate | "
    + ";".join(
        f"R 0x{i * 0x100:x} 256 0.0;W 0x{0x2000000 + i * 0x100:x} 256 0.0"
        for i in range(18)
    )
)


def _run(case, channels):
    config = case.config.with_channels(channels).with_backend("reference")
    return MultiChannelMemorySystem(config).run(list(case.transactions))


class TestAlternatingBankAlias:
    def test_alternating_is_outside_monotonicity_domain(self):
        case = parse_repro(ALTERNATING_BANK_ALIAS)
        assert case.kind not in CONTIGUOUS_KINDS or case.kind == "replay"
        assert check_channel_monotonicity(case) == []

    def test_slowdown_is_bank_serialisation_not_a_timing_bug(self):
        # The diagnosed mechanism must stay observable: 2ch spreads the
        # two regions across banks conflict-free, 4ch aliases them onto
        # one bank and pays row conflicts for the entire slowdown.
        case = parse_repro(ALTERNATING_BANK_ALIAS)
        base = _run(case, 2)
        doubled = _run(case, 4)
        assert all(ch.bank_conflicts == 0 for ch in base.channels)
        assert all(ch.bank_conflicts > 0 for ch in doubled.channels)
        for ch in doubled.channels:
            busy_banks = [n for n in ch.bank_accesses if n > 0]
            assert len(busy_banks) == 1
        assert doubled.sample_access_time_ns > base.sample_access_time_ns

    def test_batch_backend_stays_bit_identical_on_repro(self):
        # The case came out of a batch-vs-reference campaign; parity
        # must hold on it regardless of the invariant-domain fix.
        from dataclasses import replace

        for channels in (2, 4):
            case = parse_repro(ALTERNATING_BANK_ALIAS)
            case = replace(case, config=case.config.with_channels(channels))
            mismatches = compare_case(case, "batch")
            assert mismatches == [], "\n".join(m.describe() for m in mismatches)


class TestWorkloadCampaignStaysClean:
    """Campaign record, 2026-08 (workload zoo landed): seeds 1/5/17 x
    300 cases each -- which include the ``workload`` traffic kind
    replaying scaled-down zoo frames -- ran clean across fast,
    analytic and batch vs the reference (639/644/637 differential
    checks, zero mismatches, zero invariant violations).  No repro to
    pin; this guard replays the workload-kind cases of one pinned
    seed-window under the bit-identical batch backend so a zoo or
    load-model regression surfaces here first."""

    def test_workload_cases_of_seed_5_stay_clean(self):
        from repro.regression.fuzzer import generate_case

        checked = 0
        for index in range(60):
            case = generate_case(seed=5, index=index)
            if case.kind != "workload":
                continue
            checked += 1
            mismatches = compare_case(case, "batch")
            assert mismatches == [], (case.describe(), mismatches)
        assert checked >= 5  # the kind is actually being sampled
