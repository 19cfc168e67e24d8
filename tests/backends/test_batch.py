"""Batch-backend specifics: segment decode, decode cache, fallbacks.

Cross-backend parity/registry/cache behaviour lives in the
sibling suites (parametrized over ``batch``); this file pins what is
unique to the batch engine -- the segment decode, the cross-point
decode cache, and the exact-fallback paths that delegate to the
reference stepper.
"""

from collections import Counter, OrderedDict

import hypothesis
import pytest
from hypothesis import strategies as st

from repro.backends import batch as batch_module
from repro.backends.registry import get_backend
from repro.controller.mapping import AddressMapping, AddressMultiplexing
from repro.controller.request import Op
from repro.core.channel import Channel
from repro.core.config import PagePolicy, SystemConfig
from repro.errors import AddressError

RUNS = [(0, 0, 512), (1, 4096, 512), (0, 64, 256)]

GEOMETRY = SystemConfig().device.geometry
MAX_CHUNK = GEOMETRY.capacity_bytes >> 4


@pytest.fixture
def fresh_cache():
    batch_module.clear_decode_cache()
    yield
    batch_module.clear_decode_cache()


def _seg_size(mapping):
    shifts = [mapping.bank_shift, mapping.row_shift]
    if mapping.xor_mask:
        shifts.append(mapping.xor_shift)
    return 1 << min(shifts)


@st.composite
def _runs_and_mapping(draw):
    """A normalised run list plus the mapping it is decoded under.

    Run lengths reach many 2**block_shift blocks so segment splitting at
    block boundaries (row crossings, bank rotations) is exercised, and
    starts are arbitrary so head and tail segments are mostly partial.
    """
    mapping = AddressMapping.build(
        GEOMETRY, draw(st.sampled_from(list(AddressMultiplexing)))
    )
    seg = _seg_size(mapping)
    runs = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        count = draw(st.integers(min_value=1, max_value=12 * seg))
        start = draw(st.integers(min_value=0, max_value=MAX_CHUNK - count))
        op = draw(st.sampled_from((0, 1)))
        arrival = draw(st.integers(min_value=0, max_value=10**7))
        runs.append((op, start, count, arrival))
    return tuple(runs), mapping


class TestSegmentDecode:
    """The segment table is a lossless run-length view of the per-access
    decode (``mapping.decode_chunk`` burst by burst)."""

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(case=_runs_and_mapping())
    def test_segments_match_reference_decode(self, case):
        runs, mapping = case
        seg = _seg_size(mapping)
        decoded = batch_module._decode_stream(runs, mapping)

        expected = [
            (op, *mapping.decode_chunk(chunk))
            for op, start, count, _ in runs
            for chunk in range(start, start + count)
        ]
        expanded = [
            (op, bank, row)
            for op, bank, row, count, _ in decoded.segments
            for _ in range(count)
        ]
        assert expanded == expected

        # One segment per (run, 2**block_shift block), cut exactly at the
        # block or run end; the arrival sits on the run-head segment only.
        cuts = []
        for _, start, count, arrival in runs:
            lo = start
            while lo < start + count:
                hi = min((lo // seg + 1) * seg, start + count)
                cuts.append((hi - lo, arrival if lo == start else -1))
                lo = hi
        assert [(s[3], s[4]) for s in decoded.segments] == cuts

        assert decoded.n_rd == sum(1 for op, _, _ in expected if op == 0)
        assert decoded.n_wr == sum(1 for op, _, _ in expected if op == 1)
        banks = Counter(bank for _, bank, _ in expected)
        assert decoded.bank_counts == tuple(
            banks[b] for b in range(mapping.bank_mask + 1)
        )


class TestDecodeCache:
    def test_sweep_points_share_one_decode(self, fresh_cache):
        config = SystemConfig(channels=1, backend="batch")
        for freq in (200.0, 266.0, 333.0, 400.0):
            Channel(config.with_frequency(freq)).run(RUNS)
        stats = batch_module.decode_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_distinct_mappings_decode_separately(self, fresh_cache):
        config = SystemConfig(channels=1, backend="batch")
        Channel(config).run(RUNS)
        remapped = SystemConfig(
            channels=1,
            backend="batch",
            multiplexing=AddressMultiplexing.BRC,
        )
        Channel(remapped).run(RUNS)
        stats = batch_module.decode_cache_stats()
        assert stats["misses"] == 2

    def test_cache_is_bounded(self, fresh_cache):
        config = SystemConfig(channels=1, backend="batch")
        for i in range(batch_module.DECODE_CACHE_SIZE + 4):
            Channel(config).run([(0, i * 16, 64)])
        assert len(batch_module._DECODE_CACHE) == batch_module.DECODE_CACHE_SIZE

    def test_keys_depend_on_run_values_only(self, fresh_cache):
        # Equal run lists built independently hit one entry even when
        # their large ints are shared differently: one list reuses a
        # single arrival object, the other parses every int afresh
        # (marshal format 3+ would serialise the two differently).
        mapping = AddressMapping.build(GEOMETRY, AddressMultiplexing.RBC)
        arrival = 10**12 + 7
        shared = tuple(
            (i % 2, (MAX_CHUNK >> 1) + 64 * i, 48, arrival) for i in range(8)
        )
        fresh = tuple(
            (
                int(str(i % 2)),
                int(str((MAX_CHUNK >> 1) + 64 * i)),
                int(str(48)),
                int(str(10**12 + 7)),
            )
            for i in range(8)
        )
        assert fresh == shared and fresh[0][3] is not shared[0][3]
        first = batch_module._decode_cached(shared, mapping)
        assert batch_module._decode_cached(fresh, mapping) is first
        assert batch_module.decode_cache_stats()["misses"] == 1
        for field in range(4):
            changed = list(fresh)
            run = list(changed[3])
            run[field] = 1 - run[field] if field == 0 else run[field] + 1
            changed[3] = tuple(run)
            batch_module._decode_cached(tuple(changed), mapping)
        assert batch_module._decode_cached(shared[:-1], mapping) is not first
        stats = batch_module.decode_cache_stats()
        assert (stats["lookups"], stats["misses"]) == (7, 6)

    def test_op_members_key_as_their_int_values(self, fresh_cache):
        # marshal rejects int subclasses; a raw run carrying an Op
        # member still decodes, under the plain-int runs' entry.
        config = SystemConfig(channels=1, backend="batch")
        plain = Channel(config).run([(0, 0, 512), (1, 4096, 512)])
        members = Channel(config).run([(Op.READ, 0, 512), (Op.WRITE, 4096, 512)])
        assert members == plain
        stats = batch_module.decode_cache_stats()
        assert (stats["lookups"], stats["misses"]) == (2, 1)

    def test_stats_ledger_closes_after_real_runs(self, fresh_cache):
        # Overflow the cache with distinct run lists, revisit a few:
        # the counters must close as a ledger, not merely trend.
        config = SystemConfig(channels=1, backend="batch")
        for i in range(batch_module.DECODE_CACHE_SIZE + 6):
            Channel(config).run([(0, i * 16, 64)])
        Channel(config).run([(0, (batch_module.DECODE_CACHE_SIZE + 5) * 16, 64)])
        stats = batch_module.decode_cache_stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["insertions"] == stats["misses"]
        assert stats["evictions"] <= stats["insertions"]
        assert stats["entries"] == stats["insertions"] - stats["evictions"]
        assert stats["entries"] <= batch_module.DECODE_CACHE_SIZE
        assert stats["evictions"] == 6
        assert stats["hits"] == 1


class TestDecodeCacheLedgerProperty:
    """Property test: the decode-cache counters form a closed ledger
    under *any* lookup sequence, including eviction churn.

    Drives :func:`batch._decode_cached` directly with a stubbed decode
    (the ledger does not care what a segment table contains) and
    checks, after every single operation, the invariants documented on
    :func:`batch.decode_cache_stats` plus exact hit/miss agreement
    with a model LRU.
    """

    class _StubMapping:
        bank_shift = bank_mask = row_shift = row_mask = 0
        xor_shift = xor_mask = 0

    @hypothesis.given(
        sequence=st.lists(
            st.integers(min_value=0, max_value=2 * batch_module.DECODE_CACHE_SIZE),
            max_size=150,
        )
    )
    def test_ledger_invariants_hold_after_every_op(self, sequence):
        real_decode = batch_module._decode_stream
        batch_module._decode_stream = lambda runs, mapping: object()
        batch_module.clear_decode_cache()
        try:
            model = OrderedDict()
            model_hits = 0
            for key_id in sequence:
                runs = ((0, key_id, 0, 0),)
                batch_module._decode_cached(runs, self._StubMapping())
                if key_id in model:
                    model.move_to_end(key_id)
                    model_hits += 1
                else:
                    model[key_id] = True
                    while len(model) > batch_module.DECODE_CACHE_SIZE:
                        model.popitem(last=False)
                stats = batch_module.decode_cache_stats()
                assert stats["hits"] + stats["misses"] == stats["lookups"]
                assert stats["insertions"] == stats["misses"]
                assert stats["evictions"] <= stats["insertions"]
                assert (
                    stats["entries"]
                    == stats["insertions"] - stats["evictions"]
                )
                assert stats["entries"] <= batch_module.DECODE_CACHE_SIZE
                assert stats["hits"] == model_hits
                assert stats["entries"] == len(model)
            stats = batch_module.decode_cache_stats()
            assert stats["lookups"] == len(sequence)
        finally:
            batch_module._decode_stream = real_decode
            batch_module.clear_decode_cache()


class TestFallbacks:
    def test_closed_page_falls_back_to_reference_loop(self):
        config = SystemConfig(
            channels=1, page_policy=PagePolicy.CLOSED, backend="batch"
        )
        ref = Channel(config.with_backend("reference")).run(RUNS)
        out = Channel(config).run(RUNS)
        assert out == ref

    def test_invariant_checking_engine_matches_reference(self):
        config = SystemConfig(channels=1, backend="batch")
        engine = get_backend("batch").create(config)
        engine.check_invariants = True
        ref = Channel(config.with_backend("reference")).run(RUNS)
        assert engine.run(RUNS) == ref

    def test_capacity_error_matches_reference_message(self):
        config = SystemConfig(channels=1, backend="batch")
        huge = [(0, 0, 1 << 40)]
        with pytest.raises(AddressError) as batch_err:
            Channel(config).run(huge)
        with pytest.raises(AddressError) as ref_err:
            Channel(config.with_backend("reference")).run(huge)
        assert str(batch_err.value) == str(ref_err.value)
