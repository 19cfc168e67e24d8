"""Tests for RBC/BRC address multiplexing."""

import pytest
from hypothesis import given, strategies as st

from repro.controller.mapping import AddressMapping, AddressMultiplexing
from repro.dram.datasheet import NEXT_GEN_MOBILE_DDR
from repro.dram.device import BankClusterGeometry
from repro.errors import AddressError

GEO = NEXT_GEN_MOBILE_DDR.geometry
RBC = AddressMapping.build(GEO, AddressMultiplexing.RBC)
BRC = AddressMapping.build(GEO, AddressMultiplexing.BRC)

# 4 KB row = 256 chunks.
CHUNKS_PER_ROW = 256


class TestRbcStructure:
    """RBC: a sequential stream walks columns, then banks, then rows."""

    def test_first_row_first_bank(self):
        assert RBC.decode_chunk(0) == (0, 0)
        assert RBC.decode_chunk(CHUNKS_PER_ROW - 1) == (0, 0)

    def test_row_boundary_switches_bank(self):
        # The property that lets activations overlap: crossing a row's
        # worth of addresses lands in the *next bank*, same row.
        assert RBC.decode_chunk(CHUNKS_PER_ROW) == (1, 0)
        assert RBC.decode_chunk(2 * CHUNKS_PER_ROW) == (2, 0)
        assert RBC.decode_chunk(3 * CHUNKS_PER_ROW) == (3, 0)

    def test_wraps_to_next_row_after_all_banks(self):
        assert RBC.decode_chunk(4 * CHUNKS_PER_ROW) == (0, 1)

    def test_chunks_per_row(self):
        assert RBC.chunks_per_row == CHUNKS_PER_ROW


class TestBrcStructure:
    """BRC: a sequential stream exhausts one bank before the next."""

    def test_row_boundary_stays_in_bank(self):
        # The performance difference the paper measured: same-bank row
        # crossings cannot overlap precharge with activation.
        assert BRC.decode_chunk(0) == (0, 0)
        assert BRC.decode_chunk(CHUNKS_PER_ROW) == (0, 1)

    def test_bank_switch_after_whole_bank(self):
        chunks_per_bank = GEO.bank_bytes // 16
        assert BRC.decode_chunk(chunks_per_bank - 1) == (0, GEO.rows_per_bank - 1)
        assert BRC.decode_chunk(chunks_per_bank) == (1, 0)


class TestDecodeEncode:
    @pytest.mark.parametrize("mapping", [RBC, BRC], ids=["rbc", "brc"])
    def test_decode_address_matches_decode_chunk(self, mapping):
        addr = 0x123450
        bank, row, col = mapping.decode_address(addr)
        bank2, row2 = mapping.decode_chunk(addr >> 4)
        assert (bank, row) == (bank2, row2)

    @pytest.mark.parametrize("mapping", [RBC, BRC], ids=["rbc", "brc"])
    def test_column_is_word_index(self, mapping):
        _, _, col = mapping.decode_address(0)
        assert col == 0
        _, _, col = mapping.decode_address(4)
        assert col == 1

    @pytest.mark.parametrize("mapping", [RBC, BRC], ids=["rbc", "brc"])
    @given(data=st.data())
    def test_encode_decode_bijection(self, mapping, data):
        bank = data.draw(st.integers(0, GEO.banks - 1))
        row = data.draw(st.integers(0, GEO.rows_per_bank - 1))
        col = data.draw(st.integers(0, GEO.columns_per_row - 1))
        addr = mapping.encode(bank, row, col)
        assert mapping.decode_address(addr) == (bank, row, col)

    @pytest.mark.parametrize("mapping", [RBC, BRC], ids=["rbc", "brc"])
    @given(addr=st.integers(0, GEO.capacity_bytes - 1))
    def test_decode_encode_round_trip(self, mapping, addr):
        bank, row, col = mapping.decode_address(addr)
        rebuilt = mapping.encode(bank, row, col)
        # Encoding loses only the in-word byte offset.
        assert rebuilt == addr - (addr % 4)
        assert mapping.decode_address(rebuilt) == (bank, row, col)

    def test_out_of_range_chunk_rejected(self):
        with pytest.raises(AddressError):
            RBC.decode_chunk(GEO.capacity_bytes >> 4)
        with pytest.raises(AddressError):
            RBC.decode_chunk(-1)

    def test_encode_validates_fields(self):
        with pytest.raises(AddressError):
            RBC.encode(GEO.banks, 0, 0)
        with pytest.raises(AddressError):
            RBC.encode(0, GEO.rows_per_bank, 0)
        with pytest.raises(AddressError):
            RBC.encode(0, 0, GEO.columns_per_row)


class TestBanksBetween:
    def test_same_row_same_bank(self):
        assert not RBC.banks_between(0, 1)

    def test_rbc_row_crossing_changes_bank(self):
        assert RBC.banks_between(CHUNKS_PER_ROW - 1, CHUNKS_PER_ROW)

    def test_brc_row_crossing_keeps_bank(self):
        assert not BRC.banks_between(CHUNKS_PER_ROW - 1, CHUNKS_PER_ROW)


class TestSchemesDiffer:
    @given(st.integers(0, (GEO.capacity_bytes >> 4) - 1))
    def test_both_schemes_cover_same_space(self, chunk):
        # Both decodes are valid (no exception) everywhere.
        b1, r1 = RBC.decode_chunk(chunk)
        b2, r2 = BRC.decode_chunk(chunk)
        assert 0 <= b1 < GEO.banks and 0 <= r1 < GEO.rows_per_bank
        assert 0 <= b2 < GEO.banks and 0 <= r2 < GEO.rows_per_bank


XOR = AddressMapping.build(GEO, AddressMultiplexing.RBC_XOR)


class TestRbcXorStructure:
    """RBC with the row's low bits XOR-folded into the bank index."""

    def test_row_zero_matches_rbc(self):
        # Row 0 XORs nothing: identical to plain RBC.
        for chunk in range(0, 4 * CHUNKS_PER_ROW, 17):
            assert XOR.decode_chunk(chunk) == RBC.decode_chunk(chunk)

    def test_row_stride_spreads_banks(self):
        # Walking the same RBC bank at row stride 1 (chunk stride =
        # banks * chunks/row) hits a different bank every row under
        # the XOR scheme -- the conflict-avoidance property.
        stride = GEO.banks * CHUNKS_PER_ROW
        rbc_banks = {RBC.decode_chunk(i * stride)[0] for i in range(4)}
        xor_banks = {XOR.decode_chunk(i * stride)[0] for i in range(4)}
        assert rbc_banks == {0}
        assert xor_banks == {0, 1, 2, 3}

    def test_rows_unchanged_by_folding(self):
        for chunk in range(0, 16 * CHUNKS_PER_ROW, 97):
            assert XOR.decode_chunk(chunk)[1] == RBC.decode_chunk(chunk)[1]

    @given(data=st.data())
    def test_encode_decode_bijection(self, data):
        bank = data.draw(st.integers(0, GEO.banks - 1))
        row = data.draw(st.integers(0, GEO.rows_per_bank - 1))
        col = data.draw(st.integers(0, GEO.columns_per_row - 1))
        addr = XOR.encode(bank, row, col)
        assert XOR.decode_address(addr) == (bank, row, col)

    @given(addr=st.integers(0, GEO.capacity_bytes - 1))
    def test_decode_encode_round_trip(self, addr):
        bank, row, col = XOR.decode_address(addr)
        assert XOR.encode(bank, row, col) == addr - (addr % 4)

    def test_sequential_stream_still_rotates_banks(self):
        # Sequential locality (the paper's workload) is preserved:
        # consecutive rows' worth of chunks land in distinct banks.
        banks = [XOR.decode_chunk(i * CHUNKS_PER_ROW)[0] for i in range(4)]
        assert len(set(banks)) == 4


#: Geometries for the block property: the paper's device, one with
#: more banks and shorter rows, and one whose row is a single burst
#: (``block_shift`` 0).
_BLOCK_GEOMETRIES = [
    GEO,
    BankClusterGeometry(capacity_bits=2**28, banks=8, word_bits=32, row_bytes=1024),
    BankClusterGeometry(capacity_bits=2**20, banks=2, word_bits=32, row_bytes=16),
]


@st.composite
def _mapping_and_block(draw):
    mapping = AddressMapping.build(
        draw(st.sampled_from(_BLOCK_GEOMETRIES)),
        draw(st.sampled_from(list(AddressMultiplexing))),
    )
    blocks = (mapping.geometry.capacity_bytes >> 4) >> mapping.block_shift
    return mapping, draw(st.integers(0, blocks - 1))


class TestBlockShift:
    """``block_shift`` is the decode block every engine walks by."""

    @pytest.mark.parametrize("scheme", list(AddressMultiplexing))
    @pytest.mark.parametrize("geometry", _BLOCK_GEOMETRIES)
    def test_equals_lowest_decode_shift(self, geometry, scheme):
        mapping = AddressMapping.build(geometry, scheme)
        shifts = [mapping.bank_shift, mapping.row_shift]
        if mapping.xor_mask:
            shifts.append(mapping.xor_shift)
        assert mapping.block_shift == min(shifts)
        assert 1 << mapping.block_shift == mapping.chunks_per_row

    @given(case=_mapping_and_block(), data=st.data())
    def test_decode_constant_on_aligned_block(self, case, data):
        mapping, block = case
        size = 1 << mapping.block_shift
        head = mapping.decode_chunk(block * size)
        offset = data.draw(st.integers(0, size - 1))
        assert mapping.decode_chunk(block * size + offset) == head
        assert mapping.decode_chunk(block * size + size - 1) == head


class TestXorEnginePerformance:
    def test_row_strided_traffic_faster_under_xor(self):
        from repro.controller.engine import ChannelEngine
        from repro.dram.datasheet import NEXT_GEN_MOBILE_DDR

        # Chunk stride of one full bank rotation (banks x chunks/row):
        # plain RBC hammers bank 0 row after row; XOR spreads it.
        runs = [(0, i * GEO.banks * CHUNKS_PER_ROW, 4) for i in range(256)]
        results = {}
        for scheme in (AddressMultiplexing.RBC, AddressMultiplexing.RBC_XOR):
            engine = ChannelEngine(NEXT_GEN_MOBILE_DDR, 400.0, multiplexing=scheme)
            results[scheme] = engine.run(runs).finish_cycle
        assert results[AddressMultiplexing.RBC_XOR] <= results[AddressMultiplexing.RBC]
