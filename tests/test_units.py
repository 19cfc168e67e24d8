"""Unit-conversion tests."""

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestTime:
    def test_ns_to_ms(self):
        assert units.ns_to_ms(33.3e6) == pytest.approx(33.3)

    def test_clock_period_200mhz(self):
        assert units.clock_period_ns(200.0) == pytest.approx(5.0)

    def test_clock_period_533mhz(self):
        assert units.clock_period_ns(533.0) == pytest.approx(1.876, abs=1e-3)

    def test_clock_period_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.clock_period_ns(0.0)
        with pytest.raises(ValueError):
            units.clock_period_ns(-100.0)


class TestNsToCycles:
    def test_exact_multiple(self):
        # 15 ns at 5 ns period -> exactly 3 cycles.
        assert units.ns_to_cycles(15.0, 200.0) == 3

    def test_rounds_up(self):
        # 15 ns at 266 MHz (~3.76 ns) -> 4 cycles, never 3.
        assert units.ns_to_cycles(15.0, 266.0) == 4

    def test_zero_and_negative(self):
        assert units.ns_to_cycles(0.0, 400.0) == 0
        assert units.ns_to_cycles(-5.0, 400.0) == 0

    @given(
        st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
        st.sampled_from([200.0, 266.0, 333.0, 400.0, 466.0, 533.0]),
    )
    def test_ceiling_property(self, ns, freq):
        cycles = units.ns_to_cycles(ns, freq)
        period = units.clock_period_ns(freq)
        # Enough cycles to cover the duration...
        assert cycles * period >= ns - 1e-6
        # ...but not a whole extra cycle too many.
        assert (cycles - 1) * period < ns + 1e-6
