"""Short-flit detection and shutdown power-factor tests (Sec. 3.2.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.shutdown import DETECTOR_OVERHEAD, shutdown_power_factor
from repro.traffic.patterns import WORD_MASK, flit_active_groups


class TestShortFlitDetector:
    """The detector's decision is ``flit_active_groups``: 1 means short."""

    def test_short_flit_detected(self):
        assert flit_active_groups([7, 0, 0, 0]) == 1

    def test_all_ones_detected(self):
        assert flit_active_groups([7, WORD_MASK, WORD_MASK, WORD_MASK]) == 1

    def test_full_flit_all_layers(self):
        assert flit_active_groups([1, 2, 3, 4]) == 4


class TestShutdownPowerFactor:
    def test_no_short_flits_costs_only_overhead(self):
        assert shutdown_power_factor(0.0) == pytest.approx(1.0 + DETECTOR_OVERHEAD)

    def test_headline_50pct_four_layers(self):
        """Sec. 4.2.2: ~36% separable-power saving at 50% short flits."""
        factor = shutdown_power_factor(0.5, layers=4)
        assert 1.0 - factor == pytest.approx(0.365, abs=0.005)

    def test_25pct(self):
        factor = shutdown_power_factor(0.25, layers=4)
        assert 1.0 - factor == pytest.approx(0.1775, abs=0.005)

    def test_all_short_lower_bound(self):
        factor = shutdown_power_factor(1.0, layers=4, detector_overhead=0.0)
        assert factor == pytest.approx(0.25)

    def test_single_layer_no_saving(self):
        factor = shutdown_power_factor(0.8, layers=1, detector_overhead=0.0)
        assert factor == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            shutdown_power_factor(1.2)
        with pytest.raises(ValueError):
            shutdown_power_factor(0.5, layers=0)
        with pytest.raises(ValueError):
            shutdown_power_factor(0.5, detector_overhead=-0.1)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=8),
    )
    def test_property_factor_bounds(self, short, layers):
        factor = shutdown_power_factor(short, layers=layers)
        assert 1.0 / layers <= factor <= 1.0 + DETECTOR_OVERHEAD + 1e-12

    @given(st.integers(min_value=2, max_value=8))
    def test_property_monotone_in_short_fraction(self, layers):
        values = [
            shutdown_power_factor(s / 10, layers=layers) for s in range(11)
        ]
        assert values == sorted(values, reverse=True)
