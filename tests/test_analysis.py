"""Analysis-utility tests: saturation search, channel loads, percentiles."""

import pytest

from repro.analysis import (
    SATURATION_LATENCY_FACTOR,
    channel_load_map,
    channel_utilization,
    find_saturation_rate,
    hottest_channels,
)
from repro.core.arch import make_2db, make_3dme
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec
from repro.noc.stats import NetworkStats


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(
        warmup_cycles=200,
        measure_cycles=1000,
        drain_cycles=4000,
        uniform_rates=(0.1,),
        nuca_rates=(0.1,),
        trace_cycles=5000,
        workloads=("tpcw",),
        seed=13,
    )


@pytest.fixture(scope="module")
def point(settings):
    return run_point_spec(PointSpec(make_2db(), "uniform", 0.2), settings)


class TestSaturationSearch:
    def test_finds_rate_between_bounds(self, settings):
        result = find_saturation_rate(
            make_2db(), settings, low=0.05, high=1.0, tolerance=0.1
        )
        assert 0.05 <= result.saturation_rate <= 1.0
        assert result.zero_load_latency > 0
        assert len(result.probes) >= 2

    def test_3dme_saturates_later_than_2db(self, settings):
        """Sec. 4.2.1: 3DM-E 'saturates at higher injection rates'."""
        sat_2db = find_saturation_rate(make_2db(), settings, tolerance=0.05)
        sat_3dme = find_saturation_rate(make_3dme(), settings, tolerance=0.05)
        assert sat_3dme.saturation_rate > sat_2db.saturation_rate

    def test_validates_bounds(self, settings):
        with pytest.raises(ValueError):
            find_saturation_rate(make_2db(), settings, low=0.5, high=0.4)

    def test_unsaturable_upper_bound_reported(self, settings):
        result = find_saturation_rate(
            make_2db(), settings, low=0.02, high=0.05, tolerance=0.01
        )
        assert result.saturation_rate == 0.05  # never saturated below high


class TestChannelLoads:
    def test_load_map_nonempty_and_positive(self, point):
        loads = channel_load_map(point)
        assert loads
        assert all(v >= 0 for v in loads.values())

    def test_channels_are_topology_links(self, point):
        from repro.topology.mesh2d import Mesh2D

        mesh = Mesh2D(6, 6, pitch_mm=1.0)
        links = {(l.src, l.dst) for l in mesh.links}
        for channel in channel_load_map(point):
            assert channel in links

    def test_utilization_bounded_by_one(self, point):
        for value in channel_utilization(point).values():
            assert 0 <= value <= 1.0  # one flit per cycle per channel

    def test_centre_channels_hotter_than_edges(self, point):
        """X-Y routing on uniform traffic concentrates load centrally."""
        util = channel_utilization(point)
        centre = util.get((14, 15), 0) + util.get((15, 14), 0)
        edge = util.get((0, 1), 0) + util.get((1, 0), 0)
        assert centre > edge

    def test_hottest_channels_sorted(self, point):
        top = hottest_channels(point, count=5)
        values = [v for _, v in top]
        assert values == sorted(values, reverse=True)
        assert len(top) == 5

    def test_hottest_channels_validation(self, point):
        with pytest.raises(ValueError):
            hottest_channels(point, count=0)

    @pytest.mark.parametrize("window", [0, -5])
    def test_channel_utilization_rejects_non_positive_window(self, point, window):
        """An explicit window of 0 raises like -5; it is not swapped for
        the measured window."""
        with pytest.raises(ValueError):
            channel_utilization(point, window_cycles=window)


class TestPercentiles:
    def test_percentile_nearest_rank(self):
        stats = NetworkStats()
        stats.latencies = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert stats.latency_percentile(50) == 50
        assert stats.latency_percentile(95) == 100
        assert stats.latency_percentile(10) == 10
        assert stats.latency_percentile(100) == 100

    def test_percentile_empty(self):
        assert NetworkStats().latency_percentile(95) == 0.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            NetworkStats().latency_percentile(0)
        with pytest.raises(ValueError):
            NetworkStats().latency_percentile(101)

    def test_simulation_result_carries_tails(self, point):
        sim = point.sim
        assert sim.latency_p50 <= sim.latency_p95 <= sim.latency_p99
        assert sim.latency_p50 > 0
        assert sim.avg_latency <= sim.latency_p99
