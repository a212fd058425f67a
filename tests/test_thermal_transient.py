"""Transient thermal solver tests."""

import numpy as np
import pytest

from repro.core.arch import make_3dm
from repro.noc.simulator import Simulator
from repro.thermal.floorplan import floorplan_for
from repro.thermal.solver import ThermalGrid
from repro.thermal.stack import AMBIENT_K
from repro.thermal.transient import (
    TransientSolver,
    power_trace_from_activity,
    transient_temperatures,
)
from repro.traffic.synthetic import UniformRandomTraffic


@pytest.fixture
def grid():
    fp = floorplan_for(make_3dm(), cpu_power_w=0.0, cache_power_w=0.0)
    return ThermalGrid(fp)


class TestTransientSolver:
    def test_zero_power_stays_at_ambient(self, grid):
        solver = TransientSolver(grid, dt_s=1e-3)
        temps = np.full(grid.floorplan.power_w.shape, AMBIENT_K)
        stepped = solver.step(temps, np.zeros_like(temps))
        assert np.allclose(stepped, AMBIENT_K, atol=1e-9)

    def test_step_approaches_steady_state(self, grid):
        power = np.full(grid.floorplan.power_w.shape, 0.2)
        steady = grid.solve(power)
        solver = TransientSolver(grid, dt_s=1e-2)
        temps = np.full_like(power, AMBIENT_K)
        for _ in range(200):
            temps = solver.step(temps, power)
        assert np.allclose(temps, steady, atol=0.05)

    def test_heating_is_monotone_from_cold(self, grid):
        power = np.full(grid.floorplan.power_w.shape, 0.3)
        solver = TransientSolver(grid, dt_s=1e-4)
        temps = np.full_like(power, AMBIENT_K)
        means = []
        for _ in range(20):
            temps = solver.step(temps, power)
            means.append(temps.mean())
        assert means == sorted(means)

    def test_smaller_dt_slower_response(self, grid):
        power = np.full(grid.floorplan.power_w.shape, 0.3)
        cold = np.full_like(power, AMBIENT_K)
        fast = TransientSolver(grid, dt_s=1e-3).step(cold, power)
        slow = TransientSolver(grid, dt_s=1e-5).step(cold, power)
        assert fast.mean() > slow.mean()

    def test_cooling_after_power_cut(self, grid):
        power = np.full(grid.floorplan.power_w.shape, 0.5)
        hot = grid.solve(power)
        solver = TransientSolver(grid, dt_s=1e-3)
        cooled = solver.step(hot, np.zeros_like(power))
        assert cooled.mean() < hot.mean()
        assert (cooled >= AMBIENT_K - 1e-9).all()

    def test_run_warm_start_defaults_to_steady(self, grid):
        power = np.full(grid.floorplan.power_w.shape, 0.2)
        solver = TransientSolver(grid, dt_s=1e-3)
        temps = solver.run([power, power, power])
        assert len(temps) == 3
        # Warm-started at steady state: it should stay there.
        assert np.allclose(temps[-1], grid.solve(power), atol=1e-6)

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            TransientSolver(grid, dt_s=0.0)
        solver = TransientSolver(grid, dt_s=1e-3)
        with pytest.raises(ValueError):
            solver.step(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            solver.run([])


class TestPowerTraceIntegration:
    @pytest.fixture(scope="class")
    def sampled_run(self):
        config = make_3dm()
        network = config.build_network()
        sim = Simulator(
            network,
            UniformRandomTraffic(num_nodes=36, flit_rate=0.15, seed=7),
            warmup_cycles=200,
            measure_cycles=2000,
            drain_cycles=8000,
            sample_interval=400,
        )
        return config, sim.run()

    def test_activity_windows_collected(self, sampled_run):
        _, result = sampled_run
        assert len(result.activity_windows) == 5
        for window in result.activity_windows:
            assert len(window) == 36
            assert sum(window) > 0

    def test_power_trace_shapes(self, sampled_run):
        config, result = sampled_run
        trace = power_trace_from_activity(config, result, sample_interval=400)
        assert len(trace) == 5
        for frame in trace:
            assert frame.shape == (4, 6, 6)
            assert frame.sum() > 64.0  # CPUs + caches dominate

    def test_transient_temperatures_reasonable(self, sampled_run):
        config, result = sampled_run
        temps = transient_temperatures(config, result, sample_interval=400)
        assert len(temps) == 5
        for t in temps:
            assert AMBIENT_K < t < AMBIENT_K + 60

    def test_missing_activity_rejected(self, sampled_run):
        config, result = sampled_run
        import dataclasses

        empty = dataclasses.replace(result, activity_windows=[])
        with pytest.raises(ValueError):
            power_trace_from_activity(config, empty, 400)


class TestPartialTrailingWindow:
    """measure_cycles not a multiple of sample_interval: the trailing
    window must be *integrated* over its true span, not just have its
    power scaled (the old code stepped it with the nominal dt)."""

    @pytest.fixture(scope="class")
    def uneven_run(self):
        config = make_3dm()
        network = config.build_network()
        sim = Simulator(
            network,
            UniformRandomTraffic(num_nodes=36, flit_rate=0.15, seed=7),
            warmup_cycles=200,
            measure_cycles=2000,
            drain_cycles=8000,
            sample_interval=300,
        )
        return config, sim.run()

    def test_trailing_window_span_recorded(self, uneven_run):
        _, result = uneven_run
        assert result.activity_window_cycles[-1] == 2000 % 300 == 200
        assert all(s == 300 for s in result.activity_window_cycles[:-1])

    def test_trailing_window_stepped_with_true_span(self, uneven_run):
        import dataclasses

        from repro.power import technology as tech

        config, result = uneven_run
        # Amplify the trailing partial window: starting near steady
        # state, a backward-Euler step barely moves whatever the dt, so
        # dt sensitivity only becomes visible when the last window's
        # power departs sharply from the preceding ones.
        windows = [list(w) for w in result.activity_windows]
        windows[-1] = [flits * 40 for flits in windows[-1]]
        spiked = dataclasses.replace(result, activity_windows=windows)

        temps = transient_temperatures(config, spiked, sample_interval=300)
        assert len(temps) == len(result.activity_windows) == 7

        # Reference: the old behaviour stepped every window with the
        # nominal sample_interval dt.  Full windows must agree exactly;
        # the 200-cycle trailing window must integrate over less time
        # and therefore warm less toward the spike's steady state.
        trace = power_trace_from_activity(config, spiked, 300)
        grid = ThermalGrid(floorplan_for(config))
        naive = TransientSolver(grid, dt_s=300 * tech.CYCLE_S).run(trace)
        naive_means = [float(t.mean()) for t in naive]
        assert temps[:-1] == pytest.approx(naive_means[:-1], rel=1e-12)
        assert temps[-1] < naive_means[-1] - 1e-6
