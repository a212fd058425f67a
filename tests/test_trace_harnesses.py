"""MP-trace harness structure tests (fig11c / fig12c) on minimal configs."""

import pytest

from repro.core.arch import make_2db, make_3dm
from repro.experiments.config import ExperimentSettings
from repro.experiments.latency import fig11c_trace_latency
from repro.experiments.power import fig12c_trace_power


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(
        warmup_cycles=200,
        measure_cycles=1200,
        drain_cycles=8000,
        uniform_rates=(0.1,),
        nuca_rates=(0.1,),
        trace_cycles=8000,
        workloads=("tpcw",),
        seed=19,
    )


@pytest.fixture(scope="module")
def configs():
    return [make_2db(), make_3dm()]


@pytest.fixture(scope="module")
def latency_results(settings, configs):
    return fig11c_trace_latency(settings, configs)


@pytest.fixture(scope="module")
def power_results(settings, configs):
    return fig12c_trace_power(settings, configs)


class TestFig11cStructure:
    def test_keys(self, latency_results):
        assert set(latency_results) == {"tpcw"}
        assert set(latency_results["tpcw"]) == {"2DB", "3DM"}

    def test_3dm_faster_on_traces(self, latency_results):
        per_arch = latency_results["tpcw"]
        assert per_arch["3DM"].avg_latency < per_arch["2DB"].avg_latency

    def test_points_carry_workload_label(self, latency_results):
        for point in latency_results["tpcw"].values():
            assert point.label == "tpcw"
            assert point.sim.packets_measured > 0


class TestFig12cStructure:
    def test_shutdown_only_on_multilayer(self, power_results):
        """2DB runs without shutdown (paper's base case), 3DM with it:
        the 3DM events must carry reduced activity weights."""
        p2 = power_results["tpcw"]["2DB"]
        p3 = power_results["tpcw"]["3DM"]
        ev2, ev3 = p2.sim.events, p3.sim.events
        # Unweighted == weighted for 2DB (shutdown off)...
        assert ev2.xbar_traversals_weighted == pytest.approx(
            float(ev2.xbar_traversals)
        )
        # ...but strictly below for 3DM (short flits gated).
        assert ev3.xbar_traversals_weighted < ev3.xbar_traversals

    def test_3dm_large_power_saving(self, power_results):
        p2 = power_results["tpcw"]["2DB"]
        p3 = power_results["tpcw"]["3DM"]
        assert p3.total_power_w < 0.75 * p2.total_power_w


class TestGolden3dme:
    """Second pinned run: the express design at seed 999."""

    @pytest.fixture(scope="class")
    def run(self, settings):
        from repro.core.arch import make_3dme
        from repro.experiments.runner import run_point_spec
        from repro.experiments.store import PointSpec

        return run_point_spec(
            PointSpec(make_3dme(), "uniform", 0.2, seed=999), settings
        )

    def test_hops_near_theoretical(self, run):
        from repro.core.express import average_hops
        from repro.topology.express_mesh import ExpressMesh

        expected = average_hops(ExpressMesh(6, 6, pitch_mm=1.58))
        assert run.avg_hops == pytest.approx(expected, rel=0.05)

    def test_deterministic_replay(self, settings, run):
        from repro.core.arch import make_3dme
        from repro.experiments.runner import run_point_spec
        from repro.experiments.store import PointSpec

        again = run_point_spec(
            PointSpec(make_3dme(), "uniform", 0.2, seed=999), settings
        )
        assert again.avg_latency == run.avg_latency
        assert again.sim.events.flit_hops == run.sim.events.flit_hops
