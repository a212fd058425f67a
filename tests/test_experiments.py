"""Experiment-harness tests (small budgets; shape checks live in
test_integration_shapes.py)."""

import pytest

from repro.core.arch import make_2db, make_3dm, make_3dme
from repro.experiments import (
    ExperimentSettings,
    fig1_data_patterns,
    fig2_packet_types,
    fig9_energy_breakdown,
    fig11a_uniform_latency,
    fig11d_hop_counts,
    fig12d_pdp,
    fig13a_short_flit_fractions,
    fig13b_shutdown_savings,
    table1_area,
    table2_parameters,
    table3_delays,
    PointSpec,
    run_point_spec,
    run_trace_point,
)
from repro.experiments.report import (
    dict_table,
    format_table,
    normalized_table,
    sweep_table,
)
from repro.power.gating import shutdown_saving
from repro.traffic.traces import TraceRecord
from repro.noc.packet import PacketClass
from repro.traffic.workloads import WORKLOADS


class TestSettings:
    def test_quick_smaller_than_full(self):
        quick, full = ExperimentSettings.quick(), ExperimentSettings.full()
        assert quick.measure_cycles < full.measure_cycles
        assert len(quick.uniform_rates) < len(full.uniform_rates)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert ExperimentSettings.from_env() == ExperimentSettings.full()
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert ExperimentSettings.from_env() == ExperimentSettings.quick()
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            ExperimentSettings.from_env()


class TestRunners:
    def test_uniform_point_fields(self, tiny_settings, cfg_3dm):
        point = run_point_spec(
            PointSpec(cfg_3dm, "uniform", 0.1), tiny_settings
        )
        assert point.arch == "3DM"
        assert point.avg_latency > 0
        assert point.total_power_w > 0
        assert point.pdp > 0
        assert len(point.node_activity) == 36
        assert sum(point.node_activity) == pytest.approx(1.0)

    def test_router_power_per_node_sums_to_total(self, tiny_settings, cfg_3dm):
        point = run_point_spec(
            PointSpec(cfg_3dm, "uniform", 0.1), tiny_settings
        )
        assert sum(point.router_power_per_node()) == pytest.approx(
            point.total_power_w
        )

    def test_nuca_point(self, tiny_settings, cfg_2db):
        point = run_point_spec(PointSpec(cfg_2db, "nuca", 0.1), tiny_settings)
        assert point.sim.packets_measured > 0
        assert point.label.startswith("NUCA")

    def test_trace_point(self, tiny_settings, cfg_2db):
        records = [
            TraceRecord(cycle=c, src=0, dst=10, klass=PacketClass.DATA,
                        payload_groups=(1, 1, 4, 4, 1))
            for c in range(0, 900, 30)
        ]
        point = run_trace_point(cfg_2db, records, tiny_settings, label="t")
        assert point.sim.packets_measured > 0


class TestStaticHarnesses:
    def test_fig1_fractions_sum_to_one(self):
        data = fig1_data_patterns(workloads=("tpcw", "art"), sample_lines=200)
        for workload, fractions in data.items():
            assert sum(fractions.values()) == pytest.approx(1.0)
            assert fractions["zero"] > 0

    def test_fig1_ordering_tracks_profiles(self):
        data = fig1_data_patterns(workloads=("multimedia", "art"),
                                  sample_lines=400)
        assert data["multimedia"]["zero"] > data["art"]["zero"]

    def test_fig9_breakdown_keys(self):
        data = fig9_energy_breakdown()
        assert set(data) == {"2DB", "3DB", "3DM", "3DM-E"}
        for bd in data.values():
            assert set(bd) == {"buffer", "crossbar", "arbitration", "link",
                               "control"}

    def test_table1_model_and_paper(self):
        table = table1_area()
        for arch, row in table.items():
            model = row["model"]
            paper = row["paper"]
            assert model.total == pytest.approx(paper["Total"], rel=0.01)

    def test_table2_and_3(self):
        params = table2_parameters()
        assert params["repeated_wire_ps_per_mm"] == pytest.approx(97.94)
        rows = table3_delays()
        assert [r.name for r in rows] == ["2DB", "3DM", "3DM-E"]
        assert [r.can_combine for r in rows] == [False, True, True]

    def test_fig13b_savings_analytic(self):
        for config in (make_2db(), make_3dm(), make_3dme()):
            saved = {
                s: shutdown_saving(config, s).saving_fraction
                for s in (0.25, 0.50)
            }
            assert saved[0.25] < saved[0.50], config.name
            assert 0.25 <= saved[0.50] <= 0.37, config.name


class TestSimulationHarnesses:
    def test_fig11a_structure(self, tiny_settings):
        configs = [make_2db(), make_3dm()]
        sweep = fig11a_uniform_latency(tiny_settings, configs)
        assert set(sweep) == {"2DB", "3DM"}
        for series in sweep.values():
            assert [x for x, _ in series] == list(tiny_settings.uniform_rates)

    def test_fig12d_normalised_to_2db(self, tiny_settings):
        configs = [make_2db(), make_3dme()]
        pdp = fig12d_pdp(tiny_settings, configs)
        for _, value in pdp["2DB"]:
            assert value == pytest.approx(1.0)
        for _, value in pdp["3DM-E"]:
            assert value < 1.0

    def test_fig12d_requires_baseline(self, tiny_settings):
        with pytest.raises(ValueError):
            fig12d_pdp(tiny_settings, [make_3dm()])

    def test_fig11d_hop_count_structure(self, tiny_settings):
        configs = [make_2db(), make_3dme()]
        hops = fig11d_hop_counts(tiny_settings, configs)
        assert set(hops) == {"UR", "NUCA-UR", "MP"}
        for results in hops.values():
            assert set(results) == {"2DB", "3DM-E"}

    def test_fig13b_simulated_path(self, tiny_settings):
        savings = fig13b_shutdown_savings(
            (0.25, 0.50), configs=[make_3dm()], settings=tiny_settings
        )
        by_fraction = savings["3DM"]
        # More short payloads gate more layers; the simulated saving sits
        # above the analytic-at-nominal value because header/control flits
        # are short by construction (tests/test_layer_resolved.py checks
        # agreement against the model at the measured fraction).
        assert by_fraction[0.25] < by_fraction[0.50]
        assert 0.0 < by_fraction[0.50] < 0.60

    def test_fig13a_short_fractions(self, tiny_settings):
        fractions = fig13a_short_flit_fractions(tiny_settings)
        for name, value in fractions.items():
            target = WORKLOADS[name].short_flit_fraction
            assert value == pytest.approx(target, abs=0.07)

    def test_fig2_packet_types(self, tiny_settings):
        data = fig2_packet_types(tiny_settings)
        for name, split in data.items():
            assert split["ctrl"] + split["data"] == pytest.approx(1.0)
            assert 0.3 <= split["ctrl"] <= 0.8


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 3.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_sweep_table_render(self, tiny_settings):
        sweep = fig11a_uniform_latency(tiny_settings, [make_2db()])
        text = sweep_table(sweep, "avg_latency")
        assert "2DB" in text and "0.05" in text

    def test_normalized_table(self, tiny_settings):
        point = run_point_spec(
            PointSpec(make_2db(), "uniform", 0.1), tiny_settings
        )
        other = run_point_spec(
            PointSpec(make_3dm(), "uniform", 0.1), tiny_settings
        )
        text = normalized_table(
            {"wl": {"2DB": point, "3DM": other}}, metric="avg_latency"
        )
        assert "1.000" in text

    def test_dict_table(self):
        text = dict_table({"row": {"x": 1.0, "y": 2.0}})
        assert "row" in text and "x" in text
