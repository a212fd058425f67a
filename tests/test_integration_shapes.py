"""Integration tests pinning the paper's headline result *shapes*.

These are the claims DESIGN.md commits to reproducing (who wins, by
roughly what factor).  Budgets are kept small, so tolerances are loose;
the benchmark harnesses run the same comparisons at full scale.
"""

from dataclasses import replace

import pytest

from repro.core.arch import make_2db, make_3db, make_3dm, make_3dme
from repro.core.express import average_hops, nuca_pairs
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(
        warmup_cycles=400,
        measure_cycles=2000,
        drain_cycles=10000,
        uniform_rates=(0.2,),
        nuca_rates=(0.15,),
        trace_cycles=15000,
        workloads=("tpcw",),
        seed=5,
    )


@pytest.fixture(scope="module")
def ur_points(settings):
    return {
        cfg.name: run_point_spec(PointSpec(cfg, "uniform", 0.2), settings)
        for cfg in (
            make_2db(), make_3db(), make_3dm(), make_3dm(nc=True),
            make_3dme(), make_3dme(nc=True),
        )
    }


class TestLatencyShapes:
    def test_3dme_is_fastest(self, ur_points):
        best = min(ur_points.values(), key=lambda p: p.avg_latency)
        assert best.arch == "3DM-E"

    def test_3dme_saves_30_to_60pct_vs_2db(self, ur_points):
        """Paper: up to 51% latency reduction vs 2DB (UR)."""
        saving = 1 - ur_points["3DM-E"].avg_latency / ur_points["2DB"].avg_latency
        assert 0.30 <= saving <= 0.60

    def test_3dme_saves_15_to_40pct_vs_3db(self, ur_points):
        """Paper: ~26% saving vs 3DB at 30% injection."""
        saving = 1 - ur_points["3DM-E"].avg_latency / ur_points["3DB"].avg_latency
        assert 0.15 <= saving <= 0.40

    def test_3dm_beats_2db(self, ur_points):
        assert ur_points["3DM"].avg_latency < ur_points["2DB"].avg_latency

    def test_pipeline_merge_wins(self, ur_points):
        """3DM < 3DM(NC), 3DM-E < 3DM-E(NC) (Sec. 4.2.1)."""
        assert ur_points["3DM"].avg_latency < ur_points["3DM(NC)"].avg_latency
        assert ur_points["3DM-E"].avg_latency < ur_points["3DM-E(NC)"].avg_latency

    def test_2db_and_3dm_nc_equivalent(self, ur_points):
        """Same logical network and pipeline: near-identical latency."""
        assert ur_points["3DM(NC)"].avg_latency == pytest.approx(
            ur_points["2DB"].avg_latency, rel=0.02
        )


class TestHopCountShapes:
    def test_ur_hops_2db_equals_3dm(self, ur_points):
        assert ur_points["3DM"].avg_hops == pytest.approx(
            ur_points["2DB"].avg_hops, rel=0.02
        )

    def test_ur_hops_3dme_lowest(self, ur_points):
        hops = {name: p.avg_hops for name, p in ur_points.items()}
        assert min(hops, key=hops.get) == "3DM-E"

    def test_ur_hops_3db_below_2db(self, ur_points):
        """Under UR the 3x3x4 mesh has a shorter mean distance."""
        assert ur_points["3DB"].avg_hops < ur_points["2DB"].avg_hops

    def test_nuca_hops_3db_worse_than_2db(self):
        """Fig. 11d: the 3DB layout penalises CPU-cache traffic because
        every request crosses the vertical dimension (Sec. 4.2.1)."""
        cfg2, cfg3 = make_2db(), make_3db()
        hops_2db = average_hops(
            cfg2.build_topology(), nuca_pairs(cfg2.cpu_nodes, cfg2.cache_nodes)
        )
        hops_3db = average_hops(
            cfg3.build_topology(), nuca_pairs(cfg3.cpu_nodes, cfg3.cache_nodes)
        )
        assert hops_3db > hops_2db


class TestNucaLatencyShapes:
    @pytest.fixture(scope="class")
    def nuca_points(self, settings):
        return {
            cfg.name: run_point_spec(PointSpec(cfg, "nuca", 0.15), settings)
            for cfg in (make_2db(), make_3db(), make_3dm(), make_3dme())
        }

    def test_3db_loses_its_ur_advantage(self, nuca_points, ur_points):
        """3DB's latency edge over 2DB shrinks or flips under NUCA-UR."""
        ur_gain = 1 - ur_points["3DB"].avg_latency / ur_points["2DB"].avg_latency
        nuca_gain = (
            1 - nuca_points["3DB"].avg_latency / nuca_points["2DB"].avg_latency
        )
        assert nuca_gain < ur_gain

    def test_3dme_fastest_under_nuca(self, nuca_points):
        best = min(nuca_points.values(), key=lambda p: p.avg_latency)
        assert best.arch == "3DM-E"


class TestPowerShapes:
    def test_3dm_power_below_2db_and_3db(self, ur_points):
        """Paper: ~22%/15% power saving for 3DM vs 2DB/3DB."""
        assert ur_points["3DM"].total_power_w < ur_points["2DB"].total_power_w
        assert ur_points["3DM"].total_power_w < ur_points["3DB"].total_power_w

    def test_3dme_power_saving_vs_2db_in_band(self, ur_points):
        """Paper: up to 42% power saving for 3DM-E vs 2DB (UR)."""
        saving = 1 - ur_points["3DM-E"].total_power_w / ur_points["2DB"].total_power_w
        assert 0.2 <= saving <= 0.55

    def test_pipeline_merge_no_big_power_impact(self, ur_points):
        """Sec. 4.2.2: combining has no significant power effect."""
        assert ur_points["3DM"].total_power_w == pytest.approx(
            ur_points["3DM(NC)"].total_power_w, rel=0.05
        )

    def test_pdp_3dme_best_2db_worst(self, ur_points):
        """Fig. 12d: 3DM-E and 2DB bracket the PDP range."""
        pdp = {name: p.pdp for name, p in ur_points.items()}
        assert min(pdp, key=pdp.get) == "3DM-E"
        assert max(pdp, key=pdp.get) == "2DB"


class TestShutdownShapes:
    def test_short_flits_reduce_power(self, settings):
        cfg = make_3dm()
        spec = PointSpec(cfg, "uniform", 0.2, shutdown_enabled=True)
        base = run_point_spec(spec, settings)
        gated = run_point_spec(replace(spec, short_flit_fraction=0.5), settings)
        saving = 1 - gated.power.dynamic_w / base.power.dynamic_w
        # Paper: up to 36% dynamic saving at 50% short flits.
        assert 0.15 <= saving <= 0.40

    def test_temperature_drop_grows_with_injection(self, settings):
        from repro.experiments.thermal_exp import fig13c_temperature_reduction

        drops = fig13c_temperature_reduction(
            settings, rates=(0.05, 0.25), short_fraction=0.5
        )
        assert drops[0.25] > drops[0.05] > 0
