"""Power-model scaling properties across load and architecture."""

import pytest

from repro.core.arch import make_2db, make_3dm
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec


@pytest.fixture(scope="module")
def settings():
    return ExperimentSettings(
        warmup_cycles=300,
        measure_cycles=1500,
        drain_cycles=10000,
        uniform_rates=(0.05, 0.1, 0.2),
        nuca_rates=(0.1,),
        trace_cycles=5000,
        workloads=("tpcw",),
        seed=23,
    )


@pytest.fixture(scope="module")
def points(settings):
    return {
        rate: run_point_spec(PointSpec(make_2db(), "uniform", rate), settings)
        for rate in (0.05, 0.1, 0.2)
    }


def test_dynamic_power_monotone_in_load(points):
    dyn = [points[r].power.dynamic_w for r in (0.05, 0.1, 0.2)]
    assert dyn == sorted(dyn)


def test_dynamic_power_roughly_linear_below_saturation(points):
    """Below saturation, delivered flits scale with rate, so dynamic
    power should double when the rate doubles (within noise)."""
    ratio = points[0.2].power.dynamic_w / points[0.1].power.dynamic_w
    assert ratio == pytest.approx(2.0, rel=0.12)


def test_leakage_independent_of_load(points):
    leak = {points[r].power.leakage_w for r in (0.05, 0.1, 0.2)}
    assert len(leak) == 1


def test_breakdown_shares_stable_across_load(points):
    def shares(point):
        bd = point.power.breakdown_w
        total = sum(bd.values())
        return {k: v / total for k, v in bd.items()}

    lo, hi = shares(points[0.05]), shares(points[0.2])
    for component in lo:
        assert lo[component] == pytest.approx(hi[component], abs=0.03), component


def test_link_dominates_2db_budget(points):
    """Fig. 9's structure: 2DB spends most dynamic energy on wires."""
    bd = points[0.2].power.breakdown_w
    assert bd["link"] == max(bd.values())


def test_3dm_power_advantage_grows_with_load(settings):
    """The separable-wire savings scale with traffic, leakage doesn't,
    so 3DM's *absolute* advantage widens with injection rate."""
    gaps = []
    for rate in (0.05, 0.2):
        p2 = run_point_spec(PointSpec(make_2db(), "uniform", rate), settings)
        p3 = run_point_spec(PointSpec(make_3dm(), "uniform", rate), settings)
        gaps.append(p2.total_power_w - p3.total_power_w)
    assert gaps[1] > gaps[0]


def test_pdp_units_sane(points):
    """PDP = power x latency-in-seconds: tens of nanowatt-seconds here."""
    pdp = points[0.1].pdp
    latency_s = points[0.1].avg_latency * 0.5e-9
    assert pdp == pytest.approx(points[0.1].total_power_w * latency_s)
