"""Reproducibility: identical seeds must give identical results.

Determinism is what makes the committed EXPERIMENTS.md numbers
re-checkable; any hidden iteration-order dependence (sets, dict order,
unseeded RNG) would break these.
"""

import random

from repro.cache.hierarchy import generate_trace
from repro.core.arch import make_2db, make_3dme
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec
from repro.traffic.workloads import WORKLOADS


def _settings(seed=21):
    return ExperimentSettings(
        warmup_cycles=200,
        measure_cycles=1000,
        drain_cycles=6000,
        uniform_rates=(0.15,),
        nuca_rates=(0.1,),
        trace_cycles=6000,
        workloads=("tpcw",),
        seed=seed,
    )


def test_uniform_simulation_deterministic():
    a = run_point_spec(PointSpec(make_3dme(), "uniform", 0.15), _settings())
    b = run_point_spec(PointSpec(make_3dme(), "uniform", 0.15), _settings())
    assert a.avg_latency == b.avg_latency
    assert a.avg_hops == b.avg_hops
    assert a.total_power_w == b.total_power_w
    assert a.sim.packets_measured == b.sim.packets_measured
    assert a.node_activity == b.node_activity


def test_uniform_simulation_seed_sensitivity():
    a = run_point_spec(
        PointSpec(make_3dme(), "uniform", 0.15), _settings(seed=21)
    )
    b = run_point_spec(
        PointSpec(make_3dme(), "uniform", 0.15), _settings(seed=22)
    )
    assert a.sim.packets_measured != b.sim.packets_measured or (
        a.avg_latency != b.avg_latency
    )


def test_nuca_simulation_deterministic():
    a = run_point_spec(PointSpec(make_2db(), "nuca", 0.1), _settings())
    b = run_point_spec(PointSpec(make_2db(), "nuca", 0.1), _settings())
    assert a.avg_latency == b.avg_latency
    assert a.sim.events.flit_hops == b.sim.events.flit_hops


def test_trace_generation_deterministic():
    ra, sa = generate_trace(make_2db(), WORKLOADS["tpcw"], cycles=6000, seed=5)
    rb, sb = generate_trace(make_2db(), WORKLOADS["tpcw"], cycles=6000, seed=5)
    assert ra == rb
    assert sa.messages_by_type == sb.messages_by_type


def test_workload_sampling_deterministic():
    profile = WORKLOADS["multimedia"]
    a = [profile.sample_line(random.Random(3)) for _ in range(5)]
    b = [profile.sample_line(random.Random(3)) for _ in range(5)]
    assert a == b


def test_event_counters_deterministic_across_architectures():
    """Same seed and rate: the measured event totals are stable per
    architecture (regression guard for ordering bugs)."""
    results = {}
    for _ in range(2):
        point = run_point_spec(
            PointSpec(make_2db(), "uniform", 0.15), _settings()
        )
        results.setdefault("flits", []).append(point.sim.events.flit_hops)
        results.setdefault("va", []).append(point.sim.events.va_allocations)
    assert results["flits"][0] == results["flits"][1]
    assert results["va"][0] == results["va"][1]
