"""Tests for the hot-loop profiling layer."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core.arch import make_2db, standard_configs
from repro.noc.profiling import NetworkProfiler, ProfileSnapshot
from repro.noc.simulator import Simulator
from repro.traffic.synthetic import UniformRandomTraffic


class _FakeClock:
    """Deterministic clock: each read advances by one second."""

    def __init__(self) -> None:
        self._ticks = itertools.count()

    def __call__(self) -> float:
        return float(next(self._ticks))


def test_profiler_accumulates_deterministic_phases(cfg_2db):
    network = cfg_2db.build_network()
    # The fake-clock arithmetic below counts exactly four reads per
    # cycle; drop any sanitizer (REPRO_SANITIZE=1 runs) so the optional
    # audit phase doesn't add reads.
    network.sanitizer = None
    network.profiler = NetworkProfiler(clock=_FakeClock())
    cycles = 5
    for _ in range(cycles):
        network.step()
    snap = network.profiler.snapshot()
    # Four clock reads per cycle, one second apart: each phase takes
    # exactly one second per cycle.
    assert snap.cycles == cycles
    assert snap.phase_wall_s == {
        "deliver": float(cycles),
        "inject": float(cycles),
        "route": float(cycles),
    }
    assert snap.wall_s == 3.0 * cycles
    assert snap.cycles_per_second == cycles / snap.wall_s
    # An idle network steps zero routers.
    assert snap.routers_stepped == 0
    assert snap.router_cycles == cycles * len(network.routers)
    assert snap.active_router_ratio == 0.0


def test_profiler_reset():
    profiler = NetworkProfiler(clock=_FakeClock())
    profiler.record_cycle(1.0, 2.0, 3.0, stepped=4, population=8)
    profiler.reset()
    snap = profiler.snapshot()
    assert snap.cycles == 0
    assert snap.wall_s == 0.0
    assert snap.cycles_per_second == 0.0
    assert snap.active_router_ratio == 0.0


def test_simulator_profile_flag_attaches_and_reports():
    config = make_2db()
    network = config.build_network()
    sim = Simulator(
        network,
        UniformRandomTraffic(num_nodes=config.num_nodes, flit_rate=0.05, seed=3),
        warmup_cycles=50,
        measure_cycles=300,
        drain_cycles=3000,
        profile=True,
    )
    assert isinstance(network.profiler, NetworkProfiler)
    result = sim.run()
    snap = result.profile
    assert isinstance(snap, ProfileSnapshot)
    assert snap.cycles == result.cycles
    assert snap.router_cycles == result.cycles * len(network.routers)
    # At 0.05 flits/node/cycle most routers are quiescent most cycles —
    # the active-set scheduler should step well under the full population.
    assert 0.0 < snap.active_router_ratio < 0.9
    assert snap.wall_s > 0.0
    assert snap.cycles_per_second > 0.0


def test_unprofiled_run_reports_no_profile():
    config = make_2db()
    sim = Simulator(
        config.build_network(),
        UniformRandomTraffic(num_nodes=config.num_nodes, flit_rate=0.05, seed=3),
        warmup_cycles=10,
        measure_cycles=50,
        drain_cycles=2000,
    )
    assert sim.run().profile is None


def test_snapshot_format_is_human_readable():
    profiler = NetworkProfiler(clock=_FakeClock())
    profiler.record_cycle(1.0, 1.0, 1.0, stepped=3, population=12)
    text = profiler.snapshot().format()
    assert "cycles/second" in text
    assert "active ratio" in text
    assert "25.0%" in text
    assert "phase deliver" in text


def test_cli_profile_flag(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_SCALE", "quick")
    assert main(["simulate", "--arch", "2DB", "--rate", "0.05", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "hot-loop profile" in out
    assert "active ratio" in out


def test_telemetry_phase_in_snapshot():
    profiler = NetworkProfiler(clock=_FakeClock())
    profiler.record_cycle(1.0, 1.0, 1.0, stepped=1, population=4,
                          telemetry_s=0.5)
    snap = profiler.snapshot()
    assert snap.phase_wall_s["telemetry"] == 0.5
    assert snap.wall_s == 3.5
    assert "phase telemetry" in snap.format()
    # Without telemetry time the phase stays absent (exact 3-phase shape).
    profiler.reset()
    profiler.record_cycle(1.0, 1.0, 1.0, stepped=1, population=4)
    assert "telemetry" not in profiler.snapshot().phase_wall_s


def test_profiled_telemetry_run_reports_phase(tmp_path):
    from repro.telemetry import TelemetryConfig

    config = make_2db()
    network = config.build_network()
    sim = Simulator(
        network,
        UniformRandomTraffic(num_nodes=config.num_nodes, flit_rate=0.05,
                             seed=3),
        warmup_cycles=10, measure_cycles=100, drain_cycles=2000,
        profile=True,
        telemetry=TelemetryConfig(interval=25),
    )
    snap = sim.run().profile
    assert "telemetry" in snap.phase_wall_s
    assert snap.phase_wall_s["telemetry"] > 0.0


@pytest.mark.parametrize("config", standard_configs(), ids=lambda c: c.name)
def test_profiling_changes_no_result(config):
    """A profiled run equals an unprofiled one in every field but the
    profile itself (wall times)."""

    def run(profile):
        sim = Simulator(
            config.build_network(),
            UniformRandomTraffic(
                num_nodes=config.num_nodes, flit_rate=0.1, seed=7
            ),
            warmup_cycles=30, measure_cycles=200, drain_cycles=2500,
            profile=profile,
        )
        result = dataclasses.asdict(sim.run())
        return result.pop("profile"), result

    profile, profiled = run(True)
    assert profile is not None
    no_profile, bare = run(False)
    assert no_profile is None
    assert profiled == bare
