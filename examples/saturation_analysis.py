#!/usr/bin/env python3
"""Saturation and bottleneck analysis across the design space.

Uses the analysis toolkit to answer the questions the paper's fixed
sweeps leave open: at what injection rate does each design saturate, and
which channels bottleneck first?  Also traces a single route with the
lifecycle recorder.

Run:  python examples/saturation_analysis.py
"""

from repro import ExperimentSettings, make_2db, make_3db, make_3dm, make_3dme
from repro.analysis import find_saturation_rate, hottest_channels
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec
from repro.noc.simulator import Simulator
from repro.telemetry.recorder import TraceRecorder
from repro.traffic.base import ScheduledTraffic
from repro.noc.packet import data_packet


def saturation_sweep(settings) -> None:
    print("saturation search (uniform random, bisection):")
    for make in (make_2db, make_3db, make_3dm, make_3dme):
        config = make()
        result = find_saturation_rate(config, settings, tolerance=0.05)
        print(f"  {config.name:6s} saturates near "
              f"{result.saturation_rate:.2f} flits/node/cycle "
              f"(zero-load {result.zero_load_latency:.1f} cycles, "
              f"{len(result.probes)} probes)")
    print()


def bottlenecks(settings) -> None:
    print("hottest channels, 2DB @ 0.25 flits/node/cycle (X-Y routing")
    print("concentrates uniform traffic on the centre columns):")
    point = run_point_spec(PointSpec(make_2db(), "uniform", 0.25), settings)
    for (src, dst), utilisation in hottest_channels(point, count=5):
        sx, sy = src % 6, src // 6
        dx, dy = dst % 6, dst // 6
        print(f"  ({sx},{sy}) -> ({dx},{dy}): {utilisation:.2f} flits/cycle")
    print()


def trace_one_packet() -> None:
    print("packet trace, 3DM-E corner-to-corner (express channels visible):")
    config = make_3dme()
    network = config.build_network()
    packet = data_packet(0, 35, created_cycle=0)
    recorder = TraceRecorder().attach(network)
    sim = Simulator(network, ScheduledTraffic([packet]),
                    warmup_cycles=0, measure_cycles=200, drain_cycles=500)
    sim.run()
    recorder.detach()
    (life,), _ = recorder.lifecycles()
    route = [hop.node for hop in life.hops]
    coords = " -> ".join(f"({n % 6},{n // 6})" for n in route)
    print(f"  route: {coords}")
    print(f"  hops : {packet.hops}, latency {packet.latency} cycles")


def main() -> None:
    settings = ExperimentSettings.quick()
    saturation_sweep(settings)
    bottlenecks(settings)
    trace_one_packet()


if __name__ == "__main__":
    main()
