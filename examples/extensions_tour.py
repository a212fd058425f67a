#!/usr/bin/env python3
"""Tour of the beyond-the-paper extensions.

The paper names QoS provisioning and fault tolerance as alternative uses
of the 3DM bandwidth (Sec. 3.3), describes the advanced pipeline
organisations of Fig. 8b/c without evaluating them, and builds on the
frequent-pattern compression study [18].  This example exercises all of
them plus transient thermal analysis:

1. advanced pipelines (speculative SA + look-ahead routing),
2. QoS priority classes,
3. express-channel fault tolerance,
4. FPC compression vs layer shutdown,
5. a transient temperature trace from sampled router activity.

Run:  python examples/extensions_tour.py
"""

from repro import ExperimentSettings, make_3dm, make_3dme
from repro.core.fault import (
    both_directions,
    build_fault_tolerant_network,
    single_failure_coverage,
)
from repro.experiments.ablations import ablate_qos
from repro.experiments.compression_exp import compression_vs_shutdown
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec
from repro.noc.simulator import Simulator
from repro.thermal.transient import transient_temperatures
from repro.topology.express_mesh import ExpressMesh
from repro.traffic.synthetic import UniformRandomTraffic


def pipelines(settings) -> None:
    print("1. advanced pipelines (Fig. 8b/c) on the 3DM router")
    base = run_point_spec(PointSpec(make_3dm(), "uniform", 0.2), settings)
    turbo_config = make_3dm().with_pipeline_options(
        speculative_sa=True, lookahead_rc=True
    )
    turbo = run_point_spec(PointSpec(turbo_config, "uniform", 0.2), settings)
    print(f"   merged ST+LT            : {base.avg_latency:6.2f} cycles")
    print(f"   + speculation/look-ahead: {turbo.avg_latency:6.2f} cycles\n")


def qos(settings) -> None:
    print("2. QoS priority arbitration (20% high-priority packets)")
    results = ablate_qos(settings, rate=0.3)
    for mode in ("fifo", "qos"):
        lat = results[mode]
        print(f"   {mode:4s}: high-prio {lat[1]:6.2f}  low-prio {lat[0]:6.2f} cycles")
    print()


def fault_tolerance(settings) -> None:
    print("3. express-channel fault tolerance")
    config = make_3dme()
    mesh = ExpressMesh(4, 4, pitch_mm=config.pitch_mm)
    coverage = single_failure_coverage(mesh)
    print(f"   single-failure coverage (4x4 express mesh): {coverage:.0%}")
    victim = ExpressMesh(6, 6, pitch_mm=config.pitch_mm).link_between(14, 15)
    network = build_fault_tolerant_network(
        config, both_directions(victim.src, victim.dst)
    )
    sim = Simulator(
        network,
        UniformRandomTraffic(num_nodes=36, flit_rate=0.15, seed=5),
        warmup_cycles=settings.warmup_cycles,
        measure_cycles=settings.measure_cycles,
        drain_cycles=settings.drain_cycles,
    )
    result = sim.run()
    print(f"   latency with link 14<->15 dead: {result.avg_latency:.2f} cycles "
          f"(saturated: {result.saturated})\n")


def compression(settings) -> None:
    print("4. FPC compression vs layer shutdown (multimedia trace)")
    results = compression_vs_shutdown(settings, workload="multimedia")
    for label in ("baseline", "shutdown", "fpc"):
        point = results[label]
        print(f"   {label:8s}: {point.avg_latency:6.2f} cycles, "
              f"{point.total_power_w:.3f} W")
    print()


def transient(settings) -> None:
    print("5. transient thermal trace (sampled router activity)")
    config = make_3dm()
    network = config.build_network()
    sim = Simulator(
        network,
        UniformRandomTraffic(num_nodes=36, flit_rate=0.2, seed=5),
        warmup_cycles=settings.warmup_cycles,
        measure_cycles=2000,
        drain_cycles=settings.drain_cycles,
        sample_interval=400,
    )
    result = sim.run()
    temps = transient_temperatures(config, result, sample_interval=400)
    series = " -> ".join(f"{t:.2f}" for t in temps)
    print(f"   avg chip temperature (K): {series}")


def main() -> None:
    settings = ExperimentSettings.quick()
    pipelines(settings)
    qos(settings)
    fault_tolerance(settings)
    compression(settings)
    transient(settings)


if __name__ == "__main__":
    main()
