#!/usr/bin/env python3
"""Layer-shutdown thermal study (the Sec. 4.2.3 flow, end to end).

For the 3DM design: simulate the same uniform-random load with 0% and
50% short flits, price the per-layer event histograms with the
Orion-style energy model, feed the simulated per-node-per-layer router
power maps into the HotSpot-style stacked thermal solver, and report the
temperature drop the shutdown technique buys — plus the per-layer
temperature profile of the stack.

Run:  python examples/thermal_shutdown_study.py
"""

from dataclasses import replace

from repro import Architecture, ExperimentSettings, make_architecture
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec
from repro.power.gating import shutdown_saving
from repro.thermal.hotspot import steady_state


def main() -> None:
    config = make_architecture(Architecture.MIRA_3DM)
    settings = ExperimentSettings.quick()

    print("closed-form shutdown reference (Fig. 13b):")
    for short in (0.25, 0.50):
        saving = shutdown_saving(config, short)
        print(f"  {short:.0%} short flits -> {saving.saving_fraction:.1%} "
              "dynamic power saved")
    print()

    for rate in settings.uniform_rates[:3]:
        spec = PointSpec(config, "uniform", rate, shutdown_enabled=True)
        base = run_point_spec(spec, settings)
        gated = run_point_spec(replace(spec, short_flit_fraction=0.5), settings)
        hot = steady_state(
            config, router_layer_power_w=base.router_layer_power_per_node()
        )
        cool = steady_state(
            config, router_layer_power_w=gated.router_layer_power_per_node()
        )
        print(f"injection {rate:g} flits/node/cycle:")
        print(f"  router power: {base.total_power_w:.3f} W -> "
              f"{gated.total_power_w:.3f} W "
              f"(-{(1 - gated.total_power_w / base.total_power_w) * 100:.1f}%)")
        print(f"  avg temp    : {hot.avg_k:.3f} K -> {cool.avg_k:.3f} K "
              f"(drop {hot.avg_k - cool.avg_k:.3f} K)")
        layers = " / ".join(f"{t:.2f}" for t in hot.per_layer_avg_k)
        print(f"  per-layer avg (top->bottom, 0% short): {layers} K")
        print()


if __name__ == "__main__":
    main()
