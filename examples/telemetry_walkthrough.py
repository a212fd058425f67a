#!/usr/bin/env python3
"""Telemetry walkthrough: windowed metrics + a Perfetto lifecycle trace.

Runs a 3DM uniform-random simulation with half-short-flit traffic (so
the layer-shutdown signal has something to show), streaming windowed
metrics to ``telemetry_out/metrics.jsonl`` and packet lifecycles to
``telemetry_out/trace.json``, then summarises the stream: how the
active-layer fraction, occupancy, and windowed p95 latency evolved.

Open the trace at https://ui.perfetto.dev to see each packet's
inject -> per-hop RC/VA/SA/ST -> eject spans and the sampler's counter
tracks.  See docs/OBSERVABILITY.md for the full metric catalogue.

Run:  python examples/telemetry_walkthrough.py
"""

import json

from repro import ExperimentSettings, make_architecture, Architecture
from repro.experiments.runner import run_point_spec
from repro.experiments.store import PointSpec
from repro.telemetry import TelemetryConfig

OUT = "telemetry_out"


def main() -> None:
    config = make_architecture(Architecture.MIRA_3DM)
    telemetry = TelemetryConfig(
        interval=100,
        metrics_path=f"{OUT}/metrics.jsonl",
        trace_path=f"{OUT}/trace.json",
        arch_config=config,  # adds the windowed energy gauges
    )
    spec = PointSpec(
        config, "uniform", 0.2, short_flit_fraction=0.5, shutdown_enabled=True
    )
    point = run_point_spec(spec, ExperimentSettings.quick(), telemetry)
    print(point.sim.telemetry.format())
    print()

    samples = [
        record
        for record in map(
            json.loads, open(f"{OUT}/metrics.jsonl", encoding="utf-8")
        )
        if record["type"] == "sample"
    ]
    print(f"{'cycle':>6} {'occ':>6} {'layers':>7} {'p95 lat':>8} "
          f"{'thr':>7} {'mW':>7}")
    for sample in samples:
        gauges = sample["gauges"]
        latency = sample["histograms"]["latency.cycles"]
        layers = gauges["layers.active_fraction"]
        print(
            f"{sample['cycle']:>6} "
            f"{gauges['occupancy.total']:>6.0f} "
            f"{'-' if layers is None else format(layers, '.3f'):>7} "
            f"{latency.get('p95', '-'):>8} "
            f"{gauges['rate.throughput']:>7.3f} "
            f"{gauges['energy.total_w'] * 1e3:>7.1f}"
        )
    print(f"\nnow load {OUT}/trace.json at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
