"""Single-point simulation runners shared by the figure harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.core.arch import ArchitectureConfig
from repro.experiments.config import ExperimentSettings
from repro.noc.simulator import SimulationResult, Simulator
from repro.power.energy import (
    LayerPowerReport,
    PowerReport,
    layer_power_report,
    power_report,
)
from repro.traffic.nuca import NucaUniformTraffic
from repro.traffic.synthetic import UniformRandomTraffic
from repro.traffic.traces import TraceRecord, TraceTraffic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.store import PointSpec
    from repro.resilience.faults import FaultPlan
    from repro.resilience.variation import VariationSample
    from repro.telemetry.sampler import TelemetryConfig


@dataclass(frozen=True)
class PointResult:
    """One (architecture, workload-point) simulation outcome."""

    arch: str
    label: str
    sim: SimulationResult
    power: PowerReport
    #: Per-node share of switched flits (for thermal power maps).
    node_activity: List[float]
    #: Per-node, per-datapath-layer share of that layer's switched
    #: flits: ``node_layer_activity[n][l]`` is node *n*'s fraction of
    #: all flit traversals that drove layer *l* (each layer column sums
    #: to 1 when the layer saw any traffic, 0 otherwise).
    node_layer_activity: List[List[float]]
    #: Layer-resolved dynamic power from the same event stream (the
    #: simulated Fig. 13b/13c path).
    layer_power: LayerPowerReport

    @property
    def avg_latency(self) -> float:
        return self.sim.avg_latency

    @property
    def avg_hops(self) -> float:
        return self.sim.avg_hops

    @property
    def total_power_w(self) -> float:
        return self.power.total_w

    @property
    def pdp(self) -> float:
        return self.power.pdp(self.sim.avg_latency)

    def router_power_per_node(self) -> List[float]:
        """Per-node router power (W): dynamic split by activity + leakage."""
        n = len(self.node_activity)
        leak_each = self.power.leakage_w / n
        return [
            self.power.dynamic_w * share + leak_each
            for share in self.node_activity
        ]

    def router_layer_power_per_node(self) -> List[List[float]]:
        """Per-node, per-layer router power map (W) for the thermal model.

        Each datapath layer's simulated dynamic power is split across
        routers by that layer's own activity shares (so a layer gated at
        most nodes concentrates its power where it actually switched);
        leakage is split evenly over nodes and layers.  Sums back to
        ``layer_power.total_w``.
        """
        lp = self.layer_power
        n = len(self.node_layer_activity) or 1
        groups = len(lp.layer_dynamic_w)
        leak_each = lp.leakage_w / (n * groups)
        return [
            [
                lp.layer_dynamic_w[layer] * shares[layer] + leak_each
                for layer in range(groups)
            ]
            for shares in self.node_layer_activity
        ]


def point_telemetry_config(
    telemetry_dir: str,
    stem: str,
    attribution: bool = False,
) -> "TelemetryConfig":
    """Per-sweep-point telemetry: a JSONL metric stream, sampled every
    :data:`~repro.telemetry.sampler.DEFAULT_INTERVAL` cycles.

    Used for every sweep point, inline or pooled, so a 54-point sweep
    names its streams (``<dir>/<stem>.jsonl``) the same way.
    *attribution* additionally turns on per-unit stall attribution and
    writes each point's stall report to ``<dir>/<stem>.stalls.json``.
    """
    import os

    from repro.telemetry.sampler import TelemetryConfig

    return TelemetryConfig(
        metrics_path=os.path.join(telemetry_dir, stem + ".jsonl"),
        attribution=attribution,
        attribution_path=(
            os.path.join(telemetry_dir, stem + ".stalls.json")
            if attribution else None
        ),
    )


def _run(
    config: ArchitectureConfig,
    traffic,
    settings: ExperimentSettings,
    label: str,
    shutdown_enabled: bool,
    profile: bool = False,
    sanitize: bool = False,
    sanitize_interval: int = 1,
    telemetry: Optional["TelemetryConfig"] = None,
    faults: Optional["FaultPlan"] = None,
    variation: Optional["VariationSample"] = None,
) -> PointResult:
    if variation is not None:
        # A slow corner can force the split ST/LT pipeline; apply the
        # sample's timing verdict before the network is built.  A
        # sigma-0 sample returns the config unchanged.
        config = variation.apply_to(config)
    network = config.build_network(shutdown_enabled=shutdown_enabled)
    if telemetry is not None and telemetry.arch_config is None:
        # The runner knows the architecture; hand it to the sampler so
        # windowed energy prices correctly.
        telemetry.arch_config = config
    sim = Simulator(
        network,
        traffic,
        warmup_cycles=settings.warmup_cycles,
        measure_cycles=settings.measure_cycles,
        drain_cycles=settings.drain_cycles,
        profile=profile,
        sanitize=sanitize,
        sanitize_interval=sanitize_interval,
        telemetry=telemetry,
        faults=faults,
    )
    result = sim.run()
    report = power_report(
        config,
        result.events,
        result.window_cycles,
        shutdown_enabled=shutdown_enabled,
        variation=variation,
    )
    node_flits = network.node_flits_switched()
    total_flits = sum(node_flits) or 1
    activity = [flits / total_flits for flits in node_flits]
    groups = network.layer_groups
    # Node n's flit traversals that drove layer l: effective active-layer
    # count k > l, i.e. histogram indices k-1 >= l.
    layer_flits = [
        [sum(switched[layer:]) for layer in range(groups)]
        for switched in network.flits_switched_by_layers
    ]
    layer_totals = [
        sum(per_node[layer] for per_node in layer_flits)
        for layer in range(groups)
    ]
    layer_activity = [
        [
            per_node[layer] / layer_totals[layer] if layer_totals[layer] else 0.0
            for layer in range(groups)
        ]
        for per_node in layer_flits
    ]
    layer_report = layer_power_report(
        config,
        result.events,
        result.window_cycles,
        shutdown_enabled=shutdown_enabled,
        variation=variation,
    )
    return PointResult(
        arch=config.name,
        label=label,
        sim=result,
        power=report,
        node_activity=activity,
        node_layer_activity=layer_activity,
        layer_power=layer_report,
    )


def fault_plan_for_spec(spec: "PointSpec") -> Optional["FaultPlan"]:
    """Materialise the spec's fault fields as a FaultPlan (or ``None``).

    Explicit ``fault_links``/``fault_vcs`` and the seeded-random sample
    (``fault_random_links`` channels drawn with ``fault_seed``) combine
    into one plan; the random draw depends only on the topology and the
    seed, so the plan is a pure function of the spec — exactly what the
    cache key assumes.
    """
    if not spec.has_faults:
        return None
    from repro.resilience.faults import FaultPlan, LinkFault, StuckVCFault

    links = [
        LinkFault(cycle=cycle, src=src, dst=dst)
        for cycle, src, dst in spec.fault_links
    ]
    if spec.fault_random_links:
        sampled = FaultPlan.random_links(
            spec.config.build_topology(),
            spec.fault_random_links,
            spec.fault_seed,
            cycle=spec.fault_cycle,
            mode=spec.fault_mode,
        )
        links.extend(sampled.links)
    vcs = tuple(
        StuckVCFault(cycle=cycle, node=node, port=port, vc=vc)
        for cycle, node, port, vc in spec.fault_vcs
    )
    return FaultPlan(links=tuple(links), vcs=vcs, mode=spec.fault_mode)


def variation_sample_for_spec(spec: "PointSpec") -> Optional["VariationSample"]:
    """The spec's process-variation sample (or ``None`` at sigma 0)."""
    if not spec.variation_sigma:
        return None
    from repro.resilience.variation import VariationModel

    model = VariationModel(spec.variation_sigma, seed=spec.variation_seed)
    return model.sample_for(spec.config)


def run_point_spec(
    spec: "PointSpec",
    settings: ExperimentSettings,
    telemetry: Optional["TelemetryConfig"] = None,
    *,
    profile: bool = False,
    sanitize: bool = False,
    sanitize_interval: int = 1,
) -> PointResult:
    """Run one :class:`~repro.experiments.store.PointSpec`.

    The one way to run a uniform-random (``UR@rate``) or NUCA-UR
    request/response (``NUCA@rate``, Fig. 11b) point: the sweep engine,
    the result cache, the CLI and the analysis tools all come here.  The
    spec carries everything that identifies the point, so running it is
    guaranteed to match what its cache key hashes; *telemetry*,
    *profile* and *sanitize* only observe the run.
    """
    faults = fault_plan_for_spec(spec)
    variation = variation_sample_for_spec(spec)
    config = spec.config
    seed = spec.effective_seed(settings)
    if spec.kind == "uniform":
        traffic = UniformRandomTraffic(
            num_nodes=config.num_nodes,
            flit_rate=spec.rate,
            short_flit_fraction=spec.short_flit_fraction,
            seed=seed,
        )
        label = f"UR@{spec.rate:g}"
    else:
        traffic = NucaUniformTraffic(
            cpu_nodes=config.cpu_nodes,
            cache_nodes=config.cache_nodes,
            request_rate=spec.rate,
            short_flit_fraction=spec.short_flit_fraction,
            seed=seed,
        )
        label = f"NUCA@{spec.rate:g}"
    return _run(
        config, traffic, settings, label, spec.shutdown_enabled,
        profile=profile, sanitize=sanitize, sanitize_interval=sanitize_interval,
        telemetry=telemetry, faults=faults, variation=variation,
    )


def run_trace_point(
    config: ArchitectureConfig,
    records: List[TraceRecord],
    settings: ExperimentSettings,
    label: str,
    shutdown_enabled: bool = True,
) -> PointResult:
    """Replay an MP trace (Figs. 11c, 12c); shutdown is on by default
    because the trace experiments exercise the short-flit technique."""
    traffic = TraceTraffic(records)
    return _run(config, traffic, settings, label, shutdown_enabled)
