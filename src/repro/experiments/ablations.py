"""Ablation studies over the design choices the paper fixes.

The paper justifies several parameters without sweeping them (Sec. 3.2.4:
two VCs; Sec. 3.2.1: eight-flit buffers; Sec. 3.3: span-2 express
channels; Fig. 8: the pipeline organisation) and names QoS and fault
tolerance as alternative uses of the spare bandwidth.  These harnesses
sweep each choice so the sensitivity is measured rather than asserted.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from repro.core.arch import ArchitectureConfig, make_2db, make_3dm, make_3dme
from repro.core.fault import both_directions, build_fault_tolerant_network
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import PointResult, run_point_spec
from repro.experiments.store import PointSpec
from repro.noc.network import Network
from repro.noc.simulator import Simulator
from repro.topology.express_mesh import ExpressMesh
from repro.traffic.synthetic import UniformRandomTraffic


def ablate_pipeline_depth(
    settings: Optional[ExperimentSettings] = None,
    rate: float = 0.2,
) -> Dict[str, PointResult]:
    """Fig. 8 organisations on the 2DB router + MIRA's merge on 3DM.

    Labels carry the per-hop cycle count so the table reads like Fig. 8.
    """
    settings = settings or ExperimentSettings.from_env()
    base = make_2db()
    variants = {
        "2DB 4-stage (Fig.8a, 5cyc/hop)": base,
        "2DB +spec SA (Fig.8b, 4cyc/hop)": base.with_pipeline_options(
            speculative_sa=True
        ),
        "2DB +lookahead (Fig.8c, 3cyc/hop)": base.with_pipeline_options(
            speculative_sa=True, lookahead_rc=True
        ),
        "3DM merged ST+LT (Fig.8d, 4cyc/hop)": make_3dm(),
        "3DM merged+spec+lookahead (2cyc/hop)": make_3dm().with_pipeline_options(
            speculative_sa=True, lookahead_rc=True
        ),
    }
    return {
        label: run_point_spec(PointSpec(config, "uniform", rate), settings)
        for label, config in variants.items()
    }


def ablate_vc_count(
    settings: Optional[ExperimentSettings] = None,
    rate: float = 0.2,
    counts: Sequence[int] = (1, 2, 4),
) -> Dict[int, PointResult]:
    """Virtual channels per port (the paper fixes 2; Sec. 3.2.4)."""
    settings = settings or ExperimentSettings.from_env()
    out: Dict[int, PointResult] = {}
    for vcs in counts:
        config = dataclasses.replace(make_3dm(), vcs=vcs)
        out[vcs] = run_point_spec(PointSpec(config, "uniform", rate), settings)
    return out


def ablate_buffer_depth(
    settings: Optional[ExperimentSettings] = None,
    rate: float = 0.2,
    depths: Sequence[int] = (2, 4, 8, 16),
) -> Dict[int, PointResult]:
    """Flits per VC buffer (the paper fixes 8; Sec. 3.2.1)."""
    settings = settings or ExperimentSettings.from_env()
    out: Dict[int, PointResult] = {}
    for depth in depths:
        config = dataclasses.replace(make_3dm(), buffer_depth=depth)
        spec = PointSpec(config, "uniform", rate)
        out[depth] = run_point_spec(spec, settings)
    return out


def ablate_express_span(
    settings: Optional[ExperimentSettings] = None,
    rate: float = 0.2,
    spans: Sequence[int] = (2, 3),
) -> Dict[int, PointResult]:
    """Express-channel span.

    Span 3 cuts hops further but its 4.74 mm channel no longer fits the
    single-cycle ST+LT stage (Table 3 logic), so the factory silently
    reverts those variants to the split pipeline — the trade-off this
    ablation exists to expose.
    """
    settings = settings or ExperimentSettings.from_env()
    out: Dict[int, PointResult] = {}
    for span in spans:
        spec = PointSpec(make_3dme(span=span), "uniform", rate)
        out[span] = run_point_spec(spec, settings)
    return out


def ablate_qos(
    settings: Optional[ExperimentSettings] = None,
    rate: float = 0.3,
    high_priority_fraction: float = 0.2,
) -> Dict[str, Dict[int, float]]:
    """Per-priority-class latency with and without QoS arbitration.

    Returns ``{"qos" | "fifo": {priority: avg latency}}``.
    """
    settings = settings or ExperimentSettings.from_env()
    config = make_3dme()
    out: Dict[str, Dict[int, float]] = {}
    for label, qos in (("qos", True), ("fifo", False)):
        network = Network(
            topology=config.build_topology(),
            num_vcs=config.vcs,
            buffer_depth=config.buffer_depth,
            combined_st_lt=config.combined_st_lt,
            qos_enabled=qos,
        )
        traffic = UniformRandomTraffic(
            num_nodes=config.num_nodes,
            flit_rate=rate,
            seed=settings.seed,
            high_priority_fraction=high_priority_fraction,
        )
        sim = Simulator(
            network,
            traffic,
            warmup_cycles=settings.warmup_cycles,
            measure_cycles=settings.measure_cycles,
            drain_cycles=settings.drain_cycles,
        )
        sim.run()
        out[label] = {
            priority: network.stats.avg_latency_for_priority(priority)
            for priority in (0, 1)
        }
    return out


def ablate_vc_partitioning(
    settings: Optional[ExperimentSettings] = None,
    request_rate: float = 0.15,
) -> Dict[str, Dict[str, float]]:
    """Pooled VCs vs one-VC-per-traffic-class (Sec. 3.2.4 decision ii).

    Runs NUCA request/response traffic (the workload the partitioning is
    designed for) both ways.  Returns
    ``{mode: {"avg", "ctrl", "data"}}`` average latencies.
    """
    from repro.traffic.nuca import NucaUniformTraffic

    settings = settings or ExperimentSettings.from_env()
    config = make_3dm()
    out: Dict[str, Dict[str, float]] = {}
    for label, partitioned in (("pooled", False), ("per-class", True)):
        network = Network(
            topology=config.build_topology(),
            num_vcs=config.vcs,
            buffer_depth=config.buffer_depth,
            combined_st_lt=config.combined_st_lt,
            vc_by_class=partitioned,
        )
        traffic = NucaUniformTraffic(
            cpu_nodes=config.cpu_nodes,
            cache_nodes=config.cache_nodes,
            request_rate=request_rate,
            seed=settings.seed,
        )
        sim = Simulator(
            network,
            traffic,
            warmup_cycles=settings.warmup_cycles,
            measure_cycles=settings.measure_cycles,
            drain_cycles=settings.drain_cycles,
        )
        result = sim.run()
        out[label] = {
            "avg": result.avg_latency,
            "ctrl": result.avg_latency_by_class["ctrl"],
            "data": result.avg_latency_by_class["data"],
        }
    return out


def ablate_3db_cpu_placement(
    settings: Optional[ExperimentSettings] = None,
    request_rate: float = 0.1,
) -> Dict[str, Dict[str, float]]:
    """The 3DB thermal-vs-latency placement trade (Sec. 3.1).

    The paper pins CPUs to the heat-sink layer, accepting the NUCA
    hop-count penalty of Fig. 11d.  This ablation quantifies both sides:
    NUCA-UR latency/hops and peak steady-state temperature for the two
    placements.  Returns ``{placement: {metric: value}}``.
    """
    from repro.core.arch import make_3db
    from repro.thermal.hotspot import steady_state

    settings = settings or ExperimentSettings.from_env()
    out: Dict[str, Dict[str, float]] = {}
    for placement in ("top", "spread"):
        config = make_3db(cpu_placement=placement)
        point = run_point_spec(
            PointSpec(config, "nuca", request_rate), settings
        )
        thermal = steady_state(config, point.router_power_per_node())
        out[placement] = {
            "avg_latency": point.avg_latency,
            "avg_hops": point.avg_hops,
            "avg_temp_k": thermal.avg_k,
            "max_temp_k": thermal.max_k,
        }
    return out


def ablate_link_failures(
    settings: Optional[ExperimentSettings] = None,
    rate: float = 0.15,
    failure_counts: Sequence[int] = (0, 1, 2, 4),
) -> Dict[int, float]:
    """Average latency as interior normal channels fail (full duplex).

    Quantifies the graceful degradation the express siblings buy.
    Returns {failed links: avg latency}.
    """
    settings = settings or ExperimentSettings.from_env()
    config = make_3dme()
    mesh = ExpressMesh(6, 6, pitch_mm=config.pitch_mm, span=2)
    # Interior horizontal links whose express sibling exists on both ends.
    candidates = [
        (mesh.node_at((1, y)), mesh.node_at((2, y))) for y in range(1, 5)
    ]
    out: Dict[int, float] = {}
    for count in failure_counts:
        if count > len(candidates):
            raise ValueError(f"at most {len(candidates)} failure sites available")
        failed = set()
        for src, dst in candidates[:count]:
            failed |= both_directions(src, dst)
        network = build_fault_tolerant_network(config, failed)
        traffic = UniformRandomTraffic(
            num_nodes=config.num_nodes, flit_rate=rate, seed=settings.seed
        )
        sim = Simulator(
            network,
            traffic,
            warmup_cycles=settings.warmup_cycles,
            measure_cycles=settings.measure_cycles,
            drain_cycles=settings.drain_cycles,
        )
        out[count] = sim.run().avg_latency
    return out
