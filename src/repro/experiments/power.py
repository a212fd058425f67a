"""Power experiments (Fig. 12a-d)."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.cache.hierarchy import generate_trace
from repro.core.arch import ArchitectureConfig, standard_configs
from repro.experiments.config import ExperimentSettings
from repro.experiments.latency import (
    Sweep,
    fig11a_uniform_latency,
    fig11b_nuca_latency,
)
from repro.experiments.runner import PointResult, run_trace_point
from repro.experiments.store import ResultStore
from repro.power.energy import PowerReport
from repro.power.gating import shutdown_saving
from repro.traffic.workloads import WORKLOADS


def _configs(configs: Optional[List[ArchitectureConfig]]) -> List[ArchitectureConfig]:
    return standard_configs() if configs is None else configs


def fig12a_uniform_power(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
    store: Optional[ResultStore] = None,
) -> Sweep:
    """Fig. 12a: average power vs injection rate (UR, 0% short flits).

    ``store`` (opt-in) serves previously simulated points from the
    content-addressed result cache and fills it with fresh ones.  The
    grid is :func:`fig11a_uniform_latency`'s (each point carries both
    latency and power), so running both against one store simulates
    each point once.
    """
    return fig11a_uniform_latency(settings, configs, store)


def fig12b_nuca_power(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
    store: Optional[ResultStore] = None,
) -> Sweep:
    """Fig. 12b: average power vs request rate (NUCA-UR) — the grid of
    :func:`fig11b_nuca_latency`."""
    return fig11b_nuca_latency(settings, configs, store)


def _analytic_shutdown_point(
    config: ArchitectureConfig, point: PointResult
) -> PointResult:
    """Project the analytic shutdown factor onto an all-layers-on run.

    The ``--analytic-shutdown`` fallback: instead of the event-driven
    per-layer accounting, scale the simulated all-layers-on dynamic power
    by :func:`~repro.power.gating.shutdown_saving`'s power factor at the
    measured short-flit fraction of the trace.
    """
    events = point.sim.events
    fraction = (
        events.short_flit_hops / events.flit_hops if events.flit_hops else 0.0
    )
    factor = shutdown_saving(config, fraction).power_factor
    scaled = PowerReport(
        name=point.power.name,
        dynamic_w=point.power.dynamic_w * factor,
        leakage_w=point.power.leakage_w,
        breakdown_w={
            key: value * factor for key, value in point.power.breakdown_w.items()
        },
    )
    return replace(point, power=scaled)


def fig12c_trace_power(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
    analytic_shutdown: bool = False,
) -> Dict[str, Dict[str, PointResult]]:
    """Fig. 12c: MP-trace power, workload -> arch.

    The multi-layer designs run with layer shutdown enabled (the traces
    carry real short-flit payloads, and the event-driven layer-resolved
    accounting prices exactly the layers each flit switched); the paper's
    base cases (2DB/3DB) run without shutdown, matching "with no layer
    shut down in the base cases" (Sec. 4.2.2).  ``analytic_shutdown=True``
    falls back to all-layers-on runs scaled by the closed-form shutdown
    factor at each trace's measured short-flit fraction.
    """
    settings = settings or ExperimentSettings.from_env()
    out: Dict[str, Dict[str, PointResult]] = {}
    for workload_name in settings.workloads:
        profile = WORKLOADS[workload_name]
        per_arch: Dict[str, PointResult] = {}
        for config in _configs(configs):
            records, _ = generate_trace(
                config, profile, cycles=settings.trace_cycles, seed=settings.seed
            )
            point = run_trace_point(
                config,
                records,
                settings,
                label=workload_name,
                shutdown_enabled=(
                    config.is_multilayer and not analytic_shutdown
                ),
            )
            if analytic_shutdown and config.is_multilayer:
                point = _analytic_shutdown_point(config, point)
            per_arch[config.name] = point
        out[workload_name] = per_arch
    return out


def fig12d_pdp(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 12d: power-delay product vs injection rate, normalised to 2DB.

    Returns arch -> [(rate, normalised PDP)].
    """
    settings = settings or ExperimentSettings.from_env()
    sweep = fig12a_uniform_power(settings, configs)
    if "2DB" not in sweep:
        raise ValueError("fig12d normalisation needs the 2DB baseline in configs")
    base = {rate: point.pdp for rate, point in sweep["2DB"]}
    out: Dict[str, List[Tuple[float, float]]] = {}
    for arch, series in sweep.items():
        out[arch] = [
            (rate, point.pdp / base[rate] if base[rate] else 0.0)
            for rate, point in series
        ]
    return out
