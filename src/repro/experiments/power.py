"""Power experiments (Fig. 12a-d)."""

from __future__ import annotations

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


def fig12c_trace_power(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
) -> Dict[str, Dict[str, PointResult]]:
    """Fig. 12c: MP-trace power, workload -> arch.

    The multi-layer designs run with layer shutdown enabled (the traces
    carry real short-flit payloads, and the event-driven layer-resolved
    accounting prices exactly the layers each flit switched); the paper's
    base cases (2DB/3DB) run without shutdown, matching "with no layer
    shut down in the base cases" (Sec. 4.2.2).
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
            per_arch[config.name] = run_trace_point(
                config,
                records,
                settings,
                label=workload_name,
                shutdown_enabled=config.is_multilayer,
            )
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
