"""Latency experiments (Fig. 11a-d)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.hierarchy import generate_trace
from repro.core.arch import ArchitectureConfig, standard_configs
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import (
    PointResult,
    run_point_spec,
    run_trace_point,
)
from repro.experiments.store import PointSpec, ResultStore, cached_point_run
from repro.traffic.workloads import WORKLOADS

#: Series type: architecture name -> [(x, PointResult)].
Sweep = Dict[str, List[Tuple[float, PointResult]]]


def _configs(configs: Optional[List[ArchitectureConfig]]) -> List[ArchitectureConfig]:
    return standard_configs() if configs is None else configs


def fig11a_uniform_latency(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
    store: Optional[ResultStore] = None,
) -> Sweep:
    """Fig. 11a: average latency vs injection rate, uniform random.

    ``store`` (opt-in) serves previously simulated points from the
    content-addressed result cache and fills it with fresh ones.
    """
    settings = settings or ExperimentSettings.from_env()
    out: Sweep = {}
    for config in _configs(configs):
        series = []
        for rate in settings.uniform_rates:
            point = cached_point_run(
                store, PointSpec(config, "uniform", rate), settings
            )
            series.append((rate, point))
        out[config.name] = series
    return out


def fig11b_nuca_latency(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
    store: Optional[ResultStore] = None,
) -> Sweep:
    """Fig. 11b: average latency vs request rate, NUCA-UR."""
    settings = settings or ExperimentSettings.from_env()
    out: Sweep = {}
    for config in _configs(configs):
        series = []
        for rate in settings.nuca_rates:
            point = cached_point_run(
                store, PointSpec(config, "nuca", rate), settings
            )
            series.append((rate, point))
        out[config.name] = series
    return out


def fig11c_trace_latency(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
) -> Dict[str, Dict[str, PointResult]]:
    """Fig. 11c: per-workload MP-trace results, keyed workload -> arch.

    Normalisation against 2DB (as the paper plots it) is left to the
    caller/report: each PointResult carries absolute latency.
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
                config, records, settings, label=workload_name
            )
        out[workload_name] = per_arch
    return out


def fig11d_hop_counts(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
) -> Dict[str, Dict[str, float]]:
    """Fig. 11d: average hop count for UR / NUCA-UR / MP traces."""
    settings = settings or ExperimentSettings.from_env()
    configs = _configs(configs)
    mid_ur = settings.uniform_rates[len(settings.uniform_rates) // 2]
    mid_nuca = settings.nuca_rates[len(settings.nuca_rates) // 2]
    workload = WORKLOADS[settings.workloads[0]]

    out: Dict[str, Dict[str, float]] = {"UR": {}, "NUCA-UR": {}, "MP": {}}
    for config in configs:
        out["UR"][config.name] = run_point_spec(
            PointSpec(config, "uniform", mid_ur), settings
        ).avg_hops
        out["NUCA-UR"][config.name] = run_point_spec(
            PointSpec(config, "nuca", mid_nuca), settings
        ).avg_hops
        records, _ = generate_trace(
            config, workload, cycles=settings.trace_cycles, seed=settings.seed
        )
        out["MP"][config.name] = run_trace_point(
            config, records, settings, label=workload.name
        ).avg_hops
    return out
