"""Resilience experiments: latency/power distributions under faults and
process variation (the ``fig_resilience`` family).

Two axes, both run through the cached sweep machinery (fault and
variation parameters are part of :func:`~repro.experiments.store
.point_key`, so every point is individually content-addressed):

* **variation** — the same (architecture, rate) point re-simulated under
  many variation seeds at a fixed sigma: latency and power become
  *distributions*, and designs whose ST+LT merge sits close to the
  stage budget show a bimodal latency split when slow corners force the
  split pipeline.
* **faults** — seeded-random link kills at increasing counts
  (drain-mode fences: routing reroutes, committed wormholes finish);
  packets with no surviving path are counted drops, so delivery
  fraction degrades gracefully instead of the run aborting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.arch import ArchitectureConfig, standard_configs
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import PointResult
from repro.experiments.store import PointSpec, ResultStore, cached_point_run

#: Default number of variation seeds per architecture (>= 20 keeps the
#: distributions meaningful).
DEFAULT_VARIATION_SEEDS = 20
#: Default per-tier variation sigma.
DEFAULT_VARIATION_SIGMA = 0.1
#: Default fault counts for the damage axis.
DEFAULT_FAULT_COUNTS: Tuple[int, ...] = (0, 1, 2)

#: arch -> [(x, PointResult)] — x is a variation seed or a fault count.
Series = Dict[str, List[Tuple[float, PointResult]]]


def _configs(
    configs: Optional[List[ArchitectureConfig]],
) -> List[ArchitectureConfig]:
    return standard_configs() if configs is None else configs


def _default_rate(settings: ExperimentSettings) -> float:
    """A fixed moderate load for the distribution studies: the median
    configured uniform rate (below saturation for every design)."""
    rates = sorted(settings.uniform_rates)
    return rates[len(rates) // 2]


def fig_resilience_variation(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
    store: Optional[ResultStore] = None,
    sigma: float = DEFAULT_VARIATION_SIGMA,
    variation_seeds: Optional[Sequence[int]] = None,
    rate: Optional[float] = None,
) -> Series:
    """Latency/power distribution across variation seeds, per arch."""
    settings = settings or ExperimentSettings.from_env()
    seeds = (
        range(DEFAULT_VARIATION_SEEDS)
        if variation_seeds is None
        else variation_seeds
    )
    load = _default_rate(settings) if rate is None else rate
    out: Series = {}
    for config in _configs(configs):
        series = []
        for seed in seeds:
            spec = PointSpec(
                config,
                "uniform",
                load,
                variation_sigma=sigma,
                variation_seed=seed,
            )
            series.append((float(seed), cached_point_run(store, spec, settings)))
        out[config.name] = series
    return out


def fig_resilience_faults(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
    store: Optional[ResultStore] = None,
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    fault_seed: int = 1,
    rate: Optional[float] = None,
) -> Series:
    """Latency/drop degradation vs injected link-fault count, per arch.

    Faults are drain-mode fences (detected failures): routing reroutes
    where a surviving path exists, unroutable packets count as drops.
    """
    settings = settings or ExperimentSettings.from_env()
    load = _default_rate(settings) if rate is None else rate
    out: Series = {}
    for config in _configs(configs):
        series = []
        for count in fault_counts:
            spec = PointSpec(
                config,
                "uniform",
                load,
                fault_random_links=count,
                fault_seed=fault_seed,
                fault_mode="drain",
            )
            series.append((float(count), cached_point_run(store, spec, settings)))
        out[config.name] = series
    return out


def fig_resilience(
    settings: Optional[ExperimentSettings] = None,
    configs: Optional[List[ArchitectureConfig]] = None,
    store: Optional[ResultStore] = None,
    sigma: float = DEFAULT_VARIATION_SIGMA,
    variation_seeds: Optional[Sequence[int]] = None,
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    rate: Optional[float] = None,
) -> Dict[str, Series]:
    """Both resilience axes: ``{"variation": ..., "faults": ...}``."""
    return {
        "variation": fig_resilience_variation(
            settings,
            configs,
            store,
            sigma=sigma,
            variation_seeds=variation_seeds,
            rate=rate,
        ),
        "faults": fig_resilience_faults(
            settings, configs, store, fault_counts=fault_counts, rate=rate
        ),
    }


def variation_summary(series: Series) -> Dict[str, Dict[str, float]]:
    """Per-arch spread statistics over the variation distribution."""
    out: Dict[str, Dict[str, float]] = {}
    for arch, points in series.items():
        lats = [p.avg_latency for _, p in points]
        powers = [p.total_power_w for _, p in points]
        n = len(lats) or 1
        out[arch] = {
            "samples": float(len(lats)),
            "latency_mean": sum(lats) / n,
            "latency_min": min(lats) if lats else 0.0,
            "latency_max": max(lats) if lats else 0.0,
            "power_mean": sum(powers) / n,
            "power_min": min(powers) if powers else 0.0,
            "power_max": max(powers) if powers else 0.0,
        }
    return out


def fault_summary_table(series: Series) -> Dict[str, List[Dict[str, float]]]:
    """Per-arch rows of (fault count, latency, delivered/dropped)."""
    out: Dict[str, List[Dict[str, float]]] = {}
    for arch, points in series.items():
        out[arch] = [
            {
                "faults": count,
                "avg_latency": p.avg_latency,
                "packets_delivered": float(p.sim.packets_delivered),
                "packets_dropped": float(p.sim.packets_dropped),
                "saturated": float(p.sim.saturated),
            }
            for count, p in points
        ]
    return out
