"""Network analysis utilities: saturation search and channel-load maps.

These are the standard interconnect-evaluation tools a user of the
library reaches for after the paper's fixed sweeps: where does each
design saturate, and which channels carry the load?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.arch import ArchitectureConfig
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import PointResult, run_point_spec
from repro.experiments.store import PointSpec

#: A run counts as saturated when its latency exceeds this multiple of
#: the zero-load latency (the usual knee criterion) or the drain cap hit.
SATURATION_LATENCY_FACTOR = 3.0


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of a saturation search."""

    arch: str
    saturation_rate: float
    zero_load_latency: float
    #: Per probed rate: (rate, latency, saturated flag).
    probes: Tuple[Tuple[float, float, bool], ...]


def _is_saturated(point: PointResult, zero_load: float) -> bool:
    return point.sim.saturated or (
        point.avg_latency > SATURATION_LATENCY_FACTOR * zero_load
    )


def find_saturation_rate(
    config: ArchitectureConfig,
    settings: Optional[ExperimentSettings] = None,
    low: float = 0.02,
    high: float = 1.0,
    tolerance: float = 0.02,
) -> SaturationResult:
    """Bisect the uniform-random injection rate at which *config*
    saturates.

    The returned rate is the highest probed load that still behaved
    (latency under the knee criterion, drain completed).
    """
    settings = settings or ExperimentSettings.from_env()
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")
    probes: List[Tuple[float, float, bool]] = []

    def run(rate: float) -> PointResult:
        return run_point_spec(PointSpec(config, "uniform", rate), settings)

    zero_point = run(low)
    zero_load = zero_point.avg_latency
    probes.append((low, zero_load, False))

    lo, hi = low, high
    # Make sure the upper bound actually saturates; if not, report it.
    top = run(hi)
    probes.append((hi, top.avg_latency, _is_saturated(top, zero_load)))
    if not _is_saturated(top, zero_load):
        return SaturationResult(
            arch=config.name,
            saturation_rate=hi,
            zero_load_latency=zero_load,
            probes=tuple(probes),
        )

    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        point = run(mid)
        saturated = _is_saturated(point, zero_load)
        probes.append((mid, point.avg_latency, saturated))
        if saturated:
            hi = mid
        else:
            lo = mid
    return SaturationResult(
        arch=config.name,
        saturation_rate=lo,
        zero_load_latency=zero_load,
        probes=tuple(probes),
    )


def channel_load_map(point: PointResult) -> Dict[Tuple[int, int], int]:
    """Per-channel flit counts of a measured run (``(src, dst) -> flits``)."""
    return dict(point.sim.events.channel_flits)


def channel_utilization(
    point: PointResult, window_cycles: Optional[int] = None
) -> Dict[Tuple[int, int], float]:
    """Per-channel utilisation in flits/cycle over the measured window
    (or over *window_cycles*, which must be positive when given)."""
    window = point.sim.window_cycles if window_cycles is None else window_cycles
    if window <= 0:
        raise ValueError("window must be positive")
    return {
        channel: flits / window
        for channel, flits in point.sim.events.channel_flits.items()
    }


def hottest_channels(
    point: PointResult, count: int = 5
) -> List[Tuple[Tuple[int, int], float]]:
    """The *count* most-utilised channels, highest first."""
    if count < 1:
        raise ValueError("count must be >= 1")
    utilisation = channel_utilization(point)
    ranked = sorted(utilisation.items(), key=lambda kv: kv[1], reverse=True)
    return ranked[:count]


@dataclass(frozen=True)
class ReplicatedResult:
    """Mean/extremes of a metric over independent seeds."""

    arch: str
    rate: float
    mean_latency: float
    std_latency: float
    mean_power_w: float
    seeds: Tuple[int, ...]


def run_replicated(
    config: ArchitectureConfig,
    rate: float,
    settings: Optional[ExperimentSettings] = None,
    seeds: Tuple[int, ...] = (1, 2, 3),
) -> ReplicatedResult:
    """Repeat one simulation point over independent seeds.

    Gives the sampling error of a reported latency — the honesty check
    behind any single-seed number in EXPERIMENTS.md.
    """
    settings = settings or ExperimentSettings.from_env()
    if len(seeds) < 2:
        raise ValueError("need at least two seeds for a spread estimate")
    latencies = []
    powers = []
    for seed in seeds:
        spec = PointSpec(config, "uniform", rate, seed=seed)
        point = run_point_spec(spec, settings)
        latencies.append(point.avg_latency)
        powers.append(point.total_power_w)
    n = len(latencies)
    mean = sum(latencies) / n
    var = sum((x - mean) ** 2 for x in latencies) / (n - 1)
    return ReplicatedResult(
        arch=config.name,
        rate=rate,
        mean_latency=mean,
        std_latency=var ** 0.5,
        mean_power_w=sum(powers) / n,
        seeds=tuple(seeds),
    )
