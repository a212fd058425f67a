"""Shutdown power and thermal experiments (Fig. 13a-c).

Fig. 13b and 13c are priced one way: by the simulated per-layer event
histograms of runs with layer shutdown enabled (the point's
``layer_power`` report and its per-node-per-layer router power maps).
The closed-form :func:`~repro.power.gating.shutdown_saving` is not a
second path here; tests and the headline validator call it directly as
the reference the simulated savings are checked against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.hierarchy import generate_trace
from repro.core.arch import ArchitectureConfig, make_2db, make_3dm, make_3dme
from repro.experiments.config import ExperimentSettings
from repro.experiments.store import PointSpec, ResultStore, cached_point_run
from repro.thermal.hotspot import temperature_drop
from repro.traffic.workloads import WORKLOADS


def fig13a_short_flit_fractions(
    settings: Optional[ExperimentSettings] = None,
) -> Dict[str, float]:
    """Fig. 13a: short-flit percentage of each workload's traffic.

    Measured from generated traces (payload flits with one active word
    group), not read from the profile, so it validates the whole payload
    pipeline.
    """
    settings = settings or ExperimentSettings.from_env()
    config = make_2db()
    out: Dict[str, float] = {}
    for name in settings.workloads:
        records, _ = generate_trace(
            config,
            WORKLOADS[name],
            cycles=max(20000, settings.trace_cycles // 3),
            seed=settings.seed,
        )
        short = 0
        total = 0
        for record in records:
            if record.payload_groups is None:
                continue
            for groups in record.payload_groups[1:]:  # skip header flit
                total += 1
                short += groups == 1
        out[name] = short / total if total else 0.0
    return out


def fig13b_shutdown_savings(
    short_fractions: Tuple[float, ...] = (0.25, 0.50),
    configs: Optional[List[ArchitectureConfig]] = None,
    settings: Optional[ExperimentSettings] = None,
    rate: float = 0.1,
    store: Optional[ResultStore] = None,
) -> Dict[str, Dict[float, float]]:
    """Fig. 13b: dynamic-power saving of the shutdown technique.

    Returns arch -> {short fraction -> saved fraction}.  The paper
    evaluates 2DB, 3DM and 3DM-E (the technique applies to all three;
    Sec. 4.2.2).

    Each point runs a uniform-random simulation with that payload
    short-flit fraction and layer shutdown enabled, and the saving is the
    layer-resolved power report's dynamic power against its own
    all-layers-on baseline (same event stream, so no cross-run noise).

    The nominal fraction parameterises *payload* flits, while
    header/control flits are short by construction, so the measured
    short-flit fraction of simulated traffic — and with it the saving —
    sits above the closed-form
    :func:`~repro.power.gating.shutdown_saving` at the nominal fraction
    ((1 + 2s)/3 with the default packet mix).  The two agree within 2%
    when the closed form is evaluated at the measured fraction (asserted
    in tests).
    """
    configs = configs or [make_2db(), make_3dm(), make_3dme()]
    settings = settings or ExperimentSettings.from_env()
    out: Dict[str, Dict[float, float]] = {}
    for config in configs:
        out[config.name] = {}
        for s in short_fractions:
            point = cached_point_run(
                store,
                PointSpec(
                    config, "uniform", rate,
                    short_flit_fraction=s, shutdown_enabled=True,
                ),
                settings,
            )
            out[config.name][s] = point.layer_power.shutdown_saving_fraction
    return out


def fig13c_temperature_reduction(
    settings: Optional[ExperimentSettings] = None,
    rates: Optional[Tuple[float, ...]] = None,
    short_fraction: float = 0.50,
    config: Optional[ArchitectureConfig] = None,
    store: Optional[ResultStore] = None,
) -> Dict[float, float]:
    """Fig. 13c: average temperature drop of 3DM with 50% short flits.

    For each injection rate, the same UR workload is simulated with 0%
    short flits (shutdown moot) and with ``short_fraction`` short flits
    (shutdown active); the simulated per-node-per-layer router power
    maps feed the thermal solver and the average-temperature difference
    is reported.
    """
    settings = settings or ExperimentSettings.from_env()
    config = config or make_3dm()
    if rates is None:
        rates = tuple(settings.uniform_rates[:3])
    out: Dict[float, float] = {}
    for rate in rates:
        base = cached_point_run(
            store,
            PointSpec(config, "uniform", rate, shutdown_enabled=True),
            settings,
        )
        gated = cached_point_run(
            store,
            PointSpec(
                config, "uniform", rate,
                short_flit_fraction=short_fraction, shutdown_enabled=True,
            ),
            settings,
        )
        out[rate] = temperature_drop(
            config,
            router_layer_power_base_w=base.router_layer_power_per_node(),
            router_layer_power_reduced_w=gated.router_layer_power_per_node(),
        )
    return out
