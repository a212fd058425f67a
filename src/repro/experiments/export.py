"""Machine-readable experiment export (JSON).

The text artifacts under ``results/`` are for humans; this module
serialises the same data structures to JSON so plotting scripts and
downstream analyses can consume runs directly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.experiments.runner import PointResult


def point_to_dict(point: PointResult) -> Dict[str, Any]:
    """Flatten a PointResult into JSON-serialisable primitives."""
    sim = point.sim
    return {
        "arch": point.arch,
        "label": point.label,
        "avg_latency_cycles": sim.avg_latency,
        "latency_p50": sim.latency_p50,
        "latency_p95": sim.latency_p95,
        "latency_p99": sim.latency_p99,
        "avg_hops": sim.avg_hops,
        "throughput_flits_node_cycle": sim.throughput,
        "packets_measured": sim.packets_measured,
        "saturated": sim.saturated,
        "power_w": {
            "dynamic": point.power.dynamic_w,
            "leakage": point.power.leakage_w,
            "total": point.power.total_w,
            "breakdown": dict(point.power.breakdown_w),
        },
        "pdp_ws": point.pdp,
        "short_flit_fraction": sim.events.short_flit_fraction,
        "layer_power_w": {
            "per_layer_dynamic": list(point.layer_power.layer_dynamic_w),
            "all_layers_on_dynamic": point.layer_power.all_layers_on_dynamic_w,
            "shutdown_saving_fraction": (
                point.layer_power.shutdown_saving_fraction
            ),
        },
    }


def sweep_to_dict(
    sweep: Dict[str, List[Tuple[float, PointResult]]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Serialise a rate sweep (Figs. 11a/b, 12a/b shape)."""
    return {
        arch: [
            {"rate": rate, **point_to_dict(point)} for rate, point in series
        ]
        for arch, series in sweep.items()
    }


def _jsonify(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonify(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def export_json(
    data: Any, path: Union[str, Path], indent: int = 2
) -> Path:
    """Write *data* (sweeps, dicts of dataclasses, ...) as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(_jsonify(data), indent=indent, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
