"""HotSpot-style thermal model for 2D and stacked 3D chips.

The paper feeds per-component power traces into HotSpot 4.0 (Sec. 4.2.3).
HotSpot is a compact RC-network solver; this package rebuilds the same
physics at tile granularity:

* :mod:`repro.thermal.stack` — the die-stack material parameters
  (silicon layers, inter-layer bonds, heat-sink boundary).
* :mod:`repro.thermal.floorplan` — per-architecture tile grids with power
  assignment (8 W CPU cores, 0.1 W cache banks, simulated router power;
  Fig. 10 layouts).
* :mod:`repro.thermal.solver` — steady-state sparse conductance solve.
* :mod:`repro.thermal.hotspot` — the high-level API used by experiments.
"""

from repro import _lazy_exports

_EXPORTS = {
    "StackParameters": ".stack",
    "Floorplan": ".floorplan",
    "floorplan_for": ".floorplan",
    "ThermalGrid": ".solver",
    "ThermalResult": ".hotspot",
    "steady_state": ".hotspot",
    "temperature_drop": ".hotspot",
    "TransientSolver": ".transient",
    "power_trace_from_activity": ".transient",
    "transient_temperatures": ".transient",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
