"""MIRA: A Multi-Layered On-Chip Interconnect Router Architecture.

Full reproduction of Park et al., ISCA 2008: a cycle-accurate 3D NoC
simulator, the four evaluated router architectures (2DB / 3DB / 3DM /
3DM-E), Orion-style power and area models, a HotSpot-style thermal
solver, and a NUCA CMP cache-coherence substrate.

Quickstart::

    from repro import Architecture, make_architecture, simulate

    config = make_architecture(Architecture.MIRA_3DM_E)
    result = simulate(config, flit_rate=0.2)
    print(result.sim.avg_latency, result.power.total_w)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
table-by-table reproduction record.
"""

from __future__ import annotations

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(package, exports):
    """PEP 562 lazy exports for *package*: ``(__all__, __getattr__, __dir__)``.

    *exports* maps each public name to the module that defines it; a
    leading dot makes the module relative to *package*.  A name's module
    is imported on first access and the value is then cached in the
    package namespace, so importing a package loads none of its
    submodules and a run pays only for the modules it touches.  Names
    outside *exports* (submodules included) raise
    :class:`AttributeError`, which lets ``from package import submodule``
    fall back to the normal submodule import.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return list(exports), __getattr__, __dir__


_EXPORTS = {
    "Architecture": ".core.arch",
    "ArchitectureConfig": ".core.arch",
    "make_2db": ".core.arch",
    "make_3db": ".core.arch",
    "make_3dm": ".core.arch",
    "make_3dme": ".core.arch",
    "make_architecture": ".core.arch",
    "standard_configs": ".core.arch",
    "ExperimentSettings": ".experiments.config",
    "PointResult": ".experiments.runner",
    "run_trace_point": ".experiments.runner",
    "Network": ".noc.network",
    "Flit": ".noc.packet",
    "FlitType": ".noc.packet",
    "Packet": ".noc.packet",
    "PacketClass": ".noc.packet",
    "SimulationResult": ".noc.simulator",
    "Simulator": ".noc.simulator",
    "RouterArea": ".power.area",
    "router_area": ".power.area",
    "PowerReport": ".power.energy",
    "power_report": ".power.energy",
    "RouterEnergyModel": ".power.orion",
    "ThermalResult": ".thermal.hotspot",
    "steady_state": ".thermal.hotspot",
    "temperature_drop": ".thermal.hotspot",
    "NucaUniformTraffic": ".traffic.nuca",
    "UniformRandomTraffic": ".traffic.synthetic",
    "WORKLOADS": ".traffic.workloads",
    "WorkloadProfile": ".traffic.workloads",
    "channel_utilization": ".analysis",
    "find_saturation_rate": ".analysis",
    "hottest_channels": ".analysis",
    "run_replicated": ".analysis",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ += ["simulate", "__version__"]


def simulate(
    config: ArchitectureConfig,
    flit_rate: float = 0.1,
    settings: ExperimentSettings = None,
    **spec_fields,
) -> PointResult:
    """One-call uniform-random simulation of an architecture.

    *spec_fields* are further :class:`~repro.experiments.store.PointSpec`
    fields (``short_flit_fraction``, ``shutdown_enabled``, ``seed``, the
    fault and variation fields); the point runs through
    :func:`~repro.experiments.runner.run_point_spec`.
    """
    from repro.experiments.config import ExperimentSettings
    from repro.experiments.runner import run_point_spec
    from repro.experiments.store import PointSpec

    settings = settings or ExperimentSettings.from_env()
    spec = PointSpec(config, "uniform", flit_rate, **spec_fields)
    return run_point_spec(spec, settings)
