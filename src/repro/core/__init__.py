"""MIRA core: the paper's router architectures and layering techniques.

This package holds the primary contribution of the paper:

* :mod:`repro.core.arch` — the four evaluated router architectures (2DB,
  3DB, 3DM, 3DM-E) plus the no-pipeline-combining (NC) variants, as
  buildable configurations.
* :mod:`repro.core.pipeline` — the router pipeline organisations (Fig. 8).
* :mod:`repro.core.layers` — the multi-layer partitioning plan: which
  modules are separable across layers, where each module lives, and the
  through-silicon-via budget (Table 1).
* :mod:`repro.core.shutdown` — short-flit detection and the dynamic
  layer-shutdown power model (Secs. 3.2.1, 4.2.2).
* :mod:`repro.core.express` — express-channel analysis helpers (Sec. 3.3).
"""

from repro import _lazy_exports

_EXPORTS = {
    "Architecture": ".arch",
    "ArchitectureConfig": ".arch",
    "make_2db": ".arch",
    "make_3db": ".arch",
    "make_3dm": ".arch",
    "make_3dme": ".arch",
    "make_architecture": ".arch",
    "standard_configs": ".arch",
    "PipelineSpec": ".pipeline",
    "pipeline_for": ".pipeline",
    "LayerPlan": ".layers",
    "layer_plan_for": ".layers",
    "shutdown_power_factor": ".shutdown",
    "average_hops": ".express",
    "route_path": ".express",
    "UnroutableError": "repro.noc.routing",
    "build_fault_tolerant_network": ".fault",
    "single_failure_coverage": ".fault",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
