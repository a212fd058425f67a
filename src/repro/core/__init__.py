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

from repro.core.arch import (
    Architecture,
    ArchitectureConfig,
    make_2db,
    make_3db,
    make_3dm,
    make_3dme,
    make_architecture,
    standard_configs,
)
from repro.core.pipeline import PipelineSpec, pipeline_for
from repro.core.layers import LayerPlan, layer_plan_for
from repro.core.shutdown import ShortFlitDetector, shutdown_power_factor
from repro.core.express import average_hops, route_path
from repro.core.fault import (
    UnroutableError,
    build_fault_tolerant_network,
    single_failure_coverage,
)

__all__ = [
    "Architecture",
    "ArchitectureConfig",
    "make_2db",
    "make_3db",
    "make_3dm",
    "make_3dme",
    "make_architecture",
    "standard_configs",
    "PipelineSpec",
    "pipeline_for",
    "LayerPlan",
    "layer_plan_for",
    "ShortFlitDetector",
    "shutdown_power_factor",
    "average_hops",
    "route_path",
    "UnroutableError",
    "build_fault_tolerant_network",
    "single_failure_coverage",
]
