"""Runtime resilience scenarios: fault injection and process variation.

MIRA's multi-layer premise makes tier heterogeneity and vertical-link
fragility first-class concerns.  This package turns both into runtime
scenarios for the simulator:

* :mod:`repro.resilience.faults` — a :class:`FaultInjector` that kills
  links/TSVs and sticks VCs mid-simulation (at a scheduled cycle or
  chosen stochastically from a seeded RNG), propagating into the router
  core as credit-starved ports and into the network's next-port table,
  which is rebuilt around the failed channels.
* :mod:`repro.resilience.variation` — a :class:`VariationModel` that
  samples per-tier/per-node delay and leakage multipliers (seeded,
  PYTHONHASHSEED-stable) so latency, power, and thermal numbers become
  distributions across variation seeds instead of point estimates.
* :mod:`repro.resilience.cdg` — channel-dependency-graph construction
  and cycle detection, the deadlock-freedom proof every next-port table
  passes at each build and rebuild.

Both runtime hooks follow the repo's optional-attachment contract: one
is-None check per cycle when detached, bit-identical results when
attached but fault-free / sigma-zero (re-verified against the golden
e2e digests).  See ``docs/RESILIENCE.md``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "channel_dependency_graph": ".cdg",
    "find_dependency_cycle": ".cdg",
    "FaultInjector": ".faults",
    "FaultPlan": ".faults",
    "LinkFault": ".faults",
    "StuckVCFault": ".faults",
    "VariationModel": ".variation",
    "VariationSample": ".variation",
    "VARIATION_FLOOR": ".variation",
    "VARIATION_CEIL": ".variation",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
