"""Orion-style power and area models.

The paper obtains router energy from the Orion power model [19] and
component areas from TSMC 90 nm synthesis (Table 1).  Neither artifact is
available, so this package re-derives both analytically:

* :mod:`repro.power.technology` — 90 nm technology constants, calibrated
  against the paper's published areas (Table 1) and delays (Tables 2, 3).
* :mod:`repro.power.area` — per-component area model reproducing Table 1.
* :mod:`repro.power.orion` — per-event dynamic-energy model (buffer
  read/write, crossbar traversal, arbitration, link traversal).
* :mod:`repro.power.gating` — the layer-shutdown saving model (Fig. 13b).
* :mod:`repro.power.energy` — integrates simulator event counts into
  average power, energy breakdowns (Fig. 9), and power-delay product.
"""

from repro import _lazy_exports

_EXPORTS = {
    "RouterArea": ".area",
    "router_area": ".area",
    "RouterEnergyModel": ".orion",
    "PowerReport": ".energy",
    "power_report": ".energy",
    "shutdown_saving": ".gating",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
