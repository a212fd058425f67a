"""Cycle-accurate NoC simulator substrate.

This package is the reproduction of the paper's in-house "cycle-accurate
NoC simulator" (Sec. 4): a flit-level, wormhole-switched, virtual-channel
network model with

* credit-based flow control,
* two-stage separable virtual-channel and switch allocation,
* deterministic dimension-ordered (and express-aware) routing, and
* a configurable router pipeline depth so the 3DM/3DM-E designs can merge
  the switch-traversal and link-traversal stages into one cycle (Fig. 8d).

The entry points most users need are :class:`~repro.noc.network.Network`
and :class:`~repro.noc.simulator.Simulator`.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Flit": ".packet",
    "FlitType": ".packet",
    "Packet": ".packet",
    "PacketClass": ".packet",
    "RoutingFunction": ".routing",
    "XYRouting": ".routing",
    "XYZRouting": ".routing",
    "ExpressXYRouting": ".routing",
    "TorusXYRouting": ".routing",
    "routing_for_topology": ".routing",
    "NetworkProfiler": ".profiling",
    "ProfileSnapshot": ".profiling",
    "Router": ".router",
    "NetworkSanitizer": ".sanitizer",
    "SanityError": ".sanitizer",
    "SanitySnapshot": ".sanitizer",
    "WatchdogReport": ".sanitizer",
    "Network": ".network",
    "Simulator": ".simulator",
    "SimulationResult": ".simulator",
    "EventCounts": ".stats",
    "NetworkStats": ".stats",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
