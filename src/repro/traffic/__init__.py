"""Traffic generation: synthetic patterns, NUCA traffic, workload models.

The paper evaluates with three traffic regimes (Sec. 4.2.1):

* **UR** — uniform random: any node sends to any other node.
* **NUCA-UR** — bimodal request/response traffic obeying the NUCA layout:
  8 CPU nodes issue short requests to 28 cache nodes, every request is
  answered with a data packet.
* **MP traces** — application memory traces run through the NUCA cache
  hierarchy; reproduced here by workload models calibrated to the paper's
  published traffic statistics (Figs. 1, 2, 13a) feeding the
  :mod:`repro.cache` substrate.
"""

from repro import _lazy_exports

_EXPORTS = {
    "TrafficSource": ".base",
    "ScheduledTraffic": ".base",
    "UniformRandomTraffic": ".synthetic",
    "BurstyUniformRandomTraffic": ".synthetic",
    "NucaUniformTraffic": ".nuca",
    "PatternKind": ".patterns",
    "classify_word": ".patterns",
    "classify_line": ".patterns",
    "line_active_groups": ".patterns",
    "WorkloadProfile": ".workloads",
    "WORKLOADS": ".workloads",
    "TraceRecord": ".traces",
    "TraceTraffic": ".traces",
    "read_trace": ".traces",
    "write_trace": ".traces",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
