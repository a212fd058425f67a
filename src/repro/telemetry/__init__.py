"""Opt-in observability for the NoC simulator.

Three layers of runtime introspection now exist, each answering a
different question (see ``docs/OBSERVABILITY.md`` for the full guide):

* the **profiler** (:mod:`repro.noc.profiling`) — "how fast is the
  simulator running, and where does host time go?"
* the **sanitizer** (:mod:`repro.noc.sanitizer`) — "is the model's
  internal bookkeeping still correct?"
* **telemetry** (this package) — "what is the simulated network doing
  *over time*?"  Windowed counters/gauges/histograms streamed as JSONL,
  plus Perfetto-loadable per-packet lifecycle traces captured through a
  sampled, preallocated ring buffer (:mod:`repro.telemetry.recorder`)
  cheap enough to leave on in production runs.

Quickstart::

    from repro.telemetry import TelemetryConfig
    sim = Simulator(network, traffic, telemetry=TelemetryConfig(
        interval=100,
        metrics_path="metrics.jsonl",
        trace_path="trace.json",
    ))
    result = sim.run()
    print(result.telemetry.format())

Disabled (the default), telemetry costs one ``is None`` check per
cycle; enabled runs are bit-identical to bare runs because the sampler
only reads network state.
"""

from repro import _lazy_exports

_EXPORTS = {
    "StallAttribution": ".attribution",
    "PacketDecomposition": ".attribution",
    "build_stall_report": ".attribution",
    "format_stall_report": ".attribution",
    "decompose_life": ".attribution",
    "decompose_recorder": ".attribution",
    "MetricsJsonlWriter": ".export",
    "ChromeTraceBuilder": ".export",
    "PacketLife": ".export",
    "HopRecord": ".export",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "TraceRecorder": ".recorder",
    "pid_hash_unit": ".recorder",
    "DEFAULT_RING_EVENTS": ".recorder",
    "NetworkTelemetry": ".sampler",
    "TelemetryConfig": ".sampler",
    "TelemetrySnapshot": ".sampler",
    "DEFAULT_INTERVAL": ".sampler",
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
