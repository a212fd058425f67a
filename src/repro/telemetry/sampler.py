"""The network telemetry sampler: windowed metrics + lifecycle traces.

:class:`NetworkTelemetry` attaches itself to a
:class:`~repro.noc.network.Network` when constructed over it
(``NetworkTelemetry(network, config)``; for one run,
``Simulator(..., telemetry=config)`` or the ``--metrics-out`` /
``--trace-out`` CLI flags) and, every ``interval`` cycles, samples a
:class:`~repro.telemetry.metrics.MetricsRegistry` with the signals the
paper's time-resolved claims hang on:

* per-router buffer occupancy and per-VC utilisation,
* per-link-kind and per-channel flit counts (link utilisation),
* injection / ejection / throughput rates and windowed latency
  percentiles (delta accounting via
  :class:`~repro.noc.stats.StatsCursor`),
* the layer-shutdown signal — active-layer fraction and short-flit
  ratio over the window (Sec. 3.2.1),
* windowed Orion energy when an architecture config is supplied.

Transient temperature is not sampled here: the Sec. 4.2.3 flow prices
the simulator's activity windows offline
(``Simulator(sample_interval=...)`` -> :mod:`repro.thermal.transient`).

Samples stream to a JSONL file as they are taken; when a trace path is
given the sampler additionally records per-packet pipeline events
(inject -> per-hop RC/VA/SA/ST -> eject) through a
:class:`~repro.telemetry.recorder.TraceRecorder` in the network's
``recorder`` slot plus a delivery callback, and renders them as a
Perfetto-loadable ``trace.json`` on :meth:`~NetworkTelemetry.finish`.

The sampler never mutates network state, so telemetry-enabled runs are
bit-identical to bare runs; detached (the default) the cost is one
``is None`` check per cycle, the same guard discipline as the profiler
and sanitizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.noc.router import (
    STALL_CAUSE_NAMES, _ACTIVE, _IDLE, _RC, _VA,
)
from repro.noc.stats import EventCounts, StatsCursor
from repro.telemetry.attribution import (
    DEFAULT_TOP_K,
    StallAttribution,
    build_stall_report,
    decompose_recorder,
)
from repro.telemetry.export import (
    ChromeTraceBuilder,
    MetricsJsonlWriter,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import DEFAULT_RING_EVENTS, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.noc.packet import Flit, Packet

#: JSONL schema version stamped into every stream's meta record.
SCHEMA_VERSION = 1

#: Default sampling window, in cycles.
DEFAULT_INTERVAL = 100


@dataclass
class TelemetryConfig:
    """What to sample, how often, and where to put it."""

    #: Sampling window in cycles.
    interval: int = DEFAULT_INTERVAL
    #: JSONL metrics stream destination; ``None`` keeps the samples
    #: in memory instead, on ``NetworkTelemetry.samples``.
    metrics_path: Optional[str] = None
    #: Chrome-trace destination; ``None`` disables lifecycle capture
    #: entirely (no callbacks are registered, zero per-event cost).
    trace_path: Optional[str] = None
    #: Capture lifecycles into the ring recorder *without* writing a
    #: trace file — the sampling knobs below still apply.  Used by
    #: ``repro diagnose``, which needs per-packet stage cycles for the
    #: latency decomposition but no Perfetto artifact.
    trace_capture: bool = False
    #: Attach per-unit stall-cause accounting
    #: (:class:`~repro.telemetry.attribution.StallAttribution`): stall
    #: counters/gauges join the registry and a stall report is built at
    #: ``finish()``.
    attribution: bool = False
    #: Write the stall report as JSON here at ``finish()`` (implies
    #: ``attribution``).
    attribution_path: Optional[str] = None
    #: Hotspot links/routers/backpressure chains per report section.
    attribution_top_k: int = DEFAULT_TOP_K
    #: Deterministic per-packet capture probability (seeded id hash).
    #: 1.0 (the default) captures every packet — the full-trace mode;
    #: production runs use a small rate plus ``trace_head_tail``.
    trace_sample_rate: float = 1.0
    #: Capture the first K and last K packets regardless of the sample
    #: rate (0 disables head/tail capture).
    trace_head_tail: int = 0
    #: Seed for the sampling hash: same seed, same captured packets.
    trace_seed: int = 0
    #: Architecture config enabling windowed Orion energy pricing.
    #: Kept untyped to avoid importing the arch/power stack until
    #: actually used.
    arch_config: Any = None

    def validate(self) -> None:
        if self.interval < 1:
            raise ValueError(
                f"telemetry interval must be >= 1, got {self.interval}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                "trace_sample_rate must be in [0, 1], got "
                f"{self.trace_sample_rate}"
            )
        if self.trace_head_tail < 0:
            raise ValueError(
                "trace_head_tail must be >= 0, got "
                f"{self.trace_head_tail}"
            )
        if self.attribution_top_k < 1:
            raise ValueError(
                "attribution_top_k must be >= 1, got "
                f"{self.attribution_top_k}"
            )

    @property
    def attribution_enabled(self) -> bool:
        return self.attribution or self.attribution_path is not None


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable summary of a telemetered stretch of simulation."""

    #: Sampling window in cycles.
    interval: int
    #: Windows sampled (including a trailing partial window).
    windows: int
    #: Cycles observed while attached.
    cycles: int
    #: Packet lifecycles fully captured into the trace.
    packets_traced: int
    #: Lifecycles still in flight when :meth:`NetworkTelemetry.finish`
    #: ran, rendered into the trace as open-ended spans.  Together with
    #: ``packets_traced`` this accounts for every lifecycle the trace
    #: file contains: 0 before ``finish`` and when tracing was off.
    packets_in_flight: int
    #: Packets beyond the recorder's ``max_packets`` cap that were not
    #: captured.
    packets_dropped: int
    #: True when any lifecycle was dropped: the trace is a prefix, not
    #: the whole run.
    truncated: bool
    #: Trace events accumulated (0 when tracing was off).
    trace_events: int
    metrics_path: Optional[str] = None
    trace_path: Optional[str] = None
    #: Distinct packets the trace hooks saw (all of them, sampled or
    #: not); 0 when tracing was off.
    packets_seen: int = 0
    #: Packets whose lifecycles were captured (head + hash + final tail
    #: window), before the delivered/in-flight split.
    packets_sampled: int = 0
    #: Packets skipped by the sampling decision (deliberate, not an
    #: error — distinct from ``packets_dropped``, the capture-cap
    #: overflow).
    sampled_out: int = 0
    #: Provisional tail-window captures discarded when newer packets
    #: displaced them.
    tail_evicted: int = 0
    #: Ring records written over the whole run.
    events_recorded: int = 0
    #: Ring records lost to wrap-around (oldest first); nonzero means
    #: early lifecycles render partially.
    events_overwritten: int = 0
    #: The sampling knobs in force (echoed so an artifact is
    #: self-describing).
    sample_rate: float = 1.0
    head_tail: int = 0
    #: CPU seconds spent in the one-time ``finish()`` flush (lifecycle
    #: reconstruction + serialization); bounded by the capture caps,
    #: not by run length.
    finish_cpu_s: float = 0.0
    #: Total stalled unit-cycles attributed (0 when attribution was
    #: off).
    stall_cycles: int = 0
    #: The ``repro diagnose`` stall report
    #: (:func:`~repro.telemetry.attribution.build_stall_report` dict);
    #: ``None`` when attribution was off.
    stall_report: Optional[Dict[str, Any]] = None

    def format(self) -> str:
        """Human-readable block for CLI output."""
        lines = [
            f"window            : {self.interval} cycles",
            f"windows sampled   : {self.windows} ({self.cycles} cycles)",
        ]
        if self.metrics_path:
            lines.append(f"metrics stream    : {self.metrics_path}")
        if self.trace_path:
            lines.append(
                f"trace             : {self.trace_path} "
                f"({self.trace_events} events, "
                f"{self.packets_traced} packets)"
            )
            if self.sample_rate < 1.0 or self.head_tail:
                lines.append(
                    f"sampling          : rate={self.sample_rate:g} "
                    f"head/tail={self.head_tail} -> "
                    f"{self.packets_sampled}/{self.packets_seen} packets "
                    f"kept ({self.sampled_out} sampled out, "
                    f"{self.tail_evicted} tail-evicted)"
                )
            if self.events_overwritten:
                lines.append(
                    f"ring wrapped      : {self.events_overwritten} oldest "
                    "events overwritten"
                )
            if self.packets_in_flight:
                lines.append(
                    f"in flight         : {self.packets_in_flight} "
                    "open-ended packet spans"
                )
        if self.truncated:
            lines.append(
                f"TRUNCATED         : {self.packets_dropped} packet "
                "lifecycles dropped after the cap"
            )
        if self.stall_report is not None:
            lines.append(
                f"stall attribution : {self.stall_cycles} stalled "
                "unit-cycles attributed (repro diagnose for the report)"
            )
        if self.finish_cpu_s:
            lines.append(
                f"flush             : {self.finish_cpu_s * 1e3:.1f} ms "
                "CPU (one-time, at finish)"
            )
        return "\n".join(lines)


class NetworkTelemetry:
    """Windowed observability attached to a live network.

    Construction registers the instance as ``network.telemetry`` (the
    hook ``Network.step`` checks) and, when a trace is requested,
    attaches a :class:`TraceRecorder` to the network and adds a
    read-only delivery callback for lifecycle capture.
    Call :meth:`finish` (the Simulator does) to flush the trailing
    partial window and write the trace file; :meth:`detach` removes
    every hook.
    """

    def __init__(
        self,
        network: "Network",
        config: TelemetryConfig,
    ) -> None:
        config.validate()
        self.network = network
        self.config = config
        self.registry = MetricsRegistry()
        #: Sample records, kept here when no metrics stream is written.
        self.samples: List[Dict[str, Any]] = []
        self.windows = 0
        self.cycles_observed = 0
        self._closed = False
        self._cursor = StatsCursor(network.stats)
        self._last_events = network.events.copy()
        self._window_start = network.cycle
        self._cycles_in_window = 0
        self._num_links = sum(
            len(ports) for ports in network.topology.out_ports.values()
        )

        # Metric catalogue.  Everything windowed lives in the registry;
        # vector-valued extras (per-router, per-channel) ride alongside
        # in the sample record.
        reg = self.registry
        self._c_injected = reg.counter("packets.injected")
        self._c_delivered = reg.counter("packets.delivered")
        self._c_flits = reg.counter("flits.delivered")
        self._c_hops = reg.counter("flits.hops")
        self._c_link_flits = reg.counter("links.flits")
        self._g_occ_total = reg.gauge("occupancy.total")
        self._g_occ_mean = reg.gauge("occupancy.mean")
        self._g_occ_max = reg.gauge("occupancy.max")
        self._g_vc_active = reg.gauge("vc.active")
        self._g_vc_frac = reg.gauge("vc.active_fraction")
        self._g_inj_rate = reg.gauge("rate.injection")
        self._g_ej_rate = reg.gauge("rate.ejection")
        self._g_throughput = reg.gauge("rate.throughput")
        self._g_link_util = reg.gauge("link.utilization")
        self._g_layers = reg.gauge("layers.active_fraction")
        #: Per-datapath-layer duty cycle: fraction of the window's
        #: crossbar traversals that actually drove layer i (measured
        #: from the layer-resolved histogram, layer 0 = always-on top).
        self._g_layer_frac = [
            reg.gauge(f"layers.l{i}.active_fraction")
            for i in range(network.layer_groups)
        ]
        self._g_short = reg.gauge("flits.short_ratio")
        self._h_latency = reg.histogram("latency.cycles")
        # Per-stage rollups: windowed event counts straight off the
        # network's own counters (full fidelity — every packet lands
        # here whether or not its lifecycle is sampled into the trace)
        # plus the stage occupancy of the input VCs at window end.
        self._c_stage_rc = reg.counter("stage.rc")
        self._c_stage_va = reg.counter("stage.va")
        self._c_stage_sa = reg.counter("stage.sa")
        self._c_stage_st = reg.counter("stage.st")
        self._g_occ_rc = reg.gauge("stage.occupancy.rc")
        self._g_occ_va = reg.gauge("stage.occupancy.va")
        self._g_occ_active = reg.gauge("stage.occupancy.active")
        if config.arch_config is not None:
            self._g_energy_j = reg.gauge("energy.window_j")
            self._g_dynamic_w = reg.gauge("energy.dynamic_w")
            self._g_total_w = reg.gauge("energy.total_w")

        # Stall attribution: adopt an already-attached StallAttribution
        # (ownership stays with whoever built it) or build and own one.
        self._attribution: Optional[StallAttribution] = None
        self._owns_attribution = False
        self.stall_report: Optional[Dict[str, Any]] = None
        if config.attribution_enabled:
            attribution = network.attribution
            if attribution is None:
                attribution = StallAttribution(network)
                self._owns_attribution = True
            self._attribution = attribution
            self._c_stalls = [
                reg.counter(f"stall.{name}") for name in STALL_CAUSE_NAMES
            ]
            self._g_stall_rate = reg.gauge("stall.rate")
            self._h_stall_nodes = reg.histogram("stall.node_cycles")
            self._last_stall_totals = attribution.cause_totals_list()
            self._last_node_stalls = attribution.node_stall_cycles()

        self._recorder: Optional[TraceRecorder] = None
        #: Windowed counter-track points buffered during the run as
        #: plain tuples (name, cycle, key, value); rendered into the
        #: trace builder at finish(), off the hot path.
        self._counter_points: List[Tuple[str, int, str, float]] = []
        self.packets_traced = 0
        self.packets_in_flight = 0
        self._trace_event_total = 0
        #: CPU seconds spent in the ``finish()`` flush (lifecycle
        #: reconstruction + trace/JSONL serialization) — a one-time
        #: teardown cost, bounded by the capture caps.
        self.finish_cpu_s = 0.0
        if config.trace_path is not None or config.trace_capture:
            # Full-fidelity latency rollups: every delivered packet
            # lands in these histograms even when its lifecycle is
            # sampled out of the trace.
            self._h_net_latency = reg.histogram("latency.network")
            self._h_queue_delay = reg.histogram("latency.queue")
            self._c_trace_events = reg.counter("trace.events")
            self._c_trace_packets = reg.counter("trace.packets_seen")
            self._g_trace_captured = reg.gauge("trace.packets_captured")
            self._recorder = TraceRecorder(
                sample_rate=config.trace_sample_rate,
                head_tail=config.trace_head_tail,
                seed=config.trace_seed,
            )
            self._last_trace_events = 0
            self._last_trace_packets = 0
            # The routers call the recorder directly — no sampler-level
            # indirection per head-flit event.  Delivery keeps a sampler
            # wrapper for the hook-consistency guard and the latency
            # rollups.
            self._recorder.attach(network)
            network.delivery_callbacks.append(self._on_delivered)

        self._writer: Optional[MetricsJsonlWriter] = None
        if config.metrics_path is not None:
            self._writer = MetricsJsonlWriter(config.metrics_path)
            self._writer.write(self._meta_record())

        network.telemetry = self

    # -- metadata ----------------------------------------------------------

    def _meta_record(self) -> Dict[str, Any]:
        net = self.network
        arch = self.config.arch_config
        return {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "interval": self.config.interval,
            "start_cycle": self._window_start,
            "num_nodes": net.topology.num_nodes,
            "num_vcs": net.num_vcs,
            "num_links": self._num_links,
            "buffer_depth": net.buffer_depth,
            "shutdown_enabled": net.shutdown_enabled,
            "arch": getattr(arch, "name", None),
            "metrics": self.registry.names(),
            **(
                {
                    "trace": {
                        "sample_rate": self.config.trace_sample_rate,
                        "head_tail": self.config.trace_head_tail,
                        "seed": self.config.trace_seed,
                        "ring_capacity_events": DEFAULT_RING_EVENTS,
                    }
                }
                if self._recorder is not None
                else {}
            ),
        }

    # -- lifecycle capture (read-only; hot paths live on the recorder) -----

    def _on_delivered(self, packet: "Packet", cycle: int) -> None:
        if self._recorder is None:
            # A registered delivery callback implies a live recorder; a
            # bare ``assert`` would vanish under ``python -O``.
            raise RuntimeError(
                "delivery callback fired without a trace recorder: "
                "telemetry hooks are inconsistent (was the recorder "
                "cleared while callbacks stayed registered?)"
            )
        self._recorder.on_eject(packet, cycle)
        injected = packet.injected_cycle
        if injected is not None:
            self._h_net_latency.observe(cycle - injected)
            self._h_queue_delay.observe(injected - packet.created_cycle)

    # -- sampling ----------------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        """Per-cycle hook called by ``Network.step`` (end of cycle)."""
        if self._closed:
            return
        self.cycles_observed += 1
        self._cycles_in_window += 1
        if self._cycles_in_window >= self.config.interval:
            self._sample(cycle + 1)

    def _sample(self, end_cycle: int) -> None:
        net = self.network
        config = self.config
        span = self._cycles_in_window
        num_nodes = net.topology.num_nodes

        events = net.events  # one fold per window
        delta = events.delta(self._last_events)
        self._last_events = events.copy()
        window = self._cursor.advance()

        self._c_injected.inc(window.packets_injected)
        self._c_delivered.inc(window.packets_delivered)
        self._c_flits.inc(window.flits_delivered)
        self._c_hops.inc(delta.flit_hops)
        link_flits = sum(delta.link_flits.values())
        self._c_link_flits.inc(link_flits)

        fifos = net.vc_fifos
        occupancy = [
            sum(map(len, fifos[r.units.start:r.units.stop]))
            for r in net.routers
        ]
        total_occ = sum(occupancy)
        self._g_occ_total.set(float(total_occ))
        self._g_occ_mean.set(total_occ / len(occupancy))
        self._g_occ_max.set(float(max(occupancy)))

        # Per-VC utilisation and per-stage occupancy: input VCs holding
        # pipeline state, bucketed by which stage they are waiting in
        # (counted straight off the network's flat state list).
        states = net.vc_state
        total_vcs = len(states)
        active_vcs = total_vcs - states.count(_IDLE)
        occ_rc = states.count(_RC)
        occ_va = states.count(_VA)
        occ_st = states.count(_ACTIVE)
        self._g_vc_active.set(float(active_vcs))
        self._g_vc_frac.set(active_vcs / total_vcs if total_vcs else 0.0)
        self._g_occ_rc.set(float(occ_rc))
        self._g_occ_va.set(float(occ_va))
        self._g_occ_active.set(float(occ_st))

        # Per-stage windowed event rollups off the network's own
        # counters: full fidelity regardless of trace sampling.
        self._c_stage_rc.inc(delta.rc_computations)
        self._c_stage_va.inc(delta.va_allocations)
        self._c_stage_sa.inc(delta.sa_allocations)
        self._c_stage_st.inc(delta.xbar_traversals)

        node_cycles = num_nodes * span
        self._g_inj_rate.set(window.packets_injected / node_cycles)
        self._g_ej_rate.set(window.packets_delivered / node_cycles)
        self._g_throughput.set(window.flits_delivered / node_cycles)
        self._g_link_util.set(
            link_flits / (self._num_links * span) if self._num_links else 0.0
        )

        # Layer-shutdown signals: mean fraction of word groups actually
        # switched per crossbar traversal, the per-layer duty cycles
        # (both measured from the layer-resolved histogram), and the
        # short-flit share.
        if delta.xbar_traversals:
            self._g_layers.set(
                delta.xbar_traversals_weighted / delta.xbar_traversals
            )
            by_layers = delta.xbar_traversals_by_layers
            for layer, gauge in enumerate(self._g_layer_frac):
                gauge.set(
                    EventCounts.events_at_layer(by_layers, layer)
                    / delta.xbar_traversals
                )
        else:
            self._g_layers.set(None)
            for gauge in self._g_layer_frac:
                gauge.set(None)
        self._g_short.set(
            delta.short_flit_fraction if delta.flit_hops else None
        )

        self._h_latency.observe_many(window.latencies)

        if config.arch_config is not None:
            # Priced exactly like the end-of-run power report, but over
            # this window's event delta (lazy import keeps the power
            # stack out of telemetry-free runs).
            from repro.power import technology as tech
            from repro.power.energy import power_report

            report = power_report(
                config.arch_config, delta, span,
                shutdown_enabled=net.shutdown_enabled,
            )
            self._g_dynamic_w.set(report.dynamic_w)
            self._g_total_w.set(report.total_w)
            self._g_energy_j.set(report.total_w * span * tech.CYCLE_S)

        attribution = self._attribution
        if attribution is not None:
            # Rollup scans are the only recurring attribution cost the
            # sampler adds; timed into the profiler's dedicated
            # ``attribution`` phase when one is attached.
            prof = net.profiler
            t_attr = prof.clock() if prof is not None else 0.0
            totals = attribution.cause_totals_list()
            for counter, now, before in zip(
                self._c_stalls, totals, self._last_stall_totals
            ):
                counter.inc(now - before)
            window_stalls = sum(totals) - sum(self._last_stall_totals)
            self._last_stall_totals = totals
            self._g_stall_rate.set(window_stalls / node_cycles)
            node_stalls = attribution.node_stall_cycles()
            self._h_stall_nodes.observe_many(
                [
                    now - before
                    for now, before in zip(
                        node_stalls, self._last_node_stalls
                    )
                    if now != before
                ]
            )
            self._last_node_stalls = node_stalls
            if prof is not None:
                prof.attribution_wall_s += prof.clock() - t_attr

        recorder = self._recorder
        if recorder is not None:
            self._c_trace_events.inc(
                recorder.events_recorded - self._last_trace_events
            )
            self._last_trace_events = recorder.events_recorded
            self._c_trace_packets.inc(
                recorder.packets_seen - self._last_trace_packets
            )
            self._last_trace_packets = recorder.packets_seen
            self._g_trace_captured.set(float(recorder.packets_captured()))

        record: Dict[str, Any] = {
            "type": "sample",
            "cycle": end_cycle,
            "window": span,
            **self.registry.sample(),
        }
        record["per_router"] = {"occupancy": occupancy}
        record["channels"] = {
            f"{src}->{dst}": flits
            for (src, dst), flits in sorted(delta.channel_flits.items())
            if flits
        }
        if self._writer is not None:
            self._writer.write(record)
        if self._writer is None:
            self.samples.append(record)

        if recorder is not None:
            # Counter-track points are buffered as tuples and rendered
            # into the Chrome trace at finish(), off the hot path.
            points = self._counter_points
            gauges = record["gauges"]
            points.append(
                ("occupancy", end_cycle, "flits", gauges["occupancy.total"])
            )
            points.append(
                (
                    "vc active fraction", end_cycle, "fraction",
                    gauges["vc.active_fraction"],
                )
            )
            points.append(
                (
                    "throughput", end_cycle, "flits/node/cycle",
                    gauges["rate.throughput"],
                )
            )
            layers = gauges["layers.active_fraction"]
            if layers is not None:
                points.append(
                    ("active layer fraction", end_cycle, "fraction", layers)
                )
            for node, occ in enumerate(occupancy):
                points.append(
                    (f"occupancy r{node}", end_cycle, "flits", occ)
                )

        self.windows += 1
        self._window_start = end_cycle
        self._cycles_in_window = 0

    # -- teardown ----------------------------------------------------------

    def finish(self) -> None:
        """Flush the trailing partial window and write the trace file.

        Idempotent; called automatically at the end of
        :meth:`~repro.noc.simulator.Simulator.run`.
        """
        if self._closed:
            return
        if self._cycles_in_window:
            # Trailing partial window: emitted with its true span, not
            # dropped (same contract as the activity windows).
            self._sample(self.network.cycle)
        flush_start = time.process_time()
        recorder = self._recorder
        if recorder is not None:
            # Reconstruct lifecycles from the ring and (when a path was
            # given) render the Perfetto trace, all off the hot path.
            # Packets still in flight render as open-ended spans,
            # counted separately from completed lifecycles so the
            # snapshot's split matches both the trace file metadata and
            # its event count.
            lives, orphaned = recorder.lifecycles()
            traced = sum(
                1 for life in lives if life.delivered is not None
            )
            self.packets_traced = traced
            self.packets_in_flight = len(lives) - traced
            if self.config.trace_path is not None:
                trace = ChromeTraceBuilder()
                for life in lives:
                    trace.add_packet(life)
                for name, cycle, key, value in self._counter_points:
                    trace.add_counter(name, cycle, {key: value})
                self._trace_event_total = len(trace.events)
                trace.write(
                    self.config.trace_path,
                    other_data={
                        "packets_traced": traced,
                        "packets_in_flight": self.packets_in_flight,
                        "packets_dropped": len(recorder.dropped_pids),
                        "truncated": bool(recorder.dropped_pids),
                        "windows": self.windows,
                        "sampling": recorder.sampling_meta(orphaned),
                    },
                )
        attribution = self._attribution
        if attribution is not None:
            decompositions = None
            skipped = 0
            if recorder is not None:
                decompositions, skipped = decompose_recorder(
                    recorder, self.network._hop_cycles
                )
            self.stall_report = build_stall_report(
                attribution,
                top_k=self.config.attribution_top_k,
                arch=getattr(self.config.arch_config, "name", None),
                cycles=self.cycles_observed,
                decompositions=decompositions,
                decomposition_skipped=skipped,
            )
            if self.config.attribution_path is not None:
                import json
                import os

                path = self.config.attribution_path
                parent = os.path.dirname(path)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(self.stall_report, handle, indent=2)
                    handle.write("\n")
        if self._writer is not None:
            # close() writes the end footer exactly once even if the
            # writer was already closed by a crashed run's __exit__.
            self._writer.close(
                {
                    "type": "end",
                    "cycle": self.network.cycle,
                    "windows": self.windows,
                }
            )
        # The flush (lifecycle reconstruction + trace serialization) is
        # a one-time cost bounded by the capture caps, not by run
        # length; expose it so overhead accounting can separate the
        # per-cycle tax from the teardown.
        self.finish_cpu_s = time.process_time() - flush_start
        prof = self.network.profiler
        if prof is not None:
            # Surface the flush cost in the profiler snapshot so hot-
            # path vs. teardown time reads off one report.
            prof.telemetry_finish_cpu_s = self.finish_cpu_s
        self._closed = True

    def detach(self) -> None:
        """Remove every hook this instance installed on the network."""
        self.finish()
        net = self.network
        try:
            net.delivery_callbacks.remove(self._on_delivered)
        except ValueError:
            pass
        if self._recorder is not None:
            self._recorder.detach()
        if self._owns_attribution and self._attribution is not None:
            self._attribution.detach()
        if net.telemetry is self:
            net.telemetry = None

    def __enter__(self) -> "NetworkTelemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    def snapshot(self) -> TelemetrySnapshot:
        recorder = self._recorder
        return TelemetrySnapshot(
            interval=self.config.interval,
            windows=self.windows,
            cycles=self.cycles_observed,
            packets_traced=self.packets_traced,
            packets_in_flight=self.packets_in_flight,
            packets_dropped=(
                len(recorder.dropped_pids) if recorder is not None else 0
            ),
            truncated=(
                bool(recorder.dropped_pids) if recorder is not None else False
            ),
            trace_events=self._trace_event_total,
            metrics_path=self.config.metrics_path,
            trace_path=self.config.trace_path,
            packets_seen=(
                recorder.packets_seen if recorder is not None else 0
            ),
            packets_sampled=(
                recorder.packets_captured() if recorder is not None else 0
            ),
            sampled_out=(
                recorder.sampled_out if recorder is not None else 0
            ),
            tail_evicted=(
                recorder.tail_evicted if recorder is not None else 0
            ),
            events_recorded=(
                recorder.events_recorded if recorder is not None else 0
            ),
            events_overwritten=(
                recorder.events_overwritten if recorder is not None else 0
            ),
            sample_rate=self.config.trace_sample_rate,
            head_tail=self.config.trace_head_tail,
            finish_cpu_s=self.finish_cpu_s,
            stall_cycles=(
                self._attribution.total_stall_cycles()
                if self._attribution is not None
                else 0
            ),
            stall_report=self.stall_report,
        )
