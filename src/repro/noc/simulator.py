"""Simulation orchestration: warm-up, measurement, drain, and results.

The :class:`Simulator` drives a :class:`~repro.noc.network.Network` with a
traffic source through three phases:

1. **warm-up** — the network fills; nothing is measured.
2. **measurement** — packets created in this window contribute to latency
   and hop statistics, and event counters are integrated for power.
3. **drain** — injection of *new* measured packets stops being counted and
   the simulator keeps cycling until every measured packet has been
   delivered (or a safety cap is hit, which signals saturation).

Event-counter snapshots bracket the measurement window so reported power
reflects only steady-state traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.noc.network import Network
from repro.noc.packet import Packet, PacketClass
from repro.noc.profiling import NetworkProfiler, ProfileSnapshot
from repro.noc.sanitizer import (
    DEFAULT_WATCHDOG_WINDOW,
    NetworkSanitizer,
    SanitySnapshot,
)
from repro.noc.stats import EventCounts
from repro.traffic.base import TrafficSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.faults import FaultPlan
    from repro.telemetry.sampler import TelemetryConfig, TelemetrySnapshot


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    cycles: int
    avg_latency: float
    avg_hops: float
    packets_measured: int
    packets_delivered: int
    flits_delivered: int
    #: Flits of measured packets eventually delivered, per node per
    #: measurement cycle (tracks offered load below saturation).
    throughput: float
    #: Flits actually ejected *during* the measurement window, per node
    #: per cycle — the classic "accepted throughput" that plateaus at the
    #: network's capacity.
    accepted_throughput: float
    #: Event-counter delta over the measurement window.
    events: EventCounts
    #: Measurement window length in cycles.
    window_cycles: int
    #: True when the drain cap was hit before all measured packets arrived
    #: (the network is saturated at this load).
    saturated: bool
    avg_latency_by_class: Dict[str, float] = field(default_factory=dict)
    #: Per-sample-window per-router switched-flit counts (power trace
    #: input for transient thermal analysis); empty unless the simulator
    #: was given a ``sample_interval``.
    activity_windows: List[List[int]] = field(default_factory=list)
    #: Cycle span of each activity window.  All but the last equal
    #: ``sample_interval``; the last is shorter when ``measure_cycles``
    #: is not a multiple of it (the trailing partial window is emitted,
    #: not dropped — consumers scale power by the actual span).
    activity_window_cycles: List[int] = field(default_factory=list)
    #: Hot-loop profile (cycles/sec, active-router ratio, phase wall
    #: times); ``None`` unless the run was profiled.
    profile: Optional[ProfileSnapshot] = None
    #: Invariant-audit summary (audit counts plus any deadlock/livelock
    #: watchdog reports); ``None`` unless the run was sanitized.
    sanity: Optional[SanitySnapshot] = None
    #: Telemetry summary (windows sampled, trace/stream destinations);
    #: ``None`` unless the run was telemetered.
    telemetry: Optional["TelemetrySnapshot"] = None
    #: Tail latencies over measured packets (nearest-rank percentiles).
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    #: Packets (and their flits) steered to an ejection port because no
    #: surviving channel reached their destination.  Zero without fault
    #: injection.
    packets_dropped: int = 0
    flits_dropped: int = 0
    #: Fault-injector summary (mode, links killed, VCs stuck, credits
    #: confiscated, surviving failure set); ``None`` without injection.
    fault_summary: Optional[Dict] = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        state = " (saturated)" if self.saturated else ""
        return (
            f"SimulationResult(lat={self.avg_latency:.1f}cyc, "
            f"hops={self.avg_hops:.2f}, thr={self.throughput:.3f} "
            f"flits/node/cyc{state})"
        )


class Simulator:
    """Runs a network + traffic source through warm-up/measure/drain."""

    def __init__(
        self,
        network: Network,
        traffic: TrafficSource,
        warmup_cycles: int = 1000,
        measure_cycles: int = 5000,
        drain_cycles: int = 20000,
        drain_to_quiescence: bool = False,
        sample_interval: int = 0,
        profile: bool = False,
        sanitize: bool = False,
        sanitize_interval: int = 1,
        watchdog_window: int = DEFAULT_WATCHDOG_WINDOW,
        telemetry: Optional["TelemetryConfig"] = None,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        """``drain_to_quiescence`` keeps draining (still bounded by
        ``drain_cycles``) until the traffic source reports finished and
        the network is empty — needed by closed-loop sources (e.g. the
        CMP hierarchy) whose responses trail the measured packets.

        ``sample_interval`` > 0 records per-router switched-flit counts
        every that-many cycles of the measurement window — the power
        trace the transient thermal analysis consumes (Sec. 4.2.3: "The
        NoC simulator generates power trace for Hotspot").

        ``profile`` attaches a :class:`NetworkProfiler` to the network
        and reports its snapshot on ``SimulationResult.profile``.

        ``sanitize`` attaches a
        :class:`~repro.noc.sanitizer.NetworkSanitizer` (auditing every
        ``sanitize_interval`` cycles, deadlock watchdog arming after
        ``watchdog_window`` delivery-free cycles) and reports its
        snapshot on ``SimulationResult.sanity``.  A sanitizer already on
        the network is kept as-is.

        ``telemetry`` attaches a
        :class:`~repro.telemetry.NetworkTelemetry` built from the given
        :class:`~repro.telemetry.TelemetryConfig` (windowed metric
        sampling and optional JSONL/trace export); :meth:`run` finishes
        the stream and reports its snapshot on
        ``SimulationResult.telemetry``.  A sampler already on the
        network is kept as-is.

        ``faults`` attaches a
        :class:`~repro.resilience.faults.FaultInjector` built from the
        given :class:`~repro.resilience.faults.FaultPlan` (scheduled
        link kills and stuck VCs) and reports its summary on
        ``SimulationResult.fault_summary``.  An injector already on the
        network is kept as-is."""
        if warmup_cycles < 0 or measure_cycles <= 0 or drain_cycles < 0:
            raise ValueError("cycle counts must be non-negative (measure > 0)")
        self.network = network
        self.traffic = traffic
        self.warmup_cycles = warmup_cycles
        self.measure_cycles = measure_cycles
        self.drain_cycles = drain_cycles
        self.drain_to_quiescence = drain_to_quiescence
        if sample_interval < 0:
            raise ValueError("sample_interval must be >= 0")
        self.sample_interval = sample_interval
        if profile and network.profiler is None:
            network.profiler = NetworkProfiler()
        if sanitize and network.sanitizer is None:
            network.sanitizer = NetworkSanitizer(
                network,
                interval=sanitize_interval,
                watchdog_window=watchdog_window,
            )
        if telemetry is not None and network.telemetry is None:
            # Lazy import: telemetry-free simulations never load the
            # telemetry package.
            from repro.telemetry.sampler import NetworkTelemetry

            NetworkTelemetry(network, telemetry)  # self-registers
        if faults is not None and network.fault_injector is None:
            # Lazy import: fault-free simulations never load the
            # resilience package.
            from repro.resilience.faults import FaultInjector

            FaultInjector(faults).attach(network)
        self._future: Dict[int, List[Packet]] = {}

    def _schedule(self, packets, cycle: int) -> None:
        for packet in packets:
            due = max(packet.created_cycle, cycle)
            if due == cycle:
                self.network.enqueue_packet(packet)
            else:
                self._future.setdefault(due, []).append(packet)

    def _quiescent(self) -> bool:
        return (
            self.traffic.finished(self.network.cycle)
            and not self._future
            and self.network.idle()
        )

    def _deliver_hook(self, packet: Packet, cycle: int) -> None:
        responses = self.traffic.on_delivered(packet, cycle)
        if responses:
            self._schedule(responses, cycle)

    def _tick(self, generate: bool) -> None:
        cycle = self.network.cycle
        for packet in self._future.pop(cycle, ()):  # responses coming due
            self.network.enqueue_packet(packet)
        if generate and not self.traffic.finished(cycle):
            self._schedule(self.traffic.packets_for_cycle(cycle), cycle)
        self.network.step()

    def run(self) -> SimulationResult:
        """Execute the full warm-up / measurement / drain schedule.

        The traffic source hears of deliveries (and schedules closed-loop
        responses) only while this runs: the delivery hook is registered
        on entry and removed on exit, so simulators run one after another
        over one network never see each other's deliveries.
        """
        callbacks = self.network.delivery_callbacks
        callbacks.append(self._deliver_hook)
        try:
            return self._run()
        finally:
            callbacks.remove(self._deliver_hook)

    def _run(self) -> SimulationResult:
        net = self.network
        stats = net.stats
        window_start = net.cycle + self.warmup_cycles
        window_end = window_start + self.measure_cycles
        stats.set_window(window_start, window_end)

        for _ in range(self.warmup_cycles):
            self._tick(generate=True)

        start_events = net.events.copy()
        flits_at_window_start = stats.flits_delivered
        activity_windows: List[List[int]] = []
        activity_window_cycles: List[int] = []
        if self.sample_interval:
            last_sample = net.node_flits_switched()
            cycles_in_window = 0
            for _ in range(self.measure_cycles):
                self._tick(generate=True)
                cycles_in_window += 1
                if cycles_in_window == self.sample_interval:
                    counts = net.node_flits_switched()
                    activity_windows.append(
                        [c - p for c, p in zip(counts, last_sample)]
                    )
                    activity_window_cycles.append(cycles_in_window)
                    last_sample = counts
                    cycles_in_window = 0
            if cycles_in_window:
                # Trailing partial window (measure_cycles not a multiple
                # of sample_interval): emit it with its true span rather
                # than silently truncating the power trace.
                counts = net.node_flits_switched()
                activity_windows.append(
                    [c - p for c, p in zip(counts, last_sample)]
                )
                activity_window_cycles.append(cycles_in_window)
        else:
            for _ in range(self.measure_cycles):
                self._tick(generate=True)
        end_events = net.events.copy()
        flits_in_window = stats.flits_delivered - flits_at_window_start

        # Drain: keep generating (background load stays realistic) but no
        # new packets are measured (the window is closed); stop as soon as
        # all measured packets have been delivered.
        drained = 0
        saturated = False
        while stats.measured_outstanding > 0 or (
            self.drain_to_quiescence and not self._quiescent()
        ):
            if drained >= self.drain_cycles:
                saturated = True
                break
            self._tick(generate=True)
            drained += 1

        if net.telemetry is not None:
            # Flush the trailing partial window and write any export
            # files before snapshotting (idempotent).
            net.telemetry.finish()

        events = end_events.delta(start_events)
        num_nodes = net.topology.num_nodes
        window = self.measure_cycles
        # Throughput: flits of measured packets that were eventually
        # delivered, per node per measurement cycle.
        throughput = stats.measured_flits / (num_nodes * window)
        accepted = flits_in_window / (num_nodes * window)

        return SimulationResult(
            cycles=net.cycle,
            avg_latency=stats.avg_latency,
            avg_hops=stats.avg_hops,
            packets_measured=len(stats.latencies),
            packets_delivered=stats.packets_delivered,
            flits_delivered=stats.flits_delivered,
            throughput=throughput,
            accepted_throughput=accepted,
            events=events,
            window_cycles=window,
            saturated=saturated,
            avg_latency_by_class={
                klass.value: stats.avg_latency_for(klass) for klass in PacketClass
            },
            activity_windows=activity_windows,
            activity_window_cycles=activity_window_cycles,
            profile=(
                net.profiler.snapshot() if net.profiler is not None else None
            ),
            sanity=(
                net.sanitizer.snapshot() if net.sanitizer is not None else None
            ),
            telemetry=(
                net.telemetry.snapshot()
                if net.telemetry is not None
                else None
            ),
            latency_p50=stats.latency_percentile(50),
            latency_p95=stats.latency_percentile(95),
            latency_p99=stats.latency_percentile(99),
            packets_dropped=stats.packets_dropped,
            flits_dropped=stats.flits_dropped,
            fault_summary=(
                net.fault_injector.summary()
                if net.fault_injector is not None
                else None
            ),
        )
