"""The network: routers + links + injection/ejection plumbing.

The network owns the per-cycle event buckets (flit arrivals, credit
returns, ejections), the per-node source queues, and the global event
counters.  It is deliberately separate from :class:`repro.noc.simulator.
Simulator`, which adds warm-up/measurement/drain orchestration and power
integration on top.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.core.shutdown import ShortFlitDetector
from repro.noc.packet import Flit, Packet, PacketClass
from repro.noc.profiling import NetworkProfiler
from repro.noc.router import Router
from repro.noc.sanitizer import DEFAULT_WATCHDOG_WINDOW, NetworkSanitizer
from repro.noc.routing import (
    RoutingFunction,
    UnroutableError,
    routing_for_topology,
)
from repro.noc.scheduling import TimingWheel
from repro.noc.stats import EventCounts, NetworkStats
from repro.topology.base import Topology

#: Callback invoked when a packet's tail flit leaves the network.
DeliveryCallback = Callable[[Packet, int], None]


class _SourceQueue:
    """Per-node injection queue.

    Packets wait FIFO; the head packet is dealt to a free local-port VC and
    streamed one flit per cycle (the local port has the same single-flit
    bandwidth as any other port).
    """

    __slots__ = ("packets", "flits", "flit_idx", "vc")

    def __init__(self) -> None:
        self.packets: Deque[Packet] = deque()
        self.flits: List[Flit] = []
        self.flit_idx = 0
        self.vc: int = -1

    @property
    def idle(self) -> bool:
        return not self.packets and not self.flits


class Network:
    """A set of routers connected per a topology.

    Args:
        topology: the interconnect graph.
        num_vcs: virtual channels per physical port (the paper fixes 2).
        buffer_depth: flits per VC buffer (8 word lines, Sec. 3.2.1).
        combined_st_lt: merge switch and link traversal into one stage
            (valid only when the timing model allows it; Fig. 8d).
        layer_groups: word groups per flit (stacked layers), default 4.
        shutdown_enabled: model the short-flit layer-shutdown technique in
            the activity-weighted event counters.
        routing: routing function override; defaults to the canonical
            deterministic routing for the topology.
        active_scheduling: step only routers with pending work each
            cycle (default).  ``False`` falls back to iterating every
            router — a debug mode kept so results can be diffed against
            the scheduler; both produce bit-identical statistics.
        sanitize: attach a :class:`~repro.noc.sanitizer.NetworkSanitizer`
            that audits flit conservation, credit accounting, and VC
            state legality, raising
            :class:`~repro.noc.sanitizer.SanityError` on the first
            violation.  Audits never mutate state, so sanitized runs are
            bit-identical; disabled, the cost is one ``is None`` check
            per cycle (same guard as the profiler).
        sanitize_interval: audit every N cycles (default 1 = every
            cycle).
        watchdog_window: cycles without a flit delivery (while traffic
            is in the network) before the sanitizer's deadlock/livelock
            watchdog snapshots the stalled VCs.
        telemetry: a :class:`~repro.telemetry.TelemetryConfig` to attach
            a :class:`~repro.telemetry.NetworkTelemetry` sampler
            (windowed metric streams + lifecycle traces).  ``None`` (the
            default) costs one ``is None`` check per cycle, exactly like
            the profiler and sanitizer.
    """

    def __init__(
        self,
        topology: Topology,
        num_vcs: int = 2,
        buffer_depth: int = 8,
        combined_st_lt: bool = False,
        layer_groups: int = 4,
        shutdown_enabled: bool = False,
        routing: Optional[RoutingFunction] = None,
        speculative_sa: bool = False,
        lookahead_rc: bool = False,
        qos_enabled: bool = False,
        vc_by_class: bool = False,
        active_scheduling: bool = True,
        sanitize: bool = False,
        sanitize_interval: int = 1,
        watchdog_window: int = DEFAULT_WATCHDOG_WINDOW,
        telemetry=None,
    ) -> None:
        self.topology = topology
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.combined_st_lt = combined_st_lt
        self.layer_groups = layer_groups
        self.shutdown_enabled = shutdown_enabled
        self.speculative_sa = speculative_sa
        self.lookahead_rc = lookahead_rc
        self.qos_enabled = qos_enabled
        self.vc_by_class = vc_by_class
        self.routing = routing or routing_for_topology(topology)
        self.events = EventCounts()
        self.stats = NetworkStats()
        #: Functional zero-detector bank at the injection ports: every
        #: flit is observed as its packet is serialised, stamping the
        #: flit's layer mask and accumulating the *measured* short-flit
        #: fraction (``short_flit_detector.observed_short_fraction``)
        #: that the simulated shutdown-power path reports.
        self.short_flit_detector = ShortFlitDetector(layer_groups)
        #: Hooks invoked on head-flit pipeline-stage completions as
        #: ``(cycle, node, flit, stage)`` with stage ``"rc"`` or
        #: ``"va"`` (SA+ST fires the traverse callbacks) — the raw feed
        #: for telemetry lifecycle traces.  Empty = zero cost.  Created
        #: before the routers, which alias it at attach time.
        self.stage_callbacks: List = []

        self.routers: List[Router] = [
            Router(
                node=node,
                topology=topology,
                routing=self.routing,
                num_vcs=num_vcs,
                buffer_depth=buffer_depth,
                combined_st_lt=combined_st_lt,
                layer_groups=layer_groups,
                shutdown_enabled=shutdown_enabled,
                events=self.events,
                speculative_sa=speculative_sa,
                lookahead_rc=lookahead_rc,
                qos_enabled=qos_enabled,
                vc_by_class=vc_by_class,
            )
            for node in topology.iter_nodes()
        ]

        # Upstream (src node, src out-port) feeding each (node, in-port),
        # resolved once so per-flit credit returns skip the string-keyed
        # topology lookups; None = no upstream link (local port).
        self._credit_targets: List[List[Optional[tuple]]] = []
        for node, router in enumerate(self.routers):
            targets: List[Optional[tuple]] = []
            for port_name in router.port_names:
                link = topology.in_ports[node].get(port_name)
                if link is None:
                    targets.append(None)
                else:
                    src_router = self.routers[link.src]
                    targets.append(
                        (link.src, src_router.port_index[link.src_port])
                    )
            self._credit_targets.append(targets)

        # Event buckets: small timing wheels keyed by absolute cycle.
        self._arrivals = TimingWheel()   # (node, port, vc, flit)
        self._credits = TimingWheel()    # (node, port, vc)
        self._ejections = TimingWheel()  # flit
        self._sources: List[_SourceQueue] = [
            _SourceQueue() for _ in topology.iter_nodes()
        ]
        self._busy_sources: Set[int] = set()
        #: Routers that may have pipeline work this cycle.  Maintained
        #: as a *superset* of the busy routers (routers only become busy
        #: through ``receive_flit``, which wakes them here), so the flag
        #: can be toggled at any time without losing work.
        self._active_routers: Set[int] = set()

        # Attach after the wheels / credit targets / active set exist:
        # routers alias their slot lists directly (hot-path appends).
        for router in self.routers:
            router.attach(self)
        self.active_scheduling = active_scheduling
        #: Attach a :class:`~repro.noc.profiling.NetworkProfiler` to
        #: collect cycles/sec, active-router ratio and per-phase wall
        #: times; ``None`` (the default) costs one check per cycle.
        self.profiler: Optional[NetworkProfiler] = None
        #: Opt-in invariant auditor; ``None`` (the default) costs one
        #: check per cycle, exactly like the profiler.
        self.sanitizer: Optional[NetworkSanitizer] = (
            NetworkSanitizer(
                self,
                interval=sanitize_interval,
                watchdog_window=watchdog_window,
            )
            if sanitize
            else None
        )
        self.delivery_callbacks: List[DeliveryCallback] = []
        #: The delivery hook owned by the current Simulator, if any —
        #: lets a new Simulator over this network replace (rather than
        #: double-register) its predecessor's closed-loop hook.
        self.simulator_hook: Optional[DeliveryCallback] = None
        #: Debug hooks invoked on every switch traversal as
        #: ``(cycle, node, flit, out_port_name)`` — see
        #: :class:`repro.noc.tracer.PacketTracer`.  Empty = zero cost.
        self.traverse_callbacks: List = []
        #: Same signature, but invoked for **head flits only** — the
        #: router filters at the call site, so a lifecycle consumer
        #: (the telemetry trace recorder) never pays a call per body
        #: flit.  Empty = zero cost.
        self.head_traverse_callbacks: List = []
        #: Optional pid -> capture-code map owned by an attached trace
        #: recorder.  When a packet's pid maps to ``0`` (dropped /
        #: sampled out), the routers skip the stage and head-traverse
        #: hooks for it at the call site — a dict probe instead of a
        #: Python call per event, which is what makes sampled tracing
        #: cheap.  Unknown pids still fire (first sight = admission).
        #: ``None`` disables the filter; it never affects
        #: ``traverse_callbacks`` or ``delivery_callbacks``.
        self.trace_drop_filter: Optional[Dict[int, int]] = None
        #: Opt-in windowed metrics/trace sampler; ``None`` (the
        #: default) costs one check per cycle, exactly like the
        #: profiler and sanitizer.
        self.telemetry = None
        #: Opt-in stall-cause accounting
        #: (:class:`repro.telemetry.attribution.StallAttribution`);
        #: ``None`` (the default) costs one ``is not None`` test on the
        #: routers' stall branches only — nothing per cycle.
        self.attribution = None
        #: Opt-in runtime fault injector
        #: (:class:`repro.resilience.faults.FaultInjector`, registered
        #: via its ``attach``); ``None`` (the default) costs one
        #: ``is None`` check per cycle, exactly like the profiler.
        self.fault_injector = None
        self.cycle = 0
        if telemetry is not None:
            # Lazy import: the telemetry package is only pulled in when
            # a network actually asks for it.
            from repro.telemetry.sampler import NetworkTelemetry

            NetworkTelemetry(self, telemetry)  # registers as self.telemetry

    # -- scheduling hooks used by routers -----------------------------------

    def return_credit(self, node: int, in_port: int, vc: int, cycle: int) -> None:
        """Return one credit to the router feeding ``(node, in_port)``."""
        target = self._credit_targets[node][in_port]
        if target is None:
            port_name = self.routers[node].port_names[in_port]
            raise RuntimeError(f"no upstream link into node {node} port {port_name}")
        self._credits.push(cycle, (target[0], target[1], vc))

    def wake(self, node: int) -> None:
        """Mark *node*'s router as having pipeline work to step.

        Called by :meth:`Router.receive_flit` on every flit reception
        (arrival or injection); the router stays in the active set until
        a step leaves it quiescent."""
        self._active_routers.add(node)

    # -- injection -----------------------------------------------------------

    def enqueue_packet(self, packet: Packet) -> None:
        """Hand *packet* to its source node's injection queue."""
        if not 0 <= packet.src < self.topology.num_nodes:
            raise ValueError(f"packet source {packet.src} not in network")
        if not 0 <= packet.dst < self.topology.num_nodes:
            raise ValueError(f"packet destination {packet.dst} not in network")
        self._sources[packet.src].packets.append(packet)
        self._busy_sources.add(packet.src)
        self.stats.note_injected(packet)

    def pending_injections(self) -> int:
        """Flits still waiting in source queues (including in-flight packets)."""
        total = 0
        for src in self._sources:
            total += sum(p.size_flits for p in src.packets)
            total += len(src.flits) - src.flit_idx
        return total

    def in_flight(self) -> int:
        """Flits buffered in routers or travelling on links."""
        buffered = sum(router.occupancy() for router in self.routers)
        return buffered + self._arrivals.pending() + self._ejections.pending()

    def idle(self) -> bool:
        """True when no flit is queued, buffered, or in flight."""
        return (
            not self._busy_sources
            and self.in_flight() == 0
            and self.pending_injections() == 0
        )

    def _inject(self, cycle: int) -> None:
        done_sources: List[int] = []
        for node in sorted(self._busy_sources):
            src = self._sources[node]
            router = self.routers[node]
            if not src.flits:
                if not src.packets:
                    done_sources.append(node)
                    continue
                if self.vc_by_class:
                    # Inject on the traffic class's dedicated VC.
                    wanted = (
                        1 if src.packets[0].klass is PacketClass.DATA else 0
                    )
                    vc = (
                        wanted
                        if router.free_local_vc_is(wanted)
                        else None
                    )
                else:
                    vc = router.free_local_vc()
                if vc is None:
                    continue
                packet = src.packets.popleft()
                src.flits = packet.make_flits(self.layer_groups)
                detector = self.short_flit_detector
                for new_flit in src.flits:
                    new_flit.layer_mask = detector.observe(
                        new_flit.active_groups
                    )
                src.flit_idx = 0
                src.vc = vc
                packet.injected_cycle = cycle
                if self.lookahead_rc:
                    # First-hop route computed at injection (Fig. 8c).
                    try:
                        src.flits[0].lookahead_port = (
                            self.routing.output_port(node, packet.dst)
                        )
                        self.events.rc_computations += 1
                    except UnroutableError:
                        # Unroutable at injection time: fall back to the
                        # router's RC stage, which counts the drop.
                        src.flits[0].lookahead_port = None
            if router.local_vc_has_space(src.vc):
                flit = src.flits[src.flit_idx]
                router.receive_flit(router.local_port, src.vc, flit, cycle)
                src.flit_idx += 1
                if src.flit_idx >= len(src.flits):
                    src.flits = []
                    src.flit_idx = 0
                    src.vc = -1
                    if not src.packets:
                        done_sources.append(node)
        for node in done_sources:
            src = self._sources[node]
            if src.idle:
                self._busy_sources.discard(node)

    # -- main loop -------------------------------------------------------------

    def _deliver(self, cycle: int) -> None:
        """Land this cycle's scheduled arrivals, credits, and ejections."""
        routers = self.routers
        for node, port, vc, flit in self._arrivals.pop_due(cycle):
            routers[node].receive_flit(port, vc, flit, cycle)

        fi = self.fault_injector
        if fi is not None and fi.dead_credit_targets:
            # Hard link faults: credits bound for a dead output port are
            # confiscated (the physical channel can no longer signal),
            # keeping the upstream port permanently credit-starved.  The
            # injector ledgers each confiscation so the sanitizer's
            # credit-conservation audit still balances.
            dead = fi.dead_credit_targets
            for node, port, vc in self._credits.pop_due(cycle):
                if (node, port) in dead:
                    fi.confiscate(node, port, vc)
                else:
                    routers[node].receive_credit(port, vc)
        else:
            for node, port, vc in self._credits.pop_due(cycle):
                routers[node].receive_credit(port, vc)

        for flit in self._ejections.pop_due(cycle):
            if flit.is_tail:
                packet = flit.packet
                packet.delivered_cycle = cycle
                if packet.dropped:
                    # Fault-induced drop: the packet drained through the
                    # normal ejection path but was never delivered —
                    # count it, skip the delivery callbacks.
                    self.stats.note_dropped(packet)
                    continue
                self.stats.note_delivered(packet)
                for callback in self.delivery_callbacks:
                    callback(packet, cycle)

    def _step_routers(self, cycle: int) -> int:
        """Run router pipelines; returns how many routers were stepped.

        Active-set mode visits only woken routers, in ascending node
        order — the same relative order as the full iteration, which is
        what keeps event-bucket contents (and hence closed-loop RNG
        draws) bit-identical between the two modes."""
        if not self.active_scheduling:
            for router in self.routers:
                router.step(cycle)
            return len(self.routers)
        active = self._active_routers
        if not active:
            return 0
        order = sorted(active)
        for node in order:
            router = self.routers[node]
            router.step(cycle)
            if not router._active:  # quiescent: no VC holds work
                active.discard(node)
        return len(order)

    def step(self) -> None:
        """Advance the network by one clock cycle."""
        cycle = self.cycle
        prof = self.profiler
        san = self.sanitizer
        tel = self.telemetry
        fi = self.fault_injector
        if prof is None:
            self._deliver(cycle)
            self._inject(cycle)
            if fi is not None:
                # Apply scheduled fault events due this cycle and
                # re-freeze stuck VCs after arrivals/injections landed
                # (receive_flit re-stamps vc_ready), before routers step.
                fi.on_cycle(cycle)
            self._step_routers(cycle)
            if san is not None:
                san.maybe_audit(cycle)
            if tel is not None:
                tel.on_cycle(cycle)
        else:
            clock = prof.clock
            t0 = clock()
            self._deliver(cycle)
            t1 = clock()
            self._inject(cycle)
            if fi is not None:
                fi.on_cycle(cycle)
            t2 = clock()
            stepped = self._step_routers(cycle)
            t3 = clock()
            sanitize_s = 0.0
            if san is not None:
                san.maybe_audit(cycle)
                sanitize_s = clock() - t3
            telemetry_s = 0.0
            if tel is not None:
                t4 = clock()
                tel.on_cycle(cycle)
                telemetry_s = clock() - t4
            prof.record_cycle(
                t1 - t0, t2 - t1, t3 - t2, stepped, len(self.routers),
                sanitize_s=sanitize_s, telemetry_s=telemetry_s,
            )
        self.cycle = cycle + 1

    def run(self, cycles: int) -> None:
        """Advance the network by *cycles* clock cycles."""
        for _ in range(cycles):
            self.step()
