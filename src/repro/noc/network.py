"""The network: routers + links + injection/ejection plumbing.

The network owns the per-cycle event rings (flit arrivals, credit
returns, ejections), the per-node source queues, and the global event
counters (:attr:`Network.events`, folded on read from per-router
tallies and the network's float accumulators).  It is deliberately
separate from :class:`repro.noc.simulator.Simulator`, which adds
warm-up/measurement/drain orchestration and power integration on top.

It also runs the router pipeline: one router loop
(:meth:`Network._step_nodes`) and one landing loop each for flits and
credits, so a flit-hop costs no Python call of its own; only contended
VC and switch allocation call out, to :mod:`repro.noc.allocator`.  The
loop visits each busy unit once per cycle and the event rings delay
each arrival by the hop time, which is the whole of the stage timing.

The network is the one owner of its settings and observers: routers
hold their node's pipeline state and read the rest from here.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple,
    TYPE_CHECKING,
)

from repro.noc.packet import Flit, Packet, PacketClass
from repro.noc.profiling import NetworkProfiler
from repro.noc.router import (
    EVENT_RING_SLOTS, ST_LT_MERGED_CYCLES, ST_LT_SPLIT_CYCLES, STALL_RC_WAIT,
    STALL_SA_LOSS, STALL_SERIALIZATION, Router, _ACTIVE, _IDLE, _RC, _VA,
)
from repro.noc.routing import Channel, RoutingFunction, routing_for_topology
from repro.noc.stats import EventCounts, NetworkStats
from repro.noc.table_routing import build_route_table
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.sanitizer import NetworkSanitizer

#: Callback invoked when a packet's tail flit leaves the network.
DeliveryCallback = Callable[[Packet, int], None]


def _nonzero_by_layers(histogram: List[int]) -> Dict[int, int]:
    """``{k: count}`` for a histogram indexed ``k - 1``, zero counts omitted."""
    return {k: n for k, n in enumerate(histogram, 1) if n}


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
            deterministic routing for the topology.  Its decisions are
            tabulated once into :attr:`routes` and proved deadlock-free
            (:func:`~repro.noc.table_routing.build_route_table`).

    Observers are not constructor options.  Each attaches one way: the
    profiler and sanitizer by assignment to their attribute, the
    telemetry sampler by its constructor, the fault injector and trace
    recorder by their ``attach``.  ``Simulator(profile=, sanitize=,
    telemetry=, faults=)`` is the run-level shorthand for the same; a
    simulator's own delivery hook is registered only while it runs.
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
    ) -> None:
        self.topology = topology
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.combined_st_lt = combined_st_lt
        self.layer_groups = layer_groups
        self.shutdown_enabled = shutdown_enabled
        #: Fig. 8b: switch allocation speculatively overlaps VA.
        self.speculative_sa = speculative_sa
        #: Fig. 8c: the route arrives with the head flit (computed one
        #: hop upstream), so RC is off the critical path.
        self.lookahead_rc = lookahead_rc
        #: Priority-aware switch allocation (QoS provisioning, Sec. 3.3).
        self.qos_enabled = qos_enabled
        #: Sec. 3.2.4 (ii): dedicate one VC to control and one to data
        #: traffic — VC 0 carries control packets, VC 1 data packets.
        self.vc_by_class = vc_by_class
        self.routing = routing = routing or routing_for_topology(topology)
        if vc_by_class and num_vcs < 2:
            raise ValueError("vc_by_class needs at least 2 virtual channels")
        if vc_by_class and routing.has_vc_discipline:
            raise ValueError(
                "vc_by_class cannot be combined with a routing VC discipline"
            )
        if buffer_depth < 1:
            raise ValueError(f"buffer depth must be >= 1, got {buffer_depth}")
        if num_vcs < routing.required_vcs:
            raise ValueError(
                f"routing function needs >= {routing.required_vcs} virtual "
                f"channels, got {num_vcs}"
            )
        self._events = EventCounts()
        #: Link kind names, sorted; the index is the routers' link-kind id.
        self.link_kinds: List[str] = sorted(
            {link.kind.value for link in topology.links}
        )
        #: Float accumulators, one add per flit in traversal order (see
        #: :attr:`events`): buffer write and read activity weights;
        #: link length x activity weight by link-kind id, and link
        #: length by effective active-layer count k (index 0 unused).
        #: The routers add into these lists directly.
        self.buffer_weighted_sums = [0.0, 0.0]
        self.link_mm_weighted_sums = [0.0] * len(self.link_kinds)
        self.link_mm_by_layers_sums = [0.0] * (layer_groups + 1)
        #: Activity weight k/L for each effective layer count k (index
        #: 0 unused), the dyadic float every flit's buffer, crossbar and
        #: link activity is weighted by.
        self._w_table = [k / layer_groups for k in range(layer_groups + 1)]
        #: Cycles from a switch grant to the flit's arrival downstream.
        self._hop_cycles = (
            ST_LT_MERGED_CYCLES if combined_st_lt else ST_LT_SPLIT_CYCLES
        )
        self.stats = NetworkStats()

        #: One next-port row per router (``routes[node][dst]``), proved
        #: deadlock-free; :meth:`reroute` rebuilds it in place.
        self.routes = build_route_table(topology, routing, num_vcs=num_vcs)
        self.routers: List[Router] = [
            Router(node, self) for node in topology.iter_nodes()
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

        #: Event rings: slot ``cycle % EVENT_RING_SLOTS`` holds the
        #: events due at ``cycle`` — arrivals ``(node, port, vc, flit)``,
        #: credits ``(node, port, vc)`` bound upstream, and ejecting
        #: flits.  Routers append into them; :meth:`_deliver` takes the
        #: current slot of each and leaves a fresh list in its place.
        self.arrival_slots: List[list] = [[] for _ in range(EVENT_RING_SLOTS)]
        self.credit_slots: List[list] = [[] for _ in range(EVENT_RING_SLOTS)]
        self.ejection_slots: List[list] = [[] for _ in range(EVENT_RING_SLOTS)]
        self._sources: List[_SourceQueue] = [
            _SourceQueue() for _ in topology.iter_nodes()
        ]
        self._busy_sources: Set[int] = set()
        #: Routers that may have pipeline work this cycle.  Maintained
        #: as a *superset* of the busy routers (routers only become busy
        #: through :meth:`_land_flits`, which wakes them here).
        self._active_routers: Set[int] = set()

        # Attach after every router and the credit targets exist.
        for router in self.routers:
            router.attach()
        #: (the router's ``port_flits`` row, link kind, channel) per link,
        #: sorted by channel — what :attr:`events` folds.
        self._link_tallies = sorted(
            (
                (router.port_flits[port], link.kind.value,
                 (link.src, link.dst))
                for router in self.routers
                for port, link in enumerate(router.out_links)
                if link is not None
            ),
            key=lambda tally: tally[2],
        )
        #: Attach a :class:`~repro.noc.profiling.NetworkProfiler` to
        #: collect cycles/sec, active-router ratio and per-phase wall
        #: times; ``None`` (the default) costs ``is not None`` tests
        #: per cycle and no clock read.
        self.profiler: Optional[NetworkProfiler] = None
        #: Opt-in invariant auditor
        #: (``network.sanitizer = NetworkSanitizer(network, ...)``);
        #: ``None`` (the default) costs one check per cycle, exactly
        #: like the profiler.
        self.sanitizer: Optional[NetworkSanitizer] = None
        #: Called ``(packet, cycle)`` as each delivered packet's tail
        #: ejects: the telemetry sampler's read-only hook, and a
        #: :class:`~repro.noc.simulator.Simulator`'s for the length of
        #: its ``run()``.
        self.delivery_callbacks: List[DeliveryCallback] = []
        #: Opt-in lifecycle trace recorder
        #: (:class:`repro.telemetry.recorder.TraceRecorder`, registered
        #: via its ``attach``); ``None`` (the default) costs the router
        #: loop one ``is not None`` test per RC, VA grant and switch
        #: traversal.
        self.recorder = None
        #: Opt-in windowed metrics/trace sampler (a
        #: :class:`~repro.telemetry.NetworkTelemetry` registers itself
        #: here when built over this network); ``None`` (the default)
        #: costs one check per cycle, exactly like the profiler.
        self.telemetry = None
        #: Opt-in stall-cause accounting
        #: (:class:`repro.telemetry.attribution.StallAttribution`);
        #: ``None`` (the default) costs one ``is not None`` test on the
        #: router loop's stall branches only — nothing per cycle.
        self.attribution = None
        #: Opt-in runtime fault injector
        #: (:class:`repro.resilience.faults.FaultInjector`, registered
        #: via its ``attach``); ``None`` (the default) costs one
        #: ``is None`` check per cycle, exactly like the profiler.
        self.fault_injector = None
        self.cycle = 0

    @property
    def events(self) -> EventCounts:
        """The network's cumulative event counters, brought up to date.

        Routers tally per-flit events in plain per-router ``int`` lists;
        this folds them into the one :class:`EventCounts` object and
        returns it (snapshot with ``copy()``).  Keys of the dict
        counters appear, sorted, exactly when their count is > 0.

        The activity-weighted floats are never derived from the integer
        tallies: ``k / layer_groups`` and link lengths are not dyadic in
        general, so each float keeps exactly one add per event in the
        global traversal order, into the network's
        ``buffer_weighted_sums`` and ``link_mm_*_sums`` lists.
        """
        ev = self._events
        routers = self.routers
        ev.buffer_writes_weighted, reads_weighted = self.buffer_weighted_sums
        ev.buffer_reads_weighted = ev.xbar_traversals_weighted = reads_weighted
        ev.rc_computations = sum(r.rc_computations for r in routers)
        ev.va_allocations = sum(r.va_allocations for r in routers)
        switched = [
            sum(col) for col in zip(*(r.flits_switched_by_layers for r in routers))
        ]
        writes = [sum(col) for col in zip(*(r.writes_by_layers for r in routers))]
        rows = []
        link_flits: Dict[str, int] = {}
        channel_flits: Dict[Tuple[int, int], int] = {}
        for row, kind, channel in self._link_tallies:
            flits = sum(row)
            if flits:
                rows.append(row)
                link_flits[kind] = link_flits.get(kind, 0) + flits
                channel_flits[channel] = channel_flits.get(channel, 0) + flits
        link_by_layers = [sum(col) for col in zip(*rows)]
        hops = sum(switched)
        ev.buffer_writes = sum(writes)
        ev.buffer_reads = ev.sa_allocations = hops
        ev.xbar_traversals = ev.flit_hops = hops
        ev.short_flit_hops = sum(r.short_flit_hops for r in routers)
        ev.buffer_writes_by_layers = _nonzero_by_layers(writes)
        ev.buffer_reads_by_layers = _nonzero_by_layers(switched)
        ev.xbar_traversals_by_layers = _nonzero_by_layers(switched)
        ev.flit_hops_by_layers = _nonzero_by_layers(switched)
        ev.link_flits = dict(sorted(link_flits.items()))
        ev.channel_flits = channel_flits
        ev.link_mm_weighted = {
            kind: self.link_mm_weighted_sums[idx]
            for idx, kind in enumerate(self.link_kinds)
            if kind in link_flits
        }
        ev.link_mm_by_layers = {
            k: self.link_mm_by_layers_sums[k]
            for k, n in enumerate(link_by_layers, 1)
            if n
        }
        return ev

    def reroute(self, failed: FrozenSet[Channel]) -> None:
        """Rebuild every router's next-port row around the *failed*
        channels and prove the new table deadlock-free.

        Rows are overwritten in place, so the routers' aliases (their own
        row and their downstream rows for look-ahead RC) stay valid.
        """
        rows = build_route_table(
            self.topology, self.routing, failed, self.num_vcs
        )
        for row, rebuilt in zip(self.routes, rows):
            row[:] = rebuilt

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
        return (
            buffered
            + sum(map(len, self.arrival_slots))
            + sum(map(len, self.ejection_slots))
        )

    def idle(self) -> bool:
        """True when no flit is queued, buffered, or in flight."""
        return (
            not self._busy_sources
            and self.in_flight() == 0
            and self.pending_injections() == 0
        )

    def _inject(self, cycle: int) -> None:
        """Stream one flit per busy source into its local-port VC.

        Each source touches only its own router, so the flits land
        together after the source loop, in ascending node order."""
        done_sources: List[int] = []
        landed: list = []
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
                src.flit_idx = 0
                src.vc = vc
                packet.injected_cycle = cycle
                if self.lookahead_rc:
                    # First-hop route looked up at injection (Fig. 8c).
                    router._look_ahead(src.flits[0], router.routes)
            if router.local_vc_has_space(src.vc):
                landed.append(
                    (node, router.local_port, src.vc, src.flits[src.flit_idx])
                )
                src.flit_idx += 1
                if src.flit_idx >= len(src.flits):
                    src.flits = []
                    src.flit_idx = 0
                    src.vc = -1
                    if not src.packets:
                        done_sources.append(node)
        if landed:
            self._land_flits(landed)
        for node in done_sources:
            src = self._sources[node]
            if src.idle:
                self._busy_sources.discard(node)

    def _land_flits(self, arrivals) -> None:
        """Write each arriving ``(node, port, vc, flit)`` into its input
        VC buffer and wake its router.  A head flit on an idle VC starts
        the VC's pipeline, which takes its first step when the router
        next steps: RC, or VA when look-ahead RC brought a route that is
        still current."""
        routers = self.routers
        num_vcs = self.num_vcs
        depth = self.buffer_depth
        shutdown = self.shutdown_enabled
        groups = self.layer_groups
        w_table = self._w_table
        buffer_sums = self.buffer_weighted_sums
        lookahead = self.lookahead_rc
        wake = self._active_routers.add
        for node, port, vc, flit in arrivals:
            r = routers[node]
            i = port * num_vcs + vc
            fifo = r.vc_fifos[i]
            if len(fifo) >= depth:
                raise OverflowError(
                    "buffer overflow: credit-based flow control should make "
                    "this impossible"
                )
            fifo.append(flit)
            # Effective active-layer count: with shutdown disabled every
            # layer switches regardless of payload.
            k = flit.active_groups if shutdown else groups
            buffer_sums[0] += w_table[k]
            r.writes_by_layers[k - 1] += 1
            vc_state = r.vc_state
            if vc_state[i] == _IDLE:
                if not flit.is_head:
                    raise RuntimeError(
                        f"router {node}: body flit arrived on idle VC "
                        f"({port},{vc}); wormhole ordering violated"
                    )
                if lookahead and flit.lookahead_port is not None and (
                    flit.lookahead_port == r.routes[flit.packet.dst]
                ):
                    # The route travelled with the flit: skip to VA.
                    r.vc_out_port[i] = flit.lookahead_port
                    vc_state[i] = _VA
                else:
                    # No look-ahead route, or a stale one (the table was
                    # rebuilt while the flit was in flight): RC.
                    vc_state[i] = _RC
            r._active.add(i)
            wake(node)

    def _land_credits(self, credits) -> None:
        """Return each ``(node, port, vc)`` credit to its output VC."""
        routers = self.routers
        depth = self.buffer_depth
        for node, port, vc in credits:
            held = routers[node].credits[port]
            if held is None:
                raise RuntimeError(f"credit for local/unconnected port {port}")
            held[vc] += 1
            if held[vc] > depth:
                raise RuntimeError(
                    f"router {node}: credit overflow on port {port} vc {vc}"
                )

    # -- main loop -------------------------------------------------------------

    def _deliver(self, cycle: int) -> None:
        """Land this cycle's scheduled arrivals, credits, and ejections."""
        slot = cycle % EVENT_RING_SLOTS
        arrivals = self.arrival_slots[slot]
        self.arrival_slots[slot] = []
        if arrivals:
            self._land_flits(arrivals)

        credits = self.credit_slots[slot]
        self.credit_slots[slot] = []
        fi = self.fault_injector
        if fi is not None and fi.dead_credit_targets:
            # Hard link faults: credits bound for a dead output port are
            # confiscated (the physical channel can no longer signal),
            # keeping the upstream port permanently credit-starved.  The
            # injector ledgers each confiscation so the sanitizer's
            # credit-conservation audit still balances.
            dead = fi.dead_credit_targets
            live = []
            for credit in credits:
                if credit[:2] in dead:
                    fi.confiscate(*credit)
                else:
                    live.append(credit)
            credits = live
        if credits:
            self._land_credits(credits)

        ejections = self.ejection_slots[slot]
        self.ejection_slots[slot] = []
        for flit in ejections:
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
        """Step the woken routers in ascending node order; returns how
        many were stepped.

        Ascending order is the order a full iteration would use, which
        keeps event-ring contents (and hence closed-loop RNG draws)
        identical to stepping every router every cycle."""
        active = self._active_routers
        if not active:
            return 0
        order = sorted(active)
        self._step_nodes(order, cycle)
        return len(order)

    def _step_nodes(self, nodes, cycle: int) -> None:
        """The router loop: run the pipeline of each router in *nodes*,
        in that order, for *cycle*; a router left with no buffered work
        leaves the active set.

        The loop visits each busy unit once, and a unit makes at most
        one transition per visit, so a transition made in *cycle* takes
        effect at the unit's next visit; that, and the ring delays, is
        the whole of the stage timing.  One pass over a router's units
        (ascending) routes each head at RC inline and collects the VA
        requesters and the SA bidders.  Then VA runs
        (``Router._va_stage``; under speculative SA its fresh grants join
        the bidders in the same cycle), then SA, and every granted flit
        crosses the switch inline, in grant order.  Units a stuck-VC
        fault holds (``Router.stuck``) are skipped.  With stall
        attribution attached, each unit that does not advance is charged
        one cause where it fails.
        """
        routers = self.routers
        num_vcs = self.num_vcs
        credit_slot = self.credit_slots[(cycle + 1) % EVENT_RING_SLOTS]
        ejection_slot = self.ejection_slots[(cycle + 1) % EVENT_RING_SLOTS]
        arrival_slot = self.arrival_slots[
            (cycle + self._hop_cycles) % EVENT_RING_SLOTS
        ]
        buffer_sums = self.buffer_weighted_sums
        mm_weighted = self.link_mm_weighted_sums
        mm_by_layers = self.link_mm_by_layers_sums
        w_table = self._w_table
        shutdown = self.shutdown_enabled
        groups = self.layer_groups
        speculative = self.speculative_sa
        lookahead = self.lookahead_rc
        qos = self.qos_enabled
        attrib = self.attribution
        rec = self.recorder
        decisions = None if rec is None else rec.decisions
        sleep = self._active_routers.discard
        for node in nodes:
            r = routers[node]
            active = r._active
            if not active:
                sleep(node)
                continue
            if len(active) == 1:
                order = tuple(active)
            else:
                order = sorted(active)
            vc_state = r.vc_state
            stuck = r.stuck
            vc_out_port = r.vc_out_port
            vc_out_vc = r.vc_out_vc
            vc_fifos = r.vc_fifos
            credits_by_port = r.credits
            va_units = []
            bidders = []
            for i in order:
                if i in stuck:
                    # A stuck-VC fault holds this unit: it never advances.
                    if attrib is not None:
                        attrib.charge(
                            r, i,
                            STALL_SERIALIZATION
                            if vc_state[i] == _ACTIVE
                            else STALL_RC_WAIT,
                        )
                    continue
                state = vc_state[i]
                if state == _ACTIVE:
                    if vc_fifos[i]:
                        out = vc_out_port[i]
                        credits = credits_by_port[out]
                        if credits is None or credits[vc_out_vc[i]] > 0:
                            bidders.append(i)
                        elif attrib is not None:
                            attrib.charge_credit(r, i, out)
                elif state == _VA:
                    va_units.append(i)
                elif state == _RC and vc_fifos[i]:
                    # RC: the head flit's output port from the table.
                    flit = vc_fifos[i][0]
                    out = r.routes[flit.packet.dst]
                    if out < 0:
                        out = r._drop_route(flit)
                    vc_out_port[i] = out
                    vc_state[i] = _VA
                    r.rc_computations += 1
                    # A sampled-out pid (mapped to 0) costs a dict probe
                    # and no call; an unseen pid calls through, which
                    # admits it.
                    if rec is not None and decisions.get(flit.packet.pid, 1):
                        rec.on_stage(cycle, node, flit, "rc")

            if va_units and r._va_stage(va_units, cycle) and speculative:
                # Speculative SA (Fig. 8b): a freshly granted VC bids for
                # the crossbar in the same cycle.  A failed bid is a
                # credit stall: the VA grant landed but downstream is
                # full.
                joined = False
                for i in va_units:
                    if vc_state[i] == _ACTIVE and vc_fifos[i]:
                        out = vc_out_port[i]
                        credits = credits_by_port[out]
                        if credits is None or credits[vc_out_vc[i]] > 0:
                            bidders.append(i)
                            joined = True
                        elif attrib is not None:
                            attrib.charge_credit(r, i, out)
                if joined:
                    bidders.sort()

            if not bidders:
                if not active:
                    sleep(node)
                continue
            if len(bidders) == 1:
                # The sole contender of its SA1 and SA2 arbitrations:
                # both pointers move just past it, the state
                # SwitchAllocator.allocate would leave behind.
                granted = bidders
                i = bidders[0]
                in_port = i // num_vcs
                sa = r._sa
                sa.sa1[in_port] = (i + 1) % num_vcs
                sa.sa2[vc_out_port[i]] = (in_port + 1) % r.num_ports
            else:
                priority = None
                if qos:
                    priority = {
                        i: vc_fifos[i][0].packet.priority for i in bidders
                    }
                granted = r._sa.allocate(bidders, vc_out_port, priority)

            # Switch traversal of every granted flit, in grant order.
            switched = r.flits_switched_by_layers
            out_owner = r.out_owner
            local_port = r.local_port
            credit_returns = r._credit_returns
            for i in granted:
                fifo = vc_fifos[i]
                flit = fifo.popleft()
                if not fifo:
                    active.discard(i)
                k = flit.active_groups if shutdown else groups
                weight = w_table[k]
                # One buffer read + SA grant + crossbar traversal +
                # flit-hop.
                buffer_sums[1] += weight
                switched[k - 1] += 1
                if flit.active_groups == 1:
                    r.short_flit_hops += 1
                if (
                    rec is not None
                    and flit.is_head
                    and decisions.get(flit.packet.pid, 1)
                ):
                    rec.on_stage(cycle, node, flit, "st")
                out_port = vc_out_port[i]
                out_vc = vc_out_vc[i]
                credits = credits_by_port[out_port]
                if credits is not None:
                    credits[out_vc] -= 1
                    if credits[out_vc] < 0:
                        raise RuntimeError(
                            f"router {node}: negative credit on port "
                            f"{out_port}"
                        )
                credit_return = credit_returns[i]
                if credit_return is not None:
                    credit_slot.append(credit_return)
                if out_port == local_port:
                    # Ejection: one ST cycle, no link traversal.
                    ejection_slot.append(flit)
                else:
                    if flit.is_head:
                        flit.packet.hops += 1
                        if lookahead:
                            # NRC: the route at the *next* router, looked
                            # up while the flit crosses the switch.
                            r._look_ahead(flit, r._next_routes[out_port])
                    kind, length_mm, port_flits = r._link_args[out_port]
                    port_flits[k - 1] += 1
                    mm_weighted[kind] += length_mm * weight
                    mm_by_layers[k] += length_mm
                    dst, dst_port = r._arrival_targets[out_port]
                    arrival_slot.append((dst, dst_port, out_vc, flit))
                if flit.is_tail:
                    out_owner[out_port][out_vc] = None
                    vc_out_port[i] = -1
                    vc_out_vc[i] = -1
                    if not fifo:
                        vc_state[i] = _IDLE
                    else:
                        if not fifo[0].is_head:
                            raise RuntimeError(
                                f"router {node}: non-head flit follows "
                                "tail in VC"
                            )
                        vc_state[i] = _RC
            if attrib is not None and len(granted) < len(bidders):
                won = set(granted)
                for i in bidders:
                    if i not in won:
                        attrib.charge(r, i, STALL_SA_LOSS)
            if not active:
                sleep(node)

    def step(self) -> None:
        """Advance the network by one clock cycle.

        With a profiler attached, four clock reads split the cycle into
        the deliver / inject / route phases, and an attached sanitizer
        or telemetry sampler is timed as its own phase; without one, the
        cycle makes no clock call."""
        cycle = self.cycle
        prof = self.profiler
        san = self.sanitizer
        tel = self.telemetry
        fi = self.fault_injector
        if prof is not None:
            clock = prof.clock
            t0 = clock()
        self._deliver(cycle)
        if prof is not None:
            t1 = clock()
        self._inject(cycle)
        if fi is not None:
            # Apply the fault events due this cycle before routers step.
            fi.on_cycle(cycle)
        if prof is not None:
            t2 = clock()
        stepped = self._step_routers(cycle)
        if prof is not None:
            t3 = clock()
        sanitize_s = telemetry_s = 0.0
        if san is not None:
            san.maybe_audit(cycle)
            if prof is not None:
                sanitize_s = clock() - t3
        if tel is not None:
            if prof is not None:
                t4 = clock()
            tel.on_cycle(cycle)
            if prof is not None:
                telemetry_s = clock() - t4
        if prof is not None:
            prof.record_cycle(
                t1 - t0, t2 - t1, t3 - t2, stepped, len(self.routers),
                sanitize_s=sanitize_s, telemetry_s=telemetry_s,
            )
        self.cycle = cycle + 1

    def run(self, cycles: int) -> None:
        """Advance the network by *cycles* clock cycles."""
        for _ in range(cycles):
            self.step()
