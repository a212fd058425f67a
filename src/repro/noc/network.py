"""The network: routers + links + injection/ejection plumbing.

The network owns the per-cycle event rings (flit arrivals, credit
returns, ejections), the per-node source queues, and the global event
counters (:attr:`Network.events`, folded on read from the network's
integer tallies and float accumulators).  It is deliberately
separate from :class:`repro.noc.simulator.Simulator`, which adds
warm-up/measurement/drain orchestration and power integration on top.

It also owns all state, as one structure of arrays over global indices.
Nodes take consecutive ports in node order: port ``p`` of ``node`` is
global port ``port_base + p`` (the same number for the input and the
output side), and its VC ``v`` is the global unit (input VC) or output
VC ``(port_base + p) * num_vcs + v``, so ``node_units[node]`` starts at
``port_base * num_vcs``.  Port 0 is the local port.  Per node:
``port_names``, ``node_units`` and the activity tallies
(``flits_switched_by_layers``, ``short_flit_hops``, ``rc_computations``,
``va_allocations``).  Per unit: ``vc_state``, ``vc_out_port`` (a
global port), ``vc_held`` (the global output VC it holds, so its VC is
``vc_held[i] % num_vcs``), ``vc_fifos`` and ``credit_returns`` (the
upstream output VC a leaving flit's credit goes back to), and the
``writes_by_layers`` tally; per output VC: ``out_owner`` (the owning
unit), ``credits`` and ``link_units`` (the downstream unit its link
feeds); per output port the ``port_flits`` tally and the link tables
``link_args`` and ``next_routes``.  ``stuck`` holds the units a
stuck-VC fault freezes and ``_active`` the units that may have work.

The network runs the whole router pipeline over those lists: injection,
one router loop (:meth:`Network._step_units`: RC, VA, SA and switch
traversal) and one landing loop each for flits and credits, so a
flit-hop costs no Python call of its own: a bid reads
``credits[held]`` and an arrival is ``(link_units[held], flit)``.  A
lone VA requester and a lone SA bidder are granted inline; only
contended or VC-restricted allocation calls out, to the network's one
pair of allocators (:mod:`repro.noc.allocator`).  The loop sorts the
active units once per cycle and walks them one node at a time, visiting
each busy unit once; the event rings delay each arrival by the hop
time, which is the whole of the stage timing.  Arrival entries are
``(unit, flit)`` and credit entries the output VC they return to.

Routers (:class:`~repro.noc.router.Router`) hold no state: each is one
node's three entries into these loops.  The one pipeline hook is the
trace recorder (``network.recorder``): at a head flit's RC, VA and ST
the router loop probes the recorder's capture map and calls
``on_stage`` only for packets not mapped to ``0``.
"""

from __future__ import annotations

from collections import deque
from itertools import groupby
from typing import (
    Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple,
    TYPE_CHECKING,
)

from repro.noc.allocator import SwitchAllocator, VirtualChannelAllocator
from repro.noc.packet import Flit, Packet, PacketClass
from repro.noc.profiling import NetworkProfiler
from repro.noc.router import (
    EVENT_RING_SLOTS, ST_LT_MERGED_CYCLES, ST_LT_SPLIT_CYCLES, STALL_RC_WAIT,
    STALL_SA_LOSS, STALL_SERIALIZATION, STALL_VA_CONFLICT, Router, _ACTIVE,
    _IDLE, _RC, _VA,
)
from repro.noc.routing import Channel, RoutingFunction, routing_for_topology
from repro.noc.stats import EventCounts, NetworkStats
from repro.noc.table_routing import build_route_table
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.sanitizer import NetworkSanitizer

#: Callback invoked when a packet's tail flit leaves the network.
DeliveryCallback = Callable[[Packet, int], None]

#: Sec. 3.2.4 (ii), under ``vc_by_class``: the one VC each traffic class
#: is injected on and allocated — VC 0 control, VC 1 data.
CLASS_VC = {PacketClass.CTRL: 0, PacketClass.DATA: 1}


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
        #: Link kind names, sorted; the index is the link-kind id.
        self.link_kinds: List[str] = sorted(
            {link.kind.value for link in topology.links}
        )
        #: Float accumulators, one add per flit in traversal order (see
        #: :attr:`events`): buffer write and read activity weights;
        #: link length x activity weight by link-kind id, and link
        #: length by effective active-layer count k (index 0 unused).
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

        #: One next-port row per router (``routes[node][dst]``: a port
        #: index of that node), proved deadlock-free; :meth:`reroute`
        #: rebuilds it in place.
        self.routes = routes = build_route_table(
            topology, routing, num_vcs=num_vcs
        )
        #: Each node's port names, local port (port 0) first.
        self.port_names: List[List[str]] = []
        #: Each node's global units (input VCs, and output VCs), in
        #: port-major order.
        self.node_units: List[range] = []
        #: The node each global unit (and output VC) belongs to.
        self.node_of_unit: List[int] = []
        units = 0
        for node in topology.iter_nodes():
            names = topology.port_names(node)
            size = len(names) * num_vcs
            self.port_names.append(names)
            self.node_units.append(range(units, units + size))
            self.node_of_unit.extend([node] * size)
            units += size
        ports = units // num_vcs
        num_nodes = len(self.node_units)

        # Per input unit.
        self.vc_state: List[int] = [_IDLE] * units
        self.vc_out_port: List[int] = [-1] * units
        #: The global output VC each unit holds (``out_port * num_vcs +
        #: vc``), ``-1`` before its VA grant and after its tail leaves.
        self.vc_held: List[int] = [-1] * units
        #: One bounded flit FIFO per input VC, front at index 0; the
        #: landing loop enforces the depth.
        self.vc_fifos: List[Deque[Flit]] = [deque() for _ in range(units)]
        #: The upstream output VC a flit leaving this unit returns its
        #: credit to (appended to the credit ring as is); ``None`` on
        #: the local port and on ports no link feeds.
        self.credit_returns: List[Optional[int]] = [None] * units
        # Per output VC.
        #: The unit holding each output VC, ``None`` when free.
        self.out_owner: List[Optional[int]] = [None] * units
        #: Credits held per output VC: the downstream buffer's free
        #: slots.  The local output's ejection sink always accepts, so
        #: its VCs keep ``buffer_depth`` and are never charged; a port
        #: without a link keeps 0.
        self.credits: List[int] = [0] * units
        #: The downstream unit (input VC) each output VC's link feeds,
        #: ``None`` on the local port and on ports without a link.
        self.link_units: List[Optional[int]] = [None] * units
        # Per output port, ``None`` where the port has no link: the
        # link's accounting arguments ``(link-kind index, length, the
        # port's port_flits row)`` and the downstream node's next-port
        # row (look-ahead RC).
        self.link_args: List[Optional[Tuple[int, float, List[int]]]] = (
            [None] * ports
        )
        self.next_routes: List[Optional[List[int]]] = [None] * ports
        #: Units a stuck-VC fault holds
        #: (:class:`~repro.resilience.faults.FaultInjector` fills it):
        #: the router loop skips them, so they never advance.
        self.stuck: Set[int] = set()
        #: Units that may have pipeline work: a unit joins when a flit
        #: lands on it and leaves when its buffer drains, so an empty
        #: set means the network is quiescent until a flit lands.
        self._active: Set[int] = set()

        # Activity tallies, which :attr:`events` folds on read.  Index
        # ``k-1`` of a histogram counts the events that drove exactly
        # ``k`` datapath layers (k = flit.active_groups with shutdown
        # enabled, else layer_groups).  One switched flit is one buffer
        # read, SA grant, crossbar traversal and flit-hop.
        row = [0] * layer_groups
        #: Switched flits per node (the per-node-per-layer power maps).
        self.flits_switched_by_layers = [row[:] for _ in range(num_nodes)]
        #: Buffer writes per unit (the unit the landing loop holds).
        self.writes_by_layers = [row[:] for _ in range(units)]
        #: Link flits per output port (local and unlinked rows stay 0).
        self.port_flits = [row[:] for _ in range(ports)]
        #: Per node: switched flits with a single active word group,
        #: route computations (look-ahead ones included), VA grants.
        self.short_flit_hops: List[int] = [0] * num_nodes
        self.rc_computations: List[int] = [0] * num_nodes
        self.va_allocations: List[int] = [0] * num_nodes

        node_ports = [len(names) for names in self.port_names]
        self._va = VirtualChannelAllocator(node_ports, num_vcs)
        self._sa = SwitchAllocator(node_ports, num_vcs)
        #: What the loops read per node, bound once: ``(first unit, unit
        #: count, first port, next-port row, switched-flit histogram)``,
        #: ports global; the first port is also the local port.
        self._nodes = [
            (
                units.start, len(units), units.start // num_vcs,
                routes[node], self.flits_switched_by_layers[node],
            )
            for node, units in enumerate(self.node_units)
        ]
        credits = self.credits
        # The local port's and every linked port's output VCs start
        # with a full buffer's credits.
        for base, *_ in self._nodes:
            credits[base:base + num_vcs] = [buffer_depth] * num_vcs
        # Resolve every link's endpoints once, into the link tables, so
        # the router loop makes no string-keyed port lookup.
        link_tallies = []
        nodes, names = self._nodes, self.port_names
        for link in topology.links:
            out = nodes[link.src][2] + names[link.src].index(link.src_port)
            in_port = nodes[link.dst][2] + names[link.dst].index(link.dst_port)
            credits[out * num_vcs:(out + 1) * num_vcs] = (
                [buffer_depth] * num_vcs
            )
            self.link_args[out] = (
                self.link_kinds.index(link.kind.value),
                link.length_mm,
                self.port_flits[out],
            )
            self.next_routes[out] = routes[link.dst]
            for vc in range(num_vcs):
                self.link_units[out * num_vcs + vc] = in_port * num_vcs + vc
                self.credit_returns[in_port * num_vcs + vc] = (
                    out * num_vcs + vc
                )
            link_tallies.append((out, link.kind.value, (link.src, link.dst)))
        #: (output port, link kind, channel) per link, sorted by channel
        #: — what :attr:`events` folds.
        self._link_tallies = sorted(link_tallies, key=lambda tally: tally[2])
        #: One :class:`~repro.noc.router.Router` per node: entries into
        #: the loops for the benchmark's router probe and for tests.
        self.routers = [Router(node, self) for node in topology.iter_nodes()]

        #: Event rings: slot ``cycle % EVENT_RING_SLOTS`` holds the
        #: events due at ``cycle`` — arrivals ``(unit, flit)``, credits
        #: (the output VC they return to) and ejecting flits.  The
        #: router loop appends into them; :meth:`_deliver` takes the
        #: current slot of each and leaves a fresh list in its place.
        self.arrival_slots: List[list] = [[] for _ in range(EVENT_RING_SLOTS)]
        self.credit_slots: List[list] = [[] for _ in range(EVENT_RING_SLOTS)]
        self.ejection_slots: List[list] = [[] for _ in range(EVENT_RING_SLOTS)]
        self._sources: List[_SourceQueue] = [
            _SourceQueue() for _ in topology.iter_nodes()
        ]
        self._busy_sources: Set[int] = set()
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

        The loops tally per-flit events in the network's plain ``int``
        lists (per node, unit or port); this folds them into the one
        :class:`EventCounts` object and returns it (snapshot with
        ``copy()``).  Keys of the dict
        counters appear, sorted, exactly when their count is > 0.

        The activity-weighted floats are never derived from the integer
        tallies: ``k / layer_groups`` and link lengths are not dyadic in
        general, so each float keeps exactly one add per event in the
        global traversal order, into the network's
        ``buffer_weighted_sums`` and ``link_mm_*_sums`` lists.
        """
        ev = self._events
        ev.buffer_writes_weighted, reads_weighted = self.buffer_weighted_sums
        ev.buffer_reads_weighted = ev.xbar_traversals_weighted = reads_weighted
        ev.rc_computations = sum(self.rc_computations)
        ev.va_allocations = sum(self.va_allocations)
        switched = [sum(col) for col in zip(*self.flits_switched_by_layers)]
        writes = [sum(col) for col in zip(*self.writes_by_layers)]
        port_flits = self.port_flits
        rows = []
        link_flits: Dict[str, int] = {}
        channel_flits: Dict[Tuple[int, int], int] = {}
        for out, kind, channel in self._link_tallies:
            row = port_flits[out]
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
        ev.short_flit_hops = sum(self.short_flit_hops)
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

    def unit_index(self, node: int, port: int, vc: int) -> int:
        """The global unit (or output VC) of *node*'s *port*, VC *vc*."""
        return self.node_units[node].start + port * self.num_vcs + vc

    def unit_location(self, unit: int) -> Tuple[int, int, int]:
        """``(node, port, vc)`` of global *unit* (or output VC)."""
        node = self.node_of_unit[unit]
        return (
            node, *divmod(unit - self.node_units[node].start, self.num_vcs)
        )

    def node_flits_switched(self) -> List[int]:
        """Flits each node has switched (per-node power/thermal maps)."""
        return [sum(row) for row in self.flits_switched_by_layers]

    def node_occupancy(self) -> List[int]:
        """Flits buffered at each node, across its input VCs."""
        fifos = self.vc_fifos
        return [
            sum(map(len, fifos[units.start:units.stop]))
            for units in self.node_units
        ]

    def reroute(self, failed: FrozenSet[Channel]) -> None:
        """Rebuild every router's next-port row around the *failed*
        channels and prove the new table deadlock-free.

        Rows are overwritten in place, so the aliases the loops hold
        (each node's row, and each link's downstream row for look-ahead
        RC) stay valid.
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
        buffered = sum(map(len, self.vc_fifos))
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
        nodes = self._nodes
        vc_state = self.vc_state
        vc_fifos = self.vc_fifos
        rc_computations = self.rc_computations
        all_vcs = range(self.num_vcs)
        for node in sorted(self._busy_sources):
            src = self._sources[node]
            # The node's first units are its local port's VCs.
            base, _, _, routes, _ = nodes[node]
            if not src.flits:
                if not src.packets:
                    done_sources.append(node)
                    continue
                # The packet takes an idle, empty local VC: its traffic
                # class's own under vc_by_class, else the lowest free.
                vcs = all_vcs
                if self.vc_by_class:
                    vcs = (CLASS_VC[src.packets[0].klass],)
                for vc in vcs:
                    i = base + vc
                    if vc_state[i] == _IDLE and not vc_fifos[i]:
                        break
                else:
                    continue  # none free this cycle
                packet = src.packets.popleft()
                src.flits = packet.make_flits(self.layer_groups)
                src.flit_idx = 0
                src.vc = vc
                packet.injected_cycle = cycle
                if self.lookahead_rc:
                    # First-hop route looked up at injection (Fig. 8c);
                    # an unroutable entry leaves the drop to RC.
                    port = routes[packet.dst]
                    if port >= 0:
                        src.flits[0].lookahead_port = port
                        rc_computations[node] += 1
            unit = base + src.vc
            if len(vc_fifos[unit]) < self.buffer_depth:
                landed.append((unit, src.flits[src.flit_idx]))
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
        """Write each arriving ``(unit, flit)`` into its input VC buffer
        and wake the unit.  A head flit on an idle VC starts the VC's
        pipeline, which takes its first step when the router next steps:
        RC, or VA when look-ahead RC brought a route that is still
        current (a look-ahead port is local to the flit's next router)."""
        vc_fifos = self.vc_fifos
        vc_state = self.vc_state
        writes = self.writes_by_layers
        depth = self.buffer_depth
        shutdown = self.shutdown_enabled
        groups = self.layer_groups
        w_table = self._w_table
        buffer_sums = self.buffer_weighted_sums
        lookahead = self.lookahead_rc
        wake = self._active.add
        for unit, flit in arrivals:
            fifo = vc_fifos[unit]
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
            writes[unit][k - 1] += 1
            if vc_state[unit] == _IDLE:
                if not flit.is_head:
                    node, port, vc = self.unit_location(unit)
                    raise RuntimeError(
                        f"router {node}: body flit arrived on idle VC "
                        f"({port},{vc}); wormhole ordering violated"
                    )
                # No look-ahead route, or a stale one (the table was
                # rebuilt while the flit was in flight): RC.
                state = _RC
                port = flit.lookahead_port
                if lookahead and port is not None:
                    _, _, port_base, routes, _ = self._nodes[
                        self.node_of_unit[unit]
                    ]
                    if port == routes[flit.packet.dst]:
                        # The route travelled with the flit: skip to VA.
                        self.vc_out_port[unit] = port_base + port
                        state = _VA
                vc_state[unit] = state
            wake(unit)

    def _land_credits(self, credits) -> None:
        """Return each credit to its output VC."""
        held = self.credits
        depth = self.buffer_depth
        for out_vc in credits:
            held[out_vc] += 1
            if held[out_vc] > depth:
                node, port, vc = self.unit_location(out_vc)
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
                if credit in dead:
                    fi.confiscate(credit)
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
        """Step the active units in ascending order; returns how many
        routers were stepped.

        Ascending order is the order a full iteration would use, which
        keeps event-ring contents (and hence closed-loop RNG draws)
        identical to stepping every router every cycle."""
        active = self._active
        if not active:
            return 0
        return self._step_units(sorted(active), cycle)

    def _step_units(self, units, cycle: int) -> int:
        """The router loop: run the pipeline of the ascending global
        *units* for *cycle*, one node at a time; returns how many nodes
        it visited.  A unit whose buffer drains leaves the active set.

        The loop visits each busy unit once, and a unit makes at most
        one transition per visit, so a transition made in *cycle* takes
        effect at the unit's next visit; that, and the ring delays, is
        the whole of the stage timing.  One pass over a node's units
        routes each head at RC inline and collects the VA requesters and
        the SA bidders.  Then VA grants output VCs to the requesters
        (inline for a lone unrestricted one; under speculative SA its
        fresh grants join the bidders in the same cycle), then SA
        (inline for a lone bidder), and every granted flit crosses the
        switch inline, in grant order.  Units a stuck-VC fault holds
        (``stuck``) are skipped.  With stall attribution attached, each
        unit that does not advance is charged one cause where it fails.
        """
        nodes = self._nodes
        num_vcs = self.num_vcs
        vc_state = self.vc_state
        vc_out_port = self.vc_out_port
        vc_held = self.vc_held
        vc_fifos = self.vc_fifos
        credit_returns = self.credit_returns
        out_owner = self.out_owner
        credits = self.credits
        link_units = self.link_units
        link_args = self.link_args
        next_routes = self.next_routes
        stuck = self.stuck
        port_names = self.port_names
        short_flit_hops = self.short_flit_hops
        rc_computations = self.rc_computations
        va_allocations = self.va_allocations
        sleep = self._active.discard
        va_allocate = self._va.allocate
        va1 = self._va.va1
        va2 = self._va.va2
        vc_range = range(num_vcs)
        sa_allocate = self._sa.allocate
        sa1 = self._sa.sa1
        sa2 = self._sa.sa2
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
        vc_discipline = self.routing.has_vc_discipline
        allowed_vcs = self.routing.allowed_vcs
        by_class = self.vc_by_class
        restricted = vc_discipline or by_class
        attrib = self.attribution
        rec = self.recorder
        decisions = None if rec is None else rec.decisions
        visited = 0
        for node, node_units in groupby(units, self.node_of_unit.__getitem__):
            visited += 1
            base, size, port_base, routes, switched = nodes[node]
            va_units = []
            bidders = []
            for i in node_units:
                if i in stuck:
                    # A stuck-VC fault holds this unit: it never advances.
                    if attrib is not None:
                        attrib.charge(
                            i,
                            STALL_SERIALIZATION
                            if vc_state[i] == _ACTIVE
                            else STALL_RC_WAIT,
                        )
                    continue
                state = vc_state[i]
                if state == _ACTIVE:
                    if vc_fifos[i]:
                        if credits[vc_held[i]] > 0:
                            bidders.append(i)
                        elif attrib is not None:
                            attrib.charge_credit(i, vc_out_port[i])
                elif state == _VA:
                    va_units.append(i)
                elif state == _RC:
                    if vc_fifos[i]:
                        # RC: the head flit's output port from the table.
                        flit = vc_fifos[i][0]
                        packet = flit.packet
                        out = routes[packet.dst]
                        if out < 0:
                            # Unroutable: the packet drains to ejection
                            # as a fault drop (flit conservation and
                            # credits stay intact), counted when its
                            # tail ejects.
                            packet.dropped = True
                            packet.drop_node = node
                            vc_out_port[i] = port_base
                        else:
                            vc_out_port[i] = port_base + out
                        vc_state[i] = _VA
                        rc_computations[node] += 1
                        # A sampled-out pid (mapped to 0) costs a dict
                        # probe and no call; an unseen pid calls
                        # through, which admits it.
                        if rec is not None and decisions.get(packet.pid, 1):
                            rec.on_stage(cycle, node, flit, "rc")
                else:
                    # An idle unit holds no work.
                    sleep(i)

            if va_units:
                if len(va_units) == 1 and not restricted:
                    # A lone, unrestricted requester, granted inline the
                    # way VirtualChannelAllocator.allocate would: VA1
                    # takes the first free output VC from its pointer,
                    # and both pointers move just past the grant.
                    grants = {}
                    i = va_units[0]
                    first = vc_out_port[i] * num_vcs
                    v = va1[i]
                    for _ in vc_range:
                        if out_owner[first + v] is None:
                            va1[i] = v + 1 if v + 1 < num_vcs else 0
                            va2[first + v] = (i - base + 1) % size
                            grants[first + v] = i
                            break
                        v = v + 1 if v + 1 < num_vcs else 0
                else:
                    # VA: each requester may take only its allowed
                    # output VCs — the routing's VC discipline (``None``
                    # there means unrestricted, e.g. at ejection), or its
                    # class VC.
                    allowed = None
                    if vc_discipline:
                        allowed = []
                        for i in va_units:
                            packet = vc_fifos[i][0].packet
                            allowed.append(allowed_vcs(
                                packet.src, packet.dst, node,
                                port_names[node][vc_out_port[i] - port_base],
                            ))
                    elif by_class:
                        allowed = [
                            (CLASS_VC[vc_fifos[i][0].packet.klass],)
                            for i in va_units
                        ]
                    grants = va_allocate(
                        va_units, vc_out_port, out_owner, allowed, base, size
                    )
                # Commit every grant in the allocator's order.
                for key, i in grants.items():
                    vc_held[i] = key
                    vc_state[i] = _ACTIVE
                    out_owner[key] = i
                    if rec is not None:
                        flit = vc_fifos[i][0]
                        if decisions.get(flit.packet.pid, 1):
                            rec.on_stage(cycle, node, flit, "va")
                va_allocations[node] += len(grants)
                if attrib is not None and len(grants) < len(va_units):
                    won = set(grants.values())
                    for i in va_units:
                        if i not in won:
                            attrib.charge(i, STALL_VA_CONFLICT)

                if grants and speculative:
                    # Speculative SA (Fig. 8b): a freshly granted VC bids for
                    # the crossbar in the same cycle.  A failed bid is a
                    # credit stall: the VA grant landed but downstream is
                    # full.
                    joined = False
                    for i in va_units:
                        if vc_state[i] == _ACTIVE and vc_fifos[i]:
                            if credits[vc_held[i]] > 0:
                                bidders.append(i)
                                joined = True
                            elif attrib is not None:
                                attrib.charge_credit(i, vc_out_port[i])
                    if joined:
                        bidders.sort()

            if not bidders:
                continue
            if len(bidders) == 1:
                # The sole contender of its SA1 and SA2 arbitrations:
                # both pointers move just past it, the state
                # SwitchAllocator.allocate would leave behind.
                granted = bidders
                i = bidders[0]
                in_port = i // num_vcs
                sa1[in_port] = (i + 1) % num_vcs
                sa2[vc_out_port[i]] = (
                    (in_port - port_base + 1) % (size // num_vcs)
                )
            else:
                priority = None
                if qos:
                    priority = {
                        i: vc_fifos[i][0].packet.priority for i in bidders
                    }
                granted = sa_allocate(
                    bidders, vc_out_port, priority, base, size
                )

            # Switch traversal of every granted flit, in grant order.
            for i in granted:
                fifo = vc_fifos[i]
                flit = fifo.popleft()
                if not fifo:
                    sleep(i)
                k = flit.active_groups if shutdown else groups
                weight = w_table[k]
                # One buffer read + SA grant + crossbar traversal +
                # flit-hop.
                buffer_sums[1] += weight
                switched[k - 1] += 1
                if flit.active_groups == 1:
                    short_flit_hops[node] += 1
                if (
                    rec is not None
                    and flit.is_head
                    and decisions.get(flit.packet.pid, 1)
                ):
                    rec.on_stage(cycle, node, flit, "st")
                out_port = vc_out_port[i]
                held = vc_held[i]
                credit_return = credit_returns[i]
                if credit_return is not None:
                    credit_slot.append(credit_return)
                if out_port == port_base:
                    # Ejection (port 0 is local): one ST cycle, no link
                    # traversal.
                    ejection_slot.append(flit)
                else:
                    credits[held] -= 1
                    if credits[held] < 0:
                        raise RuntimeError(
                            f"router {node}: negative credit on port "
                            f"{out_port - port_base}"
                        )
                    if flit.is_head:
                        flit.packet.hops += 1
                        if lookahead:
                            # NRC: the route at the *next* router, looked
                            # up while the flit crosses the switch, and
                            # counted as one RC; an unroutable entry
                            # leaves the drop to that router's RC.
                            port = next_routes[out_port][flit.packet.dst]
                            if port < 0:
                                flit.lookahead_port = None
                            else:
                                flit.lookahead_port = port
                                rc_computations[node] += 1
                    kind, length_mm, port_flits = link_args[out_port]
                    port_flits[k - 1] += 1
                    mm_weighted[kind] += length_mm * weight
                    mm_by_layers[k] += length_mm
                    arrival_slot.append((link_units[held], flit))
                if flit.is_tail:
                    out_owner[held] = None
                    vc_out_port[i] = -1
                    vc_held[i] = -1
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
                        attrib.charge(i, STALL_SA_LOSS)
        return visited

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
                t1 - t0, t2 - t1, t3 - t2, stepped, len(self._nodes),
                sanitize_s=sanitize_s, telemetry_s=telemetry_s,
            )
        self.cycle = cycle + 1

    def run(self, cycles: int) -> None:
        """Advance the network by *cycles* clock cycles."""
        for _ in range(cycles):
            self.step()
