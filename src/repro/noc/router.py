"""The virtual-channel wormhole router pipeline.

Models the canonical four-stage pipeline of Fig. 8a — routing computation
(RC), virtual-channel allocation (VA), switch allocation (SA), switch
traversal (ST) — followed by link traversal (LT).  Head flits walk all
stages; body/tail flits inherit the route and VC and only arbitrate for
the switch, which is wormhole flow control.

Stage timing is enforced with per-VC ``ready_cycle`` stamps: a VC performs
at most one pipeline action per cycle.  With a switch-allocation grant at
cycle ``c`` the flit reaches the next router's input buffer ready for RC
at ``c + 2`` when ST and LT are merged (the 3DM/3DM-E single-stage
traversal of Fig. 8d) or ``c + 3`` otherwise, which yields the paper's
4-cycle vs 5-cycle per-hop latency.

Hot-path layout (the event-driven engine): per-VC pipeline state lives in
flat parallel arrays on the router — ``vc_state`` / ``vc_ready`` /
``vc_out_port`` / ``vc_out_vc`` / ``vc_fifos`` indexed by
``port * num_vcs + vc`` — not in per-VC objects.  Together with the
``Network.routers`` list this is a structure-of-arrays keyed by
``(node, port, vc)``: :meth:`step` runs tight loops over plain list
slots instead of chasing attributes through thousands of tiny objects.
Observers (sanitizer, telemetry sampler, tests) read and perturb those
same arrays directly, so there is one copy of the pipeline state.

Per-flit activity is tallied the same way: plain per-router ``int``
fields and lists (switched flits and buffer writes by active-layer
count, flits per output port and layer count, short-flit hops, RC and
VA operations) that :attr:`~repro.noc.network.Network.events` folds on
read.  Only the activity-weighted floats are summed into the network's
accumulator lists per flit, because their value depends on the order of
the adds.  Scheduled arrivals, credits and ejections go straight into
the network's event rings, so a router writes only its own state and
the network's lists.

The one pipeline hook is the network's trace recorder (aliased per
router as ``_recorder``): at a head flit's RC, VA and ST the router
probes the recorder's capture map and calls ``on_stage`` only for
packets not mapped to ``0``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.noc.allocator import SwitchAllocator, VirtualChannelAllocator
from repro.noc.packet import Flit, PacketClass
from repro.noc.routing import RoutingFunction
from repro.topology.base import LOCAL_PORT, LinkSpec, Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network

# Input-VC pipeline states.
_IDLE, _RC, _VA, _ACTIVE = 0, 1, 2, 3

#: Human-readable names for the input-VC pipeline states (sanitizer /
#: watchdog reports).
VC_STATE_NAMES = {_IDLE: "idle", _RC: "rc", _VA: "va", _ACTIVE: "active"}

#: Cycles from SA grant to the flit being RC-ready at the next router.
ST_LT_MERGED_CYCLES = 2
ST_LT_SPLIT_CYCLES = 3
#: Slots in each of the network's event rings (arrivals, credits,
#: ejections): an event due ``d`` cycles ahead lands in slot
#: ``(cycle + d) % EVENT_RING_SLOTS``, so every delay must be shorter
#: than the ring.  Credit return and ejection take one cycle.
EVENT_RING_SLOTS = 4
if not 1 <= ST_LT_MERGED_CYCLES <= ST_LT_SPLIT_CYCLES < EVENT_RING_SLOTS:
    raise ValueError(
        f"event delays 1..{ST_LT_SPLIT_CYCLES} do not fit "
        f"{EVENT_RING_SLOTS} ring slots"
    )

# Stall-attribution cause codes: every cycle a buffered head flit fails
# to advance is charged to exactly one of these.  The counters live in
# repro.telemetry.attribution.StallAttribution; the codes are defined
# here so the hot path never imports the telemetry package.
STALL_RC_WAIT = 0        # pipeline transit toward RC/VA readiness
STALL_VA_CONFLICT = 1    # requested an output VC, none granted
STALL_SA_LOSS = 2        # bid for the crossbar, lost switch allocation
STALL_CREDIT = 3         # output VC held but downstream buffer is full
STALL_SERIALIZATION = 4  # own wormhole cadence (one flit per cycle)
NUM_STALL_CAUSES = 5
STALL_CAUSE_NAMES = (
    "rc_wait", "va_conflict", "sa_loss", "credit_stall", "serialization"
)


class Router:
    """One NoC router instance.

    Created by :class:`~repro.noc.network.Network`; not normally
    instantiated directly.
    """

    def __init__(
        self,
        node: int,
        topology: Topology,
        routing: RoutingFunction,
        num_vcs: int,
        buffer_depth: int,
        combined_st_lt: bool,
        layer_groups: int,
        shutdown_enabled: bool,
        speculative_sa: bool = False,
        lookahead_rc: bool = False,
        qos_enabled: bool = False,
        vc_by_class: bool = False,
    ) -> None:
        self.node = node
        self.topology = topology
        self.routing = routing
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
        if vc_by_class and num_vcs < 2:
            raise ValueError("vc_by_class needs at least 2 virtual channels")
        #: Routing functions with a VC discipline (torus datelines,
        #: escape-layer tables) dictate the permissible out VCs per
        #: packet at VA time.
        self._vc_discipline = routing.has_vc_discipline
        if self._vc_discipline and vc_by_class:
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
        self._network: Optional["Network"] = None

        self.port_names: List[str] = topology.port_names(node)
        self.port_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.port_names)
        }
        self.num_ports = len(self.port_names)
        self.local_port = self.port_index[LOCAL_PORT]

        # Flat per-VC hot-path state, indexed by port * num_vcs + vc.
        units = self.num_ports * num_vcs
        self.vc_state: List[int] = [_IDLE] * units
        self.vc_ready: List[int] = [0] * units
        self.vc_out_port: List[int] = [-1] * units
        self.vc_out_vc: List[int] = [-1] * units
        #: One bounded flit FIFO per input VC, front at index 0;
        #: :meth:`receive_flit` enforces the depth.
        self.vc_fifos: List[Deque[Flit]] = [deque() for _ in range(units)]
        # Output-side state. Local output has effectively infinite credits
        # (the ejection sink always accepts); model with None.
        self.out_links: List[Optional[LinkSpec]] = [None] * self.num_ports
        for name, link in topology.out_ports[node].items():
            self.out_links[self.port_index[name]] = link
        self.credits: List[Optional[List[int]]] = []
        for p in range(self.num_ports):
            if p == self.local_port or self.out_links[p] is None:
                self.credits.append(None)
            else:
                self.credits.append([buffer_depth] * num_vcs)
        self.out_owner: List[List[Optional[Tuple[int, int]]]] = [
            [None] * num_vcs for _ in range(self.num_ports)
        ]

        self._va = VirtualChannelAllocator(self.num_ports, num_vcs)
        self._sa = SwitchAllocator(self.num_ports, num_vcs)
        self._hop_cycles = (
            ST_LT_MERGED_CYCLES if combined_st_lt else ST_LT_SPLIT_CYCLES
        )
        #: Activity weight k/L for each effective layer count k (index
        #: 0 unused) — the same dyadic float the legacy per-event
        #: division produced, computed once.
        self._w_table = [k / layer_groups for k in range(layer_groups + 1)]
        #: Histogram of switched flits by *effective* active-layer count:
        #: index ``k-1`` counts traversals that drove exactly ``k``
        #: datapath layers (k = flit.active_groups with shutdown enabled,
        #: else layer_groups).  One switched flit is one buffer read, one
        #: SA grant, one crossbar traversal and one flit-hop, so this also
        #: yields those network counters; it feeds the per-router-per-layer
        #: power maps handed to the thermal model.
        self.flits_switched_by_layers = [0] * layer_groups
        #: Buffer writes by effective active-layer count (index ``k-1``).
        self.writes_by_layers = [0] * layer_groups
        #: Link flits per output port by effective active-layer count:
        #: ``port_flits[port][k - 1]`` (the local port's row stays zero).
        self.port_flits = [[0] * layer_groups for _ in range(self.num_ports)]
        #: Switched flits that carried a single active word group.
        self.short_flit_hops = 0
        #: Route computations (look-ahead ones included) and granted
        #: output VCs.
        self.rc_computations = 0
        self.va_allocations = 0
        # Flat indices of input VCs that may have work this cycle.
        self._active: set[int] = set()
        # The network's trace recorder (``network.recorder``), aliased
        # here by TraceRecorder.attach; None (the default) costs one
        # ``is not None`` test per RC, VA grant and switch traversal.
        self._recorder = None
        # How many input VCs sit in each non-idle pipeline state.  Kept
        # in lockstep with the state transitions so :meth:`step` can skip
        # whole stages that cannot match any VC (a pass over zero
        # matching units is a no-op, so skipping it is bit-identical).
        self._n_rc = 0
        self._n_va = 0
        self._n_active = 0
        # Stall attribution (repro.telemetry.attribution).  Detached —
        # the default — everything stays None and the hot path pays one
        # ``is not None`` test on stall branches only; StallAttribution
        # aliases its flat count arrays here on attach.
        self._attrib = None
        self._stall_counts = None
        self._stall_base = 0
        self._stall_out_counts = None
        self._stall_out_base = 0
        self._stall_layer_counts = None
        #: This router's next-port row (``routes[dst]``: output-port
        #: index, ``-1`` = unroutable) — an alias of
        #: ``network.routes[node]``, bound in :meth:`attach` and rebuilt
        #: in place on a link kill.
        self.routes: List[int] = []

    @property
    def flits_switched(self) -> int:
        """Flits this router has switched (per-node power/thermal maps)."""
        return sum(self.flits_switched_by_layers)

    def attach(self, network: "Network") -> None:
        self._network = network
        self.routes = network.routes[self.node]
        # Pre-resolve (dst node, dst input port) per output port so the
        # traversal hot path skips the per-flit string port lookups, and
        # the per-link accounting arguments (link-kind index, length,
        # ``port_flits`` row) likewise.  The downstream router's row per
        # output port feeds look-ahead RC.
        self._arrival_targets: List[Optional[Tuple[int, int]]] = []
        self._link_args: List[Optional[Tuple[int, float, List[int]]]] = []
        self._next_routes: List[Optional[list]] = []
        for port, link in enumerate(self.out_links):
            if link is None:
                self._arrival_targets.append(None)
                self._link_args.append(None)
                self._next_routes.append(None)
            else:
                dst_router = network.routers[link.dst]
                self._arrival_targets.append(
                    (link.dst, dst_router.port_index[link.dst_port])
                )
                self._next_routes.append(network.routes[link.dst])
                self._link_args.append((
                    network.link_kinds.index(link.kind.value),
                    link.length_mm,
                    self.port_flits[port],
                ))
        # The network-wide float accumulators (see Network.events).
        self._buffer_weighted = network.buffer_weighted_sums
        self._link_mm_weighted = network.link_mm_weighted_sums
        self._link_mm_by_layers = network.link_mm_by_layers_sums
        # The network's event rings (the ring lists are stable; the
        # network swaps only the slot it delivers) and active-router set.
        self._arr_slots = network.arrival_slots
        self._credit_slots = network.credit_slots
        self._ej_slots = network.ejection_slots
        self._wake_add = network._active_routers.add
        self._upstream = network._credit_targets[self.node]

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _class_vc(flit: Flit) -> int:
        """VC dedicated to this flit's traffic class: 0 ctrl, 1 data."""
        return 1 if flit.packet.klass is PacketClass.DATA else 0

    def _look_ahead(self, flit: Flit, row: list) -> None:
        """Look-ahead RC (Fig. 8c): stamp head *flit* with its output
        port at the router *row* belongs to, counted as one RC.  An
        unroutable entry leaves the drop to that router's RC stage."""
        port = row[flit.packet.dst]
        if port < 0:
            flit.lookahead_port = None
        else:
            flit.lookahead_port = port
            self.rc_computations += 1

    def _drop_route(self, flit: Flit) -> int:
        """Mark *flit*'s packet as a fault drop; route it to ejection.

        The packet drains through the normal wormhole/ejection path (so
        flit conservation and credit accounting stay intact) and is
        counted by ``NetworkStats.note_dropped`` when its tail ejects.
        """
        packet = flit.packet
        packet.dropped = True
        packet.drop_node = self.node
        return self.local_port

    def free_local_vc(self) -> Optional[int]:
        """An idle, empty local-port VC available for injection."""
        base = self.local_port * self.num_vcs
        vc_state = self.vc_state
        vc_fifos = self.vc_fifos
        for v in range(self.num_vcs):
            i = base + v
            if vc_state[i] == _IDLE and not vc_fifos[i]:
                return v
        return None

    def free_local_vc_is(self, vc: int) -> bool:
        """True when the specific local VC is idle and empty."""
        i = self.local_port * self.num_vcs + vc
        return self.vc_state[i] == _IDLE and not self.vc_fifos[i]

    def local_vc_has_space(self, vc: int) -> bool:
        fifo = self.vc_fifos[self.local_port * self.num_vcs + vc]
        return len(fifo) < self.buffer_depth

    def is_quiescent(self) -> bool:
        """True when :meth:`step` would be a no-op this cycle and every
        following cycle until a flit arrives.

        A VC leaves ``_active`` only when its buffer has drained and it
        holds no pending RC/VA/SA work, so an empty active set means
        every VC is either ``_IDLE`` or waiting on an upstream flit —
        the network's active-set scheduler deactivates the router then
        and :meth:`receive_flit` wakes it again."""
        return not self._active

    def occupancy(self) -> int:
        """Total buffered flits, across all input VCs."""
        return sum(len(fifo) for fifo in self.vc_fifos)

    # -- flit reception ----------------------------------------------------

    def receive_flit(self, port: int, vc: int, flit: Flit, cycle: int) -> None:
        """Write an arriving flit into its input VC buffer."""
        i = port * self.num_vcs + vc
        fifo = self.vc_fifos[i]
        if len(fifo) >= self.buffer_depth:
            raise OverflowError(
                "buffer overflow: credit-based flow control should make this "
                "impossible"
            )
        fifo.append(flit)
        # Effective active-layer count: with shutdown disabled every
        # layer switches regardless of payload.  k/layer_groups is the
        # activity weight (exactly 1.0 when k == layer_groups).
        k = flit.active_groups if self.shutdown_enabled else self.layer_groups
        self._buffer_weighted[0] += self._w_table[k]
        self.writes_by_layers[k - 1] += 1
        if self.vc_state[i] == _IDLE:
            if not flit.is_head:
                raise RuntimeError(
                    f"router {self.node}: body flit arrived on idle VC "
                    f"({port},{vc}); wormhole ordering violated"
                )
            if self.lookahead_rc and flit.lookahead_port is not None:
                port_idx = flit.lookahead_port
                if port_idx != self.routes[flit.packet.dst]:
                    # The table was rebuilt while the flit was in flight
                    # (a link died): the precomputed route is stale, so
                    # recompute in RC.
                    self.vc_state[i] = _RC
                    self._n_rc += 1
                else:
                    # The route travelled with the flit: skip to VA.
                    self.vc_out_port[i] = port_idx
                    self.vc_state[i] = _VA
                    self._n_va += 1
            else:
                self.vc_state[i] = _RC
                self._n_rc += 1
            self.vc_ready[i] = cycle
        self._active.add(i)
        # Wakeup protocol: every flit reception (re-)activates this
        # router with the network's scheduler.
        self._wake_add(self.node)

    def receive_credit(self, port: int, vc: int) -> None:
        credits = self.credits[port]
        if credits is None:
            raise RuntimeError(f"credit for local/unconnected port {port}")
        credits[vc] += 1
        if credits[vc] > self.buffer_depth:
            raise RuntimeError(
                f"router {self.node}: credit overflow on port {port} vc {vc}"
            )

    # -- stall attribution -------------------------------------------------

    def _charge_stall(self, i: int, cause: int) -> None:
        """Charge one stalled cycle on flat unit *i* to *cause*.

        Called only with attribution attached, and only from the failure
        branches of :meth:`step`: a unit whose head flit advanced this
        cycle is never charged, and a unit with a drained FIFO holds no
        head flit that could stall, so it is skipped.  Counter writes
        only — attribution never perturbs pipeline state, so enabled
        runs stay bit-identical.
        """
        fifo = self.vc_fifos[i]
        if not fifo:
            return
        self._stall_counts[
            self._stall_base + i * NUM_STALL_CAUSES + cause
        ] += 1
        flit = fifo[0]
        k = flit.active_groups if self.shutdown_enabled else self.layer_groups
        self._stall_layer_counts[(k - 1) * NUM_STALL_CAUSES + cause] += 1

    def _charge_credit_stall(self, i: int, out_port: int) -> None:
        """Credit starvation is additionally billed to the starved
        output port, so backpressure chains can be followed link by
        link (which upstream hop this stall propagates from)."""
        if self.vc_fifos[i]:
            self._charge_stall(i, STALL_CREDIT)
            self._stall_out_counts[self._stall_out_base + out_port] += 1

    # -- pipeline ----------------------------------------------------------

    def step(self, cycle: int) -> None:
        active = self._active
        if not active:
            return
        if len(active) == 1:
            # Dominant case (one VC streaming): dispatch on its state
            # directly, skipping the sort and the three stage scans.
            # Stage behaviour, arbiter pointer updates, and counter
            # maintenance are identical to the general path below.
            (i,) = active
            if self.vc_ready[i] > cycle:
                if self._attrib is not None:
                    self._charge_stall(
                        i,
                        STALL_SERIALIZATION
                        if self.vc_state[i] == _ACTIVE
                        else STALL_RC_WAIT,
                    )
                return
            state = self.vc_state[i]
            if state == _RC:
                self._route(i, cycle)
                return
            if state == _VA:
                if not self._va_stage((i,), cycle) or not self.speculative_sa:
                    return
                # Speculative SA (Fig. 8b): the freshly granted VC bids
                # for the crossbar in the same cycle.  A failed bid is a
                # credit stall: the VA grant landed but downstream is
                # full.
            out_port = self.vc_out_port[i]
            credits = self.credits[out_port]
            if credits is None or credits[self.vc_out_vc[i]] > 0:
                self._sa_win(i, i // self.num_vcs, cycle)
            elif self._attrib is not None:
                self._charge_credit_stall(i, out_port)
            return
        order = sorted(active)
        vc_state = self.vc_state
        vc_ready = self.vc_ready
        vc_out_port = self.vc_out_port
        vc_out_vc = self.vc_out_vc
        vc_fifos = self.vc_fifos
        num_vcs = self.num_vcs
        attrib = self._attrib
        if attrib is not None:
            # Attribution pre-pass: units stamped ready in the future
            # are in pipeline transit and the stage scans below never
            # visit them, so their stalled cycle is charged here — to
            # their own wormhole cadence when streaming (_ACTIVE), to
            # rc_wait while a head works toward VA readiness.
            for i in order:
                if vc_ready[i] > cycle:
                    self._charge_stall(
                        i,
                        STALL_SERIALIZATION
                        if vc_state[i] == _ACTIVE
                        else STALL_RC_WAIT,
                    )

        # --- RC stage --- (skipped when no VC is in the RC state; an
        # empty pass is a no-op, so the skip is bit-identical)
        if self._n_rc:
            for i in order:
                if vc_state[i] == _RC and vc_ready[i] <= cycle:
                    self._route(i, cycle)

        # --- VA stage ---
        if self._n_va:
            va_units = [
                i
                for i in order
                if vc_state[i] == _VA and vc_ready[i] <= cycle
            ]
            if va_units:
                self._va_stage(va_units, cycle)

        # --- SA + ST stage ---
        if self._n_active:
            credits_by_port = self.credits
            sa_units: List[int] = []
            for i in order:
                if (
                    vc_state[i] == _ACTIVE
                    and vc_ready[i] <= cycle
                    and vc_fifos[i]  # non-empty; hot-path inline
                ):
                    credits = credits_by_port[vc_out_port[i]]
                    if credits is None or credits[vc_out_vc[i]] > 0:
                        sa_units.append(i)
                    elif attrib is not None:
                        self._charge_credit_stall(i, vc_out_port[i])
            n_sa = len(sa_units)
            if n_sa == 1:
                i = sa_units[0]
                self._sa_win(i, i // num_vcs, cycle)
            elif n_sa:
                self._sa_stage(sa_units, cycle)

        # No end-of-step prune: a VC leaves ``_active`` the moment its
        # last buffered flit is popped (in ``_traverse_flat``), so every
        # unit in the set has a non-empty FIFO at step entry — the same
        # membership the legacy end-of-cycle prune produced.

    def _route(self, i: int, cycle: int) -> None:
        """RC stage for flat unit *i*: pick the head flit's output port
        and move the unit on to VA."""
        fifo = self.vc_fifos[i]
        if not fifo:
            return
        flit = fifo[0]
        out = self.routes[flit.packet.dst]
        if out < 0:
            out = self._drop_route(flit)
        self.vc_out_port[i] = out
        self.vc_state[i] = _VA
        self.vc_ready[i] = cycle + 1
        self._n_rc -= 1
        self._n_va += 1
        self.rc_computations += 1
        # Trace hook.  The recorder's capture map is probed here, so a
        # sampled-out pid (mapped to 0) costs a dict probe and no call;
        # an unseen pid calls through, which admits it.
        rec = self._recorder
        if rec is not None and rec.decisions.get(flit.packet.pid, 1):
            rec.on_stage(cycle, self.node, flit, "rc")

    def _sa_win(self, i: int, in_port: int, cycle: int) -> None:
        """Grant flat unit *i* the crossbar as the sole contender of its
        SA1 and SA2 arbitrations and traverse it.

        A round-robin pointer moves just past whoever it grants, so both
        updates are rotations — the state :class:`SwitchAllocator` would
        leave behind.
        """
        sa = self._sa
        sa.sa1[in_port] = (i + 1) % self.num_vcs
        sa.sa2[self.vc_out_port[i]] = (in_port + 1) % self.num_ports
        self._traverse_flat(i, in_port, cycle)

    def _sa_stage(self, sa_units: List[int], cycle: int) -> None:
        """Contended switch allocation: traverse the allocator's grants
        in its order and charge every loser one ``sa_loss`` stall."""
        priority = None
        if self.qos_enabled:
            vc_fifos = self.vc_fifos
            priority = {i: vc_fifos[i][0].packet.priority for i in sa_units}
        granted = self._sa.allocate(sa_units, self.vc_out_port, priority)
        num_vcs = self.num_vcs
        for i in granted:
            self._traverse_flat(i, i // num_vcs, cycle)
        if self._attrib is not None and len(granted) < len(sa_units):
            won = set(granted)
            for i in sa_units:
                if i not in won:
                    self._charge_stall(i, STALL_SA_LOSS)

    def _allowed_vcs(self, i: int) -> Optional[Tuple[int, ...]]:
        """Output-VC restriction for the head flit of flat unit *i*."""
        fifo = self.vc_fifos[i]
        if not fifo:
            return None
        if self._vc_discipline:
            packet = fifo[0].packet
            vcs = self.routing.allowed_vcs(
                packet.src, packet.dst, self.node,
                self.port_names[self.vc_out_port[i]],
            )
            # None from the discipline means "unrestricted here" (e.g.
            # ejection ports) — same meaning as no discipline.
            return None if vcs is None else tuple(vcs)
        if self.vc_by_class:
            return (self._class_vc(fifo[0]),)
        return None

    def _va_stage(self, va_units, cycle: int) -> bool:
        """VC allocation for the ready requesters *va_units*
        (ascending): commit every grant in the allocator's order and
        charge every loser one ``va_conflict`` stall.  True when any VC
        was granted."""
        allowed = None
        if self._vc_discipline or self.vc_by_class:
            allowed = [self._allowed_vcs(i) for i in va_units]
        grants = self._va.allocate(
            va_units, self.vc_out_port, self.out_owner, allowed
        )
        num_vcs = self.num_vcs
        # Speculative switch allocation (Fig. 8b): the flit bids for the
        # crossbar in the same cycle its VC is granted.
        ready = cycle if self.speculative_sa else cycle + 1
        rec = self._recorder
        for key, i in grants.items():
            self.vc_out_vc[i] = key % num_vcs
            self.vc_state[i] = _ACTIVE
            self.vc_ready[i] = ready
            self.out_owner[key // num_vcs][key % num_vcs] = divmod(i, num_vcs)
            if rec is not None:
                fifo = self.vc_fifos[i]
                if fifo and rec.decisions.get(fifo[0].packet.pid, 1):
                    rec.on_stage(cycle, self.node, fifo[0], "va")
        granted = len(grants)
        self._n_va -= granted
        self._n_active += granted
        self.va_allocations += granted
        if self._attrib is not None and granted < len(va_units):
            won = set(grants.values())
            for i in va_units:
                if i not in won:
                    self._charge_stall(i, STALL_VA_CONFLICT)
        return granted > 0

    def _traverse_flat(self, i: int, in_port: int, cycle: int) -> None:
        """Move one flit through the crossbar and onto its output."""
        fifo = self.vc_fifos[i]
        flit = fifo.popleft()
        if not fifo:
            # Drained: deactivate now (replaces the end-of-step prune).
            self._active.discard(i)
        # Effective active-layer count (see receive_flit); k/layer_groups
        # is the legacy activity weight, inlined for the hot path.
        k = flit.active_groups if self.shutdown_enabled else self.layer_groups
        weight = self._w_table[k]
        # One buffer read + SA grant + crossbar traversal + flit-hop.
        self._buffer_weighted[1] += weight
        self.flits_switched_by_layers[k - 1] += 1
        if flit.active_groups == 1:
            self.short_flit_hops += 1
        rec = self._recorder
        if (
            rec is not None
            and flit.is_head
            and rec.decisions.get(flit.packet.pid, 1)
        ):
            rec.on_stage(cycle, self.node, flit, "st")

        out_port = self.vc_out_port[i]
        out_vc = self.vc_out_vc[i]
        credits = self.credits[out_port]
        if credits is not None:
            credits[out_vc] -= 1
            if credits[out_vc] < 0:
                raise RuntimeError(
                    f"router {self.node}: negative credit on port {out_port}"
                )
        if in_port != self.local_port:
            # Credit return, one cycle upstream-bound.
            upstream = self._upstream[in_port]
            self._credit_slots[(cycle + 1) % EVENT_RING_SLOTS].append(
                (upstream[0], upstream[1], i - in_port * self.num_vcs)
            )

        if out_port == self.local_port:
            # Ejection: one ST cycle, no link traversal.
            self._ej_slots[(cycle + 1) % EVENT_RING_SLOTS].append(flit)
        else:
            if flit.is_head:
                flit.packet.hops += 1
                if self.lookahead_rc:
                    # NRC: look up the route for the *next* router while
                    # the flit crosses the switch (off the critical path).
                    self._look_ahead(flit, self._next_routes[out_port])
            kind, length_mm, port_flits = self._link_args[out_port]
            port_flits[k - 1] += 1
            self._link_mm_weighted[kind] += length_mm * weight
            self._link_mm_by_layers[k] += length_mm
            dst, dst_port = self._arrival_targets[out_port]
            slot = (cycle + self._hop_cycles) % EVENT_RING_SLOTS
            self._arr_slots[slot].append((dst, dst_port, out_vc, flit))

        if flit.is_tail:
            self.out_owner[out_port][out_vc] = None
            self.vc_out_port[i] = -1
            self.vc_out_vc[i] = -1
            self._n_active -= 1
            if not fifo:
                self.vc_state[i] = _IDLE
            else:
                nxt = fifo[0]
                if not nxt.is_head:
                    raise RuntimeError(
                        f"router {self.node}: non-head flit follows tail in VC"
                    )
                self.vc_state[i] = _RC
                self.vc_ready[i] = cycle + 1
                self._n_rc += 1
        else:
            self.vc_ready[i] = cycle + 1
