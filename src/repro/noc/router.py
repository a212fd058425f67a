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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.noc.allocator import (
    SARequest,
    SwitchAllocator,
    VARequest,
    VirtualChannelAllocator,
)
from repro.noc.buffer import VirtualChannelBuffer
from repro.noc.packet import Flit, PacketClass
from repro.noc.routing import RoutingFunction
from repro.noc.stats import EventCounts
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
        events: EventCounts,
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
        self.events = events
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
        #: Adaptive routing functions offer several productive ports; the
        #: RC stage then picks the one with the most downstream credits.
        #: These capability flags are part of the RoutingFunction
        #: protocol (RoutingBase supplies defaults), so no getattr
        #: duck-typing probes are needed.
        self._adaptive = routing.is_adaptive
        if self._adaptive and lookahead_rc:
            raise ValueError(
                "look-ahead RC precomputes one port; adaptive routing "
                "chooses among candidates at RC time"
            )
        #: Routing functions with a VC discipline (torus datelines,
        #: escape-layer tables) dictate the permissible out VCs per
        #: packet at VA time.
        self._vc_discipline = routing.has_vc_discipline
        if self._vc_discipline and vc_by_class:
            raise ValueError(
                "vc_by_class cannot be combined with a routing VC discipline"
            )
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
        self.vc_buffers: List[VirtualChannelBuffer] = [
            VirtualChannelBuffer(buffer_depth) for _ in range(units)
        ]
        #: Aliases of ``vc_buffers[i].fifo`` — the engine tests emptiness
        #: and pops through these without touching the buffer objects.
        self.vc_fifos = [buf.fifo for buf in self.vc_buffers]
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
        # Pre-resolved arbiter objects so the fast paths rotate pointers
        # without dict lookups (same instances the allocators scan).
        self._va1_arbs = [
            self._va._va1[(p, v)]
            for p in range(self.num_ports)
            for v in range(num_vcs)
        ]
        self._va2_arbs = [
            self._va._va2[(p, v)]
            for p in range(self.num_ports)
            for v in range(num_vcs)
        ]
        self._sa1_arbs = list(self._sa._sa1)
        self._sa2_arbs = list(self._sa._sa2)
        self._hop_cycles = (
            ST_LT_MERGED_CYCLES if combined_st_lt else ST_LT_SPLIT_CYCLES
        )
        #: Activity weight k/L for each effective layer count k (index
        #: 0 unused) — the same dyadic float the legacy per-event
        #: division produced, computed once.
        self._w_table = [k / layer_groups for k in range(layer_groups + 1)]
        #: Flits this router has switched (for per-node power/thermal maps).
        self.flits_switched = 0
        #: Histogram of switched flits by *effective* active-layer count:
        #: index ``k-1`` counts traversals that drove exactly ``k``
        #: datapath layers (k = flit.active_groups with shutdown enabled,
        #: else layer_groups).  Feeds the per-router-per-layer power maps
        #: handed to the thermal model.
        self.flits_switched_by_layers = [0] * layer_groups
        # Flat indices of input VCs that may have work this cycle.
        self._active: set[int] = set()
        # Alias of network.stage_callbacks (bound in attach); empty list
        # until then so an unattached router never fires hooks.
        self._stage_callbacks: List = []
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
        #: index, ``-1`` = unroutable, a candidate tuple for adaptive
        #: routing) — an alias of ``network.routes[node]``, bound in
        #: :meth:`attach` and rebuilt in place on a link kill.
        self.routes: list = []

    def attach(self, network: "Network") -> None:
        self._network = network
        # Same list object the network mutates: callbacks registered
        # later are seen here without re-attachment.
        self._stage_callbacks = network.stage_callbacks
        self.routes = network.routes[self.node]
        # Pre-resolve (dst node, dst input port) per output port so the
        # traversal hot path skips the per-flit string port lookups, and
        # the per-link ``EventCounts.count_link`` arguments likewise.
        # The downstream router's row per output port feeds look-ahead RC.
        self._arrival_targets: List[Optional[Tuple[int, int]]] = []
        self._link_args: List[Optional[Tuple[str, float, Tuple[int, int]]]] = []
        self._next_routes: List[Optional[list]] = []
        for link in self.out_links:
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
                self._link_args.append(
                    (link.kind.value, link.length_mm, (link.src, link.dst))
                )
        # Direct slot aliases into the network's timing wheels and
        # active-router set.  Every in-simulator delay (credit return 1,
        # ejection 1, hop 2-3) is far inside the wheel horizon, so the
        # traversal hot path appends into the due slot directly instead
        # of going through TimingWheel.push; the wheels' slot *list*
        # objects are stable (pop_due swaps the inner lists only).
        self._arr_slots = network._arrivals._slots
        self._arr_size = network._arrivals._size
        self._credit_slots = network._credits._slots
        self._credit_size = network._credits._size
        self._ej_slots = network._ejections._slots
        self._ej_size = network._ejections._size
        self._wake_add = network._active_routers.add
        self._upstream = network._credit_targets[self.node]

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _class_vc(flit: Flit) -> int:
        """VC dedicated to this flit's traffic class: 0 ctrl, 1 data."""
        return 1 if flit.packet.klass is PacketClass.DATA else 0

    def _pick_adaptive_port(self, candidates: Tuple[int, ...]) -> int:
        """Most-credited candidate port (ties keep preference order);
        ``-1`` when the table left no candidate (a counted drop)."""
        best_idx = -1
        best_score = -1
        for idx in candidates:
            credits = self.credits[idx]
            score = (1 << 30) if credits is None else sum(credits)
            if score > best_score:
                best_idx, best_score = idx, score
        return best_idx

    def _look_ahead(self, flit: Flit, row: list) -> None:
        """Look-ahead RC (Fig. 8c): stamp head *flit* with its output
        port at the router *row* belongs to, counted as one RC.  An
        unroutable entry leaves the drop to that router's RC stage."""
        port = row[flit.packet.dst]
        if port < 0:
            flit.lookahead_port = None
        else:
            flit.lookahead_port = port
            self.events.rc_computations += 1

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
        # VirtualChannelBuffer.push, inlined for the hot path (the
        # buffer's write counter stays truthful for power accounting).
        fifo = self.vc_fifos[i]
        if len(fifo) >= self.buffer_depth:
            raise OverflowError(
                "buffer overflow: credit-based flow control should make this "
                "impossible"
            )
        fifo.append(flit)
        self.vc_buffers[i].writes += 1
        ev = self.events
        # Effective active-layer count: with shutdown disabled every
        # layer switches regardless of payload.  k/layer_groups is the
        # activity weight (exactly 1.0 when k == layer_groups), so the
        # layer histogram and the weighted float stay mutually
        # consistent bit-for-bit.
        k = flit.active_groups if self.shutdown_enabled else self.layer_groups
        ev.buffer_writes += 1
        ev.buffer_writes_weighted += self._w_table[k]
        by_layers = ev.buffer_writes_by_layers
        by_layers[k] = by_layers.get(k, 0) + 1
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
        if self._network is not None:
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
                if not self._va_single(i, cycle):
                    if self._attrib is not None:
                        self._charge_stall(i, STALL_VA_CONFLICT)
                    return
                if not self.speculative_sa:
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
            if len(va_units) == 1:
                if (
                    not self._va_single(va_units[0], cycle)
                    and attrib is not None
                ):
                    self._charge_stall(va_units[0], STALL_VA_CONFLICT)
            elif va_units:
                requests = [
                    VARequest(
                        i // num_vcs,
                        i % num_vcs,
                        vc_out_port[i],
                        self._allowed_vcs(i, vc_out_port[i], vc_fifos),
                    )
                    for i in va_units
                ]
                free = {
                    req.out_port: [
                        owner is None for owner in self.out_owner[req.out_port]
                    ]
                    for req in requests
                }
                grants = self._va.allocate(requests, free)
                for (in_port, in_vc), (out_port, out_vc) in grants.items():
                    self._apply_va_grant(
                        in_port * num_vcs + in_vc, out_port, out_vc, cycle
                    )
                if attrib is not None and len(grants) < len(va_units):
                    for i in va_units:
                        if (i // num_vcs, i % num_vcs) not in grants:
                            self._charge_stall(i, STALL_VA_CONFLICT)

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
            elif n_sa == 2:
                # Two requesters, resolved here with the separable
                # allocator's exact round-robin outcome.
                a, b = sa_units
                a_port, b_port = a // num_vcs, b // num_vcs
                out_a = vc_out_port[a]
                if a_port != b_port and out_a != vc_out_port[b]:
                    # Disjoint input and output ports never conflict:
                    # each is the sole contender in its SA1/SA2 arbiters.
                    self._sa_win(a, a_port, cycle)
                    self._sa_win(b, b_port, cycle)
                elif self.qos_enabled:
                    # Priority filtering can reshape either arbitration;
                    # keep the allocator's general path authoritative.
                    self._sa_general(sa_units, cycle)
                else:
                    # A round-robin arbiter grants the requester it
                    # reaches first counting up from its pointer.
                    if a_port == b_port:
                        # Two VCs of one input port: SA1 arbitrates, the
                        # winner is then sole contender at its output.
                        nxt = self._sa1_arbs[a_port]._next
                        if (a - nxt) % num_vcs < (b - nxt) % num_vcs:
                            winner, loser = a, b
                        else:
                            winner, loser = b, a
                    else:
                        # Two input ports contending for one output port:
                        # SA2 picks the input port.  Each requester won
                        # its own SA1, so the loser's pointer rotates too.
                        nxt = self._sa2_arbs[out_a]._next
                        n = self.num_ports
                        if (a_port - nxt) % n < (b_port - nxt) % n:
                            winner, loser, l_port = a, b, b_port
                        else:
                            winner, loser, l_port = b, a, a_port
                        self._sa1_arbs[l_port]._next = (
                            loser - l_port * num_vcs + 1
                        ) % num_vcs
                    self._sa_win(winner, winner // num_vcs, cycle)
                    if attrib is not None:
                        self._charge_stall(loser, STALL_SA_LOSS)
            elif n_sa:
                self._sa_general(sa_units, cycle)

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
        if self._adaptive:
            out = self._pick_adaptive_port(out)
        if out < 0:
            out = self._drop_route(flit)
        self.vc_out_port[i] = out
        self.vc_state[i] = _VA
        self.vc_ready[i] = cycle + 1
        self._n_rc -= 1
        self._n_va += 1
        self.events.rc_computations += 1
        if self._stage_callbacks:
            self._fire_stage(cycle, flit, "rc")

    def _fire_stage(self, cycle: int, flit: Flit, stage: str) -> None:
        """Run the stage hooks for one head-flit ``"rc"`` / ``"va"`` /
        ``"st"`` event.  Call-site drop filter: a dict probe instead of
        a Python call per hook for sampled-out pids."""
        drop = self._network.trace_drop_filter
        if drop is None or drop.get(flit.packet.pid, 1):
            for callback in self._stage_callbacks:
                callback(cycle, self.node, flit, stage)

    def _sa_win(self, i: int, in_port: int, cycle: int) -> None:
        """Grant flat unit *i* the crossbar as the sole winner of its SA1
        and SA2 arbitrations and traverse it.

        A round-robin arbiter's pointer moves just past whoever it
        grants, so both pointer updates are rotations — the same state
        :class:`SwitchAllocator` leaves behind.
        """
        num_vcs = self.num_vcs
        self._sa1_arbs[in_port]._next = (i - in_port * num_vcs + 1) % num_vcs
        self._sa2_arbs[self.vc_out_port[i]]._next = (
            in_port + 1
        ) % self.num_ports
        self._traverse_flat(i, in_port, cycle)

    def _allowed_vcs(
        self, i: int, out_port: int, vc_fifos
    ) -> Optional[Tuple[int, ...]]:
        """Output-VC restriction for the head flit of flat unit *i*."""
        if self._vc_discipline:
            fifo = vc_fifos[i]
            if fifo:
                vcs = self.routing.allowed_vcs(
                    fifo[0], self.node, self.port_names[out_port]
                )
                # None from the discipline means "unrestricted here"
                # (e.g. ejection ports) — same meaning as no discipline.
                return None if vcs is None else tuple(vcs)
        elif self.vc_by_class:
            fifo = vc_fifos[i]
            if fifo:
                return (self._class_vc(fifo[0]),)
        return None

    def _va_single(self, i: int, cycle: int) -> bool:
        """VC allocation for a sole requester, on the flat arrays.

        Stage 1 arbitrates among the free output VCs, stage 2 has one
        contender and reduces to a pointer rotation — the state
        :class:`VirtualChannelAllocator` would leave behind.  Returns
        True when a VC was granted.
        """
        num_vcs = self.num_vcs
        out_port = self.vc_out_port[i]
        owners = self.out_owner[out_port]
        allowed = self._allowed_vcs(i, out_port, self.vc_fifos)
        if allowed is None:
            lines = [owner is None for owner in owners]
        else:
            lines = [
                owner is None and v in allowed
                for v, owner in enumerate(owners)
            ]
        if True not in lines:
            return False
        arb = self._va1_arbs[i]
        nxt = arb._next
        for offset in range(num_vcs):
            choice = nxt + offset
            if choice >= num_vcs:
                choice -= num_vcs
            if lines[choice]:
                arb._next = (choice + 1) % num_vcs
                self._va2_arbs[out_port * num_vcs + choice]._next = (
                    i + 1
                ) % len(self.vc_state)
                self._apply_va_grant(i, out_port, choice, cycle)
                return True
        return False

    def _apply_va_grant(
        self, i: int, out_port: int, out_vc: int, cycle: int
    ) -> None:
        """Commit one VA grant to the flat state (both VA paths)."""
        self.vc_out_vc[i] = out_vc
        self.vc_state[i] = _ACTIVE
        # Speculative switch allocation (Fig. 8b): the flit bids for the
        # crossbar in the same cycle its VC is granted.
        self.vc_ready[i] = cycle if self.speculative_sa else cycle + 1
        num_vcs = self.num_vcs
        self.out_owner[out_port][out_vc] = (i // num_vcs, i % num_vcs)
        self._n_va -= 1
        self._n_active += 1
        self.events.va_allocations += 1
        if self._stage_callbacks:
            fifo = self.vc_fifos[i]
            if fifo:
                self._fire_stage(cycle, fifo[0], "va")

    def _sa_general(self, sa_units: List[int], cycle: int) -> None:
        """Contended switch allocation through the separable allocator."""
        num_vcs = self.num_vcs
        sa_requests = [
            SARequest(i // num_vcs, i % num_vcs, self.vc_out_port[i])
            for i in sa_units
        ]
        priorities = None
        if self.qos_enabled:
            priorities = {}
            for req, i in zip(sa_requests, sa_units):
                fifo = self.vc_fifos[i]
                if fifo:
                    priorities[(req.in_port, req.in_vc)] = (
                        fifo[0].packet.priority
                    )
        granted = set() if self._attrib is not None else None
        for grant in self._sa.allocate(sa_requests, priorities):
            gi = grant.in_port * num_vcs + grant.in_vc
            if granted is not None:
                granted.add(gi)
            self._traverse_flat(gi, grant.in_port, cycle)
        if granted is not None:
            for i in sa_units:
                if i not in granted:
                    self._charge_stall(i, STALL_SA_LOSS)

    def _traverse_flat(self, i: int, in_port: int, cycle: int) -> None:
        """Move one flit through the crossbar and onto its output."""
        network = self._network
        if network is None:
            raise RuntimeError("router not attached to a network")
        fifo = self.vc_fifos[i]
        flit = fifo.popleft()
        self.vc_buffers[i].reads += 1
        if not fifo:
            # Drained: deactivate now (replaces the end-of-step prune).
            self._active.discard(i)
        # Effective active-layer count (see receive_flit); k/layer_groups
        # is the legacy activity weight, inlined for the hot path.
        k = flit.active_groups if self.shutdown_enabled else self.layer_groups
        weight = self._w_table[k]
        ev = self.events
        ev.buffer_reads += 1
        ev.buffer_reads_weighted += weight
        ev.sa_allocations += 1
        ev.xbar_traversals += 1
        ev.xbar_traversals_weighted += weight
        ev.flit_hops += 1
        by_layers = ev.buffer_reads_by_layers
        by_layers[k] = by_layers.get(k, 0) + 1
        by_layers = ev.xbar_traversals_by_layers
        by_layers[k] = by_layers.get(k, 0) + 1
        by_layers = ev.flit_hops_by_layers
        by_layers[k] = by_layers.get(k, 0) + 1
        self.flits_switched += 1
        self.flits_switched_by_layers[k - 1] += 1
        if flit.active_groups == 1:
            ev.short_flit_hops += 1
        if self._stage_callbacks and flit.is_head:
            self._fire_stage(cycle, flit, "st")

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
            # Credit return, one cycle upstream-bound: direct slot append
            # (the 1-cycle delay is always inside the wheel horizon).
            upstream = self._upstream[in_port]
            self._credit_slots[(cycle + 1) % self._credit_size].append(
                (upstream[0], upstream[1], i - in_port * self.num_vcs)
            )

        if out_port == self.local_port:
            # Ejection: one ST cycle, no link traversal.
            self._ej_slots[(cycle + 1) % self._ej_size].append(flit)
        else:
            if flit.is_head:
                link = self.out_links[out_port]
                flit.packet.hops += 1
                if self._vc_discipline:
                    self.routing.note_traverse(flit, link)
                if self.lookahead_rc:
                    # NRC: look up the route for the *next* router while
                    # the flit crosses the switch (off the critical path).
                    self._look_ahead(flit, self._next_routes[out_port])
            kind, length_mm, channel = self._link_args[out_port]
            # count_link(), inlined for the hot path.
            link_flits = ev.link_flits
            link_flits[kind] = link_flits.get(kind, 0) + 1
            link_mm = ev.link_mm_weighted
            link_mm[kind] = link_mm.get(kind, 0.0) + length_mm * weight
            channel_flits = ev.channel_flits
            channel_flits[channel] = channel_flits.get(channel, 0) + 1
            by_mm = ev.link_mm_by_layers
            by_mm[k] = by_mm.get(k, 0.0) + length_mm
            dst, dst_port = self._arrival_targets[out_port]
            self._arr_slots[(cycle + self._hop_cycles) % self._arr_size].append(
                (dst, dst_port, out_vc, flit)
            )

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
