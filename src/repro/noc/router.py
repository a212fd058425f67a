"""The virtual-channel wormhole router pipeline.

Models the canonical four-stage pipeline of Fig. 8a — routing computation
(RC), virtual-channel allocation (VA), switch allocation (SA), switch
traversal (ST) — followed by link traversal (LT).  Head flits walk all
stages; body/tail flits inherit the route and VC and only arbitrate for
the switch, which is wormhole flow control.

Stage timing is the network's router loop, which visits each busy unit
once per cycle: a VC makes at most one pipeline transition per visit,
and a transition made in cycle ``c`` takes effect at the next visit.
With a switch-allocation grant at cycle ``c`` the flit lands in the next
router's input buffer, ready for RC, at ``c + 2`` when ST and LT are
merged (the 3DM/3DM-E single-stage traversal of Fig. 8d) or ``c + 3``
otherwise (the network's arrival-ring delay), which yields the paper's
4-cycle vs 5-cycle per-hop latency.

A :class:`Router` holds its node's pipeline state and nothing else: the
per-VC state lives in flat parallel lists — ``vc_state`` /
``vc_out_port`` / ``vc_out_vc`` / ``vc_fifos`` indexed by
``port * num_vcs + vc`` — not in per-VC objects.  Together with the
``Network.routers`` list this is a structure-of-arrays keyed by
``(node, port, vc)``.  The network's settings (routing, buffer depth,
pipeline options) and observers are read from the network, never copied
here.  The network's router loop runs the pipeline over these plain list
slots; :meth:`step`, :meth:`receive_flit` and :meth:`receive_credit` are
one-item entries into its loops.  Observers (sanitizer, telemetry
sampler, tests) read and perturb those same lists directly, so there is
one copy of the pipeline state.

Per-flit activity is tallied the same way: plain per-router ``int``
fields and lists (switched flits and buffer writes by active-layer
count, flits per output port and layer count, short-flit hops, RC and
VA operations) that :attr:`~repro.noc.network.Network.events` folds on
read.  Only the activity-weighted floats are summed into the network's
accumulator lists per flit, because their value depends on the order of
the adds.  Scheduled arrivals, credits and ejections go straight into
the network's event rings, so a router's pipeline writes only its own
state and the network's lists.

The one pipeline hook is the network's trace recorder
(``network.recorder``): at a head flit's RC, VA and ST the pipeline
probes the recorder's capture map and calls ``on_stage`` only for
packets not mapped to ``0``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.noc.allocator import SwitchAllocator, VirtualChannelAllocator
from repro.noc.packet import Flit, PacketClass
from repro.topology.base import LOCAL_PORT, LinkSpec

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
# here so the hot path never imports the telemetry package.  A healthy
# pipeline never charges rc_wait or serialization: only a unit held by a
# stuck-VC fault (repro.resilience.faults) is charged them.
STALL_RC_WAIT = 0        # held by a stuck-VC fault before its VC grant
STALL_VA_CONFLICT = 1    # requested an output VC, none granted
STALL_SA_LOSS = 2        # bid for the crossbar, lost switch allocation
STALL_CREDIT = 3         # output VC held but downstream buffer is full
STALL_SERIALIZATION = 4  # held by a stuck-VC fault after its VC grant
NUM_STALL_CAUSES = 5
STALL_CAUSE_NAMES = (
    "rc_wait", "va_conflict", "sa_loss", "credit_stall", "serialization"
)


class Router:
    """One NoC router instance.

    Created by :class:`~repro.noc.network.Network`; not normally
    instantiated directly.
    """

    def __init__(self, node: int, network: "Network") -> None:
        self.node = node
        self._network = network
        topology = network.topology
        num_vcs = self.num_vcs = network.num_vcs
        layer_groups = network.layer_groups

        self.port_names: List[str] = topology.port_names(node)
        self.port_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.port_names)
        }
        self.num_ports = len(self.port_names)
        self.local_port = self.port_index[LOCAL_PORT]

        # Flat per-VC hot-path state, indexed by port * num_vcs + vc.
        units = self.num_ports * num_vcs
        self.vc_state: List[int] = [_IDLE] * units
        self.vc_out_port: List[int] = [-1] * units
        self.vc_out_vc: List[int] = [-1] * units
        #: One bounded flit FIFO per input VC, front at index 0;
        #: the network's landing loop enforces the depth.
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
                self.credits.append([network.buffer_depth] * num_vcs)
        self.out_owner: List[List[Optional[Tuple[int, int]]]] = [
            [None] * num_vcs for _ in range(self.num_ports)
        ]

        self._va = VirtualChannelAllocator(self.num_ports, num_vcs)
        self._sa = SwitchAllocator(self.num_ports, num_vcs)
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
        #: Flat indices of the units a stuck-VC fault holds
        #: (:class:`~repro.resilience.faults.FaultInjector` fills it
        #: once): the router loop skips them, so they never advance.
        self.stuck: set[int] = set()
        #: This router's next-port row (``routes[dst]``: output-port
        #: index, ``-1`` = unroutable) — an alias of
        #: ``network.routes[node]``, rebuilt in place on a link kill.
        self.routes: List[int] = network.routes[node]

    @property
    def flits_switched(self) -> int:
        """Flits this router has switched (per-node power/thermal maps)."""
        return sum(self.flits_switched_by_layers)

    def attach(self) -> None:
        """Resolve this router's links to the network's other routers,
        once every router exists."""
        network = self._network
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
        #: The credit-return entry ``(upstream node, upstream output
        #: port, vc)`` per input unit, appended to the credit ring as is
        #: when a flit leaves that unit; ``None`` on the local port.
        self._credit_returns: List[Optional[Tuple[int, int, int]]] = []
        for upstream in network._credit_targets[self.node]:
            for vc in range(self.num_vcs):
                self._credit_returns.append(
                    None if upstream is None else (*upstream, vc)
                )

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
        return len(fifo) < self._network.buffer_depth

    def is_quiescent(self) -> bool:
        """True when :meth:`step` would be a no-op this cycle and every
        following cycle until a flit arrives.

        A VC leaves ``_active`` only when its buffer has drained and it
        holds no pending RC/VA/SA work, so an empty active set means
        every VC is either ``_IDLE`` or waiting on an upstream flit —
        the network's active-set scheduler deactivates the router then
        and the next flit landed here wakes it again."""
        return not self._active

    def occupancy(self) -> int:
        """Total buffered flits, across all input VCs."""
        return sum(len(fifo) for fifo in self.vc_fifos)

    # -- flit reception ----------------------------------------------------

    def receive_flit(self, port: int, vc: int, flit: Flit, cycle: int) -> None:
        """Write an arriving flit into its input VC buffer: the network's
        landing loop (:meth:`~repro.noc.network.Network._land_flits`)
        over this one flit.  Landing is the same in every cycle; the
        flit's unit acts at its router's next step."""
        self._network._land_flits(((self.node, port, vc, flit),))

    def receive_credit(self, port: int, vc: int) -> None:
        """Return one credit to output VC *vc* of *port*, through the
        network's credit loop."""
        self._network._land_credits(((self.node, port, vc),))

    # -- pipeline ----------------------------------------------------------

    def step(self, cycle: int) -> None:
        """Run this router's pipeline for *cycle*: the network's router
        loop (:meth:`~repro.noc.network.Network._step_nodes`) over this
        one node."""
        self._network._step_nodes((self.node,), cycle)

    def _allowed_vcs(self, i: int) -> Optional[Tuple[int, ...]]:
        """Output-VC restriction for the head flit of flat unit *i*."""
        fifo = self.vc_fifos[i]
        if not fifo:
            return None
        network = self._network
        routing = network.routing
        if routing.has_vc_discipline:
            packet = fifo[0].packet
            vcs = routing.allowed_vcs(
                packet.src, packet.dst, self.node,
                self.port_names[self.vc_out_port[i]],
            )
            # None from the discipline means "unrestricted here" (e.g.
            # ejection ports) — same meaning as no discipline.
            return None if vcs is None else tuple(vcs)
        if network.vc_by_class:
            return (self._class_vc(fifo[0]),)
        return None

    def _va_stage(self, va_units, cycle: int) -> bool:
        """VC allocation in *cycle* for the requesters *va_units*
        (ascending): commit every grant in the allocator's order and
        charge every loser one ``va_conflict`` stall.  True when any VC
        was granted."""
        network = self._network
        allowed = None
        if network.routing.has_vc_discipline or network.vc_by_class:
            allowed = [self._allowed_vcs(i) for i in va_units]
        grants = self._va.allocate(
            va_units, self.vc_out_port, self.out_owner, allowed
        )
        num_vcs = self.num_vcs
        rec = network.recorder
        for key, i in grants.items():
            self.vc_out_vc[i] = key % num_vcs
            self.vc_state[i] = _ACTIVE
            self.out_owner[key // num_vcs][key % num_vcs] = divmod(i, num_vcs)
            if rec is not None:
                fifo = self.vc_fifos[i]
                if fifo and rec.decisions.get(fifo[0].packet.pid, 1):
                    rec.on_stage(cycle, self.node, fifo[0], "va")
        granted = len(grants)
        self.va_allocations += granted
        attrib = network.attribution
        if attrib is not None and granted < len(va_units):
            won = set(grants.values())
            for i in va_units:
                if i not in won:
                    attrib.charge(self, i, STALL_VA_CONFLICT)
        return granted > 0
