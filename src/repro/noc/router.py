"""The virtual-channel wormhole router: one node's pipeline state.

Models the canonical four-stage pipeline of Fig. 8a — routing computation
(RC), virtual-channel allocation (VA), switch allocation (SA), switch
traversal (ST) — followed by link traversal (LT).  Head flits walk all
stages; body/tail flits inherit the route and VC and only arbitrate for
the switch, which is wormhole flow control.

The pipeline itself runs in the network (:mod:`repro.noc.network`): one
router loop does RC, VA, SA and traversal for every busy unit, and one
landing loop each writes arriving flits and credits.  A :class:`Router`
holds its node's pipeline state and nothing else: the per-VC state lives
in flat parallel lists — ``vc_state`` / ``vc_out_port`` / ``vc_out_vc``
/ ``vc_fifos`` indexed by ``port * num_vcs + vc`` — not in per-VC
objects.  Together with the ``Network.routers`` list this is a
structure-of-arrays keyed by ``(node, port, vc)``.  The network's
settings (routing, buffer depth, pipeline options) and observers are
read from the network, never copied here.  Observers (sanitizer,
telemetry sampler, tests) read and perturb those same lists directly, so
there is one copy of the pipeline state.

Per-flit activity is tallied the same way: plain per-router ``int``
fields and lists (switched flits and buffer writes by active-layer
count, flits per output port and layer count, short-flit hops, RC and
VA operations) that :attr:`~repro.noc.network.Network.events` folds on
read.  The link tables (arrival target, link accounting and look-ahead
row per output port, credit return per input unit) are filled by the
network's one pass over the topology's links.

:meth:`Router.step`, :meth:`Router.receive_flit` and
:meth:`Router.receive_credit` stay as one-item entries into the
network's loops: the benchmark's router probe wraps them by name, and
tests drive single routers through them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.noc.allocator import SwitchAllocator, VirtualChannelAllocator
from repro.noc.packet import Flit
from repro.topology.base import LOCAL_PORT

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
        num_vcs = self.num_vcs = network.num_vcs
        layer_groups = network.layer_groups

        self.port_names: List[str] = network.topology.port_names(node)
        self.port_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.port_names)
        }
        num_ports = self.num_ports = len(self.port_names)
        self.local_port = self.port_index[LOCAL_PORT]

        # Flat per-VC hot-path state, indexed by port * num_vcs + vc.
        units = num_ports * num_vcs
        self.vc_state: List[int] = [_IDLE] * units
        self.vc_out_port: List[int] = [-1] * units
        self.vc_out_vc: List[int] = [-1] * units
        #: One bounded flit FIFO per input VC, front at index 0;
        #: the network's landing loop enforces the depth.
        self.vc_fifos: List[Deque[Flit]] = [deque() for _ in range(units)]
        self.out_owner: List[List[Optional[Tuple[int, int]]]] = [
            [None] * num_vcs for _ in range(num_ports)
        ]

        # Link tables, filled by the network's pass over the topology's
        # links once every router exists; ``None`` where a port has no
        # link.  Per output port: the credits held per downstream VC
        # (the local output's ejection sink always accepts, so it has
        # none), the downstream ``(node, input port)``, the link's
        # accounting arguments ``(link-kind index, length,
        # port_flits row)`` and the downstream router's next-port row
        # (look-ahead RC).  Per input unit: the credit-return entry
        # ``(upstream node, upstream output port, vc)`` appended to the
        # credit ring as is when a flit leaves that unit.
        self.credits: List[Optional[List[int]]] = [None] * num_ports
        self.arrival_targets: List[Optional[Tuple[int, int]]] = (
            [None] * num_ports
        )
        self.link_args: List[Optional[Tuple[int, float, List[int]]]] = (
            [None] * num_ports
        )
        self.next_routes: List[Optional[List[int]]] = [None] * num_ports
        self.credit_returns: List[Optional[Tuple[int, int, int]]] = (
            [None] * units
        )

        self._va = VirtualChannelAllocator(num_ports, num_vcs)
        self._sa = SwitchAllocator(num_ports, num_vcs)
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
        self.port_flits = [[0] * layer_groups for _ in range(num_ports)]
        #: Switched flits that carried a single active word group.
        self.short_flit_hops = 0
        #: Route computations (look-ahead ones included) and granted
        #: output VCs.
        self.rc_computations = 0
        self.va_allocations = 0
        #: Flat indices of input VCs that may have work: a unit leaves
        #: only when its buffer has drained, so an empty set means the
        #: router is quiescent until a flit lands here.
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

    def occupancy(self) -> int:
        """Total buffered flits, across all input VCs."""
        return sum(len(fifo) for fifo in self.vc_fifos)

    # -- one-item entries into the network's loops -------------------------

    def step(self, cycle: int) -> None:
        """Run this router's pipeline for *cycle*: the network's router
        loop (:meth:`~repro.noc.network.Network._step_nodes`) over this
        one node."""
        self._network._step_nodes((self.node,), cycle)

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
