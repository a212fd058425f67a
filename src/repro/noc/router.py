"""The virtual-channel wormhole router: one node's geometry and tallies.

Models the canonical four-stage pipeline of Fig. 8a — routing computation
(RC), virtual-channel allocation (VA), switch allocation (SA), switch
traversal (ST) — followed by link traversal (LT).  Head flits walk all
stages; body/tail flits inherit the route and VC and only arbitrate for
the switch, which is wormhole flow control.

The pipeline runs in the network (:mod:`repro.noc.network`), over
network-wide flat lists: every input VC of every router is one global
unit ``g = unit_base[node] + port * num_vcs + vc``, and its state
(``vc_state``, ``vc_fifos``, ...) sits at index ``g`` of the network's
lists.  A :class:`Router` holds no pipeline state.  It keeps its node's
geometry (ports, port names, its first global unit and port), its
per-flit activity tallies, and three one-item entries into the network's
loops.

The tallies are plain per-router ``int`` fields and lists (switched
flits and buffer writes by active-layer count, flits per output port and
layer count, short-flit hops, RC and VA operations) that
:attr:`~repro.noc.network.Network.events` folds on read.

:meth:`Router.step`, :meth:`Router.receive_flit` and
:meth:`Router.receive_credit` stay as one-item entries into the
network's loops: the benchmark's router probe wraps them by name, and
tests drive single routers through them.  The network's own loops never
call them.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

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
    """One NoC router: its node's geometry and activity tallies.

    Created by :class:`~repro.noc.network.Network`, which numbers the
    routers' units consecutively in node order, this router's from
    *base* on.
    """

    def __init__(self, node: int, network: "Network", base: int) -> None:
        self.node = node
        self._network = network
        self.num_vcs = num_vcs = network.num_vcs
        layer_groups = network.layer_groups

        self.port_names: List[str] = network.topology.port_names(node)
        self.port_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.port_names)
        }
        self.num_ports = num_ports = len(self.port_names)
        self.local_port = self.port_index[LOCAL_PORT]
        #: This router's global units (input VCs), in port-major order;
        #: its output VCs carry the same indices.
        self.units = range(base, base + num_ports * num_vcs)
        #: Global index of this router's port 0 (input and output).
        self.port_base = base // num_vcs

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

    @property
    def flits_switched(self) -> int:
        """Flits this router has switched (per-node power/thermal maps)."""
        return sum(self.flits_switched_by_layers)

    def occupancy(self) -> int:
        """Total buffered flits, across all input VCs."""
        units = self.units
        return sum(map(len, self._network.vc_fifos[units.start:units.stop]))

    # -- one-item entries into the network's loops -------------------------

    def step(self, cycle: int) -> None:
        """Run this router's pipeline for *cycle*: the network's router
        loop (:meth:`~repro.noc.network.Network._step_units`) over this
        node's active units."""
        network = self._network
        units = sorted(network._active.intersection(self.units))
        network._step_units(units, cycle)

    def receive_flit(self, port: int, vc: int, flit: Flit, cycle: int) -> None:
        """Write an arriving flit into its input VC buffer: the network's
        landing loop (:meth:`~repro.noc.network.Network._land_flits`)
        over this one flit.  Landing is the same in every cycle; the
        flit's unit acts at its router's next step."""
        unit = self.units.start + port * self.num_vcs + vc
        self._network._land_flits(((unit, flit),))

    def receive_credit(self, port: int, vc: int) -> None:
        """Return one credit to output VC *vc* of *port*, through the
        network's credit loop."""
        out = self.port_base + port
        if self._network.link_targets[out] is None:
            raise RuntimeError(f"credit for local/unconnected port {port}")
        self._network._land_credits((out * self.num_vcs + vc,))
