"""The virtual-channel wormhole router: one node's entries into the
network's loops.

Models the canonical four-stage pipeline of Fig. 8a — routing computation
(RC), virtual-channel allocation (VA), switch allocation (SA), switch
traversal (ST) — followed by link traversal (LT).  Head flits walk all
stages; body/tail flits inherit the route and VC and only arbitrate for
the switch, which is wormhole flow control.

The pipeline runs in the network (:mod:`repro.noc.network`), which owns
all state: every input VC of every router is one global unit ``g =
node_units[node].start + port * num_vcs + vc`` of its flat lists, and
each node's port names and activity tallies are network lists too.  A
:class:`Router` holds no state.  It keeps three shims —
:meth:`Router.step`, :meth:`Router.receive_flit` and
:meth:`Router.receive_credit`, one-item entries into the network's
loops — because the benchmark's router probe wraps them by name and
tests drive single routers through them.  The network's own loops never
call them.

This module also defines the pipeline's state, timing and stall-cause
constants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.noc.packet import Flit

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
    """One NoC router: three shims into the network's loops.

    Created by :class:`~repro.noc.network.Network`; it keeps only what
    the shims use: its node, the node's global units and first global
    port, and the network.
    """

    def __init__(self, node: int, network: "Network") -> None:
        self.node = node
        self._network = network
        #: This node's global units (input VCs), in port-major order.
        self.units = network.node_units[node]
        #: Global index of this node's port 0 (input and output).
        self.port_base = self.units.start // network.num_vcs

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
        network = self._network
        unit = network.unit_index(self.node, port, vc)
        network._land_flits(((unit, flit),))

    def receive_credit(self, port: int, vc: int) -> None:
        """Return one credit to output VC *vc* of *port*, through the
        network's credit loop."""
        network = self._network
        out_vc = (self.port_base + port) * network.num_vcs + vc
        if network.link_units[out_vc] is None:
            raise RuntimeError(f"credit for local/unconnected port {port}")
        network._land_credits((out_vc,))
