"""Runtime fault injection: link kills and stuck-at virtual channels.

The paper argues (Sec. 3.3) that the 3DM designs' spare vertical
bandwidth buys fault tolerance — express siblings can bypass a failed
channel.  This module supplies the *damage* side of that argument: a
:class:`FaultInjector` that disables directed links (including TSV
bundles, which are just vertical/express links in the topology) and
freezes virtual channels mid-simulation, either at a scheduled cycle or
sampled stochastically from a seeded RNG.

Two link-failure modes:

* ``"hard"`` — the electrical failure.  The upstream output port is
  credit-starved: its held credits are confiscated, and credits already
  in flight back to it are intercepted at delivery time.  Committed
  wormholes wedge against the dead port; whether the network survives is
  exactly what the sanitizer and watchdog then audit.
* ``"drain"`` — the graceful (detected-and-fenced) failure.  The channel
  is removed from routing decisions only; committed wormholes finish
  over the still-functional wire.  Used when the experiment wants
  reroute behaviour without wedged traffic.

In both modes the channel joins the injector's failed set — the only
copy of it — and the network rebuilds its next-port table around that
set (:meth:`~repro.noc.network.Network.reroute`), re-proving it
deadlock-free.  Express meshes steer around the damage through the
sibling channels (Sec. 3.3); any route still onto a dead channel, or
caught in a routing cycle, becomes a counted packet drop instead of a
protocol violation or a livelock.

A plan is checked against the network when the injector attaches: an
entry naming a node, port, VC or channel the network does not have is a
``ValueError`` before cycle 0.

Detached cost is one ``is None`` check per
:meth:`~repro.noc.network.Network.step`; a fault-free attached injector
(empty plan) performs no state changes, keeping runs bit-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.topology.base import Topology

_MODES = ("hard", "drain")


@dataclass(frozen=True)
class LinkFault:
    """Kill the directed channel ``src -> dst`` at ``cycle``."""

    cycle: int
    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError(f"fault cycle must be >= 0, got {self.cycle}")


@dataclass(frozen=True)
class StuckVCFault:
    """Freeze input VC ``vc`` of input port index ``port`` at ``node``.

    The unit joins its router's ``stuck`` set, which the router loop
    skips, so buffered flits never progress — the stuck-at fault of a VC
    control FSM.  Flits still land in its buffer until it is full.
    Upstream traffic wedges against the full buffer; the sanitizer
    keeps auditing conservation and the watchdog reports the stall.
    """

    cycle: int
    node: int
    port: int
    vc: int

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError(f"fault cycle must be >= 0, got {self.cycle}")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible damage schedule for one simulation run."""

    links: Tuple[LinkFault, ...] = ()
    vcs: Tuple[StuckVCFault, ...] = ()
    #: ``"hard"`` (credit-starving electrical failure) or ``"drain"``
    #: (routing-level fence; committed wormholes finish).
    mode: str = "hard"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"fault mode must be one of {_MODES}, got {self.mode!r}")

    def __bool__(self) -> bool:
        return bool(self.links or self.vcs)

    def check(self, topology: "Topology", num_vcs: int) -> None:
        """Raise ``ValueError`` naming the first entry a network over
        *topology* with *num_vcs* VCs per port does not have: a link
        fault on a missing channel, or a stuck VC at a missing node,
        input port or VC."""
        channels = {(link.src, link.dst) for link in topology.links}
        for fault in self.links:
            if (fault.src, fault.dst) not in channels:
                raise ValueError(
                    f"link fault {fault.src}:{fault.dst}: no channel "
                    f"{fault.src} -> {fault.dst}"
                )
        for fault in self.vcs:
            entry = f"stuck VC {fault.node}:{fault.port}:{fault.vc}"
            if not 0 <= fault.node < topology.num_nodes:
                raise ValueError(
                    f"{entry}: no node {fault.node} (nodes 0.."
                    f"{topology.num_nodes - 1})"
                )
            ports = len(topology.port_names(fault.node))
            if not 0 <= fault.port < ports:
                raise ValueError(
                    f"{entry}: node {fault.node} has no input port "
                    f"{fault.port} (ports 0..{ports - 1})"
                )
            if not 0 <= fault.vc < num_vcs:
                raise ValueError(
                    f"{entry}: no VC {fault.vc} (VCs 0..{num_vcs - 1})"
                )

    @staticmethod
    def random_links(
        topology: "Topology",
        count: int,
        seed: int,
        cycle: int = 0,
        mode: str = "hard",
    ) -> "FaultPlan":
        """Sample *count* distinct directed channels to kill at *cycle*.

        Channels are drawn from the sorted link list with
        ``random.Random(seed)``, so the same (topology, count, seed)
        yields the same plan in every process and under every
        ``PYTHONHASHSEED`` — the property the sweep cache key relies on.
        """
        channels = sorted((link.src, link.dst) for link in topology.links)
        if count > len(channels):
            raise ValueError(
                f"asked for {count} link faults but the topology has "
                f"only {len(channels)} directed channels"
            )
        picked = random.Random(seed).sample(channels, count)
        return FaultPlan(
            links=tuple(
                LinkFault(cycle=cycle, src=src, dst=dst)
                for src, dst in sorted(picked)
            ),
            mode=mode,
        )


@dataclass
class _Event:
    """One scheduled fault application (internal)."""

    cycle: int
    kind: str  # "link" | "vc"
    payload: Tuple[int, ...] = field(default_factory=tuple)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live network.

    Attach with :meth:`attach` (once, before the first ``step``); the
    network then calls :meth:`on_cycle` once per cycle after arrivals
    and injections land, and routes dead-port credits through
    :meth:`confiscate`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.network: Optional["Network"] = None
        #: Directed channels killed so far.
        self.failed: Set[Tuple[int, int]] = set()
        #: The network's global output VCs whose returning credits are
        #: confiscated (hard mode only).
        self.dead_credit_targets: Set[int] = set()
        #: ``global output VC -> credits confiscated`` — the ledger the
        #: sanitizer's credit-conservation audit balances against.
        self.confiscated: Dict[int, int] = {}
        self.links_killed = 0
        self.vcs_stuck = 0
        self.credits_confiscated = 0
        self._schedule: List[_Event] = sorted(
            [
                _Event(f.cycle, "link", (f.src, f.dst))
                for f in plan.links
            ]
            + [
                _Event(f.cycle, "vc", (f.node, f.port, f.vc))
                for f in plan.vcs
            ],
            key=lambda e: (e.cycle, e.kind, e.payload),
        )
        self._next = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, network: "Network") -> "FaultInjector":
        """Register on *network* (``network.fault_injector``) after
        checking every plan entry against it (:meth:`FaultPlan.check`)."""
        if network.fault_injector is not None:
            raise RuntimeError("network already has a fault injector")
        self.plan.check(network.topology, network.num_vcs)
        self.network = network
        network.fault_injector = self
        return self

    # -- per-cycle hook ------------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        """Apply the events due at *cycle*.

        Called by :meth:`Network.step` after arrivals and injections and
        before the routers step, so a VC stuck at *cycle* never advances
        from *cycle* on.
        """
        schedule = self._schedule
        while self._next < len(schedule) and schedule[self._next].cycle <= cycle:
            event = schedule[self._next]
            self._next += 1
            if event.kind == "link":
                self._kill_link(*event.payload)
            else:
                self._stick_vc(*event.payload)

    # -- fault application ---------------------------------------------------

    def _kill_link(self, src: int, dst: int) -> None:
        network = self.network
        link = network.topology.link_between(src, dst)  # checked at attach
        if (src, dst) in self.failed:
            return
        self.failed.add((src, dst))
        self.links_killed += 1
        network.reroute(frozenset(self.failed))
        if self.plan.mode == "hard":
            first = network.unit_index(
                src, network.port_names[src].index(link.src_port), 0
            )
            # Credit-starve the dead output: confiscate held credits and
            # mark its VCs so in-flight returns are intercepted.
            credits = network.credits
            for out_vc in range(first, first + network.num_vcs):
                held = credits[out_vc]
                if held:
                    self.confiscated[out_vc] = (
                        self.confiscated.get(out_vc, 0) + held
                    )
                    self.credits_confiscated += held
                    credits[out_vc] = 0
                self.dead_credit_targets.add(out_vc)

    def _stick_vc(self, node: int, port: int, vc: int) -> None:
        network = self.network
        unit = network.unit_index(node, port, vc)
        if unit in network.stuck:
            return
        network.stuck.add(unit)
        self.vcs_stuck += 1

    # -- credit interception -------------------------------------------------

    def confiscate(self, out_vc: int) -> None:
        """Swallow one credit returning to global output VC *out_vc* of
        a dead output port."""
        self.confiscated[out_vc] = self.confiscated.get(out_vc, 0) + 1
        self.credits_confiscated += 1

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict:
        """JSON-friendly injection report for ``SimulationResult``."""
        return {
            "mode": self.plan.mode,
            "links_killed": self.links_killed,
            "vcs_stuck": self.vcs_stuck,
            "credits_confiscated": self.credits_confiscated,
            "failed_channels": [list(ch) for ch in sorted(self.failed)],
        }
