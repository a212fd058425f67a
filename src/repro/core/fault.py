"""Fault tolerance via redundant express channels (Sec. 3.3).

The paper notes that 3DM's spare link bandwidth can buy an extra physical
channel per direction and suggests fault tolerance as one use.  This
module quantifies that idea: with both a normal and an express channel in
every (interior) direction, a failed channel can be bypassed by its
sibling.  The steering rule itself is
:class:`~repro.noc.routing.ExpressXYRouting` handed a failed-channel set:

* a failed *express* channel degrades to the normal channel (always
  minimal);
* a failed *normal* channel is bypassed by the express channel — minimal
  when the remaining distance covers the span, otherwise a bounded
  overshoot-and-return (one extra hop).

Routing stays deterministic and dimension-ordered.  Deadlock freedom is
not argued from the shape of the detours: the network's next-port table
is proved deadlock-free at every rebuild
(:func:`~repro.noc.table_routing.build_route_table`), for whatever
failure set it was rebuilt around.  Where several failures make the
overshoots bounce a packet back and forth, the nodes on that routing
cycle are unroutable for the destination, so those pairs become counted
drops instead of a livelock.  Edge nodes without an express sibling
cannot be bypassed; :func:`single_failure_coverage` quantifies exactly
how much of the failure space the topology tolerates.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.core.arch import ArchitectureConfig
from repro.noc.network import Network
from repro.noc.routing import Channel, UnroutableError, routing_for_topology
from repro.noc.table_routing import build_route_table, unroutable_pairs
from repro.topology.base import LinkKind
from repro.topology.express_mesh import ExpressMesh

__all__ = [
    "Channel",
    "UnroutableError",  # defined in repro.noc.routing; re-exported here
    "both_directions",
    "build_fault_tolerant_network",
    "routable_under",
    "single_failure_coverage",
]


def both_directions(src: int, dst: int) -> Set[Channel]:
    """The two directed channels of a full-duplex link."""
    return {(src, dst), (dst, src)}


def build_fault_tolerant_network(
    config: ArchitectureConfig,
    failed: Iterable[Channel],
    shutdown_enabled: bool = False,
) -> Network:
    """A 3DM-E network whose table routes around the *failed* channels."""
    if not config.express_span:
        raise ValueError(
            "fault-tolerant routing needs the express topology (3DM-E)"
        )
    network = config.build_network(shutdown_enabled=shutdown_enabled)
    network.reroute(frozenset(failed))
    return network


def routable_under(topology: ExpressMesh, failed: Iterable[Channel]) -> bool:
    """True when every ordered node pair still has a route in the table
    rebuilt around *failed*."""
    rows = build_route_table(
        topology, routing_for_topology(topology), frozenset(failed)
    )
    return not unroutable_pairs(topology, rows)


def single_failure_coverage(topology: ExpressMesh) -> float:
    """Fraction of single directed-channel failures the network tolerates.

    Express-channel failures are always tolerable (the normal sibling is
    minimal); normal-channel failures are tolerable where an express
    sibling leaves the same node.
    """
    total = 0
    tolerated = 0
    for link in topology.links:
        if link.kind not in (LinkKind.NORMAL, LinkKind.EXPRESS):
            continue
        total += 1
        if routable_under(topology, [(link.src, link.dst)]):
            tolerated += 1
    if total == 0:
        raise ValueError("topology has no failable channels")
    return tolerated / total
