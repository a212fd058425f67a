"""Partially adaptive routing (west-first) with congestion-aware output
selection.

The paper's evaluation is deterministic X-Y, but it cites dynamic traffic
distribution [3, 22] as the established way to cut switch contention.
This module implements the classic *west-first* turn-model algorithm for
2D meshes: all westward hops are taken first (deterministically), after
which any minimal productive direction may be chosen adaptively.  The
west-first turn restriction keeps the channel dependency graph acyclic,
so wormhole routing stays deadlock-free.

Adaptive functions expose ``candidate_ports``; the network's next-port
table stores the tuple of candidate port indices (minus any onto failed
channels), and the router picks the one with the most downstream
credits at RC time (a standard congestion proxy).  ``output_port``
returns the first candidate so the function still satisfies the
deterministic protocol (path and hop-count analysis).
"""

from __future__ import annotations

from typing import List

from repro.noc.routing import RoutingBase
from repro.topology.base import LOCAL_PORT
from repro.topology.mesh2d import EAST, Mesh2D, NORTH, SOUTH, WEST


class WestFirstAdaptiveRouting(RoutingBase):
    """West-first minimal adaptive routing on a 2D mesh."""

    #: Marks this function as adaptive for the router.
    is_adaptive = True

    def __init__(self, topology: Mesh2D) -> None:
        if not isinstance(topology, Mesh2D):
            raise TypeError("west-first routing requires a 2D mesh")
        self.topology = topology

    def candidate_ports(self, node: int, dst: int) -> List[str]:
        """Minimal productive output ports, in preference order.

        Westward traffic is restricted to W (the turn model's rule);
        otherwise every minimal direction is a candidate.  The table
        builder filters out candidates onto failed channels — possibly
        leaving none, which the router turns into a counted packet drop.
        """
        x, y = self.topology.coordinates(node)
        dx, dy = self.topology.coordinates(dst)
        if x == dx and y == dy:
            return [LOCAL_PORT]
        if dx < x:
            # All west hops first: no adaptive turns allowed.
            candidates = [WEST]
        else:
            candidates = []
            if dx > x:
                candidates.append(EAST)
            if dy > y:
                candidates.append(SOUTH)
            elif dy < y:
                candidates.append(NORTH)
        return candidates

    def output_port(self, node: int, dst: int, failed=frozenset()) -> str:
        return self.candidate_ports(node, dst)[0]
