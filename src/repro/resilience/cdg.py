"""Channel dependency graphs for deadlock-freedom proofs.

Dally & Seitz: a wormhole network is deadlock-free iff its channel
dependency graph (CDG) — nodes are directed channels, edges connect
consecutive channels some packet may hold simultaneously — is acyclic.
:func:`~repro.noc.table_routing.build_route_table` builds the CDG of
every next-port table it produces (at each network build and at each
rebuild after a link kill) and refuses a cyclic one, so deadlock
freedom is proved for the exact table — and failure set — a network
runs, not argued or sampled by simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.noc.routing import Channel
from repro.topology.base import LinkSpec, Topology

#: A CDG node for VC-disciplined routing: (channel, virtual channel).
VCChannel = Tuple[Channel, int]


def port_links(topology: Topology) -> List[List[Optional[LinkSpec]]]:
    """Per node, the link leaving through each port index (the order of
    ``topology.port_names(node)``, which is the router's port order);
    ``None`` for the local port and input-only ports."""
    return [
        [topology.out_ports[node].get(name) for name in topology.port_names(node)]
        for node in range(topology.num_nodes)
    ]


def _hop(links: Sequence[Optional[LinkSpec]], entry: int) -> Optional[LinkSpec]:
    """The link a table entry takes: none for ``-1`` or the local port."""
    return links[entry] if entry >= 0 else None


def channel_dependency_graph(
    topology: Topology, rows: Sequence[Sequence[int]]
) -> Dict[Channel, Set[Channel]]:
    """CDG of the next-port table *rows* (``rows[node][dst]``).

    Every channel an entry takes towards ``dst`` depends on the channel
    the next router's entry for the same ``dst`` takes.  That is the
    union of the consecutive channel pairs of every route, including the
    prefix a packet holds before it reaches an unroutable entry and
    drops.  Channels no entry takes do not appear as keys.
    """
    links = port_links(topology)
    graph: Dict[Channel, Set[Channel]] = {}
    for node, row in enumerate(rows):
        for dst, entry in enumerate(row):
            link = _hop(links[node], entry)
            if link is None:
                continue
            wanted = graph.setdefault((node, link.dst), set())
            nxt = link.dst
            if nxt != dst:
                onward = _hop(links[nxt], rows[nxt][dst])
                if onward is not None:
                    wanted.add((nxt, onward.dst))
    return graph


def vc_channel_dependency_graph(
    topology: Topology, rows: Sequence[Sequence[int]], routing, num_vcs: int
) -> Dict[VCChannel, Set[VCChannel]]:
    """Layered CDG of a deterministic table under *routing*'s VC
    discipline.

    For schemes like torus datelines or escape-layer table routing the
    *physical* channel graph is cyclic by design; deadlock freedom comes
    from splitting each channel into per-VC resources.  This builds the
    CDG over ``(channel, vc)`` nodes: every ordered pair walks the table,
    and at each hop the discipline's ``allowed_vcs(src, dst, node,
    port)`` — the question the router asks at VA — gives the VC set the
    packet may hold on the channel (``None`` = all ``num_vcs``).
    Acyclicity of this graph is the Dally & Seitz condition for the
    disciplined network.
    """
    links = port_links(topology)
    graph: Dict[VCChannel, Set[VCChannel]] = {}
    for src in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            if src == dst:
                continue
            node = src
            held: Optional[List[VCChannel]] = None
            while node != dst:
                entry = rows[node][dst]
                link = links[node][entry] if entry >= 0 else None
                if link is None:
                    break  # counted drop in simulation; no dependency
                vcs = routing.allowed_vcs(src, dst, node, link.src_port)
                if vcs is None:
                    vcs = range(num_vcs)
                wanted = [((node, link.dst), vc) for vc in vcs]
                for unit in wanted:
                    graph.setdefault(unit, set())
                if held is not None:
                    for held_unit in held:
                        graph[held_unit].update(wanted)
                held = wanted
                node = link.dst
    return graph


def find_dependency_cycle(
    graph: Dict[Channel, Set[Channel]]
) -> Optional[List[Channel]]:
    """A cycle in the CDG as a channel list, or ``None`` when acyclic.

    Iterative three-colour DFS (the enumeration tests walk thousands of
    graphs, so no recursion limits), deterministic over sorted keys so a
    reported cycle is stable run to run.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {channel: WHITE for channel in graph}
    for root in sorted(graph):
        if colour[root] != WHITE:
            continue
        # Stack of (channel, iterator over its sorted successors).
        path: List[Channel] = []
        stack = [(root, iter(sorted(graph[root])))]
        colour[root] = GREY
        path.append(root)
        while stack:
            channel, successors = stack[-1]
            advanced = False
            for nxt in successors:
                state = colour.get(nxt, BLACK)
                if state == GREY:
                    # Back edge: the cycle is the path tail from nxt.
                    return path[path.index(nxt):] + [nxt]
                if state == WHITE:
                    colour[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
            if not advanced:
                colour[channel] = BLACK
                path.pop()
                stack.pop()
    return None
