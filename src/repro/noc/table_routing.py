"""Next-port tables: the one routing engine every network runs on.

:func:`build_route_table` turns any routing rule into one next-port row
per router — ``rows[node][dst]`` is an output-port index, ``-1`` for
"unroutable here" — and *proves* the table deadlock-free with the
channel-dependency-graph checker from :mod:`repro.resilience.cdg`.  A
:class:`~repro.noc.network.Network` builds its table once at
construction and rebuilds it (re-running the proof) whenever a link
dies, so RC on the hot path is a single list index.

The coordinate-arithmetic rules in :mod:`repro.noc.routing` assume a
regular mesh.  :class:`TableRouting` drops that assumption: it
precomputes a per-``(node, destination)`` next-hop rule from nothing but
the topology's directed link list, using one of two deadlock-free
schemes.

**up*/down* mode** (turn restriction).  A BFS spanning tree rooted at
the highest-degree node labels every directed channel *up* (towards a
node with a smaller ``(BFS level, id)`` key) or *down* (away from it).
Routes climb up channels first, then descend down channels; the
``down -> up`` turn is forbidden.  Any channel cycle must contain a
``down -> up`` turn (an all-up walk strictly decreases the key, an
all-down walk strictly increases it), so the CDG restricted to legal
turns is acyclic and wormhole routing is deadlock-free with a single
VC — on *any* connected graph.  The cost is stretch: some pairs detour
through the tree.

**escape mode** (VC layering).  Tables are pure shortest-path; deadlock
freedom instead comes from a dateline-style VC discipline.  Each packet
occupies VC class *k* after taking *k* forbidden ``down -> up`` turns;
classes only grow along a route, and within one class only legal turns
occur, so the layered CDG over ``(channel, class)`` nodes is acyclic
whenever the network has ``max turns + 1`` VCs.  Because the tables are
deterministic per ``(node, destination)``, the class on any channel is a
pure function of ``(src, dst, channel)`` — precomputed here, no per-flit
state needed.  A bidirectional ring needs exactly one forbidden turn
(at the antipodal node), so the paper's standard 2-VC routers run it at
full shortest-path quality.

**auto mode** picks for the fabric: up*/down* when its stretch over
true shortest paths is negligible, otherwise escape when the shipped
VC budget covers it, otherwise up*/down* again (routable beats fast).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.noc.routing import (
    Channel,
    RoutingBase,
    RoutingFunction,
    UnroutableError,
)
from repro.resilience.cdg import (
    channel_dependency_graph,
    find_dependency_cycle,
    port_links,
    vc_channel_dependency_graph,
)
from repro.topology.base import LOCAL_PORT, Topology

#: Auto mode tolerates this much average stretch from the turn
#: restriction before reaching for the escape-VC scheme.
DEFAULT_MAX_STRETCH = 1.05

#: Auto mode only picks escape when it fits this many VCs (the paper's
#: standard router has 2).
DEFAULT_ESCAPE_VCS = 2


class DeadlockError(RuntimeError):
    """A built next-port table admits a channel-dependency cycle.

    Raised by :func:`build_route_table` — at a network build or at the
    rebuild after a link kill, never per packet — and carries the
    offending cycle for forensics.  Seeing this means a routing rule
    (or a failure set it steers around) that is not deadlock-free.
    """

    def __init__(self, message: str, cycle) -> None:
        super().__init__(message)
        self.cycle = cycle


class TableRouting(RoutingBase):
    """Precomputed next-hop rule for arbitrary link graphs.

    Args:
        topology: any :class:`~repro.topology.base.Topology`.
        mode: ``"auto"`` (default), ``"updown"``, or ``"escape"``.  Auto
            mode's stretch tolerance and VC budget are
            :data:`DEFAULT_MAX_STRETCH` and :data:`DEFAULT_ESCAPE_VCS`.

    Attributes:
        mode: the scheme actually in effect — ``"updown"``, ``"escape"``,
            or ``"shortest"`` (escape whose tables happened to need no
            forbidden turn, so no discipline is attached).
        root: the spanning-tree root node.
        required_vcs: minimum VCs the chosen scheme needs.
    """

    def __init__(
        self,
        topology: Topology,
        mode: str = "auto",
    ) -> None:
        if mode not in ("auto", "updown", "escape"):
            raise ValueError(f"unknown table-routing mode {mode!r}")
        self.topology = topology
        n = topology.num_nodes

        # -- channel labelling (shared by both schemes) -------------------
        self.root = self._pick_root()
        self._level = self._bfs_levels(self.root)
        # key strictly orders nodes; a channel towards a smaller key is
        # "up" (rootward), towards a larger key "down".
        self._key = [(self._level[v], v) for v in range(n)]

        shortest, sp_dist = self._build_shortest_tables()
        chosen = mode
        if mode in ("auto", "updown"):
            updown, ud_dist = self._build_updown_tables()
            if mode == "auto":
                covered = self._covers(updown, shortest)
                stretch = self._stretch(ud_dist, sp_dist)
                if covered and stretch <= DEFAULT_MAX_STRETCH:
                    chosen = "updown"
                else:
                    total = self._escape_classes(shortest)
                    max_class = max(total.values(), default=0)
                    if max_class + 1 <= DEFAULT_ESCAPE_VCS:
                        chosen = "escape"
                    elif covered:
                        chosen = "updown"
                    else:
                        raise UnroutableError(
                            "fabric is unroutable: the up*/down* turn "
                            "restriction loses pairs and the escape "
                            f"scheme needs {max_class + 1} VCs "
                            f"(budget {DEFAULT_ESCAPE_VCS})"
                        )
            if chosen == "updown":
                self._table = updown
                self._dist = ud_dist
        if chosen == "escape":
            self._table = shortest
            self._dist = sp_dist
            self._total = self._escape_classes(shortest)
            max_class = max(self._total.values(), default=0)
            if max_class == 0:
                # No forbidden turn anywhere (trees, DAG-like fabrics):
                # plain shortest path is already deadlock-free, no
                # discipline needed.
                chosen = "shortest"
            else:
                self.has_vc_discipline = True  # instance override
                self.required_vcs = max_class + 1
        self.mode = chosen

    # -- construction helpers ---------------------------------------------

    def _pick_root(self) -> int:
        """Highest undirected degree, lowest id on ties (the classic
        up*/down* heuristic: a central root shortens tree detours)."""
        topo = self.topology
        degree = [0] * topo.num_nodes
        seen = set()
        for link in topo.links:
            pair = (min(link.src, link.dst), max(link.src, link.dst))
            if pair in seen:
                continue
            seen.add(pair)
            degree[link.src] += 1
            degree[link.dst] += 1
        return max(range(topo.num_nodes), key=lambda v: (degree[v], -v))

    def _bfs_levels(self, root: int) -> List[int]:
        """BFS levels over the undirected closure of the link graph.

        Unreachable nodes keep level ``num_nodes`` (worse than any real
        level); pairs involving them are simply unroutable.
        """
        topo = self.topology
        adjacency: List[set] = [set() for _ in range(topo.num_nodes)]
        for link in topo.links:
            adjacency[link.src].add(link.dst)
            adjacency[link.dst].add(link.src)
        level = [topo.num_nodes] * topo.num_nodes
        level[root] = 0
        frontier = deque([root])
        while frontier:
            u = frontier.popleft()
            for v in sorted(adjacency[u]):
                if level[v] > level[u] + 1:
                    level[v] = level[u] + 1
                    frontier.append(v)
        return level

    def _is_up(self, u: int, v: int) -> bool:
        return self._key[v] < self._key[u]

    def _out_channels(self, u: int) -> List[Tuple[str, int]]:
        """Deterministic (port, neighbor) list for *u*, sorted by
        (neighbor key, port) so tie-breaks are stable run to run."""
        topo = self.topology
        return sorted(
            ((port, link.dst) for port, link in topo.out_ports[u].items()),
            key=lambda item: (self._key[item[1]], item[0]),
        )

    def _build_shortest_tables(
        self,
    ) -> Tuple[List[Dict[int, str]], List[Dict[int, int]]]:
        """Per-destination BFS over the directed graph.

        Returns ``(table, dist)`` where ``table[d][n]`` is the port to
        take at *n* towards *d* and ``dist[d][n]`` the hop count; nodes
        with no directed path to *d* are absent.
        """
        topo = self.topology
        n = topo.num_nodes
        # Reverse adjacency: arrivals[v] = [(u, port at u), ...]
        arrivals: List[List[Tuple[int, str]]] = [[] for _ in range(n)]
        for link in topo.links:
            arrivals[link.dst].append((link.src, link.src_port))
        table: List[Dict[int, str]] = [dict() for _ in range(n)]
        dist: List[Dict[int, int]] = [dict() for _ in range(n)]
        for d in range(n):
            dist[d][d] = 0
            frontier = deque([d])
            while frontier:
                v = frontier.popleft()
                for u, port in sorted(arrivals[v]):
                    if u not in dist[d]:
                        dist[d][u] = dist[d][v] + 1
                        table[d][u] = port
                        frontier.append(u)
                    elif dist[d][u] == dist[d][v] + 1:
                        # Equal-cost tie: prefer the smaller (key, port)
                        # so the table is independent of link order.
                        incumbent = table[d][u]
                        inc_dst = topo.out_ports[u][incumbent].dst
                        if (self._key[v], port) < (self._key[inc_dst], incumbent):
                            table[d][u] = port
            del dist[d][d]
        return table, dist

    def _build_updown_tables(
        self,
    ) -> Tuple[List[Dict[int, str]], List[Dict[int, int]]]:
        """Turn-restricted tables: climb up channels, then descend.

        For each destination *d*, ``D(d)`` is the set of nodes with a
        down-only directed path to *d* (found by reverse BFS over down
        channels).  Inside ``D(d)`` the table follows the shortest
        down-only path; outside it takes the cheapest up channel, which
        strictly decreases the node key, so the climb terminates and
        every realised turn is legal (never ``down -> up``).
        """
        topo = self.topology
        n = topo.num_nodes
        down_arrivals: List[List[Tuple[int, str]]] = [[] for _ in range(n)]
        for link in topo.links:
            if not self._is_up(link.src, link.dst):
                down_arrivals[link.dst].append((link.src, link.src_port))
        by_key = sorted(range(n), key=lambda v: self._key[v])
        table: List[Dict[int, str]] = [dict() for _ in range(n)]
        dist: List[Dict[int, int]] = [dict() for _ in range(n)]
        for d in range(n):
            # Phase 1: D(d) by reverse BFS over down channels.
            down_dist: Dict[int, int] = {d: 0}
            frontier = deque([d])
            while frontier:
                v = frontier.popleft()
                for u, port in sorted(down_arrivals[v]):
                    if u not in down_dist:
                        down_dist[u] = down_dist[v] + 1
                        table[d][u] = port
                        frontier.append(u)
                    elif down_dist[u] == down_dist[v] + 1:
                        incumbent = table[d][u]
                        inc_dst = topo.out_ports[u][incumbent].dst
                        if (self._key[v], port) < (self._key[inc_dst], incumbent):
                            table[d][u] = port
            # Phase 2: the up climb, in increasing key order so every up
            # neighbour (strictly smaller key) is already costed.
            cost = dict(down_dist)
            for u in by_key:
                if u in cost:
                    continue
                best: Optional[Tuple[int, Tuple[int, int], str]] = None
                for port, m in self._out_channels(u):
                    if not self._is_up(u, m) or m not in cost:
                        continue
                    candidate = (1 + cost[m], self._key[m], port)
                    if best is None or candidate < best:
                        best = candidate
                if best is not None:
                    cost[u] = best[0]
                    table[d][u] = best[2]
            for u, c in cost.items():
                if u != d:
                    dist[d][u] = c
        return table, dist

    @staticmethod
    def _covers(table: Sequence[Dict[int, str]], reference) -> bool:
        """True when *table* routes every pair *reference* routes."""
        return all(
            set(reference[d]) <= set(table[d]) for d in range(len(table))
        )

    @staticmethod
    def _stretch(dist, sp_dist) -> float:
        """Average table-path length over shortest-path length."""
        total = base = 0
        for d in range(len(sp_dist)):
            for n_, hops in sp_dist[d].items():
                if n_ in dist[d]:
                    total += dist[d][n_]
                    base += hops
        return total / base if base else 1.0

    def _escape_classes(
        self, table: Sequence[Dict[int, str]]
    ) -> Dict[Tuple[int, int], int]:
        """Forbidden-turn totals for every routable (src, dst) pair.

        Computes ``remaining[(channel, d)]`` — forbidden ``down -> up``
        turns left on the table path after arriving over *channel* —
        then the pair total is ``remaining`` at the first channel.  The
        VC class a packet occupies on any channel follows for free:
        ``total(src, dst) - remaining(channel, dst)``; classes never
        decrease along a route.
        """
        topo = self.topology
        remaining: Dict[Tuple[Channel, int], int] = {}
        for d in range(topo.num_nodes):
            for start in table[d]:
                # Resolve the chain iteratively (paths are short, but
                # recursion depth would be O(path) per pair).
                chain: List[Tuple[Channel, int]] = []
                u = start
                port = table[d][u]
                channel = (u, topo.out_ports[u][port].dst)
                while (channel, d) not in remaining:
                    chain.append((channel, d))
                    v = channel[1]
                    if v == d:
                        remaining[(channel, d)] = 0
                        break
                    next_port = table[d][v]
                    channel = (v, topo.out_ports[v][next_port].dst)
                # Unwind: add the turn cost at each node on the way back.
                for held, _d in reversed(chain):
                    v = held[1]
                    if v == d:
                        remaining[(held, d)] = 0
                        continue
                    next_port = table[d][v]
                    w = topo.out_ports[v][next_port].dst
                    illegal = (not self._is_up(held[0], v)) and self._is_up(v, w)
                    remaining[(held, d)] = int(illegal) + remaining[((v, w), d)]
        self._rem = remaining
        totals: Dict[Tuple[int, int], int] = {}
        for d in range(topo.num_nodes):
            for s, port in table[d].items():
                first = (s, topo.out_ports[s][port].dst)
                totals[(s, d)] = remaining[(first, d)]
        return totals

    # -- RoutingFunction protocol -----------------------------------------

    def output_port(self, node: int, dst: int, failed=frozenset()) -> str:
        if node == dst:
            return LOCAL_PORT
        port = self._table[dst].get(node)
        if port is None:
            raise UnroutableError(
                f"node {node}: no table route to {dst}", node=node, dst=dst
            )
        return port

    def allowed_vcs(self, src: int, dst: int, node: int, out_port: str):
        """Escape discipline: the packet's VC class on the out channel.

        The class is the number of forbidden turns already taken —
        derivable from ``(src, dst, channel)`` alone because the tables
        are deterministic.
        """
        if out_port == LOCAL_PORT:
            return None  # ejection: any VC
        channel = (node, self.topology.out_ports[node][out_port].dst)
        return (self._total[(src, dst)] - self._rem[(channel, dst)],)

    # -- introspection ----------------------------------------------------

    def route_distance(self, src: int, dst: int) -> Optional[int]:
        """Table-path hop count, or ``None`` when unroutable."""
        if src == dst:
            return 0
        return self._dist[dst].get(src)

    def describe(self) -> str:
        topo = self.topology
        pairs = sum(len(t) for t in self._dist)
        return (
            f"{type(self).__name__}(mode={self.mode}, root={self.root}, "
            f"required_vcs={self.required_vcs}, routable_pairs={pairs}/"
            f"{topo.num_nodes * (topo.num_nodes - 1)})"
        )


# ---------------------------------------------------------------------------
# The next-port table every network routes from
# ---------------------------------------------------------------------------


def build_route_table(
    topology: Topology,
    routing: RoutingFunction,
    failed: FrozenSet[Channel] = frozenset(),
    num_vcs: Optional[int] = None,
) -> List[List[int]]:
    """Every router's next-port row under *routing*, proved deadlock-free.

    ``rows[node][dst]`` is the index, in ``topology.port_names(node)``
    order (the router's own port order), of the output port a packet at
    *node* takes towards *dst*, or ``-1`` when it is unroutable there and
    drops.  Three steps:

    1. Ask the rule for every ``(node, dst)`` pair, handing it the
       *failed* channels so a rule that can steer around them does.  A
       pair the rule declares unroutable, and an entry onto a failed
       channel, is dropped.
    2. Mark unroutable the nodes lying *on* a routing cycle for a
       destination — a packet would circle them forever.  Entries that
       merely lead into an unroutable node are kept, so the packet drops
       at that node.
    3. Prove the channel dependency graph acyclic — over ``(channel,
       VC)`` units with *num_vcs* VCs (default: the rule's minimum) when
       the rule has a VC discipline — or raise :class:`DeadlockError`
       carrying the cycle.
    """
    for src, dst in failed:
        topology.link_between(src, dst)  # a channel that does not exist is a typo
    n = topology.num_nodes
    links = port_links(topology)
    rows: List[List[int]] = []
    for node in range(n):
        index = {name: i for i, name in enumerate(topology.port_names(node))}
        live = [
            link is None or (node, link.dst) not in failed
            for link in links[node]
        ]
        row: List[int] = []
        for dst in range(n):
            try:
                port = index[routing.output_port(node, dst, failed)]
            except UnroutableError:
                row.append(-1)
                continue
            row.append(port if live[port] else -1)
        rows.append(row)

    for dst in range(n):
        for start in range(n):
            walk: List[int] = []
            node = start
            while node != dst and rows[node][dst] >= 0 and node not in walk:
                walk.append(node)
                node = links[node][rows[node][dst]].dst
            if node in walk:  # the route came back: a routing cycle
                for looped in walk[walk.index(node):]:
                    rows[looped][dst] = -1

    if routing.has_vc_discipline:
        graph = vc_channel_dependency_graph(
            topology, rows, routing, num_vcs or routing.required_vcs
        )
    else:
        graph = channel_dependency_graph(topology, rows)
    cycle = find_dependency_cycle(graph)
    if cycle is not None:
        raise DeadlockError(
            f"{type(routing).__name__} on {type(topology).__name__} has a "
            f"cyclic channel dependency graph",
            cycle,
        )
    return rows


def unroutable_pairs(
    topology: Topology, rows: Sequence[Sequence[int]]
) -> List[Channel]:
    """Ordered ``(src, dst)`` pairs whose packet drops on the way under
    the deterministic table *rows* (from :func:`build_route_table`)."""
    links = port_links(topology)
    pairs: List[Channel] = []
    for src in range(topology.num_nodes):
        for dst in range(topology.num_nodes):
            node = src
            while node != dst and rows[node][dst] >= 0:
                node = links[node][rows[node][dst]].dst
            if node != dst:
                pairs.append((src, dst))
    return pairs
