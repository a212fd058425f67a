"""Deterministic routing functions.

All experiments in the paper use deterministic dimension-ordered (X-Y)
routing (Sec. 4).  The 3DB network extends it to X-Y-Z order, and the
3DM-E network uses an express-aware variant: while the remaining distance
in the current dimension is at least the express span, take the express
channel (Dally's express-cube routing); otherwise take the normal channel.
Dimension order is preserved across normal and express channels, so the
channel dependence graph stays acyclic and the routing deadlock-free.

A routing function maps ``(current_node, destination)`` to the *output
port name* to take.  The simulator never asks it per packet: at every
network build, and again whenever a link dies,
:func:`~repro.noc.table_routing.build_route_table` asks the rule once
per ``(node, destination)`` pair, turns the answers into each router's
next-port row, and proves that table deadlock-free.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Protocol, Tuple, Type

from repro.topology.base import LOCAL_PORT, Topology
from repro.topology.express_mesh import EXPRESS_FOR, ExpressMesh
from repro.topology.mesh2d import EAST, Mesh2D, NORTH, SOUTH, WEST
from repro.topology.mesh3d import DOWN, Mesh3D, UP
from repro.topology.torus import Torus2D

#: A directed channel identified by (source node, destination node).
Channel = Tuple[int, int]


class UnroutableError(RuntimeError):
    """No surviving channel makes progress towards the destination.

    Carries enough context for forensics: the stuck node, the
    unreachable destination, and the failed-channel set the routing
    function was avoiding.  Raised by routing rules; the table builder
    stores the pair as unroutable (``-1``), and a packet that reaches
    such an entry becomes a counted drop
    (``NetworkStats.packets_dropped``) instead of aborting the run.
    """

    def __init__(
        self,
        message: str,
        node: Optional[int] = None,
        dst: Optional[int] = None,
        failed: FrozenSet[Channel] = frozenset(),
    ) -> None:
        super().__init__(message)
        self.node = node
        self.dst = dst
        self.failed = frozenset(failed)


class RoutingFunction(Protocol):
    """Deterministic output-port selector.

    Beyond the core :meth:`output_port` map, every routing function
    carries two capability attributes and one VC-discipline hook.
    The attributes were formerly probed with ``getattr`` duck-typing in
    the router's constructor; they are now part of the protocol, with
    neutral defaults provided by :class:`RoutingBase`, so the router
    reads them directly.
    """

    #: Dictates the permissible output VCs per packet at VA time
    #: (torus datelines, escape-layer table routing).
    has_vc_discipline: bool
    #: Minimum virtual channels per physical channel the function's
    #: deadlock-freedom argument needs (checked at router build time).
    required_vcs: int

    def output_port(
        self, node: int, dst: int, failed: FrozenSet[Channel] = frozenset()
    ) -> str:
        """Port name to take from *node* towards *dst*.

        Returns :data:`~repro.topology.base.LOCAL_PORT` when
        ``node == dst``.  *failed* holds the dead directed channels: a
        rule that can steer around them does (express meshes); the
        others ignore it, and the table builder turns their entries
        onto dead channels into drops.
        """
        ...

    def allowed_vcs(
        self, src: int, dst: int, node: int, out_port: str
    ) -> Optional[Tuple[int, ...]]:
        """VC set a packet from *src* to *dst* may claim on *out_port*
        at *node*.

        A pure function of the route: routes are deterministic, so the
        position on the route fixes the answer.  ``None`` means
        unrestricted (any VC); only consulted when
        :attr:`has_vc_discipline` is true.
        """
        ...


class RoutingBase:
    """Default implementations of the :class:`RoutingFunction` protocol.

    Concrete routing functions subclass this and override what they
    need; the defaults are the common case (no VC discipline,
    deadlock-free with one VC).
    """

    has_vc_discipline = False
    required_vcs = 1

    def output_port(self, node: int, dst: int, failed=frozenset()) -> str:
        raise NotImplementedError

    def allowed_vcs(
        self, src: int, dst: int, node: int, out_port: str
    ) -> Optional[Tuple[int, ...]]:
        return None  # unrestricted


class XYRouting(RoutingBase):
    """Dimension-ordered routing for a 2D mesh: X fully first, then Y."""

    def __init__(self, topology: Mesh2D) -> None:
        self.topology = topology

    def output_port(self, node: int, dst: int, failed=frozenset()) -> str:
        x, y = self.topology.coordinates(node)
        dx, dy = self.topology.coordinates(dst)
        if x < dx:
            return EAST
        if x > dx:
            return WEST
        if y < dy:
            return SOUTH
        if y > dy:
            return NORTH
        return LOCAL_PORT


class XYZRouting(RoutingBase):
    """Dimension-ordered routing for a 3D mesh: X, then Y, then Z."""

    def __init__(self, topology: Mesh3D) -> None:
        self.topology = topology

    def output_port(self, node: int, dst: int, failed=frozenset()) -> str:
        x, y, z = self.topology.coordinates(node)
        dx, dy, dz = self.topology.coordinates(dst)
        if x < dx:
            return EAST
        if x > dx:
            return WEST
        if y < dy:
            return SOUTH
        if y > dy:
            return NORTH
        if z < dz:
            return UP
        if z > dz:
            return DOWN
        return LOCAL_PORT


class ExpressXYRouting(RoutingBase):
    """X-Y routing that prefers express channels for long in-dimension runs.

    From a node with an express channel in the productive direction, the
    express channel is taken whenever the remaining distance in that
    dimension is at least the express span; otherwise the normal channel is
    taken.  Both channel types advance monotonically in strict X-then-Y
    order, preserving deadlock freedom.

    Given failed channels, the rule steers around them through the
    sibling channel (Sec. 3.3): a dead express channel degrades to the
    normal one, and a dead normal channel is bypassed by the express
    one — minimal when the remaining distance covers the span,
    otherwise a one-hop overshoot that comes back.  With no failures
    this is exactly the rule above.
    """

    def __init__(self, topology: ExpressMesh) -> None:
        self.topology = topology

    def output_port(self, node: int, dst: int, failed=frozenset()) -> str:
        x, y = self.topology.coordinates(node)
        dx, dy = self.topology.coordinates(dst)
        if x != dx:
            direction, distance = (EAST if x < dx else WEST), abs(dx - x)
        elif y != dy:
            direction, distance = (SOUTH if y < dy else NORTH), abs(dy - y)
        else:
            return LOCAL_PORT
        out = self.topology.out_ports[node]

        def alive(port: str) -> bool:
            link = out.get(port)
            return link is not None and (node, link.dst) not in failed

        express = EXPRESS_FOR[direction]
        if distance >= self.topology.span and alive(express):
            return express
        if alive(direction):
            return direction
        if alive(express):
            return express  # bounded overshoot past the failure
        raise UnroutableError(
            f"node {node}: no surviving channel towards {dst}",
            node=node,
            dst=dst,
            failed=failed,
        )


class TorusXYRouting(RoutingBase):
    """Shortest-direction dimension-ordered routing on a 2D torus, with
    Dally's dateline VC discipline for deadlock freedom.

    In each dimension the packet takes the shorter way around the ring
    (ties go east/south).  Packets request VC 0 until they traverse a
    wrap channel in the current dimension, then VC 1 — the dateline
    split that cuts each ring's cyclic channel dependency.  The router
    consults :meth:`allowed_vcs` at VA time.
    """

    #: Routers must ask us for the permitted VCs per packet.
    has_vc_discipline = True
    #: The dateline split needs VC 0 (pre-wrap) and VC 1 (post-wrap).
    required_vcs = 2

    def __init__(self, topology: "Torus2D") -> None:
        if not isinstance(topology, Torus2D):
            raise TypeError("torus routing requires a Torus2D topology")
        self.topology = topology

    def _delta(self, src: int, dst: int, size: int) -> int:
        """Signed shortest step count (+ = increasing coordinate)."""
        forward = (dst - src) % size
        backward = (src - dst) % size
        if forward == 0:
            return 0
        return forward if forward <= backward else -backward

    def output_port(self, node: int, dst: int, failed=frozenset()) -> str:
        x, y = self.topology.coordinates(node)
        dx, dy = self.topology.coordinates(dst)
        step_x = self._delta(x, dx, self.topology.width)
        if step_x > 0:
            return EAST
        if step_x < 0:
            return WEST
        step_y = self._delta(y, dy, self.topology.height)
        if step_y > 0:
            return SOUTH
        if step_y < 0:
            return NORTH
        return LOCAL_PORT

    # -- dateline discipline hooks -----------------------------------------

    def allowed_vcs(self, src: int, dst: int, node: int, out_port: str) -> tuple:
        """VC set the packet may claim on *out_port* at *node*.

        A packet runs the shorter way round each ring, never a full lap,
        so it has crossed the current dimension's wrap channel exactly
        when it sits on the far side of its source coordinate: below it
        when heading east/south, above it when heading west/north.
        """
        x, y = self.topology.coordinates(node)
        sx, sy = self.topology.coordinates(src)
        if out_port == EAST:
            return (1,) if x < sx else (0,)
        if out_port == WEST:
            return (1,) if x > sx else (0,)
        if out_port == SOUTH:
            return (1,) if y < sy else (0,)
        if out_port == NORTH:
            return (1,) if y > sy else (0,)
        return (0, 1)  # ejection: any


# ---------------------------------------------------------------------------
# Topology -> routing registry
# ---------------------------------------------------------------------------

#: Factory producing the canonical routing function for one topology class.
RoutingFactory = Callable[[Topology], RoutingFunction]

_ROUTING_REGISTRY: Dict[Type[Topology], RoutingFactory] = {}


def register_routing(topo_cls: Type[Topology], factory: RoutingFactory) -> None:
    """Register *factory* as the canonical routing for *topo_cls*.

    Dispatch follows the topology's MRO, so registering a subclass
    shadows its bases and third-party fabrics plug in without editing
    this module: ``register_routing(MyFabric, MyRouting)``.

    Registering the same class again replaces the previous factory.
    """
    _ROUTING_REGISTRY[topo_cls] = factory


def registered_routings() -> Dict[Type[Topology], RoutingFactory]:
    """Snapshot of the registry (topology class -> routing factory)."""
    return dict(_ROUTING_REGISTRY)


def routing_for_topology(topology: Topology) -> RoutingFunction:
    """Pick the canonical deterministic routing function for *topology*.

    Walks the topology's MRO through the registry: the most specific
    registered class wins.  Every :class:`~repro.topology.base.Topology`
    subclass resolves — the base-class fallback is the generic
    deadlock-free :class:`~repro.noc.table_routing.TableRouting` — so a
    ``TypeError`` only means *topology* is not a Topology at all.
    """
    for cls in type(topology).__mro__:
        factory = _ROUTING_REGISTRY.get(cls)
        if factory is not None:
            return factory(topology)
    raise TypeError(f"no routing function registered for {type(topology).__name__}")


def _table_routing_factory(topology: Topology) -> RoutingFunction:
    # Imported lazily: table_routing pulls in the CDG checker, which
    # transitively imports this module.
    from repro.noc.table_routing import TableRouting

    return TableRouting(topology)


register_routing(Torus2D, TorusXYRouting)
register_routing(ExpressMesh, ExpressXYRouting)
register_routing(Mesh3D, XYZRouting)
register_routing(Mesh2D, XYRouting)
register_routing(Topology, _table_routing_factory)
