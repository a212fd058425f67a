"""Two-stage separable allocators for virtual channels and the switch.

The paper's router performs virtual-channel allocation in two steps
(Sec. 3.2.5): VA1 locally picks one candidate output VC per input VC
(``V:1`` arbiters), VA2 resolves conflicts per output VC (``PV:1``
arbiters).  Switch allocation (Sec. 3.2.6) is separable the same way: SA1
picks one VC per input port, SA2 picks one input port per output port.

Each allocator is one network-wide instance over the network's global
indices (:class:`~repro.noc.network.Network`): a port ``p`` of the node
whose ports start at global port ``port_base`` is global port
``port_base + p``, and its VC ``v`` is global unit (or output VC)
``(port_base + p) * num_vcs + v``.  Every arbiter is one ``int``
round-robin pointer in a flat list indexed the same way, so the
allocators are deliberately stateful: priority rotates between cycles to
model fairness the way hardware does.  A round-robin arbiter grants the
contender its pointer reaches first — the one with the smallest
``(x - pointer) % size`` — and its pointer then moves to ``winner + 1``.
A pointer holds the same value it would in a router-local allocator:
VA2 and SA2 arbitrate among one node's units and ports, so
:meth:`~VirtualChannelAllocator.allocate` takes the node's first unit
and unit count and measures those two stages' distances from there.

Every VA with two or more requesters, or with VC-restricted requesters
(a routing VC discipline, or ``vc_by_class``), goes through
:meth:`VirtualChannelAllocator.allocate`, and every switch allocation
with two or more requesters through :meth:`SwitchAllocator.allocate`.
The router loop (``Network._step_units``) handles the two lone shapes
itself, because a call per grant is most of their cost.  A lone,
unrestricted VA requester is the only contender of its VA2 arbitration,
so the loop runs VA1 (the first free output VC from the unit's ``va1``
pointer) and moves ``va1`` and that VC's ``va2`` pointer just past the
grant.  A sole SA requester is the only contender in both of its
arbitrations, so the loop just rotates its two pointers.  These
methods stay the one definition of the rules:
``tests/test_router_va_lone.py`` and ``tests/test_router_sa_pairs.py``
hold the inline shapes to the reference allocator.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple


class VirtualChannelAllocator:
    """Separable two-stage VC allocator over every node of a network.

    ``node_ports[n]`` is node *n*'s port count; nodes take consecutive
    global ports in node order.  ``va1[unit]`` is the VA1 pointer of
    input unit *unit* over its candidate output VCs (``0..num_vcs-1``);
    ``va2[out_vc]`` is the VA2 pointer of global output VC *out_vc* over
    its node's input units (``0..units-1``, relative to the node's first
    unit).
    """

    def __init__(self, node_ports: Sequence[int], num_vcs: int) -> None:
        self.node_ports = list(node_ports)
        self.num_vcs = num_vcs
        units = sum(self.node_ports) * num_vcs
        self.va1: List[int] = [0] * units
        self.va2: List[int] = [0] * units

    def allocate(
        self,
        units: Sequence[int],
        out_port_of: Sequence[int],
        owners: Sequence[Optional[int]],
        allowed: Optional[Sequence[Optional[Tuple[int, ...]]]],
        base: int,
        size: int,
    ) -> Dict[int, int]:
        """Grant output VCs to the requesting input *units* (ascending)
        of the node whose units are ``base .. base + size - 1``.

        Unit ``i`` asks for a VC on global output port
        ``out_port_of[i]``; output VC ``o`` is free when ``owners[o]``
        is ``None``, read as it stands before any grant of this call.
        ``allowed`` (parallel to *units*) restricts each unit's
        candidate VCs, e.g. the one-VC-per-traffic-class policy of
        Sec. 3.2.4; ``None`` means any VC.

        Returns ``{global output VC: unit}`` in order of each output
        VC's first appearance among the VA1 picks, the order the grants
        are committed in.
        """
        num_vcs = self.num_vcs
        va1 = self.va1
        va2 = self.va2
        winners: Dict[int, int] = {}
        for n, i in enumerate(units):
            first = out_port_of[i] * num_vcs
            allow = None if allowed is None else allowed[n]
            # VA1: the free, permitted output VC the pointer reaches
            # first.  Its pointer rotates even if VA2 then denies it.
            v = va1[i]
            for _ in range(num_vcs):
                if owners[first + v] is None and (allow is None or v in allow):
                    break
                v = v + 1 if v + 1 < num_vcs else 0
            else:
                continue
            va1[i] = v + 1 if v + 1 < num_vcs else 0
            # VA2: the output VC's pointer picks among its contenders.
            key = first + v
            cur = winners.get(key)
            if cur is None:
                winners[key] = i
            else:
                nxt = base + va2[key]
                if (i - nxt) % size < (cur - nxt) % size:
                    winners[key] = i
        for key, i in winners.items():
            va2[key] = (i - base + 1) % size
        return winners

    def check_sane(self) -> Optional[Tuple[int, str]]:
        """``None`` when every pointer is legal, else ``(node, message)``
        naming the first corrupted arbiter (sanitizer hook)."""
        num_vcs = self.num_vcs
        base = 0
        for node, ports in enumerate(self.node_ports):
            size = ports * num_vcs
            for unit in range(size):
                problem = _pointer_problem(self.va1[base + unit], num_vcs)
                if problem:
                    return node, (
                        f"VA1 arbiter for input VC {divmod(unit, num_vcs)}: "
                        f"{problem}"
                    )
            for key in range(size):
                problem = _pointer_problem(self.va2[base + key], size)
                if problem:
                    return node, (
                        f"VA2 arbiter for output VC {divmod(key, num_vcs)}: "
                        f"{problem}"
                    )
            base += size
        return None


class SwitchAllocator:
    """Separable two-stage switch allocator over every node of a network.

    ``sa1[in_port]`` is the SA1 pointer of global input port *in_port*
    over its VCs (``0..num_vcs-1``); ``sa2[out_port]`` is the SA2 pointer
    of global output port *out_port* over its node's input ports
    (``0..ports-1``, relative to the node's first port).
    """

    def __init__(self, node_ports: Sequence[int], num_vcs: int) -> None:
        self.node_ports = list(node_ports)
        self.num_vcs = num_vcs
        ports = sum(self.node_ports)
        self.sa1: List[int] = [0] * ports
        self.sa2: List[int] = [0] * ports

    def allocate(
        self,
        units: Sequence[int],
        out_port_of: Sequence[int],
        priority: Optional[Mapping[int, int]],
        base: int,
        size: int,
    ):
        """Grant the crossbar among the requesting input *units*
        (ascending) of the node whose units are ``base .. base + size -
        1``, unit ``i`` bidding for global output port
        ``out_port_of[i]``: at most one grant per input port and one per
        output port.

        ``priority`` (QoS provisioning, Sec. 3.3) maps each unit to its
        packet's priority (absent units count as 0); every arbitration
        then grants only among its highest-priority contenders,
        round-robin among ties.

        Returns the granted units in traversal order: by each output
        port's first appearance among the SA1 winners, which come in
        ascending input-port order.
        """
        num_vcs = self.num_vcs
        sa1 = self.sa1
        # SA1: per input port, the VC its pointer reaches first.
        stage1: Dict[int, int] = {}
        for i in units:
            port = i // num_vcs
            cur = stage1.get(port)
            if cur is None:
                stage1[port] = i
                continue
            nxt = sa1[port]
            better = (i - nxt) % num_vcs < (cur - nxt) % num_vcs
            if priority is not None:
                a, b = priority.get(i, 0), priority.get(cur, 0)
                if a != b:
                    better = a > b
            if better:
                stage1[port] = i
        # SA2: per output port, the input port its pointer reaches
        # first.  Every SA1 winner rotates its pointer, even one that
        # then loses here.
        port_base = base // num_vcs
        num_ports = size // num_vcs
        sa2 = self.sa2
        winners: Dict[int, int] = {}
        for port, i in stage1.items():
            sa1[port] = (i + 1) % num_vcs
            out = out_port_of[i]
            cur = winners.get(out)
            if cur is None:
                winners[out] = i
                continue
            nxt = port_base + sa2[out]
            better = (port - nxt) % num_ports < (cur // num_vcs - nxt) % num_ports
            if priority is not None:
                a, b = priority.get(i, 0), priority.get(cur, 0)
                if a != b:
                    better = a > b
            if better:
                winners[out] = i
        for out, i in winners.items():
            sa2[out] = (i // num_vcs - port_base + 1) % num_ports
        return winners.values()

    def check_sane(self) -> Optional[Tuple[int, str]]:
        """``None`` when every pointer is legal, else ``(node, message)``
        naming the first corrupted arbiter (sanitizer hook)."""
        port_base = 0
        for node, ports in enumerate(self.node_ports):
            for port in range(ports):
                problem = _pointer_problem(
                    self.sa1[port_base + port], self.num_vcs
                )
                if problem:
                    return node, f"SA1 arbiter for input port {port}: {problem}"
            for port in range(ports):
                problem = _pointer_problem(self.sa2[port_base + port], ports)
                if problem:
                    return node, f"SA2 arbiter for output port {port}: {problem}"
            port_base += ports
        return None


def _pointer_problem(nxt, size: int) -> Optional[str]:
    """What is wrong with round-robin pointer *nxt* over *size*
    requesters, or ``None``.  A corrupted pointer silently biases (or
    wedges) arbitration long before anything crashes; ``bool`` is
    rejected too, since it only passes for an ``int`` by subclassing."""
    if type(nxt) is not int or not 0 <= nxt < size:
        return f"round-robin pointer {nxt!r} outside [0, {size})"
    return None
