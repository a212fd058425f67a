"""Two-stage separable allocators for virtual channels and the switch.

The paper's router performs virtual-channel allocation in two steps
(Sec. 3.2.5): VA1 locally picks one candidate output VC per input VC
(``V:1`` arbiters), VA2 resolves conflicts per output VC (``PV:1``
arbiters).  Switch allocation (Sec. 3.2.6) is separable the same way: SA1
picks one VC per input port, SA2 picks one input port per output port.

Both allocators work on the router's flat unit indices (``unit = port *
num_vcs + vc``) and hold every arbiter as one ``int`` round-robin
pointer in a flat list, so they are deliberately stateful: priority
rotates between cycles to model fairness the way hardware does.  A
round-robin arbiter grants the contender its pointer reaches first —
the one with the smallest ``(x - pointer) % size`` — and its pointer
then moves to ``winner + 1``.

Every VA request, the sole requester included, goes through
:meth:`VirtualChannelAllocator.allocate`, and every switch allocation
with two or more requesters through :meth:`SwitchAllocator.allocate`.
The router loop (``Network._step_nodes``) handles one shape itself: a
sole SA requester is the only contender in both of its arbitrations, so
the loop just rotates its two pointers.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple


class VirtualChannelAllocator:
    """Separable two-stage VC allocator.

    ``va1[unit]`` is the VA1 pointer of input unit *unit* over its
    candidate output VCs; ``va2[out_port * num_vcs + out_vc]`` is the
    VA2 pointer of that output VC over all input units.
    """

    def __init__(self, num_ports: int, num_vcs: int) -> None:
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.va1: List[int] = [0] * (num_ports * num_vcs)
        self.va2: List[int] = [0] * (num_ports * num_vcs)

    def allocate(
        self,
        units: Sequence[int],
        out_port_of: Sequence[int],
        owners: Sequence[Sequence[Optional[Tuple[int, int]]]],
        allowed: Optional[Sequence[Optional[Tuple[int, ...]]]] = None,
    ) -> Dict[int, int]:
        """Grant output VCs to the requesting input *units* (ascending).

        Unit ``i`` asks for a VC on output port ``out_port_of[i]``; an
        output VC is free when its ``owners[port][vc]`` entry is
        ``None``, read as it stands before any grant of this call.
        ``allowed`` (parallel to *units*) restricts each unit's
        candidate VCs, e.g. the one-VC-per-traffic-class policy of
        Sec. 3.2.4; ``None`` means any VC.

        Returns ``{out_port * num_vcs + out_vc: unit}`` in order of each
        output VC's first appearance among the VA1 picks, the order the
        grants are committed in.
        """
        num_vcs = self.num_vcs
        va1 = self.va1
        va2 = self.va2
        size = len(va2)
        winners: Dict[int, int] = {}
        for n, i in enumerate(units):
            out_port = out_port_of[i]
            row = owners[out_port]
            allow = None if allowed is None else allowed[n]
            # VA1: the free, permitted output VC the pointer reaches
            # first.  Its pointer rotates even if VA2 then denies it.
            v = va1[i]
            for _ in range(num_vcs):
                if row[v] is None and (allow is None or v in allow):
                    break
                v = v + 1 if v + 1 < num_vcs else 0
            else:
                continue
            va1[i] = v + 1 if v + 1 < num_vcs else 0
            # VA2: the output VC's pointer picks among its contenders.
            key = out_port * num_vcs + v
            cur = winners.get(key)
            if cur is None:
                winners[key] = i
            else:
                nxt = va2[key]
                if (i - nxt) % size < (cur - nxt) % size:
                    winners[key] = i
        for key, i in winners.items():
            va2[key] = (i + 1) % size
        return winners

    def check_sane(self) -> Optional[str]:
        """``None`` when every pointer is legal, else a message naming
        the first corrupted arbiter (sanitizer hook)."""
        num_vcs = self.num_vcs
        for unit, nxt in enumerate(self.va1):
            problem = _pointer_problem(nxt, num_vcs)
            if problem:
                return (
                    f"VA1 arbiter for input VC {divmod(unit, num_vcs)}: "
                    f"{problem}"
                )
        for key, nxt in enumerate(self.va2):
            problem = _pointer_problem(nxt, len(self.va2))
            if problem:
                return (
                    f"VA2 arbiter for output VC {divmod(key, num_vcs)}: "
                    f"{problem}"
                )
        return None


class SwitchAllocator:
    """Separable two-stage switch allocator.

    ``sa1[in_port]`` is the SA1 pointer over that input port's VCs;
    ``sa2[out_port]`` is the SA2 pointer over the input ports.
    """

    def __init__(self, num_ports: int, num_vcs: int) -> None:
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        self.sa1: List[int] = [0] * num_ports
        self.sa2: List[int] = [0] * num_ports

    def allocate(
        self,
        units: Sequence[int],
        out_port_of: Sequence[int],
        priority: Optional[Mapping[int, int]] = None,
    ):
        """Grant the crossbar among the requesting input *units*
        (ascending), unit ``i`` bidding for output port
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
        num_ports = self.num_ports
        sa2 = self.sa2
        winners: Dict[int, int] = {}
        for port, i in stage1.items():
            sa1[port] = (i + 1) % num_vcs
            out = out_port_of[i]
            cur = winners.get(out)
            if cur is None:
                winners[out] = i
                continue
            nxt = sa2[out]
            better = (port - nxt) % num_ports < (cur // num_vcs - nxt) % num_ports
            if priority is not None:
                a, b = priority.get(i, 0), priority.get(cur, 0)
                if a != b:
                    better = a > b
            if better:
                winners[out] = i
        for out, i in winners.items():
            sa2[out] = (i // num_vcs + 1) % num_ports
        return winners.values()

    def check_sane(self) -> Optional[str]:
        """``None`` when every pointer is legal, else a message naming
        the first corrupted arbiter (sanitizer hook)."""
        for in_port, nxt in enumerate(self.sa1):
            problem = _pointer_problem(nxt, self.num_vcs)
            if problem:
                return f"SA1 arbiter for input port {in_port}: {problem}"
        for out_port, nxt in enumerate(self.sa2):
            problem = _pointer_problem(nxt, self.num_ports)
            if problem:
                return f"SA2 arbiter for output port {out_port}: {problem}"
        return None


def _pointer_problem(nxt, size: int) -> Optional[str]:
    """What is wrong with round-robin pointer *nxt* over *size*
    requesters, or ``None``.  A corrupted pointer silently biases (or
    wedges) arbitration long before anything crashes; ``bool`` is
    rejected too, since it only passes for an ``int`` by subclassing."""
    if type(nxt) is not int or not 0 <= nxt < size:
        return f"round-robin pointer {nxt!r} outside [0, {size})"
    return None
