"""Two-stage separable allocators for virtual channels and the switch.

The paper's router performs virtual-channel allocation in two steps
(Sec. 3.2.5): VA1 locally picks one candidate output VC per input VC
(``V:1`` arbiters), VA2 resolves conflicts per output VC (``PV:1``
arbiters).  Switch allocation (Sec. 3.2.6) is separable the same way: SA1
picks one VC per input port, SA2 picks one input port per output port.

These classes operate on abstract request descriptors so the router stays
readable; they are deliberately stateful (the arbiters rotate priority
between cycles) to model fairness the way hardware does.

The router resolves the common small shapes itself (a sole VA
requester; one or two switch requests without QoS) and leaves the
arbiters in the state these classes would.  These allocators decide the
rest: VA among two or more requesters, SA among three or more, and any
QoS conflict.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple  # noqa: F401

from repro.noc.arbiter import RoundRobinArbiter


class VARequest(NamedTuple):
    """An input VC (identified by ``(in_port, in_vc)``) asking for a free
    output VC on ``out_port``.

    ``allowed_vcs`` restricts the candidate output VCs (e.g. the paper's
    one-VC-per-traffic-class policy, Sec. 3.2.4); ``None`` = any VC.

    A named tuple rather than a dataclass: requests are constructed in
    the per-cycle hot loop and tuple construction is several times
    cheaper.
    """

    in_port: int
    in_vc: int
    out_port: int
    allowed_vcs: Optional[Tuple[int, ...]] = None


class SARequest(NamedTuple):
    """An input VC with a buffered flit asking for the crossbar slot to
    ``out_port``."""

    in_port: int
    in_vc: int
    out_port: int


class VirtualChannelAllocator:
    """Separable two-stage VC allocator.

    ``grants = allocate(requests, free)`` maps each winning
    ``(in_port, in_vc)`` to its granted ``(out_port, out_vc)``.  ``free``
    gives the currently unowned output VCs per output port.
    """

    def __init__(self, num_ports: int, num_vcs: int) -> None:
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        # VA1: one V:1 arbiter per input VC choosing among candidate out VCs.
        self._va1 = {
            (p, v): RoundRobinArbiter(num_vcs)
            for p in range(num_ports)
            for v in range(num_vcs)
        }
        # VA2: one PV:1 arbiter per output VC choosing among input VCs.
        self._va2 = {
            (p, v): RoundRobinArbiter(num_ports * num_vcs)
            for p in range(num_ports)
            for v in range(num_vcs)
        }

    def allocate(
        self,
        requests: Sequence[VARequest],
        free: Dict[int, Sequence[bool]],
    ) -> Dict[Tuple[int, int], Tuple[int, int]]:
        # Stage 1: each input VC picks one candidate output VC among the
        # free VCs of its requested output port.
        candidates: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for req in requests:
            free_vcs = free.get(req.out_port)
            if free_vcs is None:
                continue
            if req.allowed_vcs is not None:
                allowed = set(req.allowed_vcs)
                lines = [
                    f and v in allowed for v, f in enumerate(free_vcs)
                ]
            else:
                lines = list(free_vcs)
            if not any(lines):
                continue
            choice = self._va1[(req.in_port, req.in_vc)].grant(lines)
            if choice is not None:
                candidates[(req.in_port, req.in_vc)] = (req.out_port, choice)

        # Stage 2: each contested output VC picks one input VC.
        grants: Dict[Tuple[int, int], Tuple[int, int]] = {}
        by_out: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for in_key, out_key in candidates.items():
            by_out.setdefault(out_key, []).append(in_key)
        for out_key, contenders in by_out.items():
            lines = [False] * (self.num_ports * self.num_vcs)
            for in_port, in_vc in contenders:
                lines[in_port * self.num_vcs + in_vc] = True
            winner = self._va2[out_key].grant(lines)
            if winner is not None:
                in_port, in_vc = divmod(winner, self.num_vcs)
                grants[(in_port, in_vc)] = out_key
        return grants

    def check_sane(self) -> Optional[str]:
        """``None`` when every arbiter's state is legal, else a message
        naming the first corrupted one (sanitizer hook)."""
        for key, arbiter in self._va1.items():
            problem = arbiter.check_sane()
            if problem:
                return f"VA1 arbiter for input VC {key}: {problem}"
        for key, arbiter in self._va2.items():
            problem = arbiter.check_sane()
            if problem:
                return f"VA2 arbiter for output VC {key}: {problem}"
        return None


class SwitchAllocator:
    """Separable two-stage switch allocator.

    ``allocate(requests)`` returns the winning requests, at most one per
    input port and one per output port (the crossbar constraint).

    ``priorities`` (optional) maps ``(in_port, in_vc)`` to a QoS class;
    within each arbitration only the highest-priority contenders compete
    (strict priority with round-robin tie-breaking), which is the
    QoS-provisioning mode of Sec. 3.3.
    """

    def __init__(self, num_ports: int, num_vcs: int) -> None:
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        # SA1: one V:1 arbiter per input port.
        self._sa1 = [RoundRobinArbiter(num_vcs) for _ in range(num_ports)]
        # SA2: one P:1 arbiter per output port (inputs already reduced to
        # one VC each by SA1).
        self._sa2 = [RoundRobinArbiter(num_ports) for _ in range(num_ports)]

    @staticmethod
    def _priority_filter(
        reqs: List[SARequest],
        priorities: Optional[Dict[Tuple[int, int], int]],
    ) -> List[SARequest]:
        if not priorities or len(reqs) <= 1:
            return reqs
        best = max(priorities.get((r.in_port, r.in_vc), 0) for r in reqs)
        return [r for r in reqs if priorities.get((r.in_port, r.in_vc), 0) == best]

    def allocate(
        self,
        requests: Sequence[SARequest],
        priorities: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> List[SARequest]:
        # Stage 1: per input port, pick one requesting VC.
        stage1: Dict[int, SARequest] = {}
        by_in: Dict[int, List[SARequest]] = {}
        for req in requests:
            by_in.setdefault(req.in_port, []).append(req)
        for in_port, reqs in by_in.items():
            reqs = self._priority_filter(reqs, priorities)
            lines = [False] * self.num_vcs
            lookup: Dict[int, SARequest] = {}
            for req in reqs:
                lines[req.in_vc] = True
                lookup[req.in_vc] = req
            winner = self._sa1[in_port].grant(lines)
            if winner is not None:
                stage1[in_port] = lookup[winner]

        # Stage 2: per output port, pick one input port.
        grants: List[SARequest] = []
        by_out: Dict[int, List[SARequest]] = {}
        for req in stage1.values():
            by_out.setdefault(req.out_port, []).append(req)
        for out_port, reqs in by_out.items():
            reqs = self._priority_filter(reqs, priorities)
            lines = [False] * self.num_ports
            lookup = {}
            for req in reqs:
                lines[req.in_port] = True
                lookup[req.in_port] = req
            winner = self._sa2[out_port].grant(lines)
            if winner is not None:
                grants.append(lookup[winner])
        return grants

    def check_sane(self) -> Optional[str]:
        """``None`` when every arbiter's state is legal, else a message
        naming the first corrupted one (sanitizer hook)."""
        for in_port, arbiter in enumerate(self._sa1):
            problem = arbiter.check_sane()
            if problem:
                return f"SA1 arbiter for input port {in_port}: {problem}"
        for out_port, arbiter in enumerate(self._sa2):
            problem = arbiter.check_sane()
            if problem:
                return f"SA2 arbiter for output port {out_port}: {problem}"
        return None
