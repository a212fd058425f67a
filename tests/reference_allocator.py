"""Reference separable allocators for the differential tests.

The VA and SA algorithms of the paper (Sec. 3.2.5, 3.2.6) as first
written: one request tuple per requesting input VC, a dict of
:class:`RoundRobinArbiter` objects, and one
``grant`` call over a bool request vector per arbitration.  Slow, but
each step reads like the paper.  :mod:`repro.noc.allocator` must pick
the same winners, in the same grant order, and leave every round-robin
pointer where this reference does.

Pointers convert to and from the flat ``int`` lists of
:class:`~repro.noc.allocator.VirtualChannelAllocator` (``va1`` per input
unit, ``va2`` per output VC) and
:class:`~repro.noc.allocator.SwitchAllocator` (``sa1`` per input port,
``sa2`` per output port), so both sides can start from any state.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


class RoundRobinArbiter:
    """Rotating-priority arbiter over *size* requesters."""

    __slots__ = ("size", "_next")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"arbiter size must be >= 1, got {size}")
        self.size = size
        self._next = 0

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        """Grant one of the asserted *requests*; ``None`` if none asserted.

        The winner becomes the lowest-priority requester for the next
        arbitration, giving round-robin fairness.
        """
        if len(requests) != self.size:
            raise ValueError(
                f"expected {self.size} request lines, got {len(requests)}"
            )
        for offset in range(self.size):
            idx = (self._next + offset) % self.size
            if requests[idx]:
                self._next = (idx + 1) % self.size
                return idx
        return None


class VARequest(NamedTuple):
    """Input VC ``(in_port, in_vc)`` asking for a free output VC on
    ``out_port``; ``allowed_vcs`` restricts the candidates (``None`` =
    any VC)."""

    in_port: int
    in_vc: int
    out_port: int
    allowed_vcs: Optional[Tuple[int, ...]] = None


class SARequest(NamedTuple):
    """Input VC ``(in_port, in_vc)`` asking for the crossbar slot to
    ``out_port``."""

    in_port: int
    in_vc: int
    out_port: int


def _arbiters(size: int, pointers: Sequence[int]) -> List[RoundRobinArbiter]:
    arbiters = []
    for nxt in pointers:
        arbiter = RoundRobinArbiter(size)
        arbiter._next = nxt
        arbiters.append(arbiter)
    return arbiters


class ReferenceVA:
    """Separable two-stage VC allocator over request tuples."""

    def __init__(
        self,
        num_ports: int,
        num_vcs: int,
        va1: Optional[Sequence[int]] = None,
        va2: Optional[Sequence[int]] = None,
    ) -> None:
        units = num_ports * num_vcs
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        keys = [(p, v) for p in range(num_ports) for v in range(num_vcs)]
        # VA1: one V:1 arbiter per input VC choosing among its candidate
        # output VCs; VA2: one PV:1 arbiter per output VC choosing among
        # input VCs.
        self._va1 = dict(zip(keys, _arbiters(num_vcs, va1 or [0] * units)))
        self._va2 = dict(zip(keys, _arbiters(units, va2 or [0] * units)))

    def pointers(self) -> Tuple[List[int], List[int]]:
        """The pointers as the flat ``(va1, va2)`` lists."""
        return (
            [arb._next for arb in self._va1.values()],
            [arb._next for arb in self._va2.values()],
        )

    def allocate(
        self,
        requests: Sequence[VARequest],
        free: Dict[int, Sequence[bool]],
    ) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Map each winning ``(in_port, in_vc)`` to its granted
        ``(out_port, out_vc)``; ``free`` gives the unowned output VCs
        per requested output port."""
        # Stage 1: each input VC picks one candidate output VC among the
        # free VCs of its requested output port.
        candidates: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for req in requests:
            free_vcs = free[req.out_port]
            if req.allowed_vcs is not None:
                allowed = set(req.allowed_vcs)
                lines = [f and v in allowed for v, f in enumerate(free_vcs)]
            else:
                lines = list(free_vcs)
            choice = self._va1[(req.in_port, req.in_vc)].grant(lines)
            if choice is not None:
                candidates[(req.in_port, req.in_vc)] = (req.out_port, choice)

        # Stage 2: each requested output VC picks one input VC.
        by_out: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for in_key, out_key in candidates.items():
            by_out.setdefault(out_key, []).append(in_key)
        grants: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for out_key, contenders in by_out.items():
            lines = [False] * (self.num_ports * self.num_vcs)
            for in_port, in_vc in contenders:
                lines[in_port * self.num_vcs + in_vc] = True
            winner = self._va2[out_key].grant(lines)
            grants[divmod(winner, self.num_vcs)] = out_key
        return grants


class ReferenceSA:
    """Separable two-stage switch allocator over request tuples, with
    strict-priority filtering when ``priorities`` is given."""

    def __init__(
        self,
        num_ports: int,
        num_vcs: int,
        sa1: Optional[Sequence[int]] = None,
        sa2: Optional[Sequence[int]] = None,
    ) -> None:
        self.num_ports = num_ports
        self.num_vcs = num_vcs
        # SA1: one V:1 arbiter per input port; SA2: one P:1 arbiter per
        # output port (inputs already reduced to one VC each by SA1).
        self._sa1 = _arbiters(num_vcs, sa1 or [0] * num_ports)
        self._sa2 = _arbiters(num_ports, sa2 or [0] * num_ports)

    def pointers(self) -> Tuple[List[int], List[int]]:
        """The pointers as the flat ``(sa1, sa2)`` lists."""
        return (
            [arb._next for arb in self._sa1],
            [arb._next for arb in self._sa2],
        )

    @staticmethod
    def _priority_filter(
        reqs: List[SARequest],
        priorities: Optional[Dict[Tuple[int, int], int]],
    ) -> List[SARequest]:
        if not priorities:
            return reqs
        best = max(priorities.get((r.in_port, r.in_vc), 0) for r in reqs)
        return [
            r for r in reqs if priorities.get((r.in_port, r.in_vc), 0) == best
        ]

    def allocate(
        self,
        requests: Sequence[SARequest],
        priorities: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> List[SARequest]:
        """The winning requests in grant order: at most one per input
        port and one per output port."""
        # Stage 1: per input port, pick one requesting VC.
        by_in: Dict[int, List[SARequest]] = {}
        for req in requests:
            by_in.setdefault(req.in_port, []).append(req)
        stage1: List[SARequest] = []
        for in_port, reqs in by_in.items():
            reqs = self._priority_filter(reqs, priorities)
            lines = [False] * self.num_vcs
            for req in reqs:
                lines[req.in_vc] = True
            winner = self._sa1[in_port].grant(lines)
            stage1.append(next(r for r in reqs if r.in_vc == winner))

        # Stage 2: per output port, pick one input port.
        by_out: Dict[int, List[SARequest]] = {}
        for req in stage1:
            by_out.setdefault(req.out_port, []).append(req)
        grants: List[SARequest] = []
        for out_port, reqs in by_out.items():
            reqs = self._priority_filter(reqs, priorities)
            lines = [False] * self.num_ports
            for req in reqs:
                lines[req.in_port] = True
            winner = self._sa2[out_port].grant(lines)
            grants.append(next(r for r in reqs if r.in_port == winner))
        return grants
