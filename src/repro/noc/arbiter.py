"""Arbiters used by the allocation stages.

The paper's VA and SA logic are built from ``V:1`` and ``PV:1`` arbiters
(Sec. 3.2.5, 3.2.6).  We provide the two classic implementations:

* :class:`RoundRobinArbiter` — rotating-priority arbiter, strongly fair.
* :class:`MatrixArbiter` — least-recently-served matrix arbiter, the
  structure whose area model (``n^2`` state bits) backs Table 1.

Both expose the same ``grant(requests)`` interface over a bool request
vector.  The router's allocators (:mod:`repro.noc.allocator`) implement
round-robin arbitration directly on flat ``int`` pointer lists instead;
:class:`RoundRobinArbiter` is the readable form they are tested
against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


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


class MatrixArbiter:
    """Least-recently-served matrix arbiter.

    Keeps an ``n x n`` priority matrix: ``m[i][j]`` means requester *i*
    beats requester *j*.  The winner's row is cleared and column set, so it
    drops to lowest priority.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"arbiter size must be >= 1, got {size}")
        self.size = size
        # Upper-triangular initialisation: lower index wins initially.
        self._beats: List[List[bool]] = [
            [i < j for j in range(size)] for i in range(size)
        ]

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        if len(requests) != self.size:
            raise ValueError(
                f"expected {self.size} request lines, got {len(requests)}"
            )
        winner: Optional[int] = None
        for i in range(self.size):
            if not requests[i]:
                continue
            if all(
                not (requests[j] and self._beats[j][i])
                for j in range(self.size)
                if j != i
            ):
                winner = i
                break
        if winner is not None:
            for j in range(self.size):
                if j != winner:
                    self._beats[winner][j] = False
                    self._beats[j][winner] = True
        return winner
