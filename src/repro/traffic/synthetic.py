"""Open-loop synthetic traffic generators.

:class:`UniformRandomTraffic` is the paper's UR workload: every node
injects packets to uniformly random destinations at a controlled flit
rate.  :class:`BurstyUniformRandomTraffic` is its ON/OFF variant.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from repro.noc.packet import (
    CTRL_PACKET_FLITS,
    DATA_PACKET_FLITS,
    Packet,
    PacketClass,
)
from repro.traffic.base import BaseTraffic


class UniformRandomTraffic(BaseTraffic):
    """Uniform random traffic (the paper's UR workload).

    Every source injects with a Bernoulli draw per cycle to a uniformly
    random other node.  ``flit_rate`` is the offered load in flits per
    node per cycle; it is converted to a per-cycle packet-injection
    probability using the mean packet size implied by ``data_fraction``.
    """

    def __init__(
        self,
        num_nodes: int,
        flit_rate: float,
        data_fraction: float = 0.5,
        short_flit_fraction: float = 0.0,
        seed: int = 1,
        nodes: Optional[Sequence[int]] = None,
        high_priority_fraction: float = 0.0,
    ) -> None:
        if num_nodes < 2:
            raise ValueError("need at least two nodes")
        if flit_rate <= 0:
            raise ValueError(f"flit_rate must be positive, got {flit_rate}")
        if not 0.0 <= data_fraction <= 1.0:
            raise ValueError("data_fraction must be in [0, 1]")
        if not 0.0 <= short_flit_fraction <= 1.0:
            raise ValueError("short_flit_fraction must be in [0, 1]")
        if not 0.0 <= high_priority_fraction <= 1.0:
            raise ValueError("high_priority_fraction must be in [0, 1]")
        self.num_nodes = num_nodes
        self.flit_rate = flit_rate
        self.data_fraction = data_fraction
        self.short_flit_fraction = short_flit_fraction
        self.high_priority_fraction = high_priority_fraction
        self.rng = random.Random(seed)
        self.sources: List[int] = list(nodes) if nodes is not None else list(
            range(num_nodes)
        )
        mean_size = (
            data_fraction * DATA_PACKET_FLITS
            + (1.0 - data_fraction) * CTRL_PACKET_FLITS
        )
        self.packet_prob = min(1.0, flit_rate / mean_size)

    def _payload_groups(self, size_flits: int) -> Optional[List[int]]:
        if self.short_flit_fraction <= 0.0 or size_flits == 1:
            return None
        groups = [1]  # head flit carries only the address word
        for _ in range(size_flits - 1):
            if self.rng.random() < self.short_flit_fraction:
                groups.append(1)
            else:
                groups.append(4)
        return groups

    def packets_for_cycle(self, cycle: int) -> Iterable[Packet]:
        packets: List[Packet] = []
        rng = self.rng
        for src in self.sources:
            if rng.random() >= self.packet_prob:
                continue
            dst = rng.randrange(self.num_nodes - 1)
            if dst >= src:
                dst += 1
            if rng.random() < self.data_fraction:
                size, klass = DATA_PACKET_FLITS, PacketClass.DATA
            else:
                size, klass = CTRL_PACKET_FLITS, PacketClass.CTRL
            priority = 0
            if (
                self.high_priority_fraction
                and rng.random() < self.high_priority_fraction
            ):
                priority = 1
            packets.append(
                Packet(
                    src=src,
                    dst=dst,
                    size_flits=size,
                    klass=klass,
                    created_cycle=cycle,
                    payload_groups=self._payload_groups(size),
                    priority=priority,
                )
            )
        return packets


class BurstyUniformRandomTraffic(UniformRandomTraffic):
    """Uniform random destinations with ON/OFF (bursty) injection.

    Each node follows a two-state Markov process: in ON it injects at
    ``flit_rate / duty_cycle``, in OFF it is silent; expected burst and
    gap lengths follow from ``burst_length`` and ``duty_cycle``, and the
    long-run offered load equals ``flit_rate``.  Bursty arrivals are the
    standard stress variant of UR: same mean, much heavier queueing
    tails.
    """

    def __init__(
        self,
        num_nodes: int,
        flit_rate: float,
        burst_length: float = 50.0,
        duty_cycle: float = 0.25,
        **kwargs,
    ) -> None:
        if burst_length < 1:
            raise ValueError(f"burst_length must be >= 1, got {burst_length}")
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle must be in (0, 1], got {duty_cycle}")
        super().__init__(num_nodes=num_nodes, flit_rate=flit_rate, **kwargs)
        self.burst_length = burst_length
        self.duty_cycle = duty_cycle
        # Inflate the per-cycle injection probability during bursts so
        # the long-run mean matches flit_rate.
        self.packet_prob = min(1.0, self.packet_prob / duty_cycle)
        self._p_off = 1.0 / burst_length
        gap_length = burst_length * (1.0 - duty_cycle) / duty_cycle
        self._p_on = 1.0 / max(1.0, gap_length)
        self._state_on = [self.rng.random() < duty_cycle for _ in self.sources]

    def packets_for_cycle(self, cycle: int) -> Iterable[Packet]:
        rng = self.rng
        for i, on in enumerate(self._state_on):
            if on:
                if rng.random() < self._p_off:
                    self._state_on[i] = False
            else:
                if rng.random() < self._p_on:
                    self._state_on[i] = True
        active = [
            src for i, src in enumerate(self.sources) if self._state_on[i]
        ]
        saved = self.sources
        self.sources = active
        try:
            return super().packets_for_cycle(cycle)
        finally:
            self.sources = saved
