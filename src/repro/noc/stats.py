"""Event counting and latency statistics.

Two concerns live here:

* :class:`EventCounts` — cumulative micro-architectural event counters
  (buffer reads/writes, crossbar and link traversals, allocator
  operations).  Separable-module events carry an *activity weight*: the
  fraction of word groups actually switched, which is how the layer
  shutdown technique (Sec. 3.2.1) turns short flits into energy savings.
  The Orion-style energy model consumes these counters.  Routers hold
  no ``EventCounts``: they tally events in their own fields and lists
  and the network's float accumulators, and ``Network.events`` folds
  those into one object on read.

* :class:`NetworkStats` — packet latency / hop / throughput accounting
  over a measurement window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.noc.packet import Packet, PacketClass


def nearest_rank_percentile(ordered: List[int], percentile: float) -> float:
    """Nearest-rank percentile over an already-sorted sample.

    The rank is ``ceil(n * p / 100)`` computed in exact rational
    arithmetic on the *decimal* value of ``percentile``
    (``Fraction(str(p))``) — a pure-float ceil misrounds when ``n * p``
    carries binary representation error across an integer boundary
    (8.8% of 375 samples is exactly rank 33, but ``375 * 8.8 =
    3300.0000000000005`` ceils to 34).
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    if not ordered:
        return 0.0
    n = len(ordered)
    rank = math.ceil(Fraction(str(percentile)) * n / 100)
    rank = min(max(rank, 1), n)
    return float(ordered[rank - 1])


@dataclass(slots=True)
class EventCounts:
    """Cumulative event counters (raw and activity-weighted)."""

    buffer_writes: int = 0
    buffer_reads: int = 0
    buffer_writes_weighted: float = 0.0
    buffer_reads_weighted: float = 0.0
    xbar_traversals: int = 0
    xbar_traversals_weighted: float = 0.0
    rc_computations: int = 0
    va_allocations: int = 0
    sa_allocations: int = 0
    #: Raw flit-link traversals by link kind name.
    link_flits: Dict[str, int] = field(default_factory=dict)
    #: Sum over link traversals of (length_mm * activity weight).
    link_mm_weighted: Dict[str, float] = field(default_factory=dict)
    #: Per-channel flit counts keyed by (src node, dst node) — the
    #: channel-load map used for utilisation analysis.
    channel_flits: Dict[Tuple[int, int], int] = field(default_factory=dict)
    short_flit_hops: int = 0
    flit_hops: int = 0

    # Layer-resolved histograms, keyed by the *effective* active-layer
    # count k (1..layer_groups): how many datapath layers switched for
    # the event.  With shutdown disabled every event records
    # k = layer_groups (all layers toggle regardless of payload), so in
    # both modes ``sum_k k*count[k]/layer_groups`` reproduces the legacy
    # ``*_weighted`` float exactly (k/layer_groups is dyadic for the
    # paper's L=4) and ``sum_k count[k]`` reproduces the raw total.
    buffer_writes_by_layers: Dict[int, int] = field(default_factory=dict)
    buffer_reads_by_layers: Dict[int, int] = field(default_factory=dict)
    xbar_traversals_by_layers: Dict[int, int] = field(default_factory=dict)
    flit_hops_by_layers: Dict[int, int] = field(default_factory=dict)
    #: Sum of link length_mm by effective active-layer count (all link
    #: kinds pooled; the per-kind split stays in ``link_mm_weighted``).
    link_mm_by_layers: Dict[int, float] = field(default_factory=dict)

    @staticmethod
    def events_at_layer(by_layers: Dict[int, int], layer: int) -> int:
        """Events during which datapath *layer* switched.

        Valid data fills word groups bottom-up, so layer ``l`` (0-based,
        0 = the always-on top group) toggles exactly for events whose
        effective active-layer count exceeds ``l``.
        """
        return sum(count for k, count in by_layers.items() if k > layer)

    def copy(self) -> "EventCounts":
        """Deep-enough snapshot of every counter.

        Field-generic (``dataclasses.fields``) so a newly added counter
        can never be silently forgotten here — a hand-written field list
        made that failure mode invisible until power numbers drifted.
        """
        out = EventCounts()
        for f in fields(self):
            value = getattr(self, f.name)
            setattr(out, f.name, dict(value) if isinstance(value, dict) else value)
        return out

    def delta(self, earlier: "EventCounts") -> "EventCounts":
        """Counters accumulated since *earlier* (a snapshot of self).

        Field-generic like :meth:`copy`: scalar counters subtract, dict
        counters subtract per key over the union of keys, in sorted key
        order (so float sums over ``values()`` never depend on the hash
        seed or on insertion order).
        """
        out = EventCounts()
        for f in fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(earlier, f.name)
            if isinstance(mine, dict):
                setattr(out, f.name, {
                    key: mine.get(key, 0) - theirs.get(key, 0)
                    for key in sorted(set(mine) | set(theirs))
                })
            else:
                setattr(out, f.name, mine - theirs)
        return out

    @property
    def short_flit_fraction(self) -> float:
        """Fraction of flit-hops carried by short flits."""
        if self.flit_hops == 0:
            return 0.0
        return self.short_flit_hops / self.flit_hops


class NetworkStats:
    """Latency, hop-count, and throughput accounting.

    Packets created inside ``[window_start, window_end)`` are *measured*;
    everything else only contributes to event counters (warm-up/drain).
    """

    def __init__(self) -> None:
        self.window_start = 0
        self.window_end: Optional[int] = None
        self.latencies: List[int] = []
        self.latencies_by_class: Dict[PacketClass, List[int]] = {
            PacketClass.DATA: [],
            PacketClass.CTRL: [],
        }
        self.hop_counts: List[int] = []
        self.latencies_by_priority: Dict[int, List[int]] = {}
        self.packets_injected = 0
        self.packets_delivered = 0
        self.flits_delivered = 0
        self.measured_flits = 0
        self.measured_outstanding = 0
        # Fault-injection drop accounting: packets the routers steered
        # to an ejection port because no surviving channel reached their
        # destination.  Zero in every fault-free run.
        self.packets_dropped = 0
        self.flits_dropped = 0
        self.measured_dropped = 0
        #: Drop-decision node -> dropped-packet count (forensics).
        self.drops_by_node: Dict[int, int] = {}

    def set_window(self, start: int, end: Optional[int]) -> None:
        self.window_start = start
        self.window_end = end

    def in_window(self, packet: Packet) -> bool:
        if packet.created_cycle < self.window_start:
            return False
        return self.window_end is None or packet.created_cycle < self.window_end

    def note_injected(self, packet: Packet) -> None:
        self.packets_injected += 1
        if self.in_window(packet):
            self.measured_outstanding += 1

    def note_delivered(self, packet: Packet) -> None:
        self.packets_delivered += 1
        self.flits_delivered += packet.size_flits
        if not self.in_window(packet):
            return
        self.measured_outstanding -= 1
        self.measured_flits += packet.size_flits
        latency = packet.latency
        if latency is None:
            raise RuntimeError("delivered packet without delivery cycle")
        self.latencies.append(latency)
        self.latencies_by_class[packet.klass].append(latency)
        self.latencies_by_priority.setdefault(packet.priority, []).append(latency)
        self.hop_counts.append(packet.hops)

    def note_dropped(self, packet: Packet) -> None:
        """Account a packet that ejected as a fault-induced drop.

        Dropped packets leave the network through the normal ejection
        path (flit conservation holds) but contribute no latency/hop
        samples; measured drops release their ``measured_outstanding``
        slot so the drain loop terminates.
        """
        self.packets_dropped += 1
        self.flits_dropped += packet.size_flits
        node = packet.drop_node
        self.drops_by_node[node] = self.drops_by_node.get(node, 0) + 1
        if self.in_window(packet):
            self.measured_outstanding -= 1
            self.measured_dropped += 1

    @property
    def avg_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def avg_hops(self) -> float:
        return sum(self.hop_counts) / len(self.hop_counts) if self.hop_counts else 0.0

    def avg_latency_for(self, klass: PacketClass) -> float:
        values = self.latencies_by_class[klass]
        return sum(values) / len(values) if values else 0.0

    def avg_latency_for_priority(self, priority: int) -> float:
        values = self.latencies_by_priority.get(priority, [])
        return sum(values) / len(values) if values else 0.0

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile over measured packets (nearest-rank, see
        :func:`nearest_rank_percentile` for the exact-rational rank)."""
        return nearest_rank_percentile(sorted(self.latencies), percentile)


@dataclass(frozen=True)
class StatsWindow:
    """Delta of a :class:`NetworkStats` since the previous cursor read.

    Produced by :meth:`StatsCursor.advance`; all counts cover only the
    interval between two consecutive ``advance()`` calls, which is what
    windowed telemetry samples instead of re-deriving running totals.
    """

    packets_injected: int
    packets_delivered: int
    flits_delivered: int
    #: Measured packets delivered in the window (their latencies below).
    measured_packets: int
    #: Flits of measured packets delivered in the window.
    measured_flits: int
    #: Latencies of the measured packets delivered in the window.
    latencies: Tuple[int, ...]

    @property
    def avg_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def latency_percentile(self, percentile: float) -> float:
        """Nearest-rank percentile over this window's latencies."""
        return nearest_rank_percentile(sorted(self.latencies), percentile)


class StatsCursor:
    """Incremental window reader over a live :class:`NetworkStats`.

    Holds high-water marks into the stats object and, on each
    :meth:`advance`, returns the delta accumulated since the previous
    call (the first call covers everything since construction).  Never
    mutates the stats it reads, so any number of cursors can watch the
    same run independently.
    """

    def __init__(self, stats: NetworkStats) -> None:
        self.stats = stats
        self._injected = stats.packets_injected
        self._delivered = stats.packets_delivered
        self._flits = stats.flits_delivered
        self._measured_flits = stats.measured_flits
        self._n_latencies = len(stats.latencies)

    def advance(self) -> StatsWindow:
        """Return the delta since the last call and move the marks."""
        stats = self.stats
        n = len(stats.latencies)
        window = StatsWindow(
            packets_injected=stats.packets_injected - self._injected,
            packets_delivered=stats.packets_delivered - self._delivered,
            flits_delivered=stats.flits_delivered - self._flits,
            measured_packets=n - self._n_latencies,
            measured_flits=stats.measured_flits - self._measured_flits,
            latencies=tuple(stats.latencies[self._n_latencies:n]),
        )
        self._injected = stats.packets_injected
        self._delivered = stats.packets_delivered
        self._flits = stats.flits_delivered
        self._measured_flits = stats.measured_flits
        self._n_latencies = n
        return window
