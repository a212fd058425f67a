"""Sampled ring-buffer trace recorder: production-cost lifecycle capture.

The original trace path allocated a ``PacketLife`` dict entry per packet
and appended Chrome-trace event dicts per pipeline event — measured at a
2.5x simulation slowdown (``BENCH_PR3.json``), unusable always-on.  This
module replaces the live object churn with:

* a **preallocated flat ring buffer** (``array('q')``, fixed four-field
  records) that the routers' head-flit RC/VA/ST events are written
  into with no per-event object allocation; when the ring wraps, the
  oldest events are overwritten and counted, never silently lost;
* **packet sampling** — head capture of the first *K* packets, tail
  capture of the last *K* (a sliding reference window, rendered as
  spans), and deterministic probabilistic sampling by a seeded
  packet-id hash; unsampled packets early-out in O(1), and the routers
  skip the call for them entirely by probing
  :attr:`TraceRecorder.decisions` first — the zero-call early-out;
* **deferred rendering** — Perfetto lifecycles are reconstructed from
  the surviving ring records at ``finish()`` time, off the hot path,
  through the same :class:`~repro.telemetry.export.PacketLife` /
  :class:`~repro.telemetry.export.ChromeTraceBuilder` pipeline, so the
  ``trace.json`` dialect is unchanged.

Sampling is reproducible: the keep/drop decision for a packet id is a
pure function of ``(pid, seed)``, so two runs of the same simulation
with the same seed capture the same packets.

The recorder only ever *reads* packet and flit state, preserving the
telemetry layer's bit-identical guarantee.  Captured packets are kept
alive by reference until the recorder is dropped — bounded by
``max_packets`` plus the tail window, not by run length.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.noc.packet import Flit, Packet
    from repro.telemetry.export import PacketLife

#: Fields per ring record: (pid, cycle, node, kind).
RECORD_WIDTH = 4

#: Record kinds (the ``kind`` field).  ``KIND_EJECT`` stamps packet
#: delivery into the ring so the ring alone is a self-contained input
#: for offline latency decomposition
#: (:mod:`repro.telemetry.attribution`); live reconstruction also
#: cross-reads ``packet.delivered_cycle`` off the held object.
KIND_RC, KIND_VA, KIND_ST, KIND_EJECT = 0, 1, 2, 3

#: Stage name -> record kind, and back.
_STAGE_KIND = {"rc": KIND_RC, "va": KIND_VA, "st": KIND_ST}
_KIND_STAGE = {kind: stage for stage, kind in _STAGE_KIND.items()}

#: Default ring capacity, in records (8 MiB of int64 at width 4).
DEFAULT_RING_EVENTS = 1 << 18

#: Per-packet capture decisions.  ``_DROP`` packets early-out in O(1)
#: (and the routers skip the call entirely: they probe the map first).
#: ``_TAIL`` is a transient admission verdict: tail candidates are
#: stored at ``_DROP`` because their capture is span-only.
_DROP, _HEAD, _HASH, _TAIL = 0, 1, 2, 3

_MASK64 = (1 << 64) - 1


def pid_hash_unit(pid: int, seed: int) -> float:
    """Deterministic uniform-ish value in [0, 1) for ``(pid, seed)``.

    A splitmix64-style finalizer: stable across processes and
    ``PYTHONHASHSEED`` values (unlike ``hash()``), so sampled captures
    are reproducible run to run and machine to machine.
    """
    x = (pid + 0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return (x >> 11) / float(1 << 53)


class TraceRecorder:
    """Flat-ring lifecycle recorder with head/tail + hash sampling.

    Capture policy, decided once per packet on first sight:

    1. the first ``head_tail`` packets are captured (head capture);
    2. otherwise the packet is captured when its seeded id hash falls
       under ``sample_rate`` (``1.0`` captures everything — the
       backward-compatible full-trace mode);
    3. otherwise the packet becomes a *tail candidate*: a reference is
       kept in a sliding window and evicted once ``head_tail`` newer
       packets arrive, so whatever survives to ``finish()`` is, by
       construction, the last ``head_tail`` packets.  Tail candidates
       are span-only: their pipeline events are **not** recorded (they
       sit at ``0`` in :attr:`decisions`, so the routers skip the call
       entirely) — recording hops provisionally for every packet would
       cost half of full tracing.  They render as packet spans with
       injection/delivery timing; hop slices come from head and hash
       captures.

    ``max_packets`` caps permanently captured lifecycles (head + hash);
    packets refused by the cap land in :attr:`dropped_pids` and mark the
    trace truncated, exactly like the pre-ring recorder.

    Captured packets are held by reference (``_packets``); their
    created/injected/delivered cycles are read off the live objects at
    reconstruction time, so the hot path never copies metadata.
    """

    __slots__ = (
        "sample_rate", "head_tail", "seed", "capacity", "max_packets",
        "_size", "_ring", "_w", "events_recorded", "decisions",
        "_packets", "_tail_window", "packets_seen", "head_captured",
        "hash_sampled", "sampled_out", "tail_evicted", "dropped_pids",
        "_network",
    )

    def __init__(
        self,
        sample_rate: float = 1.0,
        head_tail: int = 0,
        seed: int = 0,
        ring_events: int = DEFAULT_RING_EVENTS,
        max_packets: int = 5000,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"trace sample rate must be in [0, 1], got {sample_rate}"
            )
        if head_tail < 0:
            raise ValueError(f"head/tail depth must be >= 0, got {head_tail}")
        if ring_events < 1:
            raise ValueError(f"ring capacity must be >= 1, got {ring_events}")
        self.sample_rate = sample_rate
        self.head_tail = head_tail
        self.seed = seed
        self.capacity = ring_events
        self.max_packets = max_packets

        self._size = ring_events * RECORD_WIDTH
        self._ring = array("q", bytes(8 * self._size))
        self._w = 0
        #: Total records ever written (monotonic; ``- capacity`` of these
        #: have been overwritten once it exceeds the capacity).
        self.events_recorded = 0

        #: pid -> capture code, decided on first sight; ``0`` means
        #: no stage events are recorded.  The routers probe it before
        #: calling :meth:`on_stage`.
        self.decisions: Dict[int, int] = {}
        #: pid -> captured packet object; insertion order is admission
        #: order, which fixes the rendered track order.
        self._packets: Dict[int, "Packet"] = {}
        self._tail_window: Deque[int] = deque()

        self.packets_seen = 0
        self.head_captured = 0
        self.hash_sampled = 0
        self.sampled_out = 0
        self.tail_evicted = 0
        #: pids refused by ``max_packets`` (the truncation surface).
        self.dropped_pids: Set[int] = set()
        self._network: Optional["Network"] = None

    # -- admission (cold path: once per packet) -----------------------------

    def _admit(self, packet: "Packet") -> int:
        pid = packet.pid
        self.packets_seen += 1
        if self.head_captured < self.head_tail:
            code = _HEAD
        elif self.sample_rate >= 1.0 or (
            self.sample_rate > 0.0
            and pid_hash_unit(pid, self.seed) < self.sample_rate
        ):
            code = _HASH
        else:
            code = _TAIL if self.head_tail > 0 else _DROP
        if code in (_HEAD, _HASH):
            if self.head_captured + self.hash_sampled >= self.max_packets:
                self.dropped_pids.add(pid)
                self.decisions[pid] = _DROP
                return _DROP
            if code == _HEAD:
                self.head_captured += 1
            else:
                self.hash_sampled += 1
            self._packets[pid] = packet
        elif code == _TAIL:
            window = self._tail_window
            if len(window) >= self.head_tail:
                evicted = window.popleft()
                del self._packets[evicted]
                self.tail_evicted += 1
            window.append(pid)
            self._packets[pid] = packet
            # Span-only capture: park the pid at _DROP so the routers
            # skip its stage events.
            self.decisions[pid] = _DROP
            return _DROP
        else:
            self.sampled_out += 1
        self.decisions[pid] = code
        return code

    # -- network attachment --------------------------------------------------

    def attach(self, network: "Network") -> "TraceRecorder":
        """Record *network*'s head-flit stage events from now on.

        Fills ``network.recorder``, the one slot the router loop reads.
        At each head-flit RC / VA / ST the loop probes :attr:`decisions`
        and calls :meth:`on_stage` only for pids not mapped to ``0``.
        :meth:`on_stage` keeps its own early-out, so the probe is an
        optimization, never a correctness requirement.  A network holds
        one recorder.
        """
        if self._network is not None:
            raise RuntimeError("trace recorder is already attached")
        if network.recorder is not None:
            raise RuntimeError("network already has a trace recorder")
        self._network = network
        network.recorder = self
        return self

    def detach(self) -> None:
        """Clear the network's recorder slot; idempotent."""
        network = self._network
        if network is None:
            return
        self._network = None
        network.recorder = None

    # -- hot-path hooks (router and sampler calls) --------------------------

    def on_stage(
        self, cycle: int, node: int, flit: "Flit", stage: str
    ) -> None:
        """A head flit's RC, VA or ST (switch grant plus traversal) at
        *node*; called by the routers."""
        pid = flit.packet.pid
        code = self.decisions.get(pid)
        if code is None:
            code = self._admit(flit.packet)
        if code == 0:
            return
        w = self._w
        ring = self._ring
        ring[w] = pid
        ring[w + 1] = cycle
        ring[w + 2] = node
        ring[w + 3] = _STAGE_KIND[stage]
        w += 4
        self._w = 0 if w == self._size else w
        self.events_recorded += 1

    def on_eject(self, packet: "Packet", cycle: int) -> None:
        """Delivery record: the packet's tail flit left the network.

        Called from the telemetry sampler's delivery hook (once per
        delivered packet, not per flit), so the cost for sampled-out
        packets is one dict probe.
        """
        code = self.decisions.get(packet.pid)
        if code is None:
            code = self._admit(packet)
        if code == 0:
            return
        w = self._w
        ring = self._ring
        ring[w] = packet.pid
        ring[w + 1] = cycle
        ring[w + 2] = packet.dst
        ring[w + 3] = 3
        w += 4
        self._w = 0 if w == self._size else w
        self.events_recorded += 1

    # -- reconstruction (off the hot path) ----------------------------------

    @property
    def events_overwritten(self) -> int:
        """Records lost to ring wrap-around (oldest first)."""
        return max(0, self.events_recorded - self.capacity)

    def packets_captured(self) -> int:
        """Lifecycles currently held: head + hash + live tail window."""
        return len(self._packets)

    def lifecycles(self) -> Tuple[List["PacketLife"], int]:
        """Rebuild the captured lifecycles from the ring.

        Returns ``(lives, orphaned)`` where *lives* are
        :class:`~repro.telemetry.export.PacketLife` objects in admission
        order and *orphaned* counts surviving ring records whose packet
        is no longer held (skipped, not rendered — defensive; with
        span-only tail capture no code path produces them today).
        Packets whose early events were overwritten by ring wrap render
        as partial lifecycles (missing leading hops) — explicitly
        permitted by the ``HopRecord`` contract; tail-window packets
        render as bare spans with no hop slices.
        """
        from repro.telemetry.export import PacketLife

        lives: Dict[int, PacketLife] = {}
        for pid, packet in self._packets.items():
            lives[pid] = PacketLife(
                pid=pid,
                src=packet.src,
                dst=packet.dst,
                size_flits=packet.size_flits,
                klass=packet.klass.value,
                created=packet.created_cycle,
                injected=packet.injected_cycle,
                delivered=packet.delivered_cycle,
            )

        ring = self._ring
        size = self._size
        count = min(self.events_recorded, self.capacity)
        start = self._w if self.events_recorded > self.capacity else 0
        orphaned = 0
        idx = start
        for _ in range(count):
            if idx == size:
                idx = 0
            life = lives.get(ring[idx])
            if life is None:
                orphaned += 1
                idx += RECORD_WIDTH
                continue
            cycle = ring[idx + 1]
            kind = ring[idx + 3]
            if kind == KIND_EJECT:
                # Redundant with the live packet's delivered_cycle by
                # construction; authoritative when reconstructing from
                # a ring alone.
                life.delivered = cycle
            else:
                life.note_stage(cycle, ring[idx + 2], _KIND_STAGE[kind])
            idx += RECORD_WIDTH
        return list(lives.values()), orphaned

    def captured(self) -> Dict[int, "Packet"]:
        """The held pid -> packet map (head + hash + live tail window);
        read-only for consumers like the latency decomposition pass,
        which needs ``packet.hops`` as its completeness bar."""
        return self._packets

    def sampling_meta(self, orphaned: Optional[int] = None) -> Dict[str, Any]:
        """Sampling/truncation metadata for the trace file and snapshot."""
        meta: Dict[str, Any] = {
            "mode": (
                "full"
                if self.sample_rate >= 1.0 and self.head_tail == 0
                else "sampled"
            ),
            "sample_rate": self.sample_rate,
            "head_tail": self.head_tail,
            "seed": self.seed,
            "ring_capacity_events": self.capacity,
            "packets_seen": self.packets_seen,
            "packets_captured": self.packets_captured(),
            "head_captured": self.head_captured,
            "hash_sampled": self.hash_sampled,
            "tail_window": len(self._tail_window),
            "sampled_out": self.sampled_out,
            "tail_evicted": self.tail_evicted,
            "events_recorded": self.events_recorded,
            "events_overwritten": self.events_overwritten,
        }
        if orphaned is not None:
            meta["events_orphaned"] = orphaned
        return meta
