"""Packets and flits.

The paper models NUCA traffic as a mix of short control/address packets
(one flit) and cache-line data packets (Sec. 1, Fig. 2).  With 128-bit
flits and 64-byte cache lines a data packet is one head flit plus four
payload flits.

Each flit's payload is summarised by ``active_groups``: how many of the
flit's ``layer_groups`` word groups (one per stacked layer in the 3DM
designs) carry non-redundant data.  A *short flit* (Sec. 3.2.1) has valid
data only in the top group — the bottom ``L-1`` router layers can be clock
gated while it moves through the data path.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Number of word groups a flit is split into across stacked layers.  The
#: paper's running example is W=128 bits on L=4 layers (32 bits per layer).
DEFAULT_LAYER_GROUPS = 4

#: Flits in a data packet: one head flit + 64B line / 16B flit payload.
DATA_PACKET_FLITS = 5
#: Flits in a control/address packet.
CTRL_PACKET_FLITS = 1

_packet_ids = itertools.count()


class PacketClass(enum.Enum):
    """NUCA message coarse class (Fig. 2)."""

    DATA = "data"
    CTRL = "ctrl"


class FlitType(enum.Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: Single-flit packet: simultaneously head and tail.
    SINGLE = "single"


@dataclass(slots=True)
class Packet:
    """One network packet.

    Attributes:
        src: injecting node id.
        dst: destination node id.
        size_flits: total number of flits.
        klass: coarse packet class (data vs control).
        created_cycle: cycle the packet was handed to the source queue.
        payload_groups: per-flit count of active word groups (length
            ``size_flits``); ``None`` entries mean "all groups active".
        reply_tag: opaque cookie used by closed-loop traffic generators to
            match responses with requests.
    """

    src: int
    dst: int
    size_flits: int
    klass: PacketClass = PacketClass.DATA
    created_cycle: int = 0
    payload_groups: Optional[List[int]] = None
    reply_tag: object = None
    #: QoS priority class: higher values win allocation conflicts when
    #: the network runs with priority arbitration (Sec. 3.3 suggests QoS
    #: provisioning as one use of the spare 3DM bandwidth).
    priority: int = 0
    pid: int = field(default_factory=lambda: next(_packet_ids))

    # Filled in by the network at ejection time.
    injected_cycle: Optional[int] = None
    delivered_cycle: Optional[int] = None
    hops: int = 0
    #: Set by the router when no surviving channel reaches ``dst``
    #: (injected faults): the packet is steered to the nearest ejection
    #: port and counted in ``NetworkStats.packets_dropped`` instead of
    #: delivered.
    dropped: bool = False
    #: Node at which the drop decision was made (-1 = not dropped).
    drop_node: int = -1

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ValueError(f"packet must have >= 1 flit, got {self.size_flits}")
        if self.src == self.dst:
            raise ValueError("packet source and destination must differ")
        if self.payload_groups is not None and len(self.payload_groups) != self.size_flits:
            raise ValueError(
                "payload_groups length must equal size_flits "
                f"({len(self.payload_groups)} != {self.size_flits})"
            )

    def make_flits(self, layer_groups: int = DEFAULT_LAYER_GROUPS) -> List["Flit"]:
        """Materialise the flit sequence for this packet.

        Control packets and packet headers carry a short address payload
        and are therefore short flits by construction; payload flits take
        their activity from :attr:`payload_groups`, clamped to
        ``[1, layer_groups]``.

        Every packet injects through here, so the flits are built
        without the dataclass constructor (a Python call per flit): each
        is a bare instance whose slots are stored from the size's shape
        table.  The stored values are the ones ``Flit(...)`` would hold.
        """
        shape = _FLIT_SHAPES.get(self.size_flits)
        if shape is None:
            shape = _FLIT_SHAPES[self.size_flits] = _flit_shape(self.size_flits)
        groups = self.payload_groups
        full = layer_groups if layer_groups > 1 else 1
        new = object.__new__
        flits: List[Flit] = []
        for seq, (kind, is_head, is_tail) in enumerate(shape):
            if groups is not None:
                active = max(1, min(layer_groups, groups[seq]))
            else:
                # Headers/addresses fit in one 32-bit word group.
                active = 1 if is_head else full
            flit = new(Flit)
            flit.packet = self
            flit.kind = kind
            flit.seq = seq
            flit.active_groups = active
            flit.lookahead_port = None
            flit.is_head = is_head
            flit.is_tail = is_tail
            flits.append(flit)
        return flits

    @property
    def latency(self) -> Optional[int]:
        """End-to-end packet latency (creation to tail ejection), in cycles."""
        if self.delivered_cycle is None:
            return None
        return self.delivered_cycle - self.created_cycle


@dataclass(slots=True)
class Flit:
    """One flow-control unit of a packet."""

    packet: Packet
    kind: FlitType
    seq: int
    #: Word groups carrying non-redundant data (1..layer_groups).
    #: Valid data fills word groups bottom-up (group 0 holds the header
    #: word), so the flit drives layers ``0 .. active_groups - 1``; the
    #: count is fixed here and conserved hop-to-hop (audited by the
    #: sanitizer's layer-mask check).
    active_groups: int = DEFAULT_LAYER_GROUPS
    #: With look-ahead routing (Fig. 8c): output port index at the
    #: *next* router, looked up one hop in advance; None otherwise.
    lookahead_port: Optional[int] = None
    #: Cached flit-type predicates, derived from ``kind`` in
    #: ``__post_init__``: the router pipeline consults these on every
    #: traversal and flit type never changes after creation.
    is_head: bool = field(init=False, default=False)
    is_tail: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self.is_head = self.kind is FlitType.HEAD or self.kind is FlitType.SINGLE
        self.is_tail = self.kind is FlitType.TAIL or self.kind is FlitType.SINGLE
        if self.active_groups < 1:
            raise ValueError(
                f"flit must drive >= 1 word group, got {self.active_groups}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flit(pid={self.packet.pid}, {self.kind.value}, seq={self.seq}, "
            f"src={self.packet.src}, dst={self.packet.dst})"
        )


#: ``(kind, is_head, is_tail)`` per flit of a packet, by packet size.
_FLIT_SHAPES: Dict[int, Tuple[Tuple[FlitType, bool, bool], ...]] = {}


def _flit_shape(size: int) -> Tuple[Tuple[FlitType, bool, bool], ...]:
    """The ``(kind, is_head, is_tail)`` of each flit of a *size*-flit
    packet."""
    if size == 1:
        return ((FlitType.SINGLE, True, True),)
    return (
        ((FlitType.HEAD, True, False),)
        + ((FlitType.BODY, False, False),) * (size - 2)
        + ((FlitType.TAIL, False, True),)
    )


def data_packet(
    src: int,
    dst: int,
    created_cycle: int = 0,
    payload_groups: Optional[List[int]] = None,
) -> Packet:
    """Convenience constructor for a cache-line data packet."""
    return Packet(
        src=src,
        dst=dst,
        size_flits=DATA_PACKET_FLITS,
        klass=PacketClass.DATA,
        created_cycle=created_cycle,
        payload_groups=payload_groups,
    )


def ctrl_packet(src: int, dst: int, created_cycle: int = 0) -> Packet:
    """Convenience constructor for a one-flit control/address packet."""
    return Packet(
        src=src,
        dst=dst,
        size_flits=CTRL_PACKET_FLITS,
        klass=PacketClass.CTRL,
        created_cycle=created_cycle,
    )
