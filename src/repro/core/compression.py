"""Frequent-pattern compression (FPC) as an alternative to layer shutdown.

MIRA exploits frequent data patterns by *gating* the layers that carry
redundant words (Sec. 3.2.1).  The study it builds on — Alameldeen &
Wood's Frequent Pattern Compression [18] — instead *compresses* the data,
which on a NoC shortens packets.  This module implements FPC encoding at
the flit level so the two techniques can be compared head-to-head (an
extension the paper does not evaluate):

* shutdown keeps 5-flit packets but discounts separable energy on short
  flits;
* compression shrinks packets to 2–5 flits (fewer buffer writes, switch
  and link traversals, and less serialisation latency) at the cost of
  (de)compression latency at the endpoints and dense — ungateable —
  payload flits.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.traffic.patterns import WORDS_PER_LINE
from repro.traffic.traces import TraceRecord

#: FPC prefix bits per word (a redundant word compresses to its prefix).
PREFIX_BITS = 3

#: Pipeline latency of the (de)compressor at each endpoint, cycles.  FPC
#: reports a small fixed pipeline; two cycles per side is conservative.
COMPRESSION_LATENCY_CYCLES = 2


def compress_record(record: TraceRecord, flit_bits: int = 128) -> TraceRecord:
    """Rewrite a data-packet trace record as its FPC-compressed form.

    The per-flit ``payload_groups`` of the raw record encode which word
    groups were redundant; compression packs the live words densely, so
    the compressed flit count is derived from the *live* payload volume
    and every surviving payload flit is dense (``4`` active groups —
    nothing left for the shutdown detector to gate).
    """
    if record.payload_groups is None:
        return record  # control packets are already minimal
    # Live 32-bit word groups across the four payload flits; redundant
    # groups compress to prefix-only codes (negligible, rounded in).
    live_groups = sum(record.payload_groups[1:])
    payload_bits = live_groups * 32 + WORDS_PER_LINE * PREFIX_BITS
    payload_bits = min(payload_bits, WORDS_PER_LINE * 32)
    flits = max(1, min(4, math.ceil(payload_bits / flit_bits)))
    groups = tuple([1] + [4] * flits)
    return TraceRecord(
        cycle=record.cycle + COMPRESSION_LATENCY_CYCLES,
        src=record.src,
        dst=record.dst,
        klass=record.klass,
        payload_groups=groups,
    )


def compress_trace(
    records: Sequence[TraceRecord], flit_bits: int = 128
) -> List[TraceRecord]:
    """FPC-compress every data packet of a trace."""
    out = [compress_record(r, flit_bits) for r in records]
    out.sort(key=lambda r: r.cycle)
    return out
