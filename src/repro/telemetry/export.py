"""Structured telemetry export: JSONL metric streams and Chrome traces.

Two durable formats come out of a telemetry-enabled run:

* **JSONL metrics** (:class:`MetricsJsonlWriter`) — one JSON object per
  line: a ``meta`` header, one ``sample`` record per window, and an
  ``end`` footer.  Line-oriented so a stream can be tailed while the
  simulation runs and loaded with two lines of pandas afterwards.
* **Chrome trace events** (:class:`ChromeTraceBuilder`) — the
  ``trace.json`` dialect that Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing`` load directly.  Packet lifecycles render as
  nested slices (packet -> per-hop -> RC/VA/SA/ST) on one track per
  packet, and the sampler's windowed gauges render as counter tracks.

Simulation cycles are written as trace timestamps one-to-one (the
``ts`` unit is nominally microseconds, so one displayed "us" is one
cycle).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

#: Trace process ids: packet lifecycle tracks vs. sampler counter tracks.
PACKETS_PID = 1
METRICS_PID = 2


class MetricsJsonlWriter:
    """Appends one JSON object per line to a metrics stream.

    The stream's contract is *tailable*: every record is flushed to the
    OS as it is written (each write is a window boundary), so ``tail
    -f`` on the file tracks the live simulation instead of an empty
    buffer.  ``close()`` writes the ``end`` footer exactly once — pass
    the footer record via ``end_record``, or let it synthesize a
    minimal one — then closes the file; further ``close()`` calls are
    no-ops, so the footer can never double up.  Used as a context
    manager, ``__exit__`` closes (and therefore foots) the stream even
    when the simulation crashes mid-run, so a crashed run leaves a
    complete, parseable stream rather than a truncated last line.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._file = open(self.path, "w", encoding="utf-8")
        self.records_written = 0
        self.end_written = False

    def write(self, record: Dict[str, Any]) -> None:
        if self._file is None:
            raise RuntimeError(f"metrics stream {self.path} already closed")
        self._file.write(json.dumps(record, separators=(",", ":")))
        self._file.write("\n")
        self._file.flush()
        self.records_written += 1

    def close(self, end_record: Optional[Dict[str, Any]] = None) -> None:
        if self._file is None:
            return
        if not self.end_written:
            footer = end_record or {
                "type": "end",
                "records": self.records_written,
            }
            self.write(footer)
            self.end_written = True
        self._file.close()
        self._file = None

    def __enter__(self) -> "MetricsJsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class HopRecord:
    """Pipeline-stage cycles of one packet's head flit at one router.

    ``None`` stages did not occur at this hop (look-ahead routing skips
    RC; a record created mid-flight may miss earlier stages).
    """

    node: int
    rc: Optional[int] = None
    va: Optional[int] = None
    st: Optional[int] = None


@dataclass
class PacketLife:
    """Everything the trace emitter needs to render one packet."""

    pid: int
    src: int
    dst: int
    size_flits: int
    klass: str
    created: int
    injected: Optional[int] = None
    delivered: Optional[int] = None
    hops: List[HopRecord] = field(default_factory=list)

    def note_stage(self, cycle: int, node: int, stage: str) -> None:
        """Record the head flit's ``"rc"``, ``"va"`` or ``"st"`` (switch
        grant + traversal) at *node*; an ST closes the hop."""
        hop = self.hops[-1] if self.hops else None
        if hop is None or hop.node != node or hop.st is not None:
            hop = HopRecord(node=node)
            self.hops.append(hop)
        setattr(hop, stage, cycle)

    def end_cycle(self) -> int:
        """Last cycle this packet is known to have been alive at."""
        if self.delivered is not None:
            return self.delivered
        last = self.created
        if self.injected is not None and self.injected > last:
            last = self.injected
        for hop in self.hops:
            for stamp in (hop.rc, hop.va, hop.st):
                if stamp is not None and stamp > last:
                    last = stamp
        return last + 1


class ChromeTraceBuilder:
    """Accumulates Chrome trace events and writes ``trace.json``."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._named_threads: set = set()
        self.packets_added = 0
        self._add_meta(PACKETS_PID, "process_name", name="packets")
        self._add_meta(METRICS_PID, "process_name", name="telemetry samplers")

    # -- low-level emitters ------------------------------------------------

    def _add_meta(self, pid: int, what: str, tid: int = 0, **args) -> None:
        self.events.append(
            {"ph": "M", "pid": pid, "tid": tid, "name": what, "args": args}
        )

    def add_complete(
        self,
        pid: int,
        tid: int,
        name: str,
        ts: int,
        dur: int,
        cat: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "ph": "X", "pid": pid, "tid": tid, "name": name,
            "ts": ts, "dur": max(dur, 1),
        }
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        self.events.append(event)

    def add_instant(
        self, pid: int, tid: int, name: str, ts: int, cat: str = ""
    ) -> None:
        event: Dict[str, Any] = {
            "ph": "i", "pid": pid, "tid": tid, "name": name, "ts": ts,
            "s": "t",
        }
        if cat:
            event["cat"] = cat
        self.events.append(event)

    def add_counter(
        self, name: str, ts: int, values: Dict[str, float]
    ) -> None:
        """One point on a counter track (rendered as a stacked area)."""
        self.events.append(
            {
                "ph": "C", "pid": METRICS_PID, "tid": 0, "name": name,
                "ts": ts, "args": values,
            }
        )

    # -- packet lifecycles -------------------------------------------------

    def add_packet(self, life: PacketLife) -> None:
        """Render one packet's lifecycle as nested slices on its own
        track: packet span -> queued span + per-hop spans -> RC/VA/SA/ST
        slices -> eject instant.  Slices nest by containment, so parents
        are emitted before children."""
        tid = life.pid
        if tid not in self._named_threads:
            self._named_threads.add(tid)
            self._add_meta(
                PACKETS_PID, "thread_name", tid=tid,
                name=f"pkt {life.pid} {life.src}->{life.dst}",
            )
        end = life.end_cycle()
        status = "delivered" if life.delivered is not None else "in-flight"
        self.add_complete(
            PACKETS_PID, tid, f"pkt {life.pid}", life.created,
            end - life.created, cat="packet",
            args={
                "src": life.src, "dst": life.dst,
                "flits": life.size_flits, "class": life.klass,
                "status": status,
            },
        )
        if life.injected is not None and life.injected > life.created:
            self.add_complete(
                PACKETS_PID, tid, "queued", life.created,
                life.injected - life.created, cat="stage",
            )
        for hop in life.hops:
            stamps = [s for s in (hop.rc, hop.va, hop.st) if s is not None]
            if not stamps:
                continue
            start = min(stamps)
            hop_end = (hop.st + 1) if hop.st is not None else max(stamps) + 1
            self.add_complete(
                PACKETS_PID, tid, f"hop@{hop.node}", start,
                hop_end - start, cat="hop", args={"node": hop.node},
            )
            if hop.rc is not None:
                self.add_complete(PACKETS_PID, tid, "RC", hop.rc, 1, "stage")
            if hop.va is not None and hop.va != hop.st:
                self.add_complete(PACKETS_PID, tid, "VA", hop.va, 1, "stage")
            if hop.st is not None:
                if hop.va is not None and hop.st > hop.va + 1:
                    # Cycles spent losing switch allocation (contention).
                    self.add_complete(
                        PACKETS_PID, tid, "SA", hop.va + 1,
                        hop.st - (hop.va + 1), "stage",
                    )
                name = "VA+ST" if hop.va == hop.st else "ST"
                self.add_complete(PACKETS_PID, tid, name, hop.st, 1, "stage")
        if life.delivered is not None:
            self.add_instant(
                PACKETS_PID, tid, "eject", life.delivered, cat="stage"
            )
        self.packets_added += 1

    # -- output ------------------------------------------------------------

    def write(
        self,
        path: Union[str, os.PathLike],
        other_data: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Dump the accumulated events as a Chrome JSON trace file."""
        parent = os.path.dirname(str(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        payload: Dict[str, Any] = {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"ts_unit": "simulation cycles", **(other_data or {})},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
