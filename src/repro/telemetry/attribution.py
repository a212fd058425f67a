"""Stall attribution and congestion forensics.

Three cooperating pieces answer "*why* was this packet slow?":

* :class:`StallAttribution` — flat per-(port, VC) stall-cause counters
  charged inline by the network's router loop: every cycle a buffered
  head flit fails to advance is billed to exactly one cause
  (``rc_wait``, ``va_conflict``, ``sa_loss``, ``credit_stall``,
  ``serialization``), with rollups per link, per node, and per
  effective active-layer count (the MIRA angle: how the stall mix
  shifts when short flits gate datapath layers).  Credit stalls are additionally billed to the
  starved *output port*, which is what lets a backpressure chain be
  followed upstream link by link.
* :func:`decompose_life` — exact latency decomposition of a sampled
  packet from its :class:`~repro.telemetry.export.PacketLife` record:
  source queueing + per-hop RC/VA/SA waits + link transit + tail
  serialization.  The decomposition is a telescoping identity over the
  recorded stage cycles, so for every completely captured packet the
  components sum to ``packet.latency`` **exactly** — conservation by
  construction, pinned in ``tests/test_attribution.py``.
* :func:`build_stall_report` / :func:`format_stall_report` — the
  diagnosis pass behind ``repro diagnose``: top-K hotspot links and
  routers, backpressure chains, stall-composition tables, and the
  decomposition summary, as a JSON-serialisable dict plus a
  human-readable rendering.

Cost discipline matches the rest of the telemetry stack: detached (the
default) the router loop pays one ``is not None`` test on its stall
branches only, and attribution never mutates pipeline state, so enabled
runs are bit-identical (golden e2e digests, all six architectures).

On a healthy network ``rc_wait`` and ``serialization`` stay 0: the
pipeline moves every unit one stage per cycle, and only a unit held by
a stuck-VC fault (:mod:`repro.resilience.faults`) is charged either.

One deliberate exception to "one charge per stalled unit-cycle": under
speculative SA (Fig. 8b) a unit can win VA and lose its same-cycle
crossbar bid.  The unit *did* advance a stage, but the paper's pipeline
charges failed speculation a full cycle, so we bill it to the blocking
downstream cause (``credit_stall`` or ``sa_loss``) in that same cycle.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.noc.router import (
    NUM_STALL_CAUSES,
    STALL_CAUSE_NAMES,
    STALL_CREDIT,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.telemetry.export import PacketLife
    from repro.telemetry.recorder import TraceRecorder

#: Report schema version (validated by benchmarks/validate_telemetry.py).
REPORT_SCHEMA = 1

#: Default number of hotspot links/routers/chains in a report.
DEFAULT_TOP_K = 5

_N = NUM_STALL_CAUSES


class StallAttribution:
    """Flat stall-cause accounting attached to a network's routers.

    Storage is three shared ``array('q')`` blocks over the network's
    global indices (no per-router objects on the charge path):

    * ``unit_counts`` — ``NUM_STALL_CAUSES`` counters per global unit
      (input VC), at ``unit * N + cause``;
    * ``out_counts`` — one credit-stall counter per global output
      port (the backpressure feed);
    * ``layer_counts`` — ``NUM_STALL_CAUSES`` counters per effective
      active-layer count ``k`` of the stalled head flit, at
      ``(k - 1) * N + cause``.

    Attach/detach follows the sanitizer convention: construction
    fills ``network.attribution``, the one slot the router loop reads;
    :meth:`detach` clears it.  Only this class knows the counter
    layout: the loop charges through :meth:`charge` and
    :meth:`charge_credit`.
    """

    def __init__(self, network: "Network") -> None:
        if network.attribution is not None:
            raise ValueError("network already has a StallAttribution")
        self.network = network
        units = len(network.vc_state)
        self.unit_counts = array("q", bytes(8 * units * _N))
        self.out_counts = array("q", bytes(8 * len(network.link_targets)))
        self.layer_counts = array(
            "q", bytes(8 * network.layer_groups * _N)
        )
        # What a charge reads, bound once.
        self._fifos = network.vc_fifos
        self._shutdown = network.shutdown_enabled
        self._groups = network.layer_groups
        network.attribution = self

    def detach(self) -> None:
        """Restore the zero-cost detached state (counters survive)."""
        if self.network.attribution is self:
            self.network.attribution = None

    # -- charges (the router loop's stall branches) -------------------------

    def charge(self, i: int, cause: int) -> None:
        """Charge one stalled cycle on global unit *i* to *cause*.

        Called only from the failure branches of the router loop: a unit
        whose head flit advanced this cycle is never charged, and a unit
        with a drained FIFO holds no head flit that could stall, so it
        is skipped.  Counter writes only — attribution never perturbs
        pipeline state, so enabled runs stay bit-identical.
        """
        fifo = self._fifos[i]
        if not fifo:
            return
        self.unit_counts[i * _N + cause] += 1
        k = fifo[0].active_groups if self._shutdown else self._groups
        self.layer_counts[(k - 1) * _N + cause] += 1

    def charge_credit(self, i: int, out_port: int) -> None:
        """A credit stall on global unit *i*, additionally billed to the
        starved global output port, so backpressure chains can be
        followed link by link (which upstream hop this stall propagates
        from)."""
        if self._fifos[i]:
            self.charge(i, STALL_CREDIT)
            self.out_counts[out_port] += 1

    # -- rollups (cold path: report / sampling time) ------------------------

    def cause_totals_list(self) -> List[int]:
        """Total stalled cycles per cause id (marginal over layers)."""
        totals = [0] * _N
        counts = self.layer_counts
        for base in range(0, len(counts), _N):
            for c in range(_N):
                totals[c] += counts[base + c]
        return totals

    def cause_totals(self) -> Dict[str, int]:
        return dict(zip(STALL_CAUSE_NAMES, self.cause_totals_list()))

    def total_stall_cycles(self) -> int:
        return sum(self.layer_counts)

    def by_active_layers(self) -> Dict[int, Dict[str, int]]:
        """Stall-cause totals keyed by the stalled head flit's effective
        active-layer count (1..layer_groups)."""
        out: Dict[int, Dict[str, int]] = {}
        counts = self.layer_counts
        for k in range(1, self.network.layer_groups + 1):
            base = (k - 1) * _N
            row = {
                name: counts[base + c]
                for c, name in enumerate(STALL_CAUSE_NAMES)
            }
            if any(row.values()):
                out[k] = row
        return out

    def node_cause_counts(self) -> List[List[int]]:
        """Per-node stall totals by cause (summed over the node's units)."""
        counts = self.unit_counts
        rows: List[List[int]] = []
        for units in self.network.node_units:
            row = [0] * _N
            for u in units:
                off = u * _N
                for c in range(_N):
                    row[c] += counts[off + c]
            rows.append(row)
        return rows

    def node_stall_cycles(self) -> List[int]:
        return [sum(row) for row in self.node_cause_counts()]

    def link_stalls(self) -> Dict[Tuple[int, int], List[int]]:
        """Unit stalls rolled up to the *feeding* in-link.

        A stalled unit on (node, in-port) holds flits that arrived over
        the upstream link into that port, so its stalled cycles are the
        congestion evidence *against that link*.  Local-port units
        (locally injected traffic waiting at its source router) have no
        feeding link and are excluded — they still appear in the
        per-node rollup.
        """
        network = self.network
        node_of = network.node_of_unit
        num_vcs = network.num_vcs
        counts = self.unit_counts
        out: Dict[Tuple[int, int], List[int]] = {}
        for first, upstream in enumerate(network.credit_returns):
            if first % num_vcs or upstream is None:
                continue
            link = (node_of[upstream], node_of[first])
            row = out.get(link)
            if row is None:
                row = out[link] = [0] * _N
            for unit in range(first, first + num_vcs):
                off = unit * _N
                for c in range(_N):
                    row[c] += counts[off + c]
        return {
            link: row for link, row in out.items() if any(row)
        }

    def credit_stalls_by_link(self) -> Dict[Tuple[int, int], int]:
        """Credit-stalled cycles per starved *output* link (src, dst)."""
        network = self.network
        node_of = network.node_of_unit
        num_vcs = network.num_vcs
        out: Dict[Tuple[int, int], int] = {}
        for port, stalls in enumerate(self.out_counts):
            target = network.link_targets[port]
            if stalls and target is not None:
                out[(node_of[port * num_vcs], node_of[target])] = stalls
        return out

    def backpressure_chain(
        self,
        link: Tuple[int, int],
        credit_by_link: Optional[Dict[Tuple[int, int], int]] = None,
    ) -> List[Tuple[int, int]]:
        """Follow a credit stall downstream to the hop it chains to.

        A credit stall on link ``a -> b`` means *b*'s input buffers are
        not draining; if *b* itself is credit-starved on some output,
        the pressure chains onward through *b*'s most-stalled output
        link.  The walk ends at the first router with no credit stalls
        (the true bottleneck — it is losing arbitration or serialising,
        not waiting on buffers) or when it revisits a node (a credit
        cycle, reported as-is).
        """
        if credit_by_link is None:
            credit_by_link = self.credit_stalls_by_link()
        by_src: Dict[int, List[Tuple[Tuple[int, int], int]]] = {}
        for (src, dst), stalls in credit_by_link.items():
            by_src.setdefault(src, []).append(((src, dst), stalls))
        chain = [link]
        visited = {link[0]}
        node = link[1]
        while node not in visited:
            visited.add(node)
            options = by_src.get(node)
            if not options:
                break
            nxt = max(options, key=lambda item: (item[1], -item[0][1]))[0]
            chain.append(nxt)
            node = nxt[1]
        return chain


# -- latency decomposition --------------------------------------------------


@dataclass(frozen=True)
class PacketDecomposition:
    """Exact latency split of one completely captured packet.

    ``queue + rc_wait + va_wait + sa_wait + link_transit +
    serialization == latency`` holds as an algebraic identity (see
    :func:`decompose_life`), never approximately.
    """

    pid: int
    src: int
    dst: int
    latency: int
    queue: int
    rc_wait: int
    va_wait: int
    sa_wait: int
    link_transit: int
    serialization: int
    hops: int

    @property
    def components_sum(self) -> int:
        return (
            self.queue + self.rc_wait + self.va_wait + self.sa_wait
            + self.link_transit + self.serialization
        )

    @property
    def exact(self) -> bool:
        return self.components_sum == self.latency

    def components(self) -> Dict[str, int]:
        return {
            "queue": self.queue,
            "rc_wait": self.rc_wait,
            "va_wait": self.va_wait,
            "sa_wait": self.sa_wait,
            "link_transit": self.link_transit,
            "serialization": self.serialization,
        }


def decompose_life(
    life: "PacketLife",
    hop_cycles: int,
    expected_hops: Optional[int] = None,
) -> Optional[PacketDecomposition]:
    """Decompose one sampled lifecycle; ``None`` if incomplete.

    The identity is a telescoping sum over the recorded head-flit
    stage cycles.  With ``a_0 = injected`` and
    ``a_h = st_{h-1} + hop_cycles`` (the arrival cycle at hop *h*):

    * ``queue         = injected - created``
    * ``rc_wait       = sum_h (rc_h - a_h)``
    * ``va_wait       = sum_h (va_h - rc_h)``
    * ``sa_wait       = sum_h (st_h - va_h)``
    * ``link_transit  = (H - 1) * hop_cycles``
    * ``serialization = delivered - st_last`` (body/tail drain + the
      ejection cycle)

    where a hop missing ``rc`` (look-ahead routing) substitutes
    ``rc := a`` and a hop missing ``va`` substitutes ``va := rc`` —
    both keep the telescope exact.  A lifecycle is decomposable only
    when delivered, injected, every hop has its switch traversal, and
    (when *expected_hops* is given) no hop was lost to ring wrap-around
    or span-only tail capture.
    """
    if life.delivered is None or life.injected is None or not life.hops:
        return None
    if expected_hops is not None and len(life.hops) != expected_hops:
        return None
    if any(hop.st is None for hop in life.hops):
        return None
    rc_wait = va_wait = sa_wait = 0
    arrival = life.injected
    for hop in life.hops:
        rc = hop.rc if hop.rc is not None else arrival
        va = hop.va if hop.va is not None else rc
        rc_wait += rc - arrival
        va_wait += va - rc
        sa_wait += hop.st - va
        arrival = hop.st + hop_cycles
    return PacketDecomposition(
        pid=life.pid,
        src=life.src,
        dst=life.dst,
        latency=life.delivered - life.created,
        queue=life.injected - life.created,
        rc_wait=rc_wait,
        va_wait=va_wait,
        sa_wait=sa_wait,
        link_transit=(len(life.hops) - 1) * hop_cycles,
        serialization=life.delivered - life.hops[-1].st,
        hops=len(life.hops),
    )


def decompose_recorder(
    recorder: "TraceRecorder", hop_cycles: int
) -> Tuple[List[PacketDecomposition], int]:
    """Decompose every completely captured packet in *recorder*.

    Returns ``(decompositions, skipped)`` where *skipped* counts
    captured packets that were not decomposable (undelivered, span-only
    tail captures, or lifecycles truncated by ring wrap).  A packet
    traversing ``packet.hops`` links visits ``hops + 1`` routers, which
    is the completeness bar for its hop records.
    """
    lives, _ = recorder.lifecycles()
    packets = recorder.captured()
    decomposed: List[PacketDecomposition] = []
    skipped = 0
    for life in lives:
        packet = packets.get(life.pid)
        expected = packet.hops + 1 if packet is not None else None
        decomp = decompose_life(life, hop_cycles, expected_hops=expected)
        if decomp is None:
            skipped += 1
        else:
            decomposed.append(decomp)
    return decomposed, skipped


# -- the diagnosis report ---------------------------------------------------


def _cause_row(counts: List[int]) -> Dict[str, int]:
    return {
        name: counts[c]
        for c, name in enumerate(STALL_CAUSE_NAMES)
        if counts[c]
    }


def build_stall_report(
    attribution: StallAttribution,
    *,
    top_k: int = DEFAULT_TOP_K,
    arch: Optional[str] = None,
    cycles: Optional[int] = None,
    decompositions: Optional[List[PacketDecomposition]] = None,
    decomposition_skipped: int = 0,
) -> Dict[str, Any]:
    """Turn the rollups into the ``repro diagnose`` report dict.

    JSON-serialisable throughout (link tuples become two-element
    lists); schema checked by ``benchmarks/validate_telemetry.py``.
    """
    totals = attribution.cause_totals_list()
    total = sum(totals)
    causes = dict(zip(STALL_CAUSE_NAMES, totals))
    composition = {
        name: (count / total if total else 0.0)
        for name, count in causes.items()
    }

    link_rows = attribution.link_stalls()
    hotspot_links = [
        {
            "src": src,
            "dst": dst,
            "stalls": sum(row),
            "causes": _cause_row(row),
        }
        for (src, dst), row in sorted(
            link_rows.items(),
            key=lambda item: (-sum(item[1]), item[0]),
        )[:top_k]
    ]

    node_rows = attribution.node_cause_counts()
    hotspot_nodes = [
        {
            "node": node,
            "stalls": sum(row),
            "causes": _cause_row(row),
        }
        for node, row in sorted(
            enumerate(node_rows), key=lambda item: (-sum(item[1]), item[0])
        )[:top_k]
        if any(row)
    ]

    credit_by_link = attribution.credit_stalls_by_link()
    backpressure = []
    for (src, dst), stalls in sorted(
        credit_by_link.items(), key=lambda item: (-item[1], item[0])
    )[:top_k]:
        chain = attribution.backpressure_chain(
            (src, dst), credit_by_link
        )
        backpressure.append(
            {
                "link": [src, dst],
                "credit_stalls": stalls,
                "chain": [[a, b] for a, b in chain],
            }
        )

    report: Dict[str, Any] = {
        "type": "stall_report",
        "schema": REPORT_SCHEMA,
        "arch": arch,
        "cycles": cycles,
        "total_stall_cycles": total,
        "causes": causes,
        "composition": composition,
        "by_active_layers": {
            str(k): {"total": sum(row.values()), "causes": row}
            for k, row in attribution.by_active_layers().items()
        },
        "hotspot_links": hotspot_links,
        "hotspot_nodes": hotspot_nodes,
        "backpressure": backpressure,
        "decomposition": None,
    }

    if decompositions is not None:
        n = len(decompositions)
        exact = sum(1 for d in decompositions if d.exact)
        comp_total: Dict[str, int] = {
            key: 0 for key in (
                "queue", "rc_wait", "va_wait", "sa_wait",
                "link_transit", "serialization",
            )
        }
        latency_total = 0
        for d in decompositions:
            latency_total += d.latency
            for key, value in d.components().items():
                comp_total[key] += value
        report["decomposition"] = {
            "packets": n,
            "skipped_incomplete": decomposition_skipped,
            "conservation_exact": exact,
            "latency_total": latency_total,
            "components_total": comp_total,
            "components_mean": {
                key: (value / n if n else 0.0)
                for key, value in comp_total.items()
            },
            "mean_latency": latency_total / n if n else 0.0,
        }
    return report


def format_stall_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`build_stall_report` dict."""
    lines: List[str] = []
    arch = report.get("arch") or "?"
    cycles = report.get("cycles")
    header = f"stall attribution — arch {arch}"
    if cycles:
        header += f", {cycles} cycles"
    lines.append(header)

    total = report["total_stall_cycles"]
    lines.append(f"  total stalled unit-cycles: {total}")
    lines.append("  cause            cycles     share")
    for name in STALL_CAUSE_NAMES:
        count = report["causes"].get(name, 0)
        share = report["composition"].get(name, 0.0)
        lines.append(f"  {name:<14} {count:>9} {share:>8.1%}")

    by_layers = report.get("by_active_layers") or {}
    if by_layers:
        lines.append("  stall mix by active layer count:")
        for k in sorted(by_layers, key=int):
            row = by_layers[k]
            mix = ", ".join(
                f"{name}={count}"
                for name, count in row["causes"].items()
            )
            lines.append(
                f"    k={k}: {row['total']} cycles ({mix})"
            )

    links = report.get("hotspot_links") or []
    if links:
        lines.append("  hotspot links (stalled cycles charged to the "
                     "feeding link):")
        for entry in links:
            mix = ", ".join(
                f"{name}={count}"
                for name, count in entry["causes"].items()
            )
            lines.append(
                f"    {entry['src']:>3} -> {entry['dst']:<3} "
                f"{entry['stalls']:>8}  ({mix})"
            )
    nodes = report.get("hotspot_nodes") or []
    if nodes:
        lines.append("  hotspot routers:")
        for entry in nodes:
            mix = ", ".join(
                f"{name}={count}"
                for name, count in entry["causes"].items()
            )
            lines.append(
                f"    router {entry['node']:>3} "
                f"{entry['stalls']:>8}  ({mix})"
            )
    chains = report.get("backpressure") or []
    if chains:
        lines.append("  backpressure chains (credit stalls, followed "
                     "downstream):")
        for entry in chains:
            path = " -> ".join(str(a) for a, _ in entry["chain"])
            path += f" -> {entry['chain'][-1][1]}"
            lines.append(
                f"    {entry['credit_stalls']:>8} cycles  {path}"
            )

    decomp = report.get("decomposition")
    if decomp:
        n = decomp["packets"]
        lines.append(
            f"  latency decomposition ({n} sampled packets, "
            f"{decomp['skipped_incomplete']} incomplete skipped):"
        )
        mean_latency = decomp["mean_latency"]
        lines.append("    component       mean cyc    share")
        for name, mean in decomp["components_mean"].items():
            share = mean / mean_latency if mean_latency else 0.0
            lines.append(f"    {name:<14} {mean:>9.2f} {share:>8.1%}")
        mean_sum = sum(decomp["components_mean"].values())
        lines.append(
            f"    conservation: components sum exactly to packet "
            f"latency for {decomp['conservation_exact']}/{n} packets "
            f"(mean {mean_sum:.2f} = {mean_latency:.2f})"
        )
    return "\n".join(lines)
