"""Stall attribution and trace-recorder output pinned per pipeline shape.

The golden digests hash simulation results, which observers never
change, so a stall charge moved to another unit or cause, or a stage
event recorded at another cycle, passes them.  Each case here steps a
small network under seeded uniform traffic with a
:class:`~repro.telemetry.attribution.StallAttribution` and a
full-capture :class:`~repro.telemetry.recorder.TraceRecorder` attached,
then hashes the three attribution count arrays and every recorded
``(pid, stage, node, cycle)`` stage event, in recording order, against
``tests/golden/observer_snapshots.json``.

Packet ids come from a process-wide counter, so each recorded pid is
replaced by its rank among the run's recorded pids.

The cases cover contended 2DB, 3DM with short flits and layer shutdown
(the layer-resolved counts), speculative SA with look-ahead RC, QoS
arbitration with mixed priorities, the torus dateline VC discipline,
and a link-kill schedule whose drops drain through the pipeline, with
two stuck VCs.

To refresh after an *intentional* change to what the observers record::

    REPRO_REFRESH_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_observer_snapshots.py

then review and commit the fixture diff (see docs/TESTING.md).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.core.arch import make_2db, make_3dm
from repro.experiments.store import canonical_json
from repro.noc.network import Network
from repro.resilience.faults import (
    FaultInjector, FaultPlan, LinkFault, StuckVCFault,
)
from repro.telemetry.attribution import StallAttribution
from repro.telemetry.recorder import RECORD_WIDTH, TraceRecorder
from repro.topology.mesh2d import Mesh2D
from repro.topology.torus import Torus2D
from repro.traffic.synthetic import UniformRandomTraffic

FIXTURE = Path(__file__).parent / "golden" / "observer_snapshots.json"

CYCLES = 300
SEED = 7
STAGES = ("rc", "va", "st")


def _with_faults(network: Network) -> Network:
    """Two link kills, plus two stuck VCs: a frozen unit is the only
    one stamped ready in the future, which is what the attribution
    pre-pass charges (``serialization`` and ``rc_wait``)."""
    plan = FaultPlan(
        links=(LinkFault(60, 5, 6), LinkFault(140, 9, 5)),
        vcs=(StuckVCFault(100, 6, 0, 0), StuckVCFault(150, 10, 2, 1)),
    )
    FaultInjector(plan).attach(network)
    return network


#: name -> (network builder, flit rate, short-flit fraction,
#: high-priority fraction)
CASES: Dict[str, Tuple[Callable[[], Network], float, float, float]] = {
    "2DB_ur_0.35": (
        lambda: make_2db(4, 4, num_cpus=4).build_network(), 0.35, 0.0, 0.0
    ),
    "3DM_shutdown": (
        lambda: make_3dm(4, 4, num_cpus=4).build_network(
            shutdown_enabled=True
        ),
        0.15,
        0.5,
        0.0,
    ),
    "speculative_sa_lookahead_rc": (
        lambda: Network(
            Mesh2D(4, 4, pitch_mm=1.0), num_vcs=4, speculative_sa=True,
            lookahead_rc=True,
        ),
        0.4,
        0.0,
        0.0,
    ),
    "qos_mixed_priority": (
        lambda: Network(
            Mesh2D(4, 4, pitch_mm=1.0), num_vcs=3, qos_enabled=True
        ),
        0.4,
        0.0,
        0.3,
    ),
    "torus_4x4": (lambda: Network(Torus2D(4, 4, pitch_mm=1.0)), 0.35, 0.0, 0.0),
    "2DB_link_kills": (
        lambda: _with_faults(make_2db(4, 4, num_cpus=4).build_network()),
        0.3,
        0.0,
        0.0,
    ),
}


def observe(name: str) -> Dict[str, Any]:
    """Step case *name* with both observers attached; returns the
    digests of what they recorded plus readable totals."""
    build, rate, short, high = CASES[name]
    network = build()
    attribution = StallAttribution(network)
    recorder = TraceRecorder(sample_rate=1.0, max_packets=1 << 20)
    recorder.attach(network)
    traffic = UniformRandomTraffic(
        num_nodes=network.topology.num_nodes,
        flit_rate=rate,
        short_flit_fraction=short,
        high_priority_fraction=high,
        seed=SEED,
    )
    for cycle in range(CYCLES):
        for packet in traffic.packets_for_cycle(cycle):
            network.enqueue_packet(packet)
        network.step()
    assert not recorder.dropped_pids
    assert recorder.events_overwritten == 0

    records: List[Tuple[int, ...]] = []
    ring = recorder._ring
    for w in range(0, recorder.events_recorded * RECORD_WIDTH, RECORD_WIDTH):
        records.append(tuple(ring[w:w + RECORD_WIDTH]))
    rank = {pid: n for n, pid in enumerate(sorted({r[0] for r in records}))}
    events = [
        [rank[pid], STAGES[kind], node, cycle]
        for pid, cycle, node, kind in records
    ]
    counts = {
        "unit_counts": list(attribution.unit_counts),
        "out_counts": list(attribution.out_counts),
        "layer_counts": list(attribution.layer_counts),
    }
    return {
        "attribution": _sha(counts),
        "trace": _sha(events),
        "cause_totals": attribution.cause_totals(),
        "stage_events": {
            stage: sum(1 for e in events if e[1] == stage) for stage in STAGES
        },
    }


def _sha(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def computed() -> Dict[str, Dict[str, Any]]:
    return {name: observe(name) for name in CASES}


@pytest.fixture(scope="module")
def golden(computed) -> Dict[str, Dict[str, Any]]:
    if os.environ.get("REPRO_REFRESH_GOLDEN", "") not in ("", "0"):
        data = {
            "settings": {"cycles": CYCLES, "seed": SEED},
            "cases": computed,
        }
        FIXTURE.write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if not FIXTURE.exists():
        pytest.fail(
            "observer fixture missing; generate it with "
            "REPRO_REFRESH_GOLDEN=1 (see docs/TESTING.md)"
        )
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]


def test_fixture_covers_exactly_the_cases(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_observer_snapshot(name, computed, golden):
    measured = computed[name]
    expected = golden[name]
    assert measured["cause_totals"] == expected["cause_totals"], name
    assert measured["stage_events"] == expected["stage_events"], name
    assert measured["attribution"] == expected["attribution"], (
        f"{name}: stall attribution counts drifted from the committed "
        "snapshot"
    )
    assert measured["trace"] == expected["trace"], (
        f"{name}: recorded stage events drifted from the committed snapshot"
    )


def test_snapshots_exercise_every_charge(golden):
    """The fixture guards only what the cases reach: every stall cause
    is charged and every stage is recorded somewhere."""
    for cause in ("rc_wait", "va_conflict", "sa_loss", "credit_stall",
                  "serialization"):
        assert any(case["cause_totals"][cause] for case in golden.values()), (
            cause
        )
    for case in golden.values():
        assert all(case["stage_events"][stage] for stage in STAGES)
