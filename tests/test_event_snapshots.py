"""Mid-run event-counter snapshots pinned per fabric.

The golden end-to-end digests hash the counters only as a window delta
at the end of a run.  Windowed telemetry reads ``Network.events`` every
window, so the counters must also be right at any cycle in between.
Each case here steps a small network under open-loop uniform traffic
and compares ``canonical_json(network.events)`` at several mid-run
cycles with ``tests/golden/event_snapshots.json``.

The cases cover every link kind and every counter path: planar, vertical
and express links; layer shutdown with short flits; ring, chiplet,
irregular and torus fabrics; a non-dyadic ``layer_groups=3`` with a
non-dyadic pitch (the weighted floats then depend on the add order); and
a scheduled link kill.

To refresh after an *intentional* change to event counting::

    REPRO_REFRESH_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_event_snapshots.py

then review and commit the fixture diff (see docs/TESTING.md).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.core.arch import (
    make_2db,
    make_3db,
    make_3dm,
    make_3dme,
    make_chiplet,
    make_ring,
)
from repro.experiments.store import canonical_json
from repro.noc.network import Network
from repro.resilience.faults import FaultInjector, FaultPlan, LinkFault
from repro.topology.irregular import IrregularTopology, duplex
from repro.topology.mesh2d import Mesh2D
from repro.topology.torus import Torus2D
from repro.traffic.synthetic import UniformRandomTraffic

FIXTURE = Path(__file__).parent / "golden" / "event_snapshots.json"

#: Cycles (after that many steps) at which the counters are captured.
SNAPSHOT_CYCLES = (23, 90, 171, 260)


def _dumbbell() -> IrregularTopology:
    """Two triangles joined by one bridge channel pair."""
    return IrregularTopology(6, [
        *duplex(0, 1), *duplex(1, 2), *duplex(2, 0),
        *duplex(3, 4), *duplex(4, 5), *duplex(5, 3),
        *duplex(2, 3),
    ])


def _with_faults(network: Network) -> Network:
    plan = FaultPlan(links=(LinkFault(60, 5, 6), LinkFault(140, 9, 5)))
    FaultInjector(plan).attach(network)
    return network


#: name -> (network builder, flit rate, short-flit fraction)
CASES: Dict[str, Tuple[Callable[[], Network], float, float]] = {
    "2DB": (lambda: make_2db(4, 4, num_cpus=4).build_network(), 0.3, 0.0),
    "3DB": (
        lambda: make_3db()
        .with_pipeline_options(speculative_sa=True, lookahead_rc=True)
        .build_network(),
        0.2,
        0.0,
    ),
    "3DM-shutdown": (
        lambda: make_3dm(4, 4, num_cpus=4).build_network(
            shutdown_enabled=True
        ),
        0.25,
        0.5,
    ),
    "3DM-E": (lambda: make_3dme(4, 4, num_cpus=4).build_network(), 0.25, 0.0),
    "RING": (lambda: make_ring().build_network(), 0.15, 0.0),
    "CHIPLET": (
        lambda: make_chiplet(4, 4, hubs=2, num_cpus=4).build_network(
            shutdown_enabled=True
        ),
        0.2,
        0.3,
    ),
    "IRREGULAR": (lambda: Network(_dumbbell()), 0.2, 0.0),
    "TORUS": (lambda: Network(Torus2D(4, 4, pitch_mm=1.0)), 0.25, 0.0),
    "L3": (
        lambda: Network(
            Mesh2D(3, 3, pitch_mm=1.3), layer_groups=3, shutdown_enabled=True
        ),
        0.3,
        0.5,
    ),
    "FAULT": (
        lambda: _with_faults(make_2db(4, 4, num_cpus=4).build_network()),
        0.25,
        0.0,
    ),
}


def snapshots(name: str) -> Dict[str, str]:
    """Step case *name* and return ``{cycle: canonical_json(events)}``."""
    build, rate, short = CASES[name]
    network = build()
    traffic = UniformRandomTraffic(
        num_nodes=network.topology.num_nodes,
        flit_rate=rate,
        short_flit_fraction=short,
        seed=5,
    )
    out: Dict[str, str] = {}
    for cycle in range(max(SNAPSHOT_CYCLES)):
        for packet in traffic.packets_for_cycle(cycle):
            network.enqueue_packet(packet)
        network.step()
        if network.cycle in SNAPSHOT_CYCLES:
            out[str(network.cycle)] = canonical_json(network.events)
    return out


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    if os.environ.get("REPRO_REFRESH_GOLDEN", "") not in ("", "0"):
        data = {"cases": {name: snapshots(name) for name in CASES}}
        FIXTURE.write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if not FIXTURE.exists():
        pytest.fail(
            "snapshot fixture missing; generate it with "
            "REPRO_REFRESH_GOLDEN=1 (see docs/TESTING.md)"
        )
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]


def test_fixture_covers_exactly_the_cases(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_mid_run_event_snapshots(name, golden):
    measured = snapshots(name)
    expected = golden[name]
    assert sorted(measured, key=int) == sorted(expected, key=int)
    for cycle in sorted(expected, key=int):
        assert measured[cycle] == expected[cycle], (
            f"{name}: network.events at cycle {cycle} drifted from the "
            "committed snapshot"
        )


def test_snapshots_exercise_every_counter_path(golden):
    """The fixture is only a guard where the counters are live: every
    link kind, short flits, layer histograms and killed links show up."""
    kinds: List[str] = []
    short = 0
    for name in CASES:
        last = json.loads(golden[name][str(max(SNAPSHOT_CYCLES))])
        assert last["flit_hops"] > 0, name
        kinds.extend(last["link_flits"])
        short += last["short_flit_hops"]
    assert {"normal", "vertical", "express"} <= set(kinds)
    assert short > 0
    l3 = json.loads(golden["L3"][str(max(SNAPSHOT_CYCLES))])
    assert set(l3["flit_hops_by_layers"]) == {"1", "3"}
    # Each killed channel carried flits before its kill (cycles 60 and
    # 140) and none after the next snapshot, while the fabric moved on.
    fault = {
        int(cycle): json.loads(snap)["channel_flits"]
        for cycle, snap in golden["FAULT"].items()
    }
    for channel, dead_from in (("(5, 6)", 90), ("(9, 5)", 171)):
        frozen = {
            counts[channel] for cycle, counts in fault.items()
            if cycle >= dead_from
        }
        assert len(frozen) == 1 and frozen.pop() > 0, channel
    assert fault[260]["(6, 5)"] > fault[171]["(6, 5)"]
