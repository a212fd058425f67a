"""Golden network-level digests for the allocator paths the end-to-end
digests never reach.

``tests/test_golden_e2e.py`` runs every architecture at rate 0.1 with
the default pipeline, so QoS arbitration, the class-dedicated VC
policy, speculative SA with look-ahead RC, the torus dateline VC
discipline and many-way contention are all outside its reach.  Each
case here drives one of those at a contended load through a bare
:class:`~repro.noc.network.Network` with seeded synthetic traffic,
then hashes the complete
:class:`~repro.noc.stats.NetworkStats` and
:class:`~repro.noc.stats.EventCounts` with ``canonical_json``.  Any
change to who wins an allocation moves latencies and counters and fails
here.

To refresh after an *intentional* behaviour change::

    REPRO_REFRESH_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_allocation.py

then review the diff of the fixture and commit it (see docs/TESTING.md).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict

import pytest

from repro.core.arch import make_2db
from repro.experiments.store import canonical_json
from repro.noc.network import Network
from repro.noc.simulator import Simulator
from repro.topology.mesh2d import Mesh2D
from repro.topology.torus import Torus2D
from repro.traffic.synthetic import UniformRandomTraffic

FIXTURE = Path(__file__).parent / "golden" / "allocation_digests.json"

WARMUP = 50
MEASURE = 300
DRAIN = 4000
SEED = 5


def _mesh() -> Mesh2D:
    return Mesh2D(4, 4, pitch_mm=1.0)


#: name -> (network factory, offered flit rate, high-priority fraction)
CASES: Dict[str, tuple[Callable[[], Network], float, float]] = {
    "qos_mixed_priority": (
        lambda: Network(_mesh(), num_vcs=3, qos_enabled=True), 0.4, 0.3
    ),
    "vc_by_class": (lambda: Network(_mesh(), vc_by_class=True), 0.35, 0.0),
    "speculative_sa_lookahead_rc": (
        lambda: Network(
            _mesh(), num_vcs=4, speculative_sa=True, lookahead_rc=True
        ),
        0.4,
        0.0,
    ),
    "torus_4x4": (lambda: Network(Torus2D(4, 4, pitch_mm=1.0)), 0.35, 0.0),
    "2DB_ur_0.35": (lambda: make_2db().build_network(), 0.35, 0.0),
}


def run_case(name: str) -> Network:
    factory, rate, high_priority = CASES[name]
    network = factory()
    traffic = UniformRandomTraffic(
        network.topology.num_nodes,
        rate,
        seed=SEED,
        high_priority_fraction=high_priority,
    )
    Simulator(
        network,
        traffic,
        warmup_cycles=WARMUP,
        measure_cycles=MEASURE,
        drain_cycles=DRAIN,
    ).run()
    return network


def digest_payload(network: Network) -> Dict[str, Any]:
    return {
        "stats": vars(network.stats),
        "events": network.events,
        "cycles": network.cycle,
        "flits_switched": [r.flits_switched for r in network.routers],
    }


def compute_digest(network: Network) -> str:
    text = canonical_json(digest_payload(network))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _summary(network: Network) -> Dict[str, Any]:
    stats = network.stats
    return {
        "packets_delivered": stats.packets_delivered,
        "avg_latency": stats.avg_latency,
        "flit_hops": network.events.flit_hops,
        "va_allocations": network.events.va_allocations,
        "cycles": network.cycle,
    }


@pytest.fixture(scope="module")
def computed():
    return {name: run_case(name) for name in CASES}


@pytest.fixture(scope="module")
def golden(computed):
    if os.environ.get("REPRO_REFRESH_GOLDEN", "") not in ("", "0"):
        data = {
            "settings": {
                "warmup_cycles": WARMUP,
                "measure_cycles": MEASURE,
                "drain_cycles": DRAIN,
                "seed": SEED,
            },
            "cases": {
                name: {
                    "digest": compute_digest(network),
                    "summary": _summary(network),
                }
                for name, network in computed.items()
            },
        }
        FIXTURE.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if not FIXTURE.exists():
        pytest.fail(
            "golden fixture missing; generate it with "
            "REPRO_REFRESH_GOLDEN=1 (see docs/TESTING.md)"
        )
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_exactly_the_cases(golden):
    assert set(golden["cases"]) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_allocation_digest(name, computed, golden):
    network = computed[name]
    expected = golden["cases"][name]
    assert compute_digest(network) == expected["digest"], (
        f"{name}: simulator output drifted from the committed golden "
        f"digest.\n  committed summary: {expected['summary']}\n"
        f"  measured summary : {_summary(network)}"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_are_contended(name, computed):
    """Every case finishes its measured packets and actually exercises
    the allocators beyond a handful of grants."""
    network = computed[name]
    assert network.stats.measured_outstanding == 0
    assert network.events.va_allocations > 100
