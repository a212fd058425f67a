"""Invariants of the event-counter fold (``Network.events``).

Routers tally per-flit events in their own integer lists and
``Network.events`` folds them into one :class:`EventCounts` on read.
For drawn small fabrics, VC counts, ``layer_groups`` 2-4, shutdown on or
off and a stop cycle, the folded counters must agree with each other and
with the live network at that cycle, and folding must be idempotent.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.noc.network import Network
from repro.noc.router import _VA
from repro.topology.chiplet import ChipletMesh
from repro.topology.express_mesh import ExpressMesh
from repro.topology.irregular import IrregularTopology, duplex
from repro.topology.mesh2d import Mesh2D
from repro.topology.mesh3d import Mesh3D
from repro.topology.ring import Ring
from repro.topology.torus import Torus2D
from repro.traffic.synthetic import UniformRandomTraffic

FABRICS = {
    "mesh2d": lambda: Mesh2D(3, 3, pitch_mm=1.3),
    "mesh3d": lambda: Mesh3D(2, 2, 2, pitch_mm=1.0),
    "express": lambda: ExpressMesh(4, 3, 0.7, span=2),
    "ring": lambda: Ring(5, 1.1),
    "chiplet": lambda: ChipletMesh(3, 3, 1.0, hubs=1),
    "torus": lambda: Torus2D(3, 3, 1.0),
    "irregular": lambda: IrregularTopology(4, [
        *duplex(0, 1), *duplex(1, 2), *duplex(2, 3), *duplex(3, 0),
        *duplex(0, 2),
    ]),
}


@st.composite
def runs(draw):
    return {
        "fabric": draw(st.sampled_from(sorted(FABRICS))),
        "num_vcs": draw(st.integers(2, 3)),
        "layer_groups": draw(st.integers(2, 4)),
        "shutdown": draw(st.booleans()),
        "rate": draw(st.sampled_from([0.05, 0.2, 0.4])),
        "short": draw(st.sampled_from([0.0, 0.5])),
        "stop": draw(st.integers(0, 150)),
        "seed": draw(st.integers(0, 2**16)),
    }


def _run(params) -> Network:
    network = Network(
        FABRICS[params["fabric"]](),
        num_vcs=params["num_vcs"],
        layer_groups=params["layer_groups"],
        shutdown_enabled=params["shutdown"],
    )
    traffic = UniformRandomTraffic(
        num_nodes=network.topology.num_nodes,
        flit_rate=params["rate"],
        short_flit_fraction=params["short"],
        seed=params["seed"],
    )
    for cycle in range(params["stop"]):
        for packet in traffic.packets_for_cycle(cycle):
            network.enqueue_packet(packet)
        network.step()
    return network


@settings(max_examples=60, deadline=None)
@given(runs())
def test_fold_invariants(params):
    network = _run(params)
    first = network.events.copy()
    ev = network.events
    routers = network.routers

    # One switched flit is one read, one SA grant, one crossbar
    # traversal and one hop.
    switched = sum(r.flits_switched for r in routers)
    assert ev.buffer_reads == ev.xbar_traversals == switched
    assert ev.sa_allocations == ev.flit_hops == switched
    assert ev.xbar_traversals_weighted == ev.buffer_reads_weighted
    # Every write not yet read is a flit sitting in a buffer.
    assert ev.buffer_writes - ev.buffer_reads == sum(
        r.occupancy() for r in routers
    )
    # Every route computed and not yet granted an output VC is a unit
    # waiting in VA.
    assert ev.rc_computations - ev.va_allocations == (
        network.vc_state.count(_VA)
    )

    # Link flits: the per-channel map and the per-kind map agree, kind
    # by kind.
    kind_of = {
        (link.src, link.dst): link.kind.value for link in network.topology.links
    }
    assert sum(ev.channel_flits.values()) == sum(ev.link_flits.values())
    per_kind = {}
    for channel, flits in ev.channel_flits.items():
        per_kind[kind_of[channel]] = per_kind.get(kind_of[channel], 0) + flits
    assert per_kind == ev.link_flits
    assert set(ev.link_mm_weighted) == set(ev.link_flits)

    # Keys appear exactly when their count is > 0.
    for counts in (ev.link_flits, ev.channel_flits):
        assert all(n > 0 for n in counts.values())
    for name in ("buffer_writes", "buffer_reads", "xbar_traversals", "flit_hops"):
        by_layers = getattr(ev, f"{name}_by_layers")
        assert all(n > 0 for n in by_layers.values()), name
        assert sum(by_layers.values()) == getattr(ev, name), name
        assert set(by_layers) <= set(range(1, params["layer_groups"] + 1))
    assert set(ev.link_mm_by_layers) <= set(ev.flit_hops_by_layers)
    assert all(mm > 0 for mm in ev.link_mm_by_layers.values())
    assert bool(ev.link_mm_by_layers) == bool(ev.link_flits)

    # Short flits drive one layer: with shutdown they are exactly the
    # k = 1 hops.
    assert ev.short_flit_hops <= ev.flit_hops
    if params["shutdown"]:
        assert ev.short_flit_hops == ev.flit_hops_by_layers.get(1, 0)

    # Two reads with no step in between fold to the same counters, in
    # the same (sorted) key order.
    again = network.events.copy()
    assert again == first
    for name in ("link_flits", "channel_flits", "link_mm_weighted",
                 "flit_hops_by_layers", "link_mm_by_layers"):
        keys = list(getattr(again, name))
        assert keys == list(getattr(first, name)) == sorted(keys), name
