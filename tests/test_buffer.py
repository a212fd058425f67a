"""Virtual-channel buffer tests.

A router's input VC buffers are plain FIFOs of depth ``buffer_depth``;
``receive_flit`` writes them and switch traversal reads them.  The
network tallies the writes per unit (``writes_by_layers``) and the
reads per node (``flits_switched_by_layers``), which ``Network.events``
folds network-wide.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.network import Network
from repro.noc.packet import data_packet
from repro.noc.router import _IDLE
from repro.topology.mesh2d import Mesh2D


def _network(depth):
    network = Network(Mesh2D(2, 1, pitch_mm=1.0), buffer_depth=depth)
    network.sanitizer = None  # hand-fed flits bypass the injection ledger
    return network


#: Every node's port 0 is its local port.
LOCAL = 0


def _writes(network):
    """Node 0's buffer writes."""
    return sum(
        sum(network.writes_by_layers[i]) for i in network.node_units[0]
    )


def _reads(network):
    """Node 0's buffer reads (switched flits)."""
    return network.node_flits_switched()[0]


def _occupancy(network):
    return network.node_occupancy()[0]


def test_counts_reads_and_writes():
    network = _network(4)
    router = network.routers[0]
    head, body = data_packet(0, 1, created_cycle=0).make_flits()[:2]
    router.receive_flit(LOCAL, 0, head, cycle=0)
    router.receive_flit(LOCAL, 0, body, cycle=0)
    assert (_writes(network), _reads(network)) == (2, 0)
    for _ in range(20):
        network.step()
        if _reads(network):
            break
    assert _writes(network) == 2
    assert _reads(network) == 1
    assert _occupancy(network) == 1


def test_invalid_depth():
    for depth in (0, -1):
        with pytest.raises(ValueError):
            Network(Mesh2D(2, 1, pitch_mm=1.0), buffer_depth=depth)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), max_size=60), st.integers(min_value=1, max_value=8))
def test_property_occupancy_invariant(ops, depth):
    """Occupancy is writes minus reads and stays in [0, depth], writing
    only into an idle VC or one with buffer space, as injection does."""
    network = _network(depth)
    router = network.routers[0]
    unit = network.unit_index(0, LOCAL, 0)
    fifo = network.vc_fifos[unit]
    pending = []
    for is_write in ops:
        if is_write:
            if not pending and network.vc_state[unit] == _IDLE and not fifo:
                pending = data_packet(0, 1, created_cycle=0).make_flits()
            if pending and len(fifo) < depth:
                router.receive_flit(LOCAL, 0, pending.pop(0), cycle=0)
        else:
            network.step()
        assert _occupancy(network) == _writes(network) - _reads(network)
        assert len(fifo) == _occupancy(network)
        assert 0 <= len(fifo) <= depth
