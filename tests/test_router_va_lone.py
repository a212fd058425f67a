"""Router-level VC allocation of a lone requester against the reference.

The router loop grants a node's only VA requester inline when no VC
restriction applies (no routing VC discipline, no ``vc_by_class``),
instead of calling ``VirtualChannelAllocator.allocate``.  Here one head
flit waits in VA on the 5-port centre router of a 3x3 mesh, from every
VA1 pointer start and every pattern of owned and free VCs on its output
port, with and without stall attribution and with and without
speculative SA, and with and without credit on that port.  One
``Router.step`` must grant the reference's output VC, leave every VA
pointer where the reference does, record the grant in ``out_owner``,
the unit's held output VC and the node's ``va_allocations``, under
speculative SA bid the fresh grant into the same cycle's switch
allocation (a credit-starved one is charged one ``credit_stall``), and,
with attribution attached, charge a denied requester exactly one
``va_conflict`` cycle.
"""

import itertools

import pytest

from repro.noc.network import Network
from repro.noc.packet import data_packet
from repro.noc.router import (
    _ACTIVE, _VA, NUM_STALL_CAUSES, STALL_CREDIT, STALL_VA_CONFLICT,
)
from repro.telemetry.attribution import StallAttribution
from repro.topology.mesh2d import Mesh2D
from tests.reference_allocator import ReferenceVA, VARequest

CENTRE = 4  # the 5-port router of a 3x3 mesh
NUM_PORTS = 5
CYCLE = 10
IN_PORT = 2
#: The requester's output port: a mesh port (a link traversal) and the
#: local port (an ejection).
OUT_PORTS = (3, 0)


def _check_lone_request(
    num_vcs, out_port, va1_start, va2_start, owned, attributed,
    speculative, credited,
):
    network = Network(
        Mesh2D(3, 3, pitch_mm=1.0), num_vcs=num_vcs,
        speculative_sa=speculative,
    )
    attribution = StallAttribution(network) if attributed else None
    router = network.routers[CENTRE]
    base = router.units.start
    size = len(router.units)
    assert size == NUM_PORTS * num_vcs
    in_vc = num_vcs - 1
    i = network.unit_index(CENTRE, IN_PORT, in_vc)
    va1 = [0] * size
    va1[i - base] = va1_start
    va2 = [va2_start] * size
    network._va.va1[base:base + size] = va1
    network._va.va2[base:base + size] = va2
    reference = ReferenceVA(NUM_PORTS, num_vcs, va1, va2)

    # Owned output VCs belong to another unit of the node, which the
    # step does not visit.
    other = network.unit_index(CENTRE, 1, 0)
    first = network.unit_index(CENTRE, out_port, 0)
    for vc in range(num_vcs):
        if owned[vc]:
            network.out_owner[first + vc] = other
        if not credited and out_port:
            network.credits[first + vc] = 0
    owners = list(network.out_owner)
    flit = data_packet(0, 8).make_flits()[0]
    network.vc_fifos[i].append(flit)
    network.vc_state[i] = _VA
    network.vc_out_port[i] = router.port_base + out_port
    network._active.add(i)

    expected = reference.allocate(
        [VARequest(IN_PORT, in_vc, out_port)],
        {out_port: [not taken for taken in owned]},
    )
    router.step(CYCLE)

    case = (num_vcs, out_port, va1_start, va2_start, owned, speculative)
    ref_va1, ref_va2 = reference.pointers()
    assert network._va.va1[base:base + size] == ref_va1, case
    assert network._va.va2[base:base + size] == ref_va2, case
    granted = (IN_PORT, in_vc) in expected
    if granted:
        key = first + expected[(IN_PORT, in_vc)][1]
        owners[key] = i
        assert network.vc_state[i] == _ACTIVE, case
        assert network.vc_held[i] == key, case
    else:
        assert network.vc_state[i] == _VA, case
        assert network.vc_held[i] == -1, case
    assert network.out_owner == owners, case
    assert network.va_allocations[CENTRE] == int(granted), case

    # Under speculative SA a fresh grant bids in the same cycle and, as
    # the sole bidder with credit, crosses the switch.
    moved = granted and speculative and (credited or out_port == 0)
    assert (not network.vc_fifos[i]) == moved, case
    hop = network.arrival_slots[
        (CYCLE + network._hop_cycles) % len(network.arrival_slots)
    ]
    ejected = network.ejection_slots[(CYCLE + 1) % len(network.ejection_slots)]
    if moved and out_port:
        assert hop == [(network.link_units[key], flit)], case
    else:
        assert hop == [], case
    assert ejected == ([flit] if moved and not out_port else []), case

    if attribution is not None:
        counts = attribution.unit_counts[
            i * NUM_STALL_CAUSES:(i + 1) * NUM_STALL_CAUSES
        ]
        assert counts[STALL_VA_CONFLICT] == int(not granted), case
        starved = granted and speculative and not moved
        assert counts[STALL_CREDIT] == int(starved), case
        assert sum(counts) == int(not granted) + int(starved), case


@pytest.mark.parametrize("credited", [True, False])
@pytest.mark.parametrize("speculative", [False, True])
@pytest.mark.parametrize("attributed", [False, True])
@pytest.mark.parametrize("out_port", OUT_PORTS)
@pytest.mark.parametrize("num_vcs", [2, 3, 4])
def test_lone_requester_matches_reference(
    num_vcs, out_port, attributed, speculative, credited
):
    """Every VA1 pointer start and every owned/free pattern of the
    output port's VCs, from a VA2 pointer at 0 and at its last
    position."""
    size = NUM_PORTS * num_vcs
    for va1_start, va2_start, owned in itertools.product(
        range(num_vcs),
        (0, size - 1),
        itertools.product((False, True), repeat=num_vcs),
    ):
        _check_lone_request(
            num_vcs, out_port, va1_start, va2_start, owned, attributed,
            speculative, credited,
        )
