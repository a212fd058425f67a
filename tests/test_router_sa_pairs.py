"""Router-level switch allocation against the reference allocator.

Two, three and four units of the 5-port centre router of a 3x3 mesh
bid for the crossbar in one ``Router.step``.  Two requesters run from
every uniform SA1 / SA2 pointer start; three and four draw an arbitrary
pointer per port with each example.  The router must move exactly the
reference's winners, traverse them in its grant order (the order their
flits land in the arrival slot, which fixes delivery order downstream),
leave every SA pointer where the reference does, and, with stall
attribution attached, charge each loser exactly one ``sa_loss`` cycle.  The golden
digests only catch an off-by-one here when a run happens to hit the
pointer state that exposes it.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.noc.network import Network
from repro.noc.packet import data_packet
from repro.noc.router import _ACTIVE, NUM_STALL_CAUSES, STALL_SA_LOSS
from repro.telemetry.attribution import StallAttribution
from repro.topology.mesh2d import Mesh2D
from tests.reference_allocator import ReferenceSA, SARequest

CENTRE = 4  # the 5-port router of a 3x3 mesh
NUM_PORTS = 5
CYCLE = 10


def _shapes(num_vcs):
    """(in_port, in_vc, out_port) pairs for each two-request shape."""
    last = num_vcs - 1
    shapes = {"disjoint": [((1, 0, 3), (2, last, 4))]}
    shapes["same_input"] = [
        ((1, va, 3), (1, vb, out_b))
        for va, vb in itertools.combinations(range(num_vcs), 2)
        for out_b in (3, 4)
    ]
    shapes["same_output"] = [
        ((pa, 0, 4), (pb, last, 4))
        for pa, pb in itertools.combinations(range(4), 2)
    ]
    return shapes


def _bid(network, router, requests):
    """Make each request an ACTIVE unit fronting its own body flit and
    holding an output VC with credit on its out port.  Returns the
    global units and a flit-id -> unit map."""
    units = []
    unit_of = {}
    held = {}
    for in_port, in_vc, out_port in requests:
        i = network.unit_index(router.node, in_port, in_vc)
        out_vc = held.get(out_port, 0) % network.num_vcs
        held[out_port] = out_vc + 1
        flit = data_packet(0, 8).make_flits()[1]
        network.vc_fifos[i].append(flit)
        network.vc_state[i] = _ACTIVE
        network.vc_out_port[i] = router.port_base + out_port
        key = network.unit_index(router.node, out_port, out_vc)
        network.vc_held[i] = key
        network.out_owner[key] = i
        network._active.add(i)
        units.append(i)
        unit_of[id(flit)] = i
    return units, unit_of


def _check_against_reference(num_vcs, requests, attributed, sa1, sa2):
    """Run one SA step from the given SA1 / SA2 pointer lists and
    compare it with the reference."""
    network = Network(Mesh2D(3, 3, pitch_mm=1.0), num_vcs=num_vcs)
    attribution = StallAttribution(network) if attributed else None
    router = network.routers[CENTRE]
    assert len(network.port_names[CENTRE]) == NUM_PORTS
    ports = slice(router.port_base, router.port_base + NUM_PORTS)
    network._sa.sa1[ports] = sa1
    network._sa.sa2[ports] = sa2
    reference = ReferenceSA(NUM_PORTS, num_vcs, sa1, sa2)

    units, unit_of = _bid(network, router, requests)
    grants = reference.allocate([SARequest(*req) for req in sorted(requests)])
    router.step(CYCLE)

    case = (requests, sa1, sa2)
    expected = [
        network.unit_index(CENTRE, g.in_port, g.in_vc) for g in grants
    ]
    slot = network.arrival_slots[
        (CYCLE + network._hop_cycles) % len(network.arrival_slots)
    ]
    assert [unit_of[id(flit)] for _, flit in slot] == expected, case
    moved = {i for i in units if not network.vc_fifos[i]}
    assert moved == set(expected), case
    assert (network._sa.sa1[ports], network._sa.sa2[ports]) == (
        reference.pointers()
    ), case
    if attribution is not None:
        sa_loss = [
            attribution.unit_counts[i * NUM_STALL_CAUSES + STALL_SA_LOSS]
            for i in units
        ]
        assert sa_loss == [0 if i in moved else 1 for i in units], case


@pytest.mark.parametrize("attributed", [False, True])
@pytest.mark.parametrize("shape", ["disjoint", "same_input", "same_output"])
@pytest.mark.parametrize("num_vcs", [2, 3, 4])
def test_inline_pair_matches_switch_allocator(num_vcs, shape, attributed):
    """The two-request shapes: disjoint ports, a shared input port and
    a shared output port, from every SA1 / SA2 pointer start."""
    for requests in _shapes(num_vcs)[shape]:
        for sa1_start, sa2_start in itertools.product(
            range(num_vcs), range(NUM_PORTS)
        ):
            _check_against_reference(
                num_vcs,
                requests,
                attributed,
                [sa1_start] * NUM_PORTS,
                [sa2_start] * NUM_PORTS,
            )


@st.composite
def _contended(draw):
    """Three or four requests on distinct input VCs of the centre
    router, each bound for a mesh (non-local) output port, and an
    arbitrary SA1 / SA2 pointer per port."""
    num_vcs = draw(st.integers(2, 4))
    count = draw(st.integers(3, 4))
    units = draw(
        st.lists(
            st.integers(0, NUM_PORTS * num_vcs - 1),
            unique=True,
            min_size=count,
            max_size=count,
        )
    )
    requests = [
        (i // num_vcs, i % num_vcs, draw(st.integers(1, NUM_PORTS - 1)))
        for i in units
    ]
    sa1 = draw(
        st.lists(
            st.integers(0, num_vcs - 1), min_size=NUM_PORTS, max_size=NUM_PORTS
        )
    )
    sa2 = draw(
        st.lists(
            st.integers(0, NUM_PORTS - 1),
            min_size=NUM_PORTS,
            max_size=NUM_PORTS,
        )
    )
    return num_vcs, requests, sa1, sa2


@pytest.mark.parametrize("attributed", [False, True])
@given(case=_contended())
def test_contended_sa_matches_reference(case, attributed):
    """Three and four requesters, any mix of shared input and output
    ports."""
    num_vcs, requests, sa1, sa2 = case
    _check_against_reference(num_vcs, requests, attributed, sa1, sa2)

