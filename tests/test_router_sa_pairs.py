"""The router's inline two-request switch allocation against the
separable :class:`SwitchAllocator`.

With exactly two units bidding for the crossbar, ``Router.step``
resolves the disjoint, same-input-port and same-output-port shapes
itself instead of calling the allocator.  For every SA1 / SA2 pointer
start, the inline rule must pick the allocator's winner and leave every
arbiter pointer where the allocator would, and stall attribution must
charge the loser one ``sa_loss`` cycle.  The golden digests only catch
an off-by-one here when a run happens to hit the pointer state that
exposes it.
"""

import itertools

import pytest

from repro.noc.allocator import SARequest, SwitchAllocator
from repro.noc.network import Network
from repro.noc.packet import data_packet
from repro.noc.router import _ACTIVE, STALL_SA_LOSS
from repro.telemetry.attribution import StallAttribution
from repro.topology.mesh2d import Mesh2D

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


def _bid(router, requests):
    """Make each request an ACTIVE unit fronting a body flit, holding a
    distinct output VC on its out port."""
    units = []
    for out_vc, (in_port, in_vc, out_port) in enumerate(requests):
        i = in_port * router.num_vcs + in_vc
        flit = data_packet(0, 8).make_flits()[1]
        router.vc_fifos[i].append(flit)
        router.vc_state[i] = _ACTIVE
        router.vc_ready[i] = CYCLE
        router.vc_out_port[i] = out_port
        router.vc_out_vc[i] = out_vc
        router.out_owner[out_port][out_vc] = (in_port, in_vc)
        router._n_active += 1
        router._active.add(i)
        units.append(i)
    return units


def _pointers(allocator):
    return (
        [arb._next for arb in allocator._sa1],
        [arb._next for arb in allocator._sa2],
    )


@pytest.mark.parametrize("attributed", [False, True])
@pytest.mark.parametrize("shape", ["disjoint", "same_input", "same_output"])
@pytest.mark.parametrize("num_vcs", [2, 3, 4])
def test_inline_pair_matches_switch_allocator(num_vcs, shape, attributed):
    for requests, sa1_start, sa2_start in itertools.product(
        _shapes(num_vcs)[shape], range(num_vcs), range(NUM_PORTS)
    ):
        network = Network(Mesh2D(3, 3, pitch_mm=1.0), num_vcs=num_vcs)
        attribution = StallAttribution(network) if attributed else None
        router = network.routers[CENTRE]
        assert router.num_ports == NUM_PORTS
        reference = SwitchAllocator(NUM_PORTS, num_vcs)
        for allocator in (router._sa, reference):
            for arb in allocator._sa1:
                arb._next = sa1_start
            for arb in allocator._sa2:
                arb._next = sa2_start

        units = _bid(router, requests)
        grants = reference.allocate([SARequest(*req) for req in requests])
        router.step(CYCLE)

        case = (requests, sa1_start, sa2_start)
        granted = {g.in_port * num_vcs + g.in_vc for g in grants}
        moved = {i for i in units if not router.vc_fifos[i]}
        assert moved == granted, case
        assert _pointers(router._sa) == _pointers(reference), case
        if attribution is not None:
            sa_loss = attribution.node_cause_counts()[CENTRE][STALL_SA_LOSS]
            assert sa_loss == len(units) - len(grants), case
