"""Differential tests: the flat-index allocators against the reference.

:mod:`tests.reference_allocator` keeps the separable algorithm with one
request tuple per requester and one ``RoundRobinArbiter`` grant per
arbitration.  For drawn router shapes (2-7 ports, 1-4 VCs), placed
after a lead node of 0-3 ports so that their global indices start past
0, and for arbitrary pointer states, request subsets, output ports,
owned/free output VCs, allowed-VC restrictions and QoS priorities,
:mod:`repro.noc.allocator` must grant the same winners in the same
order, leave every pointer equal and leave the lead node's untouched.
CI runs this module with ``--hypothesis-profile=ci`` (more examples,
derandomized).
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.noc.allocator import SwitchAllocator, VirtualChannelAllocator
from tests.reference_allocator import (
    ReferenceSA,
    ReferenceVA,
    SARequest,
    VARequest,
)


@st.composite
def _shape(draw):
    """A drawn router numbered after a lead node of 0-3 ports, so its
    global indices start at ``base`` (0 when there is no lead node)."""
    lead_ports = draw(st.integers(0, 3))
    num_ports = draw(st.integers(2, 7))
    num_vcs = draw(st.integers(1, 4))
    units = num_ports * num_vcs
    requesters = draw(
        st.lists(st.integers(0, units - 1), unique=True, max_size=units)
    )
    out_port_of = [-1] * units
    for i in requesters:
        out_port_of[i] = draw(st.integers(0, num_ports - 1))
    return lead_ports, num_ports, num_vcs, sorted(requesters), out_port_of


def _global(lead_ports, num_ports, num_vcs, units, out_port_of):
    """The node-port list, first unit, requesting global units and
    global output port per unit of a drawn shape."""
    node_ports = [lead_ports, num_ports] if lead_ports else [num_ports]
    base = lead_ports * num_vcs
    global_out = [-1] * base + [
        -1 if out < 0 else lead_ports + out for out in out_port_of
    ]
    return node_ports, base, [base + i for i in units], global_out


def _pointers(draw, count: int, size: int):
    return draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count))


@st.composite
def va_cases(draw):
    shape = draw(_shape())
    _, num_ports, num_vcs, units, _ = shape
    size = num_ports * num_vcs
    va1 = _pointers(draw, size, num_vcs)
    va2 = _pointers(draw, size, size)
    owners = [draw(st.none() | st.just(0)) for _ in range(size)]
    vc_subsets = st.lists(
        st.integers(0, num_vcs - 1), unique=True, max_size=num_vcs
    ).map(tuple)
    restricted = draw(st.booleans())
    allowed = (
        [draw(st.none() | vc_subsets) for _ in units] if restricted else None
    )
    return shape, va1, va2, owners, allowed


@st.composite
def sa_cases(draw):
    shape = draw(_shape())
    _, num_ports, num_vcs, units, _ = shape
    sa1 = _pointers(draw, num_ports, num_vcs)
    sa2 = _pointers(draw, num_ports, num_ports)
    qos = draw(st.booleans())
    priority = (
        {i: draw(st.integers(0, 2)) for i in units} if qos else None
    )
    return shape, sa1, sa2, priority


@given(va_cases())
def test_va_matches_reference(case):
    shape, va1, va2, owners, allowed = case
    lead_ports, num_ports, num_vcs, units, out_port_of = shape
    node_ports, base, requesters, global_out = _global(*shape)
    size = num_ports * num_vcs
    allocator = VirtualChannelAllocator(node_ports, num_vcs)
    allocator.va1[base:] = va1
    allocator.va2[base:] = va2
    reference = ReferenceVA(num_ports, num_vcs, va1, va2)
    requests = [
        VARequest(
            i // num_vcs,
            i % num_vcs,
            out_port_of[i],
            None if allowed is None else allowed[n],
        )
        for n, i in enumerate(units)
    ]
    free = {
        p: [owner is None for owner in owners[p * num_vcs:(p + 1) * num_vcs]]
        for p in range(num_ports)
    }

    grants = allocator.allocate(
        requesters, global_out, [None] * base + owners, allowed, base, size
    )
    expected = reference.allocate(requests, free)

    assert list(grants.items()) == [
        (base + out_port * num_vcs + out_vc, base + in_port * num_vcs + in_vc)
        for (in_port, in_vc), (out_port, out_vc) in expected.items()
    ]
    ref_va1, ref_va2 = reference.pointers()
    assert allocator.va1 == [0] * base + ref_va1
    assert allocator.va2 == [0] * base + ref_va2
    assert allocator.check_sane() is None


@given(sa_cases())
def test_sa_matches_reference(case):
    shape, sa1, sa2, priority = case
    lead_ports, num_ports, num_vcs, units, out_port_of = shape
    node_ports, base, requesters, global_out = _global(*shape)
    allocator = SwitchAllocator(node_ports, num_vcs)
    allocator.sa1[lead_ports:] = sa1
    allocator.sa2[lead_ports:] = sa2
    reference = ReferenceSA(num_ports, num_vcs, sa1, sa2)
    requests = [
        SARequest(i // num_vcs, i % num_vcs, out_port_of[i]) for i in units
    ]
    priorities = None
    global_priority = None
    if priority is not None:
        priorities = {divmod(i, num_vcs): p for i, p in priority.items()}
        global_priority = {base + i: p for i, p in priority.items()}

    granted = list(allocator.allocate(
        requesters, global_out, global_priority, base, num_ports * num_vcs
    ))
    expected = reference.allocate(requests, priorities)

    assert granted == [
        base + r.in_port * num_vcs + r.in_vc for r in expected
    ]
    ref_sa1, ref_sa2 = reference.pointers()
    assert allocator.sa1 == [0] * lead_ports + ref_sa1
    assert allocator.sa2 == [0] * lead_ports + ref_sa2
    assert allocator.check_sane() is None
