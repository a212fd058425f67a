"""Differential tests: the flat-index allocators against the reference.

:mod:`tests.reference_allocator` keeps the separable algorithm with one
request tuple per requester and one ``RoundRobinArbiter`` grant per
arbitration.
For drawn router shapes (2-7 ports, 1-4 VCs), arbitrary pointer states,
request subsets, output ports, owned/free output VCs, allowed-VC
restrictions and QoS priorities, :mod:`repro.noc.allocator` must grant
the same winners in the same order and leave every pointer equal.
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
    num_ports = draw(st.integers(2, 7))
    num_vcs = draw(st.integers(1, 4))
    units = num_ports * num_vcs
    requesters = draw(
        st.lists(st.integers(0, units - 1), unique=True, max_size=units)
    )
    out_port_of = [-1] * units
    for i in requesters:
        out_port_of[i] = draw(st.integers(0, num_ports - 1))
    return num_ports, num_vcs, sorted(requesters), out_port_of


def _pointers(draw, count: int, size: int):
    return draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count))


@st.composite
def va_cases(draw):
    num_ports, num_vcs, units, out_port_of = draw(_shape())
    size = num_ports * num_vcs
    va1 = _pointers(draw, size, num_vcs)
    va2 = _pointers(draw, size, size)
    owners = [
        [
            draw(st.none() | st.just((0, 0)))
            for _ in range(num_vcs)
        ]
        for _ in range(num_ports)
    ]
    vc_subsets = st.lists(
        st.integers(0, num_vcs - 1), unique=True, max_size=num_vcs
    ).map(tuple)
    restricted = draw(st.booleans())
    allowed = (
        [draw(st.none() | vc_subsets) for _ in units] if restricted else None
    )
    return num_ports, num_vcs, units, out_port_of, va1, va2, owners, allowed


@st.composite
def sa_cases(draw):
    num_ports, num_vcs, units, out_port_of = draw(_shape())
    sa1 = _pointers(draw, num_ports, num_vcs)
    sa2 = _pointers(draw, num_ports, num_ports)
    qos = draw(st.booleans())
    priority = (
        {i: draw(st.integers(0, 2)) for i in units} if qos else None
    )
    return num_ports, num_vcs, units, out_port_of, sa1, sa2, priority


@given(va_cases())
def test_va_matches_reference(case):
    num_ports, num_vcs, units, out_port_of, va1, va2, owners, allowed = case
    allocator = VirtualChannelAllocator(num_ports, num_vcs)
    allocator.va1[:] = va1
    allocator.va2[:] = va2
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
    free = {p: [owner is None for owner in row] for p, row in enumerate(owners)}

    grants = allocator.allocate(units, out_port_of, owners, allowed)
    expected = reference.allocate(requests, free)

    assert list(grants.items()) == [
        (out_port * num_vcs + out_vc, in_port * num_vcs + in_vc)
        for (in_port, in_vc), (out_port, out_vc) in expected.items()
    ]
    assert (allocator.va1, allocator.va2) == reference.pointers()


@given(sa_cases())
def test_sa_matches_reference(case):
    num_ports, num_vcs, units, out_port_of, sa1, sa2, priority = case
    allocator = SwitchAllocator(num_ports, num_vcs)
    allocator.sa1[:] = sa1
    allocator.sa2[:] = sa2
    reference = ReferenceSA(num_ports, num_vcs, sa1, sa2)
    requests = [
        SARequest(i // num_vcs, i % num_vcs, out_port_of[i]) for i in units
    ]
    priorities = None
    if priority is not None:
        priorities = {divmod(i, num_vcs): p for i, p in priority.items()}

    granted = list(allocator.allocate(units, out_port_of, priority))
    expected = reference.allocate(requests, priorities)

    assert granted == [r.in_port * num_vcs + r.in_vc for r in expected]
    assert (allocator.sa1, allocator.sa2) == reference.pointers()
