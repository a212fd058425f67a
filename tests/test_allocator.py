"""Separable VA/SA allocator tests."""

from hypothesis import given, strategies as st

from repro.noc.allocator import SwitchAllocator, VirtualChannelAllocator


def _free_all(ports, vcs):
    return {p: [True] * vcs for p in range(ports)}


def _va(va, triples, free):
    """Run VA for ``(in_port, in_vc, out_port)`` requests of a one-node
    allocator; ``free`` maps output ports to free-VC flags (ports left
    out are all free).  Returns ``{(in_port, in_vc): (out_port,
    out_vc)}`` in grant order."""
    num_vcs = va.num_vcs
    (num_ports,) = va.node_ports
    size = num_ports * num_vcs
    out_port_of = [-1] * size
    for in_port, in_vc, out_port in triples:
        out_port_of[in_port * num_vcs + in_vc] = out_port
    owners = [
        None if f else 0
        for p in range(num_ports)
        for f in free.get(p, [True] * num_vcs)
    ]
    units = sorted(p * num_vcs + v for p, v, _ in triples)
    grants = va.allocate(units, out_port_of, owners, None, 0, size)
    return {
        divmod(i, num_vcs): divmod(key, num_vcs) for key, i in grants.items()
    }


def _sa(sa, triples, priorities=None):
    """Run SA for ``(in_port, in_vc, out_port)`` requests of a one-node
    allocator; returns the granted triples in grant order."""
    num_vcs = sa.num_vcs
    (num_ports,) = sa.node_ports
    size = num_ports * num_vcs
    out_port_of = [-1] * size
    for in_port, in_vc, out_port in triples:
        out_port_of[in_port * num_vcs + in_vc] = out_port
    units = sorted(p * num_vcs + v for p, v, _ in triples)
    priority = None
    if priorities is not None:
        priority = {p * num_vcs + v: c for (p, v), c in priorities.items()}
    return [
        (*divmod(i, num_vcs), out_port_of[i])
        for i in sa.allocate(units, out_port_of, priority, 0, size)
    ]


class TestVirtualChannelAllocator:
    def test_single_request_granted(self):
        va = VirtualChannelAllocator([3], num_vcs=2)
        grants = _va(va, [(1, 1, 2)], _free_all(3, 2))
        assert grants == {(1, 1): (2, 0)} or grants == {(1, 1): (2, 1)}
        # Both stages rotate just past the sole winner: VA1 past the
        # granted out VC, VA2 past input VC (1, 1) = unit 3 of 6.
        out_vc = grants[(1, 1)][1]
        assert {i: nxt for i, nxt in enumerate(va.va1) if nxt} == {
            3: (out_vc + 1) % 2
        }
        assert {key: nxt for key, nxt in enumerate(va.va2) if nxt} == {
            2 * 2 + out_vc: 4
        }

    def test_no_free_vc_no_grant(self):
        va = VirtualChannelAllocator([3], 2)
        free = {2: [False, False]}
        assert _va(va, [(0, 0, 2)], free) == {}

    def test_conflicting_requests_one_winner_per_out_vc(self):
        va = VirtualChannelAllocator([3], 1)
        grants = _va(va, [(0, 0, 2), (1, 0, 2)], {2: [True]})
        assert len(grants) == 1
        assert list(grants.values()) == [(2, 0)]

    def test_two_vcs_serve_two_requesters(self):
        va = VirtualChannelAllocator([3], 2)
        grants = _va(va, [(0, 0, 2), (1, 0, 2)], {2: [True, True]})
        # With two free out VCs both input VCs may win (if stage-1 picks
        # differ) or at least one wins.
        assert 1 <= len(grants) <= 2
        granted_vcs = {vc for _, vc in grants.values()}
        assert len(granted_vcs) == len(grants)  # no double-grant of a VC

    def test_fairness_over_rounds(self):
        va = VirtualChannelAllocator([2], 1)
        wins = {(0, 0): 0, (1, 0): 0}
        for _ in range(50):
            for key in _va(va, [(0, 0, 1), (1, 0, 1)], {1: [True]}):
                wins[key] += 1
        assert abs(wins[(0, 0)] - wins[(1, 0)]) <= 2

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 1), st.integers(0, 4)
            ),
            max_size=10,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    def test_property_grants_are_injective(self, triples):
        """No output VC is granted to two input VCs in one allocation."""
        va = VirtualChannelAllocator([5], 2)
        grants = _va(va, triples, _free_all(5, 2))
        out_vcs = list(grants.values())
        assert len(out_vcs) == len(set(out_vcs))
        for (in_port, in_vc), (out_port, _) in grants.items():
            match = [t for t in triples if t[:2] == (in_port, in_vc)]
            assert match and match[0][2] == out_port


class TestSwitchAllocator:
    def test_single_request_granted(self):
        sa = SwitchAllocator([3], 2)
        assert _sa(sa, [(1, 0, 2)]) == [(1, 0, 2)]
        assert sa.sa1 == [0, 1, 0]
        assert sa.sa2 == [0, 0, 2]

    def test_one_grant_per_input_port(self):
        sa = SwitchAllocator([3], 2)
        assert len(_sa(sa, [(0, 0, 1), (0, 1, 2)])) == 1

    def test_one_grant_per_output_port(self):
        sa = SwitchAllocator([3], 2)
        assert len(_sa(sa, [(0, 0, 2), (1, 0, 2)])) == 1

    def test_disjoint_requests_all_granted(self):
        sa = SwitchAllocator([4], 2)
        requests = [(0, 0, 2), (1, 0, 3)]
        assert sorted(_sa(sa, requests)) == requests
        assert sa.sa1 == [1, 1, 0, 0]
        assert sa.sa2 == [0, 0, 1, 2]

    def test_fairness_between_inputs(self):
        sa = SwitchAllocator([2], 1)
        wins = [0, 0]
        for _ in range(60):
            for in_port, _, _ in _sa(sa, [(0, 0, 1), (1, 0, 1)]):
                wins[in_port] += 1
        assert abs(wins[0] - wins[1]) <= 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 1), st.integers(0, 4)),
            max_size=12,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    def test_property_crossbar_constraint(self, triples):
        """At most one grant per input port and per output port."""
        sa = SwitchAllocator([5], 2)
        grants = _sa(sa, triples)
        in_ports = [g[0] for g in grants]
        out_ports = [g[2] for g in grants]
        assert len(in_ports) == len(set(in_ports))
        assert len(out_ports) == len(set(out_ports))
        for grant in grants:
            assert grant in triples
