"""Separable VA/SA allocator tests."""

from hypothesis import given, strategies as st

from repro.noc.allocator import (
    SARequest,
    SwitchAllocator,
    VARequest,
    VirtualChannelAllocator,
)


def _free_all(ports, vcs):
    return {p: [True] * vcs for p in range(ports)}


class TestVirtualChannelAllocator:
    def test_single_request_granted(self):
        va = VirtualChannelAllocator(num_ports=3, num_vcs=2)
        grants = va.allocate([VARequest(1, 1, 2)], _free_all(3, 2))
        assert grants == {(1, 1): (2, 0)} or grants == {(1, 1): (2, 1)}
        # Both stages rotate just past the sole winner: VA1 past the
        # granted out VC, VA2 past input VC (1, 1) = line 3 of 6.
        out_vc = grants[(1, 1)][1]
        assert {
            key: arb._next for key, arb in va._va1.items() if arb._next
        } == {(1, 1): (out_vc + 1) % 2}
        assert {
            key: arb._next for key, arb in va._va2.items() if arb._next
        } == {(2, out_vc): 4}

    def test_no_free_vc_no_grant(self):
        va = VirtualChannelAllocator(3, 2)
        free = {2: [False, False]}
        assert va.allocate([VARequest(0, 0, 2)], free) == {}

    def test_conflicting_requests_one_winner_per_out_vc(self):
        va = VirtualChannelAllocator(3, 1)
        requests = [VARequest(0, 0, 2), VARequest(1, 0, 2)]
        grants = va.allocate(requests, {2: [True]})
        assert len(grants) == 1
        assert list(grants.values()) == [(2, 0)]

    def test_two_vcs_serve_two_requesters(self):
        va = VirtualChannelAllocator(3, 2)
        requests = [VARequest(0, 0, 2), VARequest(1, 0, 2)]
        grants = va.allocate(requests, {2: [True, True]})
        # With two free out VCs both input VCs may win (if stage-1 picks
        # differ) or at least one wins.
        assert 1 <= len(grants) <= 2
        granted_vcs = {vc for _, vc in grants.values()}
        assert len(granted_vcs) == len(grants)  # no double-grant of a VC

    def test_fairness_over_rounds(self):
        va = VirtualChannelAllocator(2, 1)
        wins = {(0, 0): 0, (1, 0): 0}
        for _ in range(50):
            grants = va.allocate(
                [VARequest(0, 0, 1), VARequest(1, 0, 1)], {1: [True]}
            )
            for key in grants:
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
        va = VirtualChannelAllocator(5, 2)
        requests = [VARequest(p, v, o) for p, v, o in triples]
        grants = va.allocate(requests, _free_all(5, 2))
        out_vcs = list(grants.values())
        assert len(out_vcs) == len(set(out_vcs))
        for (in_port, in_vc), (out_port, _) in grants.items():
            match = [r for r in requests if (r.in_port, r.in_vc) == (in_port, in_vc)]
            assert match and match[0].out_port == out_port


class TestSwitchAllocator:
    def test_single_request_granted(self):
        sa = SwitchAllocator(3, 2)
        grants = sa.allocate([SARequest(1, 0, 2)])
        assert grants == [SARequest(1, 0, 2)]
        assert [arb._next for arb in sa._sa1] == [0, 1, 0]
        assert [arb._next for arb in sa._sa2] == [0, 0, 2]

    def test_one_grant_per_input_port(self):
        sa = SwitchAllocator(3, 2)
        grants = sa.allocate([SARequest(0, 0, 1), SARequest(0, 1, 2)])
        assert len(grants) == 1

    def test_one_grant_per_output_port(self):
        sa = SwitchAllocator(3, 2)
        grants = sa.allocate([SARequest(0, 0, 2), SARequest(1, 0, 2)])
        assert len(grants) == 1

    def test_disjoint_requests_all_granted(self):
        sa = SwitchAllocator(4, 2)
        requests = [SARequest(0, 0, 2), SARequest(1, 0, 3)]
        assert sorted(
            sa.allocate(requests), key=lambda r: r.in_port
        ) == requests
        assert [arb._next for arb in sa._sa1] == [1, 1, 0, 0]
        assert [arb._next for arb in sa._sa2] == [0, 0, 1, 2]

    def test_fairness_between_inputs(self):
        sa = SwitchAllocator(2, 1)
        wins = [0, 0]
        for _ in range(60):
            for grant in sa.allocate([SARequest(0, 0, 1), SARequest(1, 0, 1)]):
                wins[grant.in_port] += 1
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
        sa = SwitchAllocator(5, 2)
        requests = [SARequest(p, v, o) for p, v, o in triples]
        grants = sa.allocate(requests)
        in_ports = [g.in_port for g in grants]
        out_ports = [g.out_port for g in grants]
        assert len(in_ports) == len(set(in_ports))
        assert len(out_ports) == len(set(out_ports))
        for grant in grants:
            assert grant in requests
