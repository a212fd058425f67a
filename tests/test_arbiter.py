"""Round-robin arbiter tests: single grant, fairness, rotation.

The arbiter is the readable form the router's flat-pointer allocators
are pinned against (:mod:`tests.reference_allocator`).
"""

import pytest
from hypothesis import given, strategies as st

from tests.reference_allocator import RoundRobinArbiter


@pytest.mark.parametrize("cls", [RoundRobinArbiter])
def test_no_request_no_grant(cls):
    arb = cls(4)
    assert arb.grant([False] * 4) is None


@pytest.mark.parametrize("cls", [RoundRobinArbiter])
def test_single_request_granted(cls):
    arb = cls(4)
    assert arb.grant([False, False, True, False]) == 2


@pytest.mark.parametrize("cls", [RoundRobinArbiter])
def test_grant_is_a_requester(cls):
    arb = cls(5)
    requests = [True, False, True, False, True]
    for _ in range(20):
        winner = arb.grant(requests)
        assert winner in (0, 2, 4)


@pytest.mark.parametrize("cls", [RoundRobinArbiter])
def test_wrong_width_rejected(cls):
    arb = cls(3)
    with pytest.raises(ValueError):
        arb.grant([True, False])


@pytest.mark.parametrize("cls", [RoundRobinArbiter])
def test_size_validation(cls):
    with pytest.raises(ValueError):
        cls(0)


def test_round_robin_rotates():
    arb = RoundRobinArbiter(3)
    all_on = [True, True, True]
    winners = [arb.grant(all_on) for _ in range(6)]
    assert winners == [0, 1, 2, 0, 1, 2]


def test_round_robin_skips_idle():
    arb = RoundRobinArbiter(4)
    assert arb.grant([True, False, False, True]) == 0
    assert arb.grant([True, False, False, True]) == 3
    assert arb.grant([True, False, False, True]) == 0


@pytest.mark.parametrize("cls", [RoundRobinArbiter])
def test_fairness_under_saturation(cls):
    """With all requesters always asserted, grants are perfectly fair."""
    n = 4
    arb = cls(n)
    counts = [0] * n
    for _ in range(400):
        counts[arb.grant([True] * n)] += 1
    assert max(counts) - min(counts) <= 1


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.lists(st.booleans(), min_size=1, max_size=6), min_size=1, max_size=40),
)
def test_property_grant_always_valid(size, request_rounds):
    """Grant is None iff no requests, else an asserted line."""
    arb = RoundRobinArbiter(size)
    for round_requests in request_rounds:
        requests = (round_requests * size)[:size]
        winner = arb.grant(requests)
        if any(requests):
            assert winner is not None and requests[winner]
        else:
            assert winner is None


@given(st.integers(min_value=2, max_value=6))
def test_property_no_starvation(size):
    """A persistent requester is served within `size` rounds even when all
    other lines are also asserted (round-robin bound)."""
    arb = RoundRobinArbiter(size)
    target = size - 1
    waits = 0
    for _ in range(size * 3):
        winner = arb.grant([True] * size)
        if winner == target:
            break
        waits += 1
    assert waits < size * 2
