"""Packet and flit construction tests."""

import pytest

from repro.noc.packet import (
    CTRL_PACKET_FLITS,
    DATA_PACKET_FLITS,
    Flit,
    FlitType,
    Packet,
    PacketClass,
    ctrl_packet,
    data_packet,
)


def test_data_packet_has_five_flits():
    packet = data_packet(0, 1)
    assert packet.size_flits == DATA_PACKET_FLITS == 5
    assert packet.klass is PacketClass.DATA


def test_ctrl_packet_single_flit():
    packet = ctrl_packet(0, 1)
    assert packet.size_flits == CTRL_PACKET_FLITS == 1
    flits = packet.make_flits()
    assert len(flits) == 1
    assert flits[0].kind is FlitType.SINGLE


def test_make_flits_head_body_tail():
    flits = data_packet(0, 1).make_flits()
    kinds = [f.kind for f in flits]
    assert kinds == [
        FlitType.HEAD,
        FlitType.BODY,
        FlitType.BODY,
        FlitType.BODY,
        FlitType.TAIL,
    ]


def test_head_and_single_are_head():
    head = Flit(data_packet(0, 1), FlitType.HEAD, 0)
    single = Flit(ctrl_packet(0, 1), FlitType.SINGLE, 0)
    body = Flit(data_packet(0, 1), FlitType.BODY, 1)
    assert head.is_head and single.is_head and not body.is_head
    assert single.is_tail and not head.is_tail


def test_header_flit_is_short_by_construction():
    flits = data_packet(0, 1).make_flits(layer_groups=4)
    assert flits[0].active_groups == 1


def test_payload_defaults_to_full_width():
    flits = data_packet(0, 1).make_flits(layer_groups=4)
    for flit in flits[1:]:
        assert flit.active_groups == 4


def test_payload_groups_respected():
    packet = data_packet(0, 1, payload_groups=[1, 1, 4, 2, 1])
    groups = [f.active_groups for f in packet.make_flits()]
    assert groups == [1, 1, 4, 2, 1]


def test_payload_groups_clamped_to_range():
    packet = data_packet(0, 1, payload_groups=[0, 9, 4, 2, 1])
    groups = [f.active_groups for f in packet.make_flits(layer_groups=4)]
    assert groups == [1, 4, 4, 2, 1]


def test_zero_active_groups_rejected():
    with pytest.raises(ValueError):
        Flit(data_packet(0, 1), FlitType.BODY, 1, active_groups=0)


def test_payload_groups_length_validated():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, size_flits=5, payload_groups=[1, 2])


def test_src_equals_dst_rejected():
    with pytest.raises(ValueError):
        Packet(src=3, dst=3, size_flits=1)


def test_zero_flits_rejected():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, size_flits=0)


def test_latency_none_until_delivered():
    packet = data_packet(0, 1, created_cycle=10)
    assert packet.latency is None
    packet.delivered_cycle = 35
    assert packet.latency == 25


def test_packet_ids_unique():
    ids = {data_packet(0, 1).pid for _ in range(100)}
    assert len(ids) == 100


def _payloads(size, layer_groups):
    """``payload_groups`` for a *size*-flit packet: none, every count in
    range, and counts below and above it (0 and 7)."""
    return [
        None,
        [seq % layer_groups + 1 for seq in range(size)],
        [(0, 7)[seq % 2] for seq in range(size)],
    ]


@pytest.mark.parametrize("layer_groups", [3, 4])
@pytest.mark.parametrize("size", range(1, 7))
def test_make_flits_equals_direct_construction(size, layer_groups):
    """``make_flits`` builds its flits without the dataclass constructor;
    each must equal, field by field, the ``Flit(...)`` built directly
    with the kind its position gives and the clamped word-group count."""
    for payload in _payloads(size, layer_groups):
        packet = Packet(src=0, dst=1, size_flits=size, payload_groups=payload)
        flits = packet.make_flits(layer_groups)
        assert len(flits) == size
        for seq, flit in enumerate(flits):
            if size == 1:
                kind = FlitType.SINGLE
            elif seq == 0:
                kind = FlitType.HEAD
            elif seq == size - 1:
                kind = FlitType.TAIL
            else:
                kind = FlitType.BODY
            if payload is not None:
                active = min(max(payload[seq], 1), layer_groups)
            else:
                active = 1 if seq == 0 else layer_groups
            direct = Flit(packet=packet, kind=kind, seq=seq, active_groups=active)
            fields = (
                "kind", "seq", "active_groups", "lookahead_port",
                "is_head", "is_tail",
            )
            for name in fields:
                assert getattr(flit, name) == getattr(direct, name), (
                    size, payload, seq, name
                )
            assert flit.packet is packet
            assert type(flit) is Flit
            assert flit == direct
    with pytest.raises(ValueError):
        Flit(packet, FlitType.SINGLE, 0, active_groups=0)
