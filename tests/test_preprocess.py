"""Packet cleaning and session splitting against hand-built frames."""

from __future__ import annotations

import numpy as np
import pytest

import cgnn.preprocess
from cgnn.errors import DecodeError
from cgnn.preprocess import (FiveTuple, decode_frame, clean_bytes,
                             graphs_from_records, split_sessions, vectorize)

from conftest import (IP_A, IP_B, arp_frame, ethernet, ipv4, records_of,
                      tcp, tcp_frame, udp_frame)


# --- vectorize -----------------------------------------------------------

def test_vectorize_pads_short_input():
    out = vectorize(bytes(range(8)), 12)
    assert out.tolist() == list(range(8)) + [0, 0, 0, 0]
    assert out.dtype == np.uint8


def test_vectorize_truncates_long_input():
    out = vectorize(bytes([7]) * 1600, 1500)
    assert out.shape == (1500,)
    assert (out == 7).all()


def test_vectorize_empty_input():
    assert vectorize(b"", 4).tolist() == [0, 0, 0, 0]


def test_vectorize_length_always_p(rng):
    for _ in range(50):
        size = int(rng.integers(0, 64))
        p = int(rng.integers(1, 64))
        assert vectorize(bytes(size), p).shape == (p,)


def test_vectorize_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        vectorize(b"abc", 0)


# --- cleaning golden layouts --------------------------------------------

PAYLOAD = b"GET / HTTP/1.1\r\n"


def expected_tcp_clean(payload: bytes, ip_options: bytes = b"",
                       tcp_options: bytes = b"") -> bytes:
    """Cleaning oracle built independently: the IPv4 header with both
    addresses zeroed, then the whole TCP segment, options unstripped."""
    header = bytearray(ipv4(tcp(payload, options=tcp_options), 6,
                            options=ip_options)[:20 + len(ip_options)])
    header[12:20] = b"\x00" * 8
    return bytes(header) + tcp(payload, options=tcp_options)


def expected_udp_clean(payload: bytes) -> bytes:
    header = bytearray(ipv4(b"", 17)[:20])
    header[2:4] = (20 + 8 + len(payload)).to_bytes(2, "big")
    header[12:20] = b"\x00" * 8
    udp_header = (40000).to_bytes(2, "big") + (5353).to_bytes(2, "big") \
        + (8 + len(payload)).to_bytes(2, "big") + b"\x00\x00"
    return bytes(header) + udp_header + b"\x00" * 12 + payload


def test_tcp_cleaning_layout_and_zeroed_addresses():
    cleaned = clean_bytes(decode_frame(tcp_frame(PAYLOAD)))
    assert cleaned == expected_tcp_clean(PAYLOAD)
    assert cleaned[12:20] == b"\x00" * 8
    assert cleaned[20:22] == (40000).to_bytes(2, "big")
    assert cleaned[40:] == PAYLOAD


def test_udp_header_padded_to_twenty_bytes():
    cleaned = clean_bytes(decode_frame(udp_frame(b"ping")))
    assert cleaned == expected_udp_clean(b"ping")
    assert cleaned[28:40] == b"\x00" * 12  # the 8 -> 20 padding
    assert cleaned[40:] == b"ping"


def test_empty_tcp_payload_is_discarded():
    syn = tcp_frame(b"", flags=0x02)
    assert clean_bytes(decode_frame(syn)) is None
    graphs, _, stats = graphs_from_records(records_of([syn]), 0, 32)
    assert graphs == []
    assert stats.discarded_empty == 1 and stats.dropped_sessions == 1


def test_empty_udp_payload_is_discarded():
    assert clean_bytes(decode_frame(udp_frame(b""))) is None


def test_ethernet_trailer_does_not_count_as_payload():
    # 60-byte minimum frames pad short packets; the IP total length
    # excludes the pad, so a bare ACK still has no payload.
    ack = tcp_frame(b"", flags=0x10, trailer=b"\x5a" * 6)
    assert clean_bytes(decode_frame(ack)) is None


def test_trailer_excluded_from_kept_payload():
    frame = tcp_frame(b"hi", trailer=b"\xff" * 8)
    cleaned = clean_bytes(decode_frame(frame))
    assert cleaned == expected_tcp_clean(b"hi")


def test_tcp_options_kept_after_header_region():
    options = b"\x02\x04\x05\xb4"  # maximum segment size option
    cleaned = clean_bytes(decode_frame(tcp_frame(b"xy",
                                                 tcp_options=options)))
    assert cleaned == expected_tcp_clean(b"xy", tcp_options=options)
    assert cleaned[40:44] == options
    assert cleaned[44:] == b"xy"


def test_ip_options_kept_and_addresses_zeroed():
    options = b"\x01\x01\x01\x01"  # four no-op option bytes
    cleaned = clean_bytes(decode_frame(tcp_frame(b"z",
                                                 ip_options=options)))
    assert cleaned == expected_tcp_clean(b"z", ip_options=options)
    assert cleaned[12:20] == b"\x00" * 8
    assert cleaned[20:24] == options


def _only_row(frame: bytes, p: int) -> np.ndarray:
    (graph,), _, _ = graphs_from_records(records_of([frame]), 0, p)
    assert graph.n == 1
    return graph.features[0]


def test_clean_packet_returns_fixed_length_vector():
    packet = _only_row(tcp_frame(PAYLOAD), 32)
    assert isinstance(packet, np.ndarray)
    assert packet.shape == (32,)
    assert packet.dtype == np.uint8
    assert bytes(packet) == expected_tcp_clean(PAYLOAD)[:32]


def test_clean_packet_pads_to_p():
    packet = _only_row(tcp_frame(b"a"), 128)
    cleaned = expected_tcp_clean(b"a")
    assert bytes(packet) == cleaned + b"\x00" * (128 - len(cleaned))


# --- frame skipping and errors -------------------------------------------

def test_non_ipv4_frames_skipped():
    assert decode_frame(arp_frame()) is None
    graphs, _, stats = graphs_from_records(records_of([arp_frame()]), 0, 16)
    assert graphs == [] and stats.skipped == 1
    ipv6 = ethernet(b"\x60" + b"\x00" * 50, ethertype=0x86DD)
    assert decode_frame(ipv6) is None


def test_non_tcp_udp_protocol_skipped():
    icmp = ethernet(ipv4(b"\x08\x00\x00\x00", 1))
    assert decode_frame(icmp) is None


def test_later_ip_fragment_skipped():
    frag = ethernet(ipv4(tcp(b"data"), 6, frag=0x0010))
    assert decode_frame(frag) is None


def test_malformed_frames_raise():
    with pytest.raises(DecodeError):
        decode_frame(b"\x00" * 10)  # shorter than Ethernet header
    with pytest.raises(DecodeError):
        decode_frame(ethernet(b"\x45\x00"))  # IPv4 header cut short
    with pytest.raises(DecodeError):
        decode_frame(ethernet(b"\x65" + ipv4(tcp(b"x"), 6)[1:]))  # version 6
    with pytest.raises(DecodeError):
        decode_frame(ethernet(b"\x43" + ipv4(tcp(b"x"), 6)[1:]))  # IHL 3
    with pytest.raises(DecodeError):
        decode_frame(ethernet(ipv4(tcp(b"x")[:12], 6)))  # TCP header cut
    with pytest.raises(DecodeError):
        # data offset claims options that are not present
        segment = bytearray(tcp(b""))
        segment[12] = 8 << 4
        decode_frame(ethernet(ipv4(bytes(segment), 6)))
    with pytest.raises(DecodeError):
        decode_frame(ethernet(ipv4(b"\x00" * 4, 17)))  # UDP header cut


# --- sessions -------------------------------------------------------------

def test_both_directions_form_one_session():
    a_to_b = tcp_frame(b"hello", sport=40000, dport=80,
                       src=IP_A, dst=IP_B)
    b_to_a = tcp_frame(b"world", sport=80, dport=40000,
                       src=IP_B, dst=IP_A)
    split = split_sessions(records_of([a_to_b, b_to_a]))
    assert len(split.sessions) == 1
    (key, session), = split.sessions.items()
    assert len(session) == 2
    assert key == FiveTuple.canonical(IP_A, 40000, IP_B, 80, 6)


def test_distinct_port_pairs_form_two_sessions():
    one = tcp_frame(b"x", sport=40000, dport=80)
    two = tcp_frame(b"y", sport=40001, dport=80)
    split = split_sessions(records_of([one, two]))
    assert len(split.sessions) == 2


def test_arp_noise_is_counted_not_fatal():
    split = split_sessions(records_of([tcp_frame(b"x"), arp_frame()]))
    assert len(split.sessions) == 1
    assert split.skipped == 1


def test_malformed_frame_is_counted_not_fatal():
    split = split_sessions(records_of([b"\x00" * 8, tcp_frame(b"x")]))
    assert split.skipped == 1
    assert len(split.sessions) == 1


def test_session_order_preserved():
    frames = [
        tcp_frame(b"a1", sport=40000, dport=80),
        tcp_frame(b"b1", sport=40001, dport=443),
        tcp_frame(b"a2", sport=40000, dport=80),
        tcp_frame(b"b2", sport=40001, dport=443),
    ]
    split = split_sessions(records_of(frames))
    cleaned = [clean_bytes(decode_frame(f)) for f in frames]
    sessions = list(split.sessions.values())
    assert sessions[0] == [cleaned[0], cleaned[2]]
    assert sessions[1] == [cleaned[1], cleaned[3]]


def test_drop_dns_flag():
    dns = udp_frame(b"\x12\x34", dport=53)
    other = udp_frame(b"data", dport=5353)
    kept = split_sessions(records_of([dns, other]))
    assert len(kept.sessions) == 2
    dropped = split_sessions(records_of([dns, other]), drop_dns=True)
    assert len(dropped.sessions) == 1
    assert dropped.dropped_dns == 1


def test_five_tuple_canonical_is_direction_free():
    forward_key = FiveTuple.canonical(IP_A, 40000, IP_B, 80, 6)
    reverse_key = FiveTuple.canonical(IP_B, 80, IP_A, 40000, 6)
    assert forward_key == reverse_key
    assert str(forward_key) == "10.0.0.1:40000-10.0.0.2:80/tcp"


def test_ingest_decodes_each_frame_once(monkeypatch):
    frames = [tcp_frame(b"a1"), udp_frame(b"u1"), arp_frame(),
              b"\x00" * 8, udp_frame(b"\x12\x34", dport=53),
              tcp_frame(b"", flags=0x02), tcp_frame(b"a2"),
              udp_frame(b"")]
    calls = []
    decode = cgnn.preprocess.decode_frame

    def spy(frame):
        calls.append(frame)
        return decode(frame)

    monkeypatch.setattr(cgnn.preprocess, "decode_frame", spy)
    graphs, _, stats = graphs_from_records(records_of(frames), 0, 64,
                                           drop_dns=True)
    assert calls == frames
    assert [g.n for g in graphs] == [2, 1]
    assert (stats.skipped, stats.dropped_dns, stats.discarded_empty) \
        == (2, 1, 2)
