"""Packet cleaning and session splitting against hand-built frames."""

from __future__ import annotations

import io
import re
import struct

import numpy as np
import pytest

import cgnn.cli
import cgnn.preprocess
from cgnn.cli import RunConfig, _ingest_capture, format_key
from cgnn.errors import CorruptFile
from cgnn.preprocess import graphs_from_records

from conftest import (IP_A, IP_B, arp_frame, ethernet, graph_rows, ipv4,
                      pcap_bytes, tcp, tcp_frame, traced_peak, udp_frame,
                      unpack_key)

REASONS = ("non_ipv4", "non_tcp_udp", "fragments", "malformed")


def ingest(frames: list[bytes], p: int = 64, **kwargs):
    """graphs_from_records over the frames, its key rows unpacked."""
    graphs, keys, stats = graphs_from_records(
        io.BytesIO(pcap_bytes(frames)), 0, p, **kwargs)
    assert keys.shape == (len(graphs), 3)
    return graphs, [unpack_key(*key) for key in keys.tolist()], stats


def _only_row(frame: bytes, p: int) -> np.ndarray:
    graphs, _, _ = ingest([frame], p)
    assert graphs.lengths.tolist() == [1]
    return graph_rows(graphs, 0)[0]


def _skip_reason(frame: bytes) -> str:
    """The one counter a frame that cannot join a session lands in."""
    graphs, keys, stats = ingest([frame])
    assert len(graphs) == 0 and keys == [] and stats.skipped == 1
    (reason,) = [name for name in REASONS if getattr(stats, name)]
    return reason


# --- fixed-length rows ---------------------------------------------------

def test_vectorize_pads_short_input():
    cleaned = expected_tcp_clean(b"abcd")
    row = _only_row(tcp_frame(b"abcd"), len(cleaned) + 4)
    assert row.tolist() == list(cleaned) + [0, 0, 0, 0]
    assert row.dtype == np.uint8


def test_vectorize_truncates_long_input():
    payload = bytes([7]) * 1600
    row = _only_row(tcp_frame(payload), 1500)
    assert row.shape == (1500,)
    assert bytes(row) == expected_tcp_clean(payload)[:1500]
    assert (row[40:] == 7).all()


def test_vectorize_empty_input():
    graphs, keys, stats = ingest([])
    assert len(graphs) == 0 and keys == []
    assert stats == cgnn.preprocess.IngestStats()


def test_vectorize_length_always_p(rng):
    for _ in range(50):
        size = int(rng.integers(1, 64))
        p = int(rng.integers(1, 64))
        assert _only_row(tcp_frame(bytes(size)), p).shape == (p,)


# --- cleaning golden layouts --------------------------------------------

PAYLOAD = b"GET / HTTP/1.1\r\n"


def expected_tcp_clean(payload: bytes, ip_options: bytes = b"",
                       tcp_options: bytes = b"", sport: int = 40000,
                       dport: int = 80) -> bytes:
    """Cleaning oracle built independently: the IPv4 header with both
    addresses zeroed, then the whole TCP segment, options unstripped."""
    segment = tcp(payload, sport, dport, options=tcp_options)
    header = bytearray(ipv4(segment, 6,
                            options=ip_options)[:20 + len(ip_options)])
    header[12:20] = b"\x00" * 8
    return bytes(header) + segment


def expected_udp_clean(payload: bytes) -> bytes:
    header = bytearray(ipv4(b"", 17)[:20])
    header[2:4] = (20 + 8 + len(payload)).to_bytes(2, "big")
    header[12:20] = b"\x00" * 8
    udp_header = (40000).to_bytes(2, "big") + (5353).to_bytes(2, "big") \
        + (8 + len(payload)).to_bytes(2, "big") + b"\x00\x00"
    return bytes(header) + udp_header + b"\x00" * 12 + payload


def cleaned_row(frame: bytes, expected: bytes, p: int = 128) -> bytes:
    """The frame's only row, checked to hold nothing but zeros past the
    expected length; returns the bytes before that."""
    row = _only_row(frame, p)
    assert p >= len(expected)
    assert not row[len(expected):].any()
    return bytes(row[:len(expected)])


def test_tcp_cleaning_layout_and_zeroed_addresses():
    cleaned = cleaned_row(tcp_frame(PAYLOAD), expected_tcp_clean(PAYLOAD))
    assert cleaned == expected_tcp_clean(PAYLOAD)
    assert cleaned[12:20] == b"\x00" * 8
    assert cleaned[20:22] == (40000).to_bytes(2, "big")
    assert cleaned[40:] == PAYLOAD


def test_udp_header_padded_to_twenty_bytes():
    cleaned = cleaned_row(udp_frame(b"ping"), expected_udp_clean(b"ping"))
    assert cleaned == expected_udp_clean(b"ping")
    assert cleaned[28:40] == b"\x00" * 12  # the 8 -> 20 padding
    assert cleaned[40:] == b"ping"


def test_empty_tcp_payload_is_discarded():
    syn = tcp_frame(b"", flags=0x02)
    graphs, _, stats = ingest([syn], p=32)
    assert len(graphs) == 0
    assert stats.discarded_empty == 1 and stats.dropped_sessions == 1


def test_empty_udp_payload_is_discarded():
    graphs, _, stats = ingest([udp_frame(b"")])
    assert len(graphs) == 0
    assert stats.discarded_empty == 1 and stats.dropped_sessions == 1


def test_ethernet_trailer_does_not_count_as_payload():
    # 60-byte minimum frames pad short packets; the IP total length
    # excludes the pad, so a bare ACK still has no payload.
    ack = tcp_frame(b"", flags=0x10, trailer=b"\x5a" * 6)
    graphs, _, stats = ingest([ack])
    assert len(graphs) == 0 and stats.discarded_empty == 1


def test_trailer_excluded_from_kept_payload():
    frame = tcp_frame(b"hi", trailer=b"\xff" * 8)
    assert cleaned_row(frame, expected_tcp_clean(b"hi")) \
        == expected_tcp_clean(b"hi")


def test_tcp_options_kept_after_header_region():
    options = b"\x02\x04\x05\xb4"  # maximum segment size option
    expected = expected_tcp_clean(b"xy", tcp_options=options)
    cleaned = cleaned_row(tcp_frame(b"xy", tcp_options=options), expected)
    assert cleaned == expected
    assert cleaned[40:44] == options
    assert cleaned[44:] == b"xy"


def test_ip_options_kept_and_addresses_zeroed():
    options = b"\x01\x01\x01\x01"  # four no-op option bytes
    expected = expected_tcp_clean(b"z", ip_options=options)
    cleaned = cleaned_row(tcp_frame(b"z", ip_options=options), expected)
    assert cleaned == expected
    assert cleaned[12:20] == b"\x00" * 8
    assert cleaned[20:24] == options


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


@pytest.mark.parametrize("p", [1, 2, 12, 13, 16, 19, 20, 23, 24, 28, 30,
                               40, 44, 45, 47, 48, 60])
def test_feature_length_below_the_headers(p):
    """p shorter than the 20-byte region, than an IPv4 header with
    options, than a UDP header plus its padding, and p = 1: each row is
    the cleaned bytes cut at p, zero-padded only past them."""
    options = b"\x01\x01\x01\x01"
    tcp_clean = expected_tcp_clean(b"xyz", ip_options=options)
    udp_clean = expected_udp_clean(b"ping")
    graphs, _, _ = ingest([tcp_frame(b"xyz", ip_options=options),
                           udp_frame(b"ping")], p=p)
    rows = [bytes(graph_rows(graphs, i)[0]) for i in range(len(graphs))]
    assert rows == [(tcp_clean + bytes(p))[:p], (udp_clean + bytes(p))[:p]]


@pytest.mark.parametrize("p", [16, 26, 35, 41, 64, 1500])
def test_rows_are_stored_as_their_cleaned_bytes_cut_at_p(p):
    """Payloads ending in zero bytes, alone and in runs of rows, over
    TCP and UDP: each row stores its cleaned bytes cut at p, trailing
    zeros and all."""
    payloads = [(b"ab\0\0", 40000), (b"\0", 40000), (b"c", 40000),
                (b"\0\0\0", None), (b"d\0", None), (b"e\0", 40001),
                (b"f", 40001)]
    frames = [udp_frame(payload) if sport is None
              else tcp_frame(payload, sport=sport)
              for payload, sport in payloads]
    cleaned = [expected_udp_clean(payload) if sport is None
               else expected_tcp_clean(payload, sport=sport)[:p]
               for payload, sport in payloads]
    graphs, _, _ = ingest(frames, p=p)
    assert graphs.lengths.tolist() == [3, 2, 2]
    data, widths = graphs.packed()
    stored = [row[:p] for row in cleaned]
    assert widths.tolist() == [len(row) for row in stored]
    assert data.tobytes() == b"".join(stored)
    assert b"".join(graph_rows(graphs, i).tobytes() for i in range(3)) \
        == b"".join((row[:p] + bytes(p))[:p] for row in cleaned)


def test_last_frame_claiming_past_the_capture_end():
    """The last frame's IP total length points past the end of the
    capture bytes: what was captured is kept and nothing beyond the
    buffer is read, in a capture that ends there and in one cut mid-way
    through a further record."""
    payload = bytes(range(100, 200))
    cut = tcp_frame(payload)[:14 + 40 + 30]  # snaplen cut: 30 of 100 bytes
    header_only = ethernet(ipv4(b"", 6, total_length=1500))
    whole = pcap_bytes([tcp_frame(b"a"), cut])
    truncated = pcap_bytes([tcp_frame(b"a"), cut, tcp_frame(b"b")])[:-3]
    for data in (whole, truncated):
        graphs, _, stats = graphs_from_records(io.BytesIO(data), 0, 1500)
        assert len(graphs) == 1 and stats.truncated == (data is truncated)
        row = graph_rows(graphs, 0)[1]
        assert bytes(row[:70]) == expected_tcp_clean(payload)[:70]
        assert not row[70:].any()
        assert stats.skipped == 0
    graphs, _, stats = graphs_from_records(
        io.BytesIO(pcap_bytes([tcp_frame(b"a"), header_only])), 0, 1500)
    assert len(graphs) == 1 and stats.malformed == 1


def test_a_header_only_capture_keeps_header_rows():
    """At snap length 54 each record holds the Ethernet, IPv4 and TCP
    headers and, in its original length, the payload that was sent:
    every packet that sent one stays as its 40 header bytes. A record
    whose original length is its captured one sent no payload."""
    payloads = [bytes(range(100)), b"0123456789"]
    sent = [tcp_frame(payload, sport=40001 + i)
            for i, payload in enumerate(payloads)]
    for big_endian in (False, True):
        data = pcap_bytes([frame[:54] for frame in sent], snaplen=54,
                          big_endian=big_endian,
                          orig_lens=[len(frame) for frame in sent])
        graphs, _, stats = graphs_from_records(io.BytesIO(data), 0, 64)
        assert len(graphs) == 2 and graphs.lengths.tolist() == [1, 1]
        assert stats.discarded_empty == stats.dropped_sessions == 0
        assert stats.skipped == 0
        assert graphs.packed()[1].tolist() == [40, 40]
        for i, payload in enumerate(payloads):
            row = graph_rows(graphs, i)[0]
            cleaned = expected_tcp_clean(payload, sport=40001 + i)
            assert bytes(row[:40]) == cleaned[:40] and not row[40:].any()
            assert not row[12:20].any()
        data = pcap_bytes([frame[:54] for frame in sent], snaplen=54,
                          big_endian=big_endian)
        graphs, _, stats = graphs_from_records(io.BytesIO(data), 0, 64)
        assert len(graphs) == 0
        assert stats.discarded_empty == stats.dropped_sessions == 2


# --- frame skipping by reason --------------------------------------------

def test_non_ipv4_frames_skipped():
    assert _skip_reason(arp_frame()) == "non_ipv4"
    ipv6 = ethernet(b"\x60" + b"\x00" * 50, ethertype=0x86DD)
    assert _skip_reason(ipv6) == "non_ipv4"
    vlan = ethernet(b"\x00\x01\x08\x00" + ipv4(tcp(b"x"), 6),
                    ethertype=0x8100)
    assert _skip_reason(vlan) == "non_ipv4"


def test_non_tcp_udp_protocol_skipped():
    icmp = ethernet(ipv4(b"\x08\x00\x00\x00", 1))
    assert _skip_reason(icmp) == "non_tcp_udp"


def test_later_ip_fragment_skipped():
    frag = ethernet(ipv4(tcp(b"data"), 6, frag=0x0010))
    assert _skip_reason(frag) == "fragments"
    # more-fragments set at offset 0: the first fragment keeps its header
    first = ethernet(ipv4(tcp(b"data"), 6, frag=0x2000))
    assert _only_row(first, 64)[40:44].tobytes() == b"data"


def test_malformed_frames_raise():
    # shorter than Ethernet header
    assert _skip_reason(b"\x00" * 10) == "malformed"
    # IPv4 header cut short
    assert _skip_reason(ethernet(b"\x45\x00")) == "malformed"
    # version 6
    assert _skip_reason(ethernet(b"\x65" + ipv4(tcp(b"x"), 6)[1:])) \
        == "malformed"
    # IHL 3
    assert _skip_reason(ethernet(b"\x43" + ipv4(tcp(b"x"), 6)[1:])) \
        == "malformed"
    # TCP header cut
    assert _skip_reason(ethernet(ipv4(tcp(b"x")[:12], 6))) == "malformed"
    # data offset claims options that are not present
    segment = bytearray(tcp(b""))
    segment[12] = 8 << 4
    assert _skip_reason(ethernet(ipv4(bytes(segment), 6))) == "malformed"
    # UDP header cut
    assert _skip_reason(ethernet(ipv4(b"\x00" * 4, 17))) == "malformed"
    # data offset below the 20-byte minimum
    segment[12] = 4 << 4
    assert _skip_reason(ethernet(ipv4(bytes(segment), 6))) == "malformed"
    # IPv4 options cut short, on a protocol that is otherwise skipped
    icmp = ipv4(b"\x08\x00\x00\x00", 1, options=b"\x01" * 8)
    assert _skip_reason(ethernet(icmp[:24])) == "malformed"
    # total length below the header length
    assert _skip_reason(ethernet(ipv4(tcp(b"x"), 6, total_length=12))) \
        == "malformed"


# --- sessions -------------------------------------------------------------

def test_both_directions_form_one_session():
    a_to_b = tcp_frame(b"hello", sport=40000, dport=80,
                       src=IP_A, dst=IP_B)
    b_to_a = tcp_frame(b"world", sport=80, dport=40000,
                       src=IP_B, dst=IP_A)
    graphs, keys, _ = ingest([a_to_b, b_to_a])
    assert len(graphs) == 1
    assert graphs.lengths[0] == 2
    assert keys == [(IP_A, 40000, IP_B, 80, 6)]


def test_distinct_port_pairs_form_two_sessions():
    one = tcp_frame(b"x", sport=40000, dport=80)
    two = tcp_frame(b"y", sport=40001, dport=80)
    graphs, _, _ = ingest([one, two])
    assert len(graphs) == 2


def test_arp_noise_is_counted_not_fatal():
    graphs, _, stats = ingest([tcp_frame(b"x"), arp_frame()])
    assert len(graphs) == 1
    assert stats.skipped == 1 and stats.non_ipv4 == 1


def test_malformed_frame_is_counted_not_fatal():
    graphs, _, stats = ingest([b"\x00" * 8, tcp_frame(b"x")])
    assert stats.skipped == 1 and stats.malformed == 1
    assert len(graphs) == 1


def test_session_order_preserved():
    frames = [
        tcp_frame(b"a1", sport=40000, dport=80),
        tcp_frame(b"b1", sport=40001, dport=443),
        tcp_frame(b"a2", sport=40000, dport=80),
        tcp_frame(b"b2", sport=40001, dport=443),
    ]
    graphs, keys, _ = ingest(frames)
    cleaned = [expected_tcp_clean(b"a1", sport=40000, dport=80),
               expected_tcp_clean(b"b1", sport=40001, dport=443),
               expected_tcp_clean(b"a2", sport=40000, dport=80),
               expected_tcp_clean(b"b2", sport=40001, dport=443)]
    rows = [[bytes(row[:42]) for row in graph_rows(graphs, i)] for i in (0, 1)]
    assert rows[0] == [cleaned[0], cleaned[2]]
    assert rows[1] == [cleaned[1], cleaned[3]]
    assert [k[1] for k in keys] == [40000, 40001]


def test_session_opened_by_an_empty_packet_keeps_its_place():
    """A packet without payload still opens its session, so the session
    is ordered by that packet, not by its first kept one."""
    frames = [tcp_frame(b"", sport=40001, flags=0x02),
              tcp_frame(b"a", sport=40000), tcp_frame(b"b", sport=40001)]
    _, keys, stats = ingest(frames)
    assert [k[1] for k in keys] == [40001, 40000]
    assert stats.discarded_empty == 1 and stats.dropped_sessions == 0


def test_tcp_and_udp_on_the_same_ports_are_two_sessions():
    frames = [tcp_frame(b"t1", dport=80), udp_frame(b"u1", dport=80),
              tcp_frame(b"t2", dport=80), udp_frame(b"u2", dport=80)]
    graphs, keys, _ = ingest(frames)
    assert [g.n for g in graphs] == [2, 2]
    assert keys == [(IP_A, 40000, IP_B, 80, 6), (IP_A, 40000, IP_B, 80, 17)]


def test_interleaved_sessions_are_numbered_by_first_appearance():
    """Three sessions arrive in the order 2, 0, 1 of their canonical
    keys. A cycle of three tells first-appearance numbering apart both
    from key order and from the inverse of the right permutation."""
    ports = [40002, 40000, 40002, 40001, 40000, 40001, 40002]
    frames = [tcp_frame(bytes([i]), sport=port)
              for i, port in enumerate(ports)]
    graphs, keys, _ = ingest(frames)
    assert [k[1] for k in keys] == [40002, 40000, 40001]
    assert [graph_rows(graphs, i)[:, 40].tolist() for i in range(3)] \
        == [[0, 2, 6], [1, 4], [3, 5]]


def test_drop_dns_flag():
    dns = udp_frame(b"\x12\x34", dport=53)
    other = udp_frame(b"data", dport=5353)
    kept, _, _ = ingest([dns, other])
    assert len(kept) == 2
    dropped, _, stats = ingest([dns, other], drop_dns=True)
    assert len(dropped) == 1
    assert stats.dropped_dns == 1


def _key_rows(frames: list[bytes]) -> list[list[int]]:
    return graphs_from_records(io.BytesIO(pcap_bytes(frames)), 0,
                               64)[1].tolist()


def test_five_tuple_canonical_is_direction_free():
    (forward_key,) = _key_rows([tcp_frame(b"x", sport=40000, dport=80,
                                          src=IP_A, dst=IP_B)])
    (reverse_key,) = _key_rows([tcp_frame(b"x", sport=80, dport=40000,
                                          src=IP_B, dst=IP_A)])
    assert forward_key == reverse_key
    assert format_key(*forward_key) == "10.0.0.1:40000-10.0.0.2:80/tcp"


def test_format_key_prints_udp_keys_and_the_edge_values():
    """The lower endpoint comes first whichever way the packet went."""
    rows = _key_rows([
        udp_frame(b"q", sport=5353, dport=40000, src=IP_B, dst=IP_A),
        tcp_frame(b"t", sport=65535, dport=0, src=bytes([255, 254, 0, 1]),
                  dst=IP_A)])
    assert [format_key(*row) for row in rows] \
        == ["10.0.0.1:40000-10.0.0.2:5353/udp",
            "10.0.0.1:0-255.254.0.1:65535/tcp"]


def test_ingest_builds_one_key_per_session(tmp_path, keys_formatted):
    """A capture goes from its bytes to graphs with one key row for each
    session it emits, and formats no key."""
    frames = [tcp_frame(b"a1"), udp_frame(b"u1"), arp_frame(),
              b"\x00" * 8, udp_frame(b"\x12\x34", dport=53),
              tcp_frame(b"", flags=0x02), tcp_frame(b"a2"),
              udp_frame(b"", sport=40001)]
    path = tmp_path / "capture.pcap"
    path.write_bytes(pcap_bytes(frames))
    graphs, keys, stats = _ingest_capture(path, 0, 64,
                                          RunConfig(drop_dns=True))
    assert keys_formatted == []
    assert len(keys) == len(graphs) == 2
    assert [unpack_key(*key) for key in keys.tolist()] \
        == [(IP_A, 40000, IP_B, 80, 6), (IP_A, 40000, IP_B, 5353, 17)]
    assert [g.n for g in graphs] == [2, 1]
    assert (stats.skipped, stats.dropped_dns, stats.discarded_empty,
            stats.dropped_sessions) == (2, 1, 2, 1)
    assert (stats.non_ipv4, stats.malformed) == (1, 1)


# --- block reads ------------------------------------------------------------

def test_ingest_holds_the_rows_and_a_block_not_the_capture(tmp_path,
                                                           monkeypatch):
    """A capture of nine blocks is read through one: the traced peak is
    the rows, two blocks and the columns pass 1 decodes (about 480 bytes
    a frame), not the capture, which alone is 1.5x this bound."""
    block, count = 1 << 16, 400
    monkeypatch.setattr(cgnn.preprocess, "READ_BLOCK", block)
    path = tmp_path / "long.pcap"
    path.write_bytes(pcap_bytes([
        tcp_frame(bytes([i % 251 + 1]) * 1400, sport=40000 + i % 8)
        for i in range(count)]))
    assert path.stat().st_size >= 8 * block
    (graphs, _, _), peak = traced_peak(
        lambda: _ingest_capture(path, 0, 16, RunConfig()))
    assert len(graphs) == 8 and graphs.lengths.sum() == count
    assert peak <= graphs.buffer.nbytes + 2 * block + 640 * count


def test_ingest_bookkeeping_stays_under_160_bytes_a_frame(tmp_path,
                                                         monkeypatch):
    """At a small p the rows are few bytes, so what ingest keeps per frame
    shows: besides the rows and two blocks, at most 160 bytes a frame
    (pass 1's columns, the session grouping and the copy list)."""
    block, count = 1 << 16, 1600
    monkeypatch.setattr(cgnn.preprocess, "READ_BLOCK", block)
    path = tmp_path / "small_p.pcap"
    path.write_bytes(pcap_bytes([
        (udp_frame if i % 4 == 3 else tcp_frame)(
            bytes([i % 251 + 1]) * 1400, sport=40000 + i % 8)
        for i in range(count)]))
    assert path.stat().st_size >= 32 * block
    (graphs, _, _), peak = traced_peak(
        lambda: _ingest_capture(path, 0, 16, RunConfig()))
    assert len(graphs) == 8 and graphs.lengths.sum() == count
    assert peak <= graphs.buffer.nbytes + 2 * block + 160 * count


class _Shrinking(io.BytesIO):
    """A capture cut to `keep` bytes once a read has reached its end, as
    if it were truncated between the two passes."""

    def __init__(self, data: bytes, keep: int) -> None:
        super().__init__(data)
        self.size, self.keep = len(data), keep

    def readinto(self, buffer) -> int:
        count = super().readinto(buffer)
        if self.tell() >= self.size:
            self.truncate(self.keep)
        return count


def test_a_capture_shorter_on_its_second_read_is_corrupt(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(cgnn.preprocess, "READ_BLOCK", 256)
    data = pcap_bytes([tcp_frame(bytes([i + 1]) * 60) for i in range(12)])
    want = graphs_from_records(io.BytesIO(data), 0, 64)[0].buffer.tobytes()
    unchanged = _Shrinking(data, len(data))  # the wrapper alone
    assert graphs_from_records(unchanged, 0, 64)[0].buffer.tobytes() == want
    path = tmp_path / "shrinks.pcap"
    path.write_bytes(data)
    monkeypatch.setattr(cgnn.cli, "open",
                        lambda name, mode: _Shrinking(data, 200),
                        raising=False)
    with pytest.raises(CorruptFile,
                       match=re.escape(str(path)) + ".*second read"):
        _ingest_capture(path, 0, 64, RunConfig())


def test_a_long_record_grows_the_block_only_to_fit_it(monkeypatch):
    """A record past the block takes a block of its size; one that
    claims more than the file holds ends the walk and takes none."""
    monkeypatch.setattr(cgnn.preprocess, "READ_BLOCK", 4096)
    long = pcap_bytes([tcp_frame(b"a"), tcp_frame(bytes(range(1, 256)) * 200)],
                      snaplen=0)
    (graphs, _, stats), peak = traced_peak(
        lambda: graphs_from_records(io.BytesIO(long), 0, 1500))
    assert graphs.lengths.tolist() == [2] and not stats.truncated
    assert peak <= len(long) + 4096 + 16384
    claims = pcap_bytes([tcp_frame(b"a")], snaplen=0) \
        + struct.pack("<IIII", 0, 0, 2 ** 31, 2 ** 31) + bytes(2 * 4096)
    (graphs, _, stats), peak = traced_peak(
        lambda: graphs_from_records(io.BytesIO(claims), 0, 1500))
    assert graphs.lengths.tolist() == [1] and stats.truncated
    assert peak <= 4096 + 16384
