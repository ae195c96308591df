"""Differential test: columnar ingest against the frame-by-frame oracle.

Random frame lists mix every kind of frame a capture can hold: TCP and
UDP with IP and TCP options and Ethernet trailers, frames cut by the
snaplen, later fragments, each malformed header, DNS, ARP, IPv6, VLAN,
ICMP, arbitrary bytes, and random byte flips over any of them. Sessions
share a few endpoints, so both directions and empty-payload openers
occur. Keys, stats and graph bytes must be identical.
"""

from __future__ import annotations

import struct
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cgnn import preprocess
from cgnn.preprocess import FiveTuple, graphs_from_records

import scalar_ingest
from conftest import (IP_A, IP_B, arp_frame, ethernet, graph_rows, ipv4,
                      pcap_bytes, tcp, tcp_frame, udp, udp_frame)

IPS = [IP_A, IP_B, bytes([192, 168, 1, 9])]
PORTS = [53, 80, 443, 40000]
payloads = st.one_of(st.just(b""), st.binary(min_size=1, max_size=60))
options = st.integers(0, 3).map(lambda words: bytes(range(1, 4 * words + 1)))


def _data_offset(words: int) -> bytes:
    segment = bytearray(tcp(b""))
    segment[12] = words << 4
    return ethernet(ipv4(bytes(segment), 6))


MALFORMED = [
    b"\x00" * 10,  # shorter than the Ethernet header
    ethernet(b"\x45\x00"),  # IPv4 header cut short
    ethernet(b"\x65" + ipv4(tcp(b"x"), 6)[1:]),  # version 6
    ethernet(b"\x43" + ipv4(tcp(b"x"), 6)[1:]),  # IHL 3
    # options cut short, also where the protocol or a fragment offset
    # would skip the frame for another reason
    ethernet(ipv4(tcp(b"x"), 6, options=b"\x01" * 8)[:24]),
    ethernet(ipv4(b"\x08\x00\x00\x00", 1, options=b"\x01" * 8)[:24]),
    ethernet(ipv4(tcp(b"x"), 6, options=b"\x01" * 8, frag=0x10)[:24]),
    ethernet(ipv4(tcp(b"x"), 6, total_length=12)),  # total below header
    ethernet(ipv4(tcp(b"x")[:12], 6)),  # TCP header cut
    _data_offset(8),  # data offset claims absent options
    _data_offset(4),  # data offset below the 20-byte minimum
    ethernet(ipv4(b"\x00" * 4, 17)),  # UDP header cut
]
# flags and offsets: don't-fragment, more-fragments at offset 0 (a first
# fragment, kept), and later fragments
FRAG_FIELDS = st.one_of(st.sampled_from([0x4000, 0x2000, 0x2010, 0x1FFF,
                                         0x0001, 0xE000]),
                        st.integers(0, 0xFFFF))


@st.composite
def frames(draw) -> bytes:
    src, dst = draw(st.sampled_from(IPS)), draw(st.sampled_from(IPS))
    sport, dport = draw(st.sampled_from(PORTS)), draw(st.sampled_from(PORTS))
    trailer = draw(st.sampled_from([b"", b"\x00" * 6, b"\xff\x5a"]))
    kind = draw(st.sampled_from(["tcp", "tcp", "udp", "udp", "fragment",
                                 "malformed", "arp", "ipv6", "vlan", "icmp",
                                 "bytes"]))
    if kind == "tcp":
        frame = tcp_frame(draw(payloads), sport=sport, dport=dport, src=src,
                          dst=dst, tcp_options=draw(options),
                          ip_options=draw(options), trailer=trailer)
    elif kind == "udp":
        frame = udp_frame(draw(payloads), sport=sport, dport=dport, src=src,
                          dst=dst, trailer=trailer)
    elif kind == "fragment":
        body = draw(st.sampled_from([tcp, udp]))(draw(payloads))
        frame = ethernet(ipv4(body, draw(st.sampled_from([6, 17])), src, dst,
                              frag=draw(FRAG_FIELDS)))
    elif kind == "malformed":
        frame = draw(st.sampled_from(MALFORMED))
    elif kind == "arp":
        frame = arp_frame()
    elif kind == "ipv6":
        frame = ethernet(b"\x60" + bytes(50), ethertype=0x86DD)
    elif kind == "vlan":
        frame = ethernet(struct.pack(">HH", 1, 0x0800)
                         + ipv4(tcp(b"v"), 6), ethertype=0x8100)
    elif kind == "icmp":
        frame = ethernet(ipv4(b"\x08\x00\x00\x00", 1, src, dst))
    else:
        frame = draw(st.binary(max_size=80))
    if frame and draw(st.booleans()):  # cut by the snaplen
        frame = frame[:draw(st.integers(0, len(frame)))]
    out = bytearray(frame)
    for pos, mask in draw(st.lists(st.tuples(st.integers(0, 200),
                                             st.integers(1, 255)),
                                   max_size=2)):
        if pos < len(out):
            out[pos] ^= mask
    return bytes(out)


@given(capture=st.lists(frames(), max_size=24), label=st.integers(0, 3))
@settings(deadline=None, max_examples=200)
def test_columnar_ingest_matches_the_scalar_oracle(capture, label):
    _assert_matches_oracle(pcap_bytes(capture), capture, label)


@given(capture=st.lists(frames(), max_size=24), label=st.integers(0, 3),
       block=st.integers(1, 160), at=st.integers(0, 24),
       snaplen=st.sampled_from([0, 65535]))
@settings(deadline=None, max_examples=100)
def test_block_reads_match_the_scalar_oracle(capture, label, block, at,
                                             snaplen):
    """Blocks of a few bytes to a few records, so records straddle block
    ends, and one record longer than any block, which grows it."""
    capture = [*capture[:at], tcp_frame(bytes(range(1, 256)) * 2),
               *capture[at:]]
    with mock.patch.object(preprocess, "READ_BLOCK", block):
        _assert_matches_oracle(pcap_bytes(capture, snaplen=snaplen), capture,
                               label)


def _assert_matches_oracle(data: bytes, capture: list[bytes], label: int):
    for p in (16, 64, 1500):
        for fraction in (1.0, 0.5):
            for drop_dns in (False, True):
                graphs, key_rows, stats = graphs_from_records(
                    data, label, p, fraction, drop_dns)
                keys = [FiveTuple.unpack(*row) for row in key_rows.tolist()]
                want_graphs, want_keys, want_stats = \
                    scalar_ingest.graphs_from_frames(capture, label, p,
                                                     fraction, drop_dns)
                assert keys == want_keys
                assert stats == want_stats
                # each row stored up to its last nonzero byte, as the
                # padded rows of the oracle give it
                assert _contents(graphs) == _contents(want_graphs)


def _contents(graphs) -> tuple:
    """Labels, vertex counts, row widths and each graph's (n, p) rows."""
    return (graphs.labels.tolist(), graphs.lengths.tolist(),
            graphs.packed()[1].tolist(),
            [graph_rows(graphs, i).tobytes() for i in range(len(graphs))])
