"""Reference oracle for ingest: the frame-by-frame decoder, cleaner,
session grouping and vectorizer that the columnar path in
cgnn.preprocess replaced, kept here unchanged so tests can require the
two to agree byte for byte.

Three things are added: the skip reason of a frame the decoder returns
None for, so the oracle yields the same per-reason counts as
IngestStats; each row's width, min(cleaned length, p), the bytes its
GraphSet stores; and each frame's length on the wire, which decides
whether a frame the snaplen cut short sent a payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cgnn.graph import GraphSet
from cgnn.preprocess import IngestStats

from conftest import graph_set

ETHERNET_HEADER_LEN = 14
ETHERTYPE_IPV4 = 0x0800

PROTO_TCP = 6
PROTO_UDP = 17

UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20
# zeros appended to a UDP header so both transports occupy 20 bytes
UDP_PAD = b"\x00" * (TCP_HEADER_LEN - UDP_HEADER_LEN)

DNS_PORT = 53


class DecodeError(Exception):
    """Frame header is shorter than its declared length."""


def canonical(src_ip: bytes, src_port: int, dst_ip: bytes, dst_port: int,
              protocol: int) -> tuple:
    """The session key (ip_a, port_a, ip_b, port_b, protocol), the lower
    endpoint first, so both directions share it."""
    if (src_ip, src_port) <= (dst_ip, dst_port):
        return src_ip, src_port, dst_ip, dst_port, protocol
    return dst_ip, dst_port, src_ip, src_port, protocol


@dataclass
class DecodedPacket:
    """One IPv4/TCP-or-UDP frame split into the pieces cleaning needs."""

    five_tuple: tuple  # canonical()
    ip_header: bytes
    transport: bytes  # whole segment (TCP) or datagram (UDP), as captured
    payload_offset: int  # transport bytes before the payload starts
    payload_sent: bool  # on the wire, even where the snaplen cut it off

    @property
    def payload(self) -> bytes:
        return self.transport[self.payload_offset:]


def decode_frame(frame: bytes, orig_len: int) -> DecodedPacket | None:
    """Decode one Ethernet frame down to its transport payload; orig_len
    is its length on the wire.

    Returns None for frames that cannot belong to any session (non-IPv4,
    non-TCP/UDP, later IP fragments). Raises DecodeError when a frame
    claims to be IPv4/TCP/UDP but its headers do not add up.
    """
    if len(frame) < ETHERNET_HEADER_LEN:
        raise DecodeError("frame shorter than the Ethernet header")
    ethertype = int.from_bytes(frame[12:14], "big")
    if ethertype != ETHERTYPE_IPV4:
        return None

    datagram = frame[ETHERNET_HEADER_LEN:]
    if len(datagram) < 20:
        raise DecodeError("IPv4 header cut short")
    version = datagram[0] >> 4
    if version != 4:
        raise DecodeError(f"IP version {version} under an IPv4 ethertype")
    ihl = datagram[0] & 0x0F
    if ihl < 5:
        raise DecodeError(f"IPv4 header length field {ihl} below minimum 5")
    header_len = ihl * 4
    if len(datagram) < header_len:
        raise DecodeError("IPv4 options cut short")
    total_length = int.from_bytes(datagram[2:4], "big")
    if total_length < header_len:
        raise DecodeError("IPv4 total length smaller than its header")
    # Ethernet pads short frames with trailer bytes; the IP total length
    # is the real datagram end. A capture cut by the snaplen can also
    # leave fewer bytes than total_length claims, so never read past it.
    datagram = datagram[:min(total_length, len(datagram))]
    # Whether a payload was sent is judged from the datagram on the wire.
    sent = min(total_length, orig_len - ETHERNET_HEADER_LEN)

    frag = int.from_bytes(datagram[6:8], "big")
    if frag & 0x1FFF:  # non-leading fragment: no transport header to read
        return None

    protocol = datagram[9]
    if protocol not in (PROTO_TCP, PROTO_UDP):
        return None
    transport = datagram[header_len:]

    if protocol == PROTO_TCP:
        if len(transport) < TCP_HEADER_LEN:
            raise DecodeError("TCP header cut short")
        data_offset = (transport[12] >> 4) * 4
        if data_offset < TCP_HEADER_LEN:
            raise DecodeError("TCP data offset below minimum")
        if len(transport) < data_offset:
            raise DecodeError("TCP options cut short")
        payload_offset = data_offset
    else:
        if len(transport) < UDP_HEADER_LEN:
            raise DecodeError("UDP header cut short")
        payload_offset = UDP_HEADER_LEN

    src_port = int.from_bytes(transport[0:2], "big")
    dst_port = int.from_bytes(transport[2:4], "big")
    key = canonical(datagram[12:16], src_port, datagram[16:20], dst_port,
                    protocol)
    return DecodedPacket(
        five_tuple=key,
        ip_header=datagram[:header_len],
        transport=transport,
        payload_offset=payload_offset,
        payload_sent=sent - header_len > payload_offset,
    )


def skip_reason(frame: bytes) -> str:
    """The IngestStats counter of a frame decode_frame returned None for."""
    if int.from_bytes(frame[12:14], "big") != ETHERTYPE_IPV4:
        return "non_ipv4"
    if int.from_bytes(frame[20:22], "big") & 0x1FFF:
        return "fragments"
    return "non_tcp_udp"


def clean_bytes(packet: DecodedPacket) -> bytes | None:
    """Apply the cleaning rules to one decoded packet.

    Returns [IP header, addresses zeroed] ++ [20-byte transport header
    region: TCP header as-is, or UDP header plus 12 zeros] ++ [payload],
    or None when the packet sent no payload and is discarded. TCP
    options are not stripped; they simply follow the 20-byte region.
    Only captured bytes are kept: a packet cut at its headers by the
    snaplen keeps just those.
    """
    if not packet.payload_sent:
        return None
    header = bytearray(packet.ip_header)
    header[12:20] = b"\x00" * 8  # anonymize source and destination
    if packet.payload_offset == UDP_HEADER_LEN:
        transport = (packet.transport[:UDP_HEADER_LEN] + UDP_PAD
                     + packet.payload)
    else:
        transport = packet.transport
    return bytes(header) + transport


def vectorize(data: bytes, p: int) -> np.ndarray:
    """Fix a byte string to exactly p entries: keep the first p bytes,
    zero-pad when shorter. Returns a uint8 vector of shape (p,)."""
    if p <= 0:
        raise ValueError(f"feature length must be positive, got {p}")
    out = np.zeros(p, dtype=np.uint8)
    head = np.frombuffer(data[:p], dtype=np.uint8)
    out[:head.size] = head
    return out


@dataclass
class SessionSplit:
    """Cleaned packets grouped by canonical 5-tuple, plus drop counters.

    Each session maps to its cleaned packets in file order; a session
    whose packets all carried no payload maps to an empty list.
    """

    sessions: dict[tuple, list[bytes]] = field(default_factory=dict)
    stats: IngestStats = field(default_factory=IngestStats)


def split_sessions(frames: list[bytes], orig_lens: list[int], *,
                   drop_dns: bool = False) -> SessionSplit:
    """Decode and clean every frame once, grouping the cleaned packets
    into bidirectional sessions in file order; orig_lens are the frames'
    lengths on the wire."""
    split = SessionSplit()
    stats = split.stats
    for frame, orig_len in zip(frames, orig_lens):
        try:
            packet = decode_frame(frame, orig_len)
        except DecodeError:
            stats.malformed += 1
            continue
        if packet is None:
            reason = skip_reason(frame)
            setattr(stats, reason, getattr(stats, reason) + 1)
            continue
        key = packet.five_tuple
        if drop_dns and DNS_PORT in (key[1], key[3]):
            stats.dropped_dns += 1
            continue
        session = split.sessions.setdefault(key, [])
        cleaned = clean_bytes(packet)
        if cleaned is None:
            stats.discarded_empty += 1
        else:
            session.append(cleaned)
    return split


def graphs_from_frames(frames: list[bytes], orig_lens: list[int],
                       label: int, p: int, fraction: float = 1.0,
                       drop_dns: bool = False,
                       ) -> tuple[GraphSet, list[tuple], IngestStats]:
    """Full ingest of a frame list and the frames' lengths on the wire:
    sessions, cleaning, graphs."""
    split = split_sessions(frames, orig_lens, drop_dns=drop_dns)
    stats = split.stats
    features: list[np.ndarray] = []
    widths: list[int] = []  # each row stores its cleaned bytes cut to p
    keys: list[tuple] = []
    for key, cleaned in split.sessions.items():
        if not cleaned:
            stats.dropped_sessions += 1
            continue
        rows = np.stack([vectorize(packet, p) for packet in cleaned])
        features.append(rows[:math.ceil(fraction * len(rows))])
        widths += [min(len(c), p) for c in cleaned[:len(features[-1])]]
        keys.append(key)
        stats.sessions += 1
        stats.vertices += len(features[-1])
    return graph_set(features, [label] * len(features), p, widths), keys, stats
