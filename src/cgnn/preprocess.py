"""Turn a classic pcap capture into per-session packet vectors.

The capture is a 24-byte global header, then per-packet records of a
16-byte header plus the raw Ethernet frame; the byte order of every
header field follows the file's magic value. A session is the
bidirectional stream of packets sharing one 5-tuple (both directions
map onto the same key). Each packet is cleaned before use: the Ethernet
header is removed, the IP source and destination addresses are zeroed,
the UDP header is padded with zeros to the 20-byte TCP header length,
and packets with no transport payload are discarded. The surviving
bytes are cut to a fixed length p, and each row is kept only up to its
last nonzero byte: its zero padding to p is implied. A capture file is
read twice through one reused block, never whole.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, fields
from typing import BinaryIO, Callable

import numpy as np

from .errors import CorruptFile
from .graph import GraphSet

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D
GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16
LINKTYPE_ETHERNET = 1

ETHERNET_HEADER_LEN = 14
ETHERTYPE_IPV4 = 0x0800

PROTO_TCP = 6
PROTO_UDP = 17

UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20  # a UDP header is zero-padded to this length

DNS_PORT = 53

# Ingest holds the rows and one block of READ_BLOCK bytes, not the file.
# CPU ms per ingest (best of 15, median of 7 runs, 2-vCPU Xeon), by block:
#                          256K  512K   1M   2M   4M  whole file
#   one 16.0 MB capture    42.1  35.2  36.4  33.8  36.9  43.3
#   eight 1.6 MB captures  33.5  30.8  30.0  25.7  25.8  26.6
READ_BLOCK = 2 << 20


@dataclass(frozen=True, order=True)
class FiveTuple:
    """Canonical bidirectional flow key: the two endpoints are ordered so
    that both directions of a conversation hash to the same value."""

    ip_a: bytes
    port_a: int
    ip_b: bytes
    port_b: int
    protocol: int

    @classmethod
    def unpack(cls, low: int, high: int, protocol: int) -> "FiveTuple":
        """The key of one row of the keys graphs_from_records returns."""
        return cls((low >> 16).to_bytes(4, "big"), low & 0xFFFF,
                   (high >> 16).to_bytes(4, "big"), high & 0xFFFF, protocol)

    def __str__(self) -> str:
        name = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(
            self.protocol, str(self.protocol))
        a, b = (".".join(map(str, ip)) for ip in (self.ip_a, self.ip_b))
        return f"{a}:{self.port_a}-{b}:{self.port_b}/{name}"


@dataclass
class IngestStats:
    """Counts of what preprocessing kept and dropped."""

    files: int = 0
    truncated: int = 0  # captures that ended mid-record
    sessions: int = 0
    vertices: int = 0
    non_ipv4: int = 0  # other ethertypes, 802.1Q VLAN and IPv6 included
    non_tcp_udp: int = 0
    fragments: int = 0  # later IPv4 fragments carry no transport header
    malformed: int = 0  # headers that do not add up
    discarded_empty: int = 0  # packets with no transport payload
    dropped_sessions: int = 0  # sessions whose packets were all discarded
    dropped_dns: int = 0

    @property
    def skipped(self) -> int:
        """Frames that could not join any session."""
        return self.non_ipv4 + self.non_tcp_udp + self.fragments \
            + self.malformed

    def add(self, other: "IngestStats") -> None:
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def describe(self) -> str:
        return (f"{self.sessions} sessions, {self.vertices} vertices, "
                f"skipped {self.skipped} frames, discarded "
                f"{self.discarded_empty} empty packets, dropped "
                f"{self.dropped_sessions} empty sessions, dropped "
                f"{self.dropped_dns} DNS packets")


def _global_header(head: bytes) -> tuple[Callable, int]:
    """The record headers' captured-length reader and the snaplen; raises
    CorruptFile for a short header, an unknown magic or non-Ethernet."""
    if len(head) < GLOBAL_HEADER_LEN:
        raise CorruptFile("file shorter than the 24-byte pcap global header")
    magics = (MAGIC_MICROS, MAGIC_NANOS)
    (magic,) = struct.unpack_from("<I", head)
    end = "<" if magic in magics else ">"
    if struct.unpack_from(end + "I", head)[0] not in magics:
        raise CorruptFile(f"not a pcap file (magic 0x{magic:08x})")
    snaplen, network = struct.unpack_from(end + "II", head, 16)
    if network != LINKTYPE_ETHERNET:
        raise CorruptFile(f"link type {network}, expected Ethernet (1)")
    return struct.Struct(end + "I").unpack_from, snaplen


def _walk_records(data, offset: int, captured_len: Callable, snaplen: int,
                  ) -> tuple[list[int], list[int], int, int]:
    """Starts and captured lengths of the whole records in data from offset
    on, the offset past them, and the bytes the next needs (0 past snaplen)."""
    starts, lengths, total = [], [], len(data)
    while (start := offset + RECORD_HEADER_LEN) <= total:
        (incl_len,) = captured_len(data, offset + 8)
        if snaplen and incl_len > snaplen:
            return starts, lengths, offset, 0
        if start + incl_len > total:
            return starts, lengths, offset, RECORD_HEADER_LEN + incl_len
        starts.append(start)
        lengths.append(incl_len)
        offset = start + incl_len
    return starts, lengths, offset, RECORD_HEADER_LEN


def _decode_headers(buf: np.ndarray, start: np.ndarray, length: np.ndarray,
                    stats: IngestStats, base: int,
                    drop_dns: bool) -> list[np.ndarray]:
    """Decode the Ethernet, IPv4 and TCP/UDP headers of every frame at
    once. Returns five columns over the frames that can join a session,
    in file order: the IPv4 header's offset in buf + base (int64), the
    session key (int64 low and high << 1 | udp, low and high the smaller
    and larger endpoint, each ip << 16 | port), the IPv4 header length
    (uint8), the transport length (uint16) and whether a payload follows.
    The others are added to stats by the first check they fail, in this
    order: Ethernet length, ethertype, IPv4 header (length, version,
    IHL, options, total length), later fragment, protocol, then the TCP
    header, data offset and options or the UDP header; the datagram ends
    at min(total length, captured bytes). With drop_dns, a frame on port
    53 that passes them all is dropped too. Reads are clipped to buf,
    and a read past a frame's end is masked by the check that fails."""
    last = buf.size - 1

    def u8(pos: np.ndarray) -> np.ndarray:
        return buf[np.minimum(pos, last)].astype(np.int64)

    def u16(pos: np.ndarray) -> np.ndarray:
        return u8(pos) << 8 | u8(pos + 1)

    framed = length >= ETHERNET_HEADER_LEN
    ipv4 = framed & (u16(start + 12) == ETHERTYPE_IPV4)
    ip = start + ETHERNET_HEADER_LEN
    captured = length - ETHERNET_HEADER_LEN
    version_ihl = u8(ip)
    header_len = (version_ihl & 0x0F) * 4
    total_length = u16(ip + 2)
    ipv4_ok = ipv4 & (captured >= 20) & (version_ihl >> 4 == 4) \
        & (header_len >= 20) & (captured >= header_len) \
        & (total_length >= header_len)
    leading = ipv4_ok & ((u16(ip + 6) & 0x1FFF) == 0)
    protocol = u8(ip + 9)
    tcp = protocol == PROTO_TCP
    transport = leading & (tcp | (protocol == PROTO_UDP))
    tp = ip + header_len
    transport_len = np.minimum(total_length, captured) - header_len
    payload_offset = np.where(tcp, (u8(tp + 12) >> 4) * 4, UDP_HEADER_LEN)
    ok = transport & np.where(
        tcp, (transport_len >= TCP_HEADER_LEN)
        & (payload_offset >= TCP_HEADER_LEN)
        & (transport_len >= payload_offset),
        transport_len >= UDP_HEADER_LEN)

    stats.non_ipv4 += int(np.count_nonzero(framed & ~ipv4))
    stats.fragments += int(np.count_nonzero(ipv4_ok & ~leading))
    stats.non_tcp_udp += int(np.count_nonzero(leading & ~transport))
    stats.malformed += int(np.count_nonzero(
        ~framed | ipv4 & ~ipv4_ok | transport & ~ok))
    if drop_dns:  # either port
        dns = ok & ((u16(tp) == DNS_PORT) | (u16(tp + 2) == DNS_PORT))
        stats.dropped_dns += int(np.count_nonzero(dns))
        ok &= ~dns

    ip, tp, transport_len = ip[ok], tp[ok], transport_len[ok]
    src = (u16(ip + 12) << 32) | (u16(ip + 14) << 16) | u16(tp)
    dst = (u16(ip + 16) << 32) | (u16(ip + 18) << 16) | u16(tp + 2)
    udp = protocol[ok] == PROTO_UDP
    return [ip + base,
            np.stack([np.minimum(src, dst), np.maximum(src, dst) << 1 | udp]),
            header_len[ok].astype(np.uint8), transport_len.astype(np.uint16),
            transport_len > payload_offset[ok]]


def graphs_from_records(capture: BinaryIO | bytes, label: int, p: int,
                        fraction: float = 1.0, drop_dns: bool = False,
                        ) -> tuple[GraphSet, np.ndarray, IngestStats]:
    """Full ingest of a seekable binary capture file, or its bytes, in two
    passes through one block of READ_BLOCK bytes, grown only to fit a
    longer record. Pass 1 decodes the headers of each block's whole
    records (a capture cut mid-record keeps what parsed and counts in
    stats.truncated) and groups the frames into bidirectional sessions
    in order of first appearance. Pass 2 builds one graph per session
    with a cleaned row per packet that carries a payload; only the first
    ceil(fraction * n) of a session's n such packets are copied. The
    graphs share one buffer, their rows in session order. Row i of the
    int64 keys is graph i's session key: its low and high endpoints,
    each ip << 16 | port, and protocol.

    A packet with an empty payload still opens its session; with
    drop_dns, a packet on port 53 never does.
    """
    if p <= 0:
        raise ValueError(f"feature length must be positive, got {p}")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    capture = io.BytesIO(capture) if isinstance(capture, bytes) else capture
    size = capture.seek(0, io.SEEK_END)
    capture.seek(0)
    header = _global_header(capture.read(GLOBAL_HEADER_LEN))
    buf = np.empty(min(READ_BLOCK, size), dtype=np.uint8)
    base, spans, parts, stats = GLOBAL_HEADER_LEN, [], [], IngestStats()
    while True:  # pass 1: each block ends at its last whole record
        fill = capture.readinto(buf)
        starts, lengths, stop, need = _walk_records(
            memoryview(buf)[:fill], 0, *header)
        parts.append(_decode_headers(
            buf[:fill], *np.array([starts, lengths], np.int64), stats, base,
            drop_dns))
        spans.append(stop)
        base += stop
        if fill < buf.size or not need or base + need > size:
            stats.truncated = int(stop < fill)
            break
        if need > buf.size:
            buf = np.empty(need, dtype=np.uint8)
        capture.seek(base)
    del starts, lengths
    # One column at a time, each block's part freed once it is joined.
    ip, key, header_len, transport_len, carries = (
        np.concatenate([part.pop(0) for part in parts], axis=-1)
        for _ in range(5))

    kept, lengths = _sessions(key, carries, fraction, stats)
    head = kept[np.cumsum(lengths) - lengths]  # each session's first row
    keys = np.stack([key[0, head], key[1, head] >> 1,
                     np.where(key[1, head] & 1, PROTO_UDP, PROTO_TCP)],
                    axis=1)
    rows = ip[kept], header_len[kept], transport_len[kept], \
        (key[1, kept] & 1) == 1
    del ip, key, header_len, transport_len, carries, kept  # all but rows
    buffer, widths = _fill_rows(_reread(capture, buf, spans), *rows, p)
    graphs = GraphSet.from_widths(buffer, p, widths, lengths,
                                  np.full(lengths.size, label))
    stats.sessions = len(graphs)
    stats.vertices = widths.size
    return graphs, keys, stats


def _sessions(key: np.ndarray, carries: np.ndarray, fraction: float,
              stats: IngestStats) -> tuple[np.ndarray, np.ndarray]:
    """The frames to copy, grouped by session in order of first
    appearance and in file order within one (the first ceil(fraction *
    n) of a session's n frames that carry a payload), and how many each
    session that keeps any keeps."""
    order = np.lexsort(key)  # stable: a key's frames stay in file order
    ordered = key[:, order]
    opens = np.ones(order.size, dtype=bool)  # a new key
    opens[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    first = order[opens]  # each key's first frame
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    session = np.empty_like(order)
    session[order] = rank[np.cumsum(opens) - 1]  # by first appearance

    stats.discarded_empty = int(carries.size - np.count_nonzero(carries))
    kept = np.flatnonzero(carries)
    owner = session[kept]
    kept = kept[np.argsort(owner, kind="stable")]
    counts = np.bincount(owner, minlength=first.size)
    stats.dropped_sessions = int(np.count_nonzero(counts == 0))
    keep = np.ceil(fraction * counts).astype(np.int64)
    place = np.arange(kept.size) - np.repeat(np.cumsum(counts) - counts,
                                             counts)  # within its session
    return kept[place < np.repeat(keep, counts)], keep[keep > 0]


def _reread(capture: BinaryIO, buf: np.ndarray, spans: list[int]):
    """Pass 2: the file offset and bytes of each block of pass 1, the last
    still in buf, the others read again (CorruptFile if they shrank)."""
    *spans, last = spans
    yield GLOBAL_HEADER_LEN + sum(spans), memoryview(buf)[:last]
    capture.seek(base := GLOBAL_HEADER_LEN)
    for span in spans:
        if capture.readinto(buf[:span]) < span:
            raise CorruptFile("capture came back shorter on its second read")
        yield base, memoryview(buf)[:span]
        base += span


def _fill_rows(blocks, ip: np.ndarray, header_len: np.ndarray,
               transport_len: np.ndarray, udp: np.ndarray, p: int,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Each packet's cleaned row cut to p, up to its last nonzero byte,
    back to back, and each row's width, copied in file order from the
    (file offset, bytes) blocks. A row is the IPv4 header, its addresses
    zeroed, and the whole TCP segment in one copy; or the IPv4 and UDP
    headers, 12 zero bytes (already there) and the payload."""
    width = np.minimum(header_len + transport_len.astype(np.int64)
                       + (TCP_HEADER_LEN - UDP_HEADER_LEN) * udp, p)
    ends = np.cumsum(width)
    row = ends - width
    tail = np.where(udp, width - header_len - TCP_HEADER_LEN, 0)
    second = np.flatnonzero(tail > 0)
    dst = np.concatenate([row, row[second] + header_len[second]
                          + TCP_HEADER_LEN])
    src = np.concatenate([ip, ip[second] + header_len[second]
                          + UDP_HEADER_LEN])
    count = np.concatenate([
        np.where(udp, np.minimum(header_len + UDP_HEADER_LEN, width), width),
        tail[second]])
    by = np.argsort(src)
    dst, src, count = dst[by], src[by], count[by]
    del tail, second, by  # before the buffer: only what fills it is left
    buffer = np.zeros(width.sum(), dtype=np.uint8)
    out = memoryview(buffer)
    for base, block in blocks:  # a copy never crosses a record
        lo, hi = np.searchsorted(src, (base, base + len(block))).tolist()
        for d, s, c in zip(dst[lo:hi].tolist(), (src[lo:hi] - base).tolist(),
                           count[lo:hi].tolist()):
            out[d:d + c] = block[s:s + c]
    del dst, src, count
    for byte in range(12, min(20, p)):  # addresses; every row has min(28, p)
        buffer[row + byte] = 0

    # The few rows ending in a zero byte are cut back to their last
    # nonzero one (byte 0, the IP version, is not), and the rows after
    # each cut move down in place.
    trimmed = np.flatnonzero(buffer[ends - 1] == 0).tolist()
    for r in trimmed:
        width[r] = np.flatnonzero(buffer[row[r]:ends[r]])[-1] + 1
    new_ends = np.cumsum(width)
    for r, last in zip(trimmed, [*trimmed[1:], width.size - 1]):
        size = new_ends[last] - new_ends[r]
        buffer[new_ends[r]:new_ends[last]] = buffer[ends[r]:ends[r] + size]
    return buffer[:width.sum()], width
