"""Seeded synthetic captures for the benchmark workloads.

Every frame is assembled byte by byte here, so the counts a workload
must produce (graphs, vertices, skipped frames) follow from the
generator's own session list and never from the code under test.

A session is a bidirectional TCP or UDP conversation between a client
and a class-specific server port. Packets carry 0 to 1400 payload bytes;
about 15% carry none, so cleaning discards them, and a session whose
packets are all empty yields no graph. Noise frames cover every reason a
frame cannot join a session: ARP, IPv6, 802.1Q VLAN, ICMP, non-leading
IPv4 fragments, malformed headers, and port-53 DNS (dropped under
``--drop-dns``).
"""

from __future__ import annotations

import random
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

CLASS_NAMES = ("chat", "mail", "stream", "web")
SERVER_PORTS = (5222, 993, 1935, 443)  # one per class
SIGNATURES = (b"\x17\x03\x03", b"* OK", b"\x03\x00\x0b", b"\x16\x03\x01")

EMPTY_SHARE = 0.15
TCP_SHARE = 2 / 3
NOISE_KINDS = ("arp", "ipv6", "vlan", "icmp", "fragment", "malformed", "dns")
MAX_PAYLOAD = 1400

ETH_IPV4, ETH_ARP, ETH_IPV6, ETH_VLAN = 0x0800, 0x0806, 0x86DD, 0x8100
PROTO_ICMP, PROTO_TCP, PROTO_UDP = 1, 6, 17


def eth(ethertype: int, body: bytes) -> bytes:
    return b"\x02\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x02" + \
        struct.pack("!H", ethertype) + body


def ip4(src: bytes, dst: bytes, proto: int, body: bytes, *, frag: int = 0,
        ihl: int = 5) -> bytes:
    total = 20 + len(body)
    return struct.pack("!BBHHHBBH4s4s", 0x40 | ihl, 0, total, 0, frag,
                       64, proto, 0, src, dst) + body


def tcp_seg(sport: int, dport: int, seq: int, payload: bytes,
            options: bytes = b"") -> bytes:
    offset = (20 + len(options)) // 4
    flags = 0x18 if payload else 0x10  # PSH+ACK with data, bare ACK without
    return struct.pack("!HHIIBBHHH", sport, dport, seq, 1, offset << 4, flags,
                       65535, 0, 0) + options + payload


def udp_dgram(sport: int, dport: int, payload: bytes) -> bytes:
    return struct.pack("!HHHH", sport, dport, 8 + len(payload), 0) + payload


def pcap_bytes(frames: list[tuple[float, bytes]]) -> bytes:
    """Classic little-endian microsecond pcap over (time, frame) pairs."""
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for ts, frame in frames:
        sec = int(ts)
        out.append(struct.pack("<IIII", sec, int((ts - sec) * 1e6),
                               len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)


@dataclass
class CaptureFacts:
    """What the program must report for one generated capture."""

    frames: int = 0
    graphs: list[int] = field(default_factory=list)  # kept packets, per graph
    empty_packets: int = 0
    dropped_sessions: int = 0
    noise: Counter = field(default_factory=Counter)

    def merge(self, other: "CaptureFacts") -> None:
        self.frames += other.frames
        self.graphs += other.graphs
        self.empty_packets += other.empty_packets
        self.dropped_sessions += other.dropped_sessions
        self.noise += other.noise

    @property
    def skipped(self) -> int:  # every noise frame but DNS
        return sum(self.noise.values()) - self.noise["dns"]


def _noise_frame(kind: str, rng: random.Random, serial: int) -> bytes:
    src = bytes([172, 16, serial >> 8 & 255, serial & 255])
    dst = bytes([172, 17, 0, 1])
    if kind == "arp":
        return eth(ETH_ARP, b"\x00\x01\x08\x00\x06\x04\x00\x01" +
                   rng.randbytes(20))
    if kind == "ipv6":
        return eth(ETH_IPV6, b"\x60" + rng.randbytes(39 + rng.randrange(64)))
    if kind == "vlan":  # a tagged IPv4/TCP frame: the outer ethertype is 8100
        inner = ip4(src, dst, PROTO_TCP,
                    tcp_seg(40000, 80, 0, rng.randbytes(32)))
        return eth(ETH_VLAN, struct.pack("!HH", 10, ETH_IPV4) + inner)
    if kind == "icmp":
        return eth(ETH_IPV4, ip4(src, dst, PROTO_ICMP,
                                 b"\x08\x00\x00\x00" + rng.randbytes(28)))
    if kind == "fragment":  # offset 185 * 8 bytes into a larger datagram
        return eth(ETH_IPV4, ip4(src, dst, PROTO_TCP, rng.randbytes(200),
                                 frag=185))
    if kind == "malformed":  # IHL below the minimum of 5 words
        return eth(ETH_IPV4, ip4(src, dst, PROTO_TCP, rng.randbytes(40),
                                 ihl=4))
    if kind == "dns":
        query = rng.randbytes(12) + b"\x07example\x03com\x00\x00\x01\x00\x01"
        return eth(ETH_IPV4, ip4(src, dst, PROTO_UDP,
                                 udp_dgram(30000 + serial % 20000, 53, query)))
    raise ValueError(f"unknown noise kind {kind!r}")


def make_capture(rng: random.Random, sessions: list[tuple[int, int]],
                 noise_share: float, first_session: int = 0,
                 ) -> tuple[bytes, CaptureFacts]:
    """One capture of interleaved sessions, given as (label, packets).

    noise_share is the share of all frames that are noise; sessions are
    numbered from first_session so that their 5-tuples stay distinct.
    """
    facts = CaptureFacts()
    timed: list[tuple[float, int, bytes]] = []  # (time, session or -1, frame)
    kept = [0] * len(sessions)
    for i, (label, count) in enumerate(sessions):
        port = SERVER_PORTS[label]
        signature = SIGNATURES[label]
        server = bytes([192, 0, 2, 1 + label])
        serial = first_session + i
        client = bytes([10, serial >> 16 & 255, serial >> 8 & 255,
                        serial & 255])
        cport = 20000 + serial % 40000
        is_tcp = rng.random() < TCP_SHARE
        options = b"\x01\x01\x08\x0a" + rng.randbytes(8) \
            if is_tcp and rng.random() < 0.3 else b""
        ts = rng.uniform(0, 60)
        seq = rng.getrandbits(32)
        for _ in range(count):
            empty = rng.random() < EMPTY_SHARE
            size = 0 if empty else rng.randint(1, MAX_PAYLOAD)
            payload = (signature + rng.randbytes(size))[:size]
            outbound = rng.random() < 0.5
            sport, dport = (cport, port) if outbound else (port, cport)
            src, dst = (client, server) if outbound else (server, client)
            if is_tcp:
                body = ip4(src, dst, PROTO_TCP,
                           tcp_seg(sport, dport, seq, payload, options))
                seq = (seq + size) & 0xFFFFFFFF
            else:
                body = ip4(src, dst, PROTO_UDP,
                           udp_dgram(sport, dport, payload))
            timed.append((ts, i, eth(ETH_IPV4, body)))
            ts += rng.expovariate(20.0)
            facts.empty_packets += empty
            kept[i] += not empty
    noise = round(len(timed) * noise_share / (1 - noise_share))
    for j in range(noise):
        kind = NOISE_KINDS[j % len(NOISE_KINDS)]
        facts.noise[kind] += 1
        timed.append((rng.uniform(0, 60), -1, _noise_frame(kind, rng, j)))
    # A stable sort keeps each session's packets in order on tied times.
    timed.sort(key=lambda item: item[0])
    # The program emits graphs in order of each session's first frame.
    seen = dict.fromkeys(owner for _, owner, _ in timed if owner >= 0)
    facts.graphs = [kept[i] for i in seen if kept[i]]
    facts.dropped_sessions = sum(1 for n in kept if not n)
    facts.frames = len(timed)
    return pcap_bytes([(ts, frame) for ts, _, frame in timed]), facts


def spread(low: int, high: int, count: int) -> list[int]:
    """count session lengths spread evenly over [low, high]. Drawing them
    as a shuffle of this fixed list keeps a workload's size the same for
    every seed while the traffic itself changes."""
    if count == 1:
        return [low]
    return [low + (i * (high - low)) // (count - 1) for i in range(count)]


def write_tree(root: Path, seed: int, sessions_per_file: int,
               low: int, high: int, files_per_class: int = 2,
               noise_share: float = 0.08) -> list[CaptureFacts]:
    """<root>/<class>/<n>.pcap for every class, as `cgnn preprocess`
    reads it. Returns the facts per class, in class-id order (the sorted
    directory names, as the program numbers them)."""
    rng = random.Random(seed)
    per_class = []
    serial = 0
    for label, name in enumerate(CLASS_NAMES):
        total = CaptureFacts()
        for n in range(files_per_class):
            lengths = spread(low, high, sessions_per_file)
            rng.shuffle(lengths)
            data, facts = make_capture(rng, [(label, k) for k in lengths],
                                       noise_share, serial)
            serial += sessions_per_file
            path = root / name / f"{n}.pcap"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            total.merge(facts)
        per_class.append(total)
    return per_class


def write_mixed_capture(path: Path, seed: int, sessions: int, low: int,
                        high: int, noise_share: float = 0.02,
                        ) -> CaptureFacts:
    """One capture whose sessions are drawn from every class in turn."""
    rng = random.Random(seed)
    lengths = spread(low, high, sessions)
    rng.shuffle(lengths)
    data, facts = make_capture(
        rng, [(i % len(CLASS_NAMES), k) for i, k in enumerate(lengths)],
        noise_share)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return facts
