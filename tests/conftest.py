"""Shared builders for hand-crafted frames, captures and graph sets.

Everything is constructed byte by byte so tests can state expected
outputs independently of the code under test.
"""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest

IP_A = bytes([10, 0, 0, 1])
IP_B = bytes([10, 0, 0, 2])


def ethernet(payload: bytes, ethertype: int = 0x0800) -> bytes:
    return b"\xaa" * 6 + b"\xbb" * 6 + ethertype.to_bytes(2, "big") + payload


def ipv4(payload: bytes, protocol: int, src: bytes = IP_A,
         dst: bytes = IP_B, options: bytes = b"",
         frag: int = 0, total_length: int | None = None) -> bytes:
    assert len(options) % 4 == 0
    ihl = 5 + len(options) // 4
    if total_length is None:
        total_length = ihl * 4 + len(payload)
    header = struct.pack(">BBHHHBBH", (4 << 4) | ihl, 0, total_length,
                         0x1234, frag, 64, protocol, 0) + src + dst + options
    return header + payload


def tcp(payload: bytes, sport: int = 40000, dport: int = 80,
        flags: int = 0x18, options: bytes = b"") -> bytes:
    assert len(options) % 4 == 0
    doff = 5 + len(options) // 4
    header = struct.pack(">HHIIBBHHH", sport, dport, 1000, 2000,
                         doff << 4, flags, 8192, 0, 0)
    return header + options + payload


def udp(payload: bytes, sport: int = 40000, dport: int = 5353) -> bytes:
    return struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


def tcp_frame(payload: bytes, *, sport: int = 40000, dport: int = 80,
              src: bytes = IP_A, dst: bytes = IP_B, flags: int = 0x18,
              tcp_options: bytes = b"", ip_options: bytes = b"",
              trailer: bytes = b"") -> bytes:
    """Ethernet/IPv4/TCP frame; trailer bytes sit past the IP length."""
    segment = tcp(payload, sport, dport, flags, tcp_options)
    return ethernet(ipv4(segment, 6, src, dst, ip_options)) + trailer


def udp_frame(payload: bytes, *, sport: int = 40000, dport: int = 5353,
              src: bytes = IP_A, dst: bytes = IP_B,
              trailer: bytes = b"") -> bytes:
    return ethernet(ipv4(udp(payload, sport, dport), 17, src, dst)) + trailer


def arp_frame() -> bytes:
    return ethernet(b"\x00\x01\x08\x00\x06\x04\x00\x01" + b"\x00" * 20,
                    ethertype=0x0806)


def pcap_bytes(frames: list[bytes], *, magic: int = 0xA1B2C3D4,
               big_endian: bool = False, snaplen: int = 65535,
               orig_lens: list[int] | None = None) -> bytes:
    """Classic capture file holding the given frames, one second apart;
    orig_lens are the frames' lengths on the wire (default: as given)."""
    end = ">" if big_endian else "<"
    out = [struct.pack(end + "IHHiIII", magic, 2, 4, 0, 0, snaplen, 1)]
    if orig_lens is None:
        orig_lens = [len(frame) for frame in frames]
    for i, (frame, orig_len) in enumerate(zip(frames, orig_lens)):
        out.append(struct.pack(end + "IIII", 1700000000 + i, i,
                               len(frame), orig_len))
        out.append(frame)
    return b"".join(out)


def graph_set(features: list[np.ndarray], labels: list[int],
              p: int | None = None, widths=None):
    """A GraphSet of the given (n, p) uint8 matrices and labels: their rows
    stacked in order, row r storing its first widths[r] bytes (default:
    up to its last nonzero byte); p is needed only when there are no
    graphs."""
    from cgnn.graph import GraphSet

    p = features[0].shape[1] if features else p
    rows = np.concatenate([np.asarray(f, np.uint8) for f in features]
                          or [np.zeros((0, p), np.uint8)])
    if widths is None:
        widths = [len(row.tobytes().rstrip(b"\0")) for row in rows]
    widths = np.array(widths, dtype=np.int64)
    return GraphSet.from_widths(rows[np.arange(p) < widths[:, None]], p,
                                widths, [f.shape[0] for f in features],
                                np.array(labels, dtype=np.int64).reshape(-1))


def graph_rows(graphs, i: int) -> np.ndarray:
    """Graph i's (n, p) byte rows, each its stored bytes then zeros."""
    lo = graphs.first[i]
    bounds = graphs.bounds[lo:lo + graphs.lengths[i] + 1]
    rows = np.zeros((bounds.size - 1, graphs.p), dtype=np.uint8)
    rows[np.arange(graphs.p) < np.diff(bounds)[:, None]] = \
        graphs.buffer[bounds[0]:bounds[-1]]
    return rows


def batch_rows(batch) -> np.ndarray:
    """A batch's (N, p) byte rows, scattered back from its uint8 width
    buckets; checks that each row is in exactly one bucket."""
    rows = np.zeros((batch.prop.n, batch.p), dtype=np.uint8)
    seen = np.zeros(batch.prop.n, dtype=np.int64)
    for idx, bucket in batch.buckets:
        assert bucket.dtype == np.uint8
        rows[idx, :bucket.shape[1]] = bucket
        seen[idx] += 1
    assert seen.tolist() == [1] * batch.prop.n
    return rows


def dense_propagation_oracle(*lengths: int) -> np.ndarray:
    """Brute force in 64-bit: build A for consecutive chains of the given
    lengths, add self-loops, normalize symmetrically. Entirely independent
    of the implementation."""
    ends = np.cumsum(lengths)
    adjacency = np.eye(ends[-1], k=1)
    adjacency[ends[:-1] - 1, ends[:-1]] = 0.0  # no edge where chains meet
    loop_adjacency = adjacency + adjacency.T + np.eye(ends[-1])
    inv_sqrt_degree = np.diag(1.0 / np.sqrt(loop_adjacency.sum(axis=1)))
    return inv_sqrt_degree @ loop_adjacency @ inv_sqrt_degree


def walk(data: bytes) -> tuple[np.ndarray, np.ndarray, bool]:
    """Each frame's int64 offset and captured length in a whole capture's
    bytes, and whether the file ends mid-record."""
    from cgnn import preprocess as pre

    header = pre._global_header(data)
    starts, lengths, offset, _ = pre._walk_records(
        memoryview(data)[pre.GLOBAL_HEADER_LEN:], *header)
    starts, lengths = np.array([starts, lengths], dtype=np.int64)
    return starts + pre.GLOBAL_HEADER_LEN, lengths, \
        pre.GLOBAL_HEADER_LEN + offset < len(data)


def unpack_key(low: int, high: int, protocol: int) -> tuple:
    """A row of graphs_from_records' session keys as the scalar oracle's
    (ip_a, port_a, ip_b, port_b, protocol), the lower endpoint first."""
    return ((low >> 16).to_bytes(4, "big"), low & 0xFFFF,
            (high >> 16).to_bytes(4, "big"), high & 0xFFFF, protocol)


def random_graphs(rng: np.random.Generator, count: int, p: int,
                  num_classes: int = 2, max_n: int = 10):
    """A GraphSet of count random graphs with 1..max_n vertices each."""
    features, labels = [], []
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        features.append(rng.integers(0, 256, size=(n, p)).astype(np.uint8))
        labels.append(int(rng.integers(num_classes)))
    return graph_set(features, labels, p)


def bucket_widths(p: int, step: int) -> list[int]:
    """Row widths that reach every first-layer width bucket of p-byte
    rows at the given step: 0, each edge, one past each edge, and p."""
    edges = [*range(step, p, step), p]
    return sorted({0, p, *edges, *(e + 1 for e in edges if e < p)})


def zero_tailed_graphs(rng: np.random.Generator, widths: list[int], p: int,
                       count: int = 4, num_classes: int = 2):
    """A GraphSet of count graphs of two or more rows each. Each row has
    random nonzero bytes up to a width and zeros past it, and every
    given width is taken by at least one row."""
    rows = max(len(widths), 2 * count)
    width = rng.permutation(np.resize(widths, rows))
    lengths = 2 + rng.multinomial(rows - 2 * count, [1 / count] * count)
    packets = rng.integers(1, 256, size=(rows, p)).astype(np.uint8)
    packets[np.arange(p) >= width[:, None]] = 0
    ends = np.cumsum(lengths)
    return graph_set([packets[e - n:e] for e, n in zip(ends, lengths)],
                     rng.integers(num_classes, size=count).tolist())


def traced_peak(call):
    """call's result and the peak of the memory it allocated, as
    tracemalloc counts it."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def forward_with_pre_acts(model, batch):
    """forward(model, batch)'s cache and a copy of each layer's
    pre-activation, taken as ReLU receives it: ReLU overwrites it in
    place, and the cache keeps only the activations."""
    import cgnn.model

    pre_acts = []
    relu = cgnn.model.relu

    def copying_relu(x, out=None):
        pre_acts.append(x.copy())
        return relu(x, out=out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cgnn.model, "relu", copying_relu)
        cache = cgnn.model.forward(model, batch)
    return cache, pre_acts


@pytest.fixture
def keys_formatted(monkeypatch) -> list[tuple]:
    """The arguments of every cli.format_key call while the test runs."""
    import cgnn.cli

    calls = []
    format_key = cgnn.cli.format_key

    def counting_format_key(*args):
        calls.append(args)
        return format_key(*args)

    monkeypatch.setattr(cgnn.cli, "format_key", counting_format_key)
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
