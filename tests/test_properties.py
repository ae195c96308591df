"""Property tests: invariants that must hold for arbitrary inputs."""

from __future__ import annotations

import functools
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgnn.preprocess
from cgnn.cli import (RunConfig, format_config, parse_config_file,
                      parse_config_text)
from cgnn.dataset import Dataset, parse_dataset
from cgnn.errors import ConfigError, CorruptFile
from cgnn.model import (ModelDims, init_model, parse_checkpoint,
                        save_checkpoint, softmax)
from cgnn.preprocess import FiveTuple, graphs_from_records

from conftest import (arp_frame, graph_rows, graph_set, pcap_bytes,
                      random_graphs, tcp_frame, udp_frame, walk)
from test_preprocess import expected_tcp_clean

# Text that survives a UTF-8 round trip (no surrogates).
utf8_text = st.text(
    alphabet=st.characters(exclude_categories=("Cs",)), min_size=1,
    max_size=12)


@given(data=st.binary(min_size=1, max_size=300), p=st.integers(1, 400))
def test_vectorize_pads_and_truncates(data, p):
    graphs, _, _ = graphs_from_records(pcap_bytes([tcp_frame(data)]), 0, p)
    (vector,) = graph_rows(graphs, 0)
    assert vector.shape == (p,)
    assert vector.dtype == np.uint8
    cleaned = expected_tcp_clean(data)
    kept = min(len(cleaned), p)
    assert bytes(vector[:kept]) == cleaned[:kept]
    assert not vector[kept:].any()


@given(src_ip=st.binary(min_size=4, max_size=4),
       dst_ip=st.binary(min_size=4, max_size=4),
       src_port=st.integers(0, 65535), dst_port=st.integers(0, 65535),
       protocol=st.sampled_from([6, 17]))
def test_five_tuple_canonical_ignores_direction(src_ip, dst_ip, src_port,
                                                dst_port, protocol):
    build = tcp_frame if protocol == 6 else udp_frame
    forward = build(b"x", sport=src_port, dport=dst_port, src=src_ip,
                    dst=dst_ip)
    reverse = build(b"y", sport=dst_port, dport=src_port, src=dst_ip,
                    dst=src_ip)
    _, (forward_row,), _ = graphs_from_records(pcap_bytes([forward]), 0, 8)
    _, (reverse_row,), _ = graphs_from_records(pcap_bytes([reverse]), 0, 8)
    forward_key = FiveTuple.unpack(*forward_row.tolist())
    reverse_key = FiveTuple.unpack(*reverse_row.tolist())
    assert forward_key == reverse_key
    assert (forward_key.ip_a, forward_key.port_a) \
        <= (forward_key.ip_b, forward_key.port_b)
    assert {(forward_key.ip_a, forward_key.port_a),
            (forward_key.ip_b, forward_key.port_b)} \
        == {(src_ip, src_port), (dst_ip, dst_port)}
    (graph,), _, _ = graphs_from_records(pcap_bytes([forward, reverse]), 0, 8)
    assert graph.n == 2


@given(frames=st.lists(st.binary(max_size=64), max_size=8),
       nanosecond=st.booleans(), big_endian=st.booleans())
@settings(deadline=None)
def test_capture_files_round_trip(frames, nanosecond, big_endian):
    data = pcap_bytes(frames, magic=0xA1B23C4D if nanosecond else 0xA1B2C3D4,
                      big_endian=big_endian)
    starts, lengths, truncated = walk(data)
    assert [data[s:s + n] for s, n in zip(starts.tolist(),
                                          lengths.tolist())] == frames
    assert truncated is False
    # every magic value and byte order lays the records out alike
    reference, ref_lengths, _ = walk(pcap_bytes(frames))
    assert starts.tolist() == reference.tolist()
    assert lengths.tolist() == ref_lengths.tolist()


@given(shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)),
                       min_size=0, max_size=6),
       p=st.integers(1, 20), names=st.lists(utf8_text, min_size=3,
                                            max_size=3))
@settings(deadline=None)
def test_dataset_bytes_round_trip(shapes, p, names):
    rng = np.random.default_rng(0)
    graphs = graph_set([rng.integers(0, 256, (n, p)).astype(np.uint8)
                        for n, _ in shapes], [label for _, label in shapes], p)
    raw = Dataset(graphs=graphs, label_names=names).to_bytes()
    assert parse_dataset(raw).to_bytes() == raw


@st.composite
def padded_rows_case(draw):
    """(V, p) byte rows cut into graphs, with labels. Each row is all
    zeros, p bytes wide (a nonzero last byte), or random bytes (zeros
    among them) up to a drawn width and zeros past it."""
    p = draw(st.sampled_from([1, 3, 4, 255, 256, 257, 1500]))
    lengths = draw(st.lists(st.integers(1, 4), max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.integers(0, 4, (sum(lengths), p)).astype(np.uint8)
    for row in rows:
        kind = draw(st.sampled_from(["zero", "full", "cut"]))
        if kind == "zero":
            row[:] = 0
        elif kind == "full":
            row[-1] = draw(st.integers(1, 255))
        else:
            row[draw(st.integers(0, p)):] = 0
    labels = draw(st.lists(st.integers(0, 2), min_size=len(lengths),
                           max_size=len(lengths)))
    return rows, lengths, labels


@given(padded_rows_case())
@settings(deadline=None, max_examples=80)
def test_padded_rows_round_trip_through_stored_rows_and_a_file(case):
    rows, lengths, labels = case
    p, ends = rows.shape[1], np.cumsum(lengths)
    graphs = graph_set([rows[end - n:end] for end, n in zip(ends, lengths)],
                       labels, p)
    nonzero = [np.flatnonzero(row) for row in rows]
    widths = [int(nz[-1]) + 1 if nz.size else 0 for nz in nonzero]
    assert graphs.packed()[1].tolist() == widths
    assert graphs.buffer.tobytes() == b"".join(
        row[:w].tobytes() for row, w in zip(rows, widths))
    raw = Dataset(graphs=graphs, label_names=["a", "b", "c"]).to_bytes()
    parsed = parse_dataset(raw)
    assert parsed.to_bytes() == raw
    for got in (graphs, parsed.graphs):
        assert len(got) == len(lengths)
        for i, (end, n, label) in enumerate(zip(ends, lengths, labels)):
            assert (got[i].n, got[i].label) == (n, label)
            expanded = graph_rows(got, i)
            assert expanded.shape == (n, p)
            assert expanded.tobytes() == rows[end - n:end].tobytes()


@given(p=st.integers(1, 10_000), d1=st.integers(1, 10_000),
       lr=st.floats(allow_nan=False, allow_infinity=False),
       drop_dns=st.booleans(),
       fraction=st.floats(allow_nan=False, allow_infinity=False),
       pooling=st.sampled_from(["avg", "max", "sum"]))
def test_config_echo_round_trip(p, d1, lr, drop_dns, fraction, pooling):
    cfg = RunConfig(p=p, d1=d1, lr=lr, drop_dns=drop_dns, fraction=fraction,
                    pooling=pooling)
    assert parse_config_text(format_config(cfg)) == cfg


@given(st.lists(st.lists(st.floats(-30, 30), min_size=2, max_size=5),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_are_distributions(rows):
    probs = softmax(np.array(rows, dtype=np.float64))
    assert (probs >= 0).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


@given(n=st.integers(1, 50), fraction=st.floats(0.01, 1.0))
@settings(deadline=None)
def test_truncation_keeps_a_leading_ceil_fraction(n, fraction):
    frames = [tcp_frame(bytes([i + 1])) for i in range(n)]
    whole, _, _ = graphs_from_records(pcap_bytes(frames), 0, 48)
    graphs, _, stats = graphs_from_records(pcap_bytes(frames), 0, 48,
                                           fraction)
    (kept,) = graphs.lengths.tolist()
    assert kept == math.ceil(fraction * n) == stats.vertices
    assert 1 <= kept <= n
    assert np.array_equal(graph_rows(graphs, 0), graph_rows(whole, 0)[:kept])


# --- parser robustness ------------------------------------------------------

@functools.cache
def _valid_dataset() -> bytes:
    graphs = random_graphs(np.random.default_rng(3), 4, p=6, max_n=3)
    return Dataset(graphs=graphs, label_names=["a", "b"]).to_bytes()


@functools.cache
def _valid_checkpoint() -> bytes:
    model = init_model(ModelDims(p=5, d1=3, d2=2, m=2), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.cgm1"
        save_checkpoint(model, ["a", "b"], path)
        return path.read_bytes()


@functools.cache
def _valid_capture() -> bytes:
    return pcap_bytes([tcp_frame(b"hello"), udp_frame(b"ping", dport=53),
                       arp_frame(), tcp_frame(b"", flags=0x02),
                       udp_frame(b"pong")])


def _ingest(raw: bytes):
    return graphs_from_records(raw, 0, 64, drop_dns=True)


def _ingest_frame(raw: bytes):
    return graphs_from_records(pcap_bytes([raw]), 0, 64)


def _ingest_blocks(raw: bytes):
    """The pcap case read in blocks of 7 bytes, which every record
    straddles and most outgrow."""
    with mock.patch.object(cgnn.preprocess, "READ_BLOCK", 7):
        return _ingest(raw)


def _mangle(valid: bytes, flips: list[tuple[int, int]], cut: int) -> bytes:
    out = bytearray(valid)
    for pos, mask in flips:
        out[pos] ^= mask
    return bytes(out[:cut])


@pytest.mark.parametrize("parse, valid", [
    (parse_dataset, _valid_dataset),
    (parse_checkpoint, _valid_checkpoint),
    (_ingest, _valid_capture),
    (_ingest_frame, lambda: tcp_frame(b"hello", tcp_options=b"\x01" * 4)),
    (_ingest_blocks, _valid_capture),
], ids=["dataset", "checkpoint", "pcap", "frame", "pcap-blocks"])
@given(data=st.data())
@settings(deadline=None, max_examples=150)
def test_parsers_return_a_value_or_raise_cgnn_error(parse, valid, data):
    """Arbitrary bytes, or a valid file with bytes flipped and cut at
    random offsets: the parser returns or raises CorruptFile, nothing
    else."""
    good = valid()
    raw = data.draw(st.one_of(
        st.binary(max_size=512),
        st.builds(_mangle, st.just(good),
                  st.lists(st.tuples(st.integers(0, len(good) - 1),
                                     st.integers(1, 255)), max_size=4),
                  st.integers(0, len(good)))))
    try:
        parse(raw)
    except CorruptFile:
        pass


def _config_from_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.conf"
        path.write_bytes(raw)
        return parse_config_file(path)


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_config_file_bytes_give_a_config_or_config_error(data):
    """Arbitrary bytes, or a full config file with bytes flipped and cut:
    reading it as a config file gives a RunConfig or raises ConfigError."""
    good = format_config(RunConfig(pooling="max", fraction=0.5)).encode()
    raw = data.draw(st.one_of(
        st.binary(max_size=256),
        st.text(max_size=256).map(lambda text: text.encode("utf-8")),
        st.builds(_mangle, st.just(good),
                  st.lists(st.tuples(st.integers(0, len(good) - 1),
                                     st.integers(1, 255)), max_size=4),
                  st.integers(0, len(good)))))
    try:
        assert isinstance(_config_from_bytes(raw), RunConfig)
    except ConfigError:
        pass
