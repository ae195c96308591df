"""Chain graphs, propagation against the dense oracle, batching, splits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cgnn.errors import DimsMismatch, EmptyDataset
from cgnn.graph import ChainPropagation, batch_graphs, split_dataset
from cgnn.preprocess import graphs_from_records

from conftest import (batch_rows, dense_propagation_oracle, graph_rows,
                      graph_set, pcap_bytes, random_graphs, tcp_frame,
                      traced_peak)


def propagation(*lengths: int) -> np.ndarray:
    """The chains' dense propagation matrix: apply over the identity."""
    return ChainPropagation.for_batch(lengths).apply(np.eye(sum(lengths)))


# --- propagation matrix ----------------------------------------------------

def test_known_matrices():
    assert propagation(1).tolist() == [[1.0]]
    assert propagation(2).tolist() == [[0.5, 0.5], [0.5, 0.5]]
    s3 = propagation(3)
    assert s3[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert s3[0, 1] == pytest.approx(1 / math.sqrt(6), abs=1e-15)
    assert s3[1, 1] == pytest.approx(1 / 3, abs=1e-15)
    assert s3[0, 2] == 0.0


def test_matches_dense_oracle_for_small_chains():
    for n in range(1, 11):
        expected = dense_propagation_oracle(n)
        assert np.abs(propagation(n) - expected).max() <= 1e-12


def test_symmetric_with_spectral_radius_at_most_one():
    for n in (1, 2, 3, 7, 16, 33, 64):
        dense = propagation(n)
        assert np.array_equal(dense, dense.T)
        assert (dense >= 0).all()
        radius = np.abs(np.linalg.eigvalsh(dense)).max()
        assert radius <= 1.0 + 1e-12


def test_tridiagonal_structure():
    dense = propagation(6)
    for i in range(6):
        for j in range(6):
            if abs(i - j) > 1:
                assert dense[i, j] == 0.0


# 1- and 2-vertex graphs first, inside and last
MIXED_LENGTHS = [1, 5, 2, 40, 1, 30, 2]


def test_apply_equals_dense_multiply(rng):
    for lengths in ([1], [2], [5], [10], MIXED_LENGTHS):
        prop = ChainPropagation.for_batch(lengths)
        x = rng.standard_normal((prop.n, 4))
        dense = dense_propagation_oracle(*lengths)
        for hops in (0, 1, 2, 3):
            expected = np.linalg.matrix_power(dense, hops) @ x
            assert np.abs(prop.apply(x, hops) - expected).max() <= 1e-12
        x32 = x.astype(np.float32)
        out = prop.apply(x32, 2)
        assert out.dtype == np.float32
        assert np.array_equal(prop.apply(x32, 2), out)  # bit-identical rerun


def test_one_hop_reads_its_input_in_one_pass(rng):
    prop = ChainPropagation.for_batch(MIXED_LENGTHS * 10)
    x = rng.standard_normal((prop.n, 64)).astype(np.float32)
    _, peak = traced_peak(lambda: prop.apply(x, 1))
    assert peak <= 1.5 * x.nbytes  # the output and little else


def test_apply_rejects_wrong_row_count():
    prop = ChainPropagation.for_batch([3])
    with pytest.raises(DimsMismatch, match="propagation covers 3"):
        prop.apply(np.zeros((4, 2)))


def test_batched_propagation_is_block_diagonal():
    # the second batch puts single-vertex graphs first, inside and last
    for lengths in ([2, 3], [1, 4, 1, 1, 3, 1]):
        dense = propagation(*lengths)
        assert dense.shape == (sum(lengths), sum(lengths))
        start = 0
        for n in lengths:
            block = slice(start, start + n)
            assert np.array_equal(dense[block, block], propagation(n))
            assert (dense[block, :start] == 0).all()
            assert (dense[block, start + n:] == 0).all()
            start += n


def test_batch_propagation_rejects_empty():
    with pytest.raises(EmptyDataset, match="no graphs to build"):
        ChainPropagation.for_batch([])


# --- graph construction ----------------------------------------------------

def _session_graphs(payloads: list[bytes], p: int, label: int = 0,
                    fraction: float = 1.0):
    """Graphs ingest builds from one TCP session's packets."""
    frames = [tcp_frame(payload) for payload in payloads]
    graphs, _, _ = graphs_from_records(pcap_bytes(frames), label, p, fraction)
    return graphs


def test_build_chain_graph_six_vertices():
    graphs = _session_graphs([bytes([i + 1]) for i in range(6)], 48,
                             label=1)
    (graph,) = graphs
    assert graph.n == 6
    assert graphs.p == graph_rows(graphs, 0).shape[1] == 48
    assert graph.label == 1
    assert graph_rows(graphs, 0)[:, 40].tolist() == [1, 2, 3, 4, 5, 6]


def test_build_chain_graph_single_vertex():
    (graph,) = _session_graphs([b"ab"], 4)
    assert graph.n == 1


def test_build_chain_graph_identical_packets_identical_rows():
    rows = graph_rows(_session_graphs([b"same", b"same"], 64), 0)
    assert np.array_equal(rows[0], rows[1])


def test_build_chain_graph_rejects_empty():
    assert len(_session_graphs([b"", b""], 64)) == 0


def test_truncate_by_half():
    payloads = [bytes([i + 1]) for i in range(10)]
    whole = _session_graphs(payloads, 48)
    cut = _session_graphs(payloads, 48, fraction=0.5)
    assert cut.lengths.tolist() == [5]
    assert np.array_equal(graph_rows(cut, 0), graph_rows(whole, 0)[:5])


def test_truncate_full_fraction_is_identity():
    (graph,) = _session_graphs([b"a", b"b", b"c"], 48, fraction=1.0)
    assert graph.n == 3


def test_truncate_rounds_up():
    (graph,) = _session_graphs([b"a", b"b", b"c"], 48, fraction=0.4)
    assert graph.n == 2


def test_truncate_rejects_bad_fraction():
    for fraction in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            _session_graphs([b"a", b"b", b"c"], 48, fraction=fraction)


def test_truncation_copies_no_cut_row():
    graphs, _, stats = graphs_from_records(
        pcap_bytes([tcp_frame(bytes([i + 1])) for i in range(10)]
                 + [tcp_frame(b"u", sport=40001)]), 0, 48, 0.3)
    assert graphs.lengths.tolist() == [3, 1]
    assert graphs.buffer.size == 4 * 41  # 20 + 20 + 1 bytes in each row
    assert stats.vertices == 4


# --- graph sets ------------------------------------------------------------

def test_graph_set_indexing_shares_the_buffer(rng):
    graphs = random_graphs(rng, 6, p=5)
    picked = graphs[np.array([4, 1])]
    assert picked.buffer is graphs.buffer
    assert len(picked) == 2
    assert picked.labels.tolist() == [graphs[4].label, graphs[1].label]
    assert np.array_equal(graph_rows(picked, 0), graph_rows(graphs, 4))
    assert [g.n for g in graphs[1:3]] == graphs.lengths[1:3].tolist()


def test_iterating_for_vertex_counts_builds_no_rows(rng):
    graphs = graph_set([rng.integers(1, 256, (8, 1500)).astype(np.uint8)
                        for _ in range(40)], [0] * 40)
    (vertices, labels), peak = traced_peak(
        lambda: (sum(g.n for g in graphs), [g.label for g in graphs]))
    assert vertices == 320 and labels == [0] * 40
    assert peak < 8 * 1500  # one graph's (n, p) rows would take that


# --- batching ---------------------------------------------------------------

def test_batch_single_graph_matches_it(rng):
    graphs = random_graphs(rng, 1, p=6)
    graph = graphs[0]
    batch = batch_graphs(graphs)
    assert np.array_equal(batch_rows(batch), graph_rows(graphs, 0))
    assert batch.lengths.tolist() == [graph.n]
    assert batch.labels.tolist() == [graph.label]
    assert np.array_equal(batch.prop.apply(np.eye(graph.n)),
                          propagation(graph.n))


def test_batch_offsets_and_block_structure():
    graphs = graph_set([np.zeros((2, 3), np.uint8),
                        np.ones((3, 3), np.uint8)], [0, 1])
    batch = batch_graphs(graphs)
    assert batch.offsets.tolist() == [0, 2, 5]
    assert batch.prop.apply(np.eye(5))[1, 2] == 0.0


def test_batch_of_32_graphs(rng):
    graphs = random_graphs(rng, 32, p=5)
    batch = batch_graphs(graphs)
    assert batch.size == 32
    assert batch.offsets.shape == (33,)
    assert batch.widths.size == graphs.lengths.sum()


def test_batch_slicing_reproduces_inputs_exactly(rng):
    graphs = random_graphs(rng, 10, p=7)
    batch = batch_graphs(graphs)
    offsets, rows = batch.offsets, batch_rows(batch)
    for i in range(len(graphs)):
        assert np.array_equal(rows[offsets[i]:offsets[i + 1]],
                              graph_rows(graphs, i))


def test_batch_takes_the_chosen_graphs_in_order(rng):
    graphs = random_graphs(rng, 10, p=7)
    idx = np.array([7, 2, 9])
    batch = batch_graphs(graphs, idx)
    assert batch.labels.tolist() == graphs.labels[idx].tolist()
    assert np.array_equal(batch_rows(batch), np.concatenate(
        [graph_rows(graphs, i) for i in idx.tolist()]))


def test_batch_rejects_empty_list(rng):
    with pytest.raises(EmptyDataset, match="no graphs to build"):
        batch_graphs(random_graphs(rng, 0, p=4))


# --- dataset splitting -------------------------------------------------------

def test_ten_graphs_split_eight_one_one(rng):
    graphs = random_graphs(rng, 10, p=4, num_classes=1)
    train, valid, test = split_dataset(graphs, seed=3)
    assert (len(train), len(valid), len(test)) == (8, 1, 1)


def test_same_seed_same_split(rng):
    graphs = random_graphs(rng, 37, p=4, num_classes=3)
    first = split_dataset(graphs, seed=11)
    second = split_dataset(graphs, seed=11)
    for a, b in zip(first, second):
        assert a.tolist() == b.tolist()


def test_split_is_a_partition(rng):
    graphs = random_graphs(rng, 53, p=4, num_classes=4)
    train, valid, test = split_dataset(graphs, seed=5)
    combined = np.concatenate([train, valid, test])
    assert sorted(combined.tolist()) == list(range(len(graphs)))


def test_split_shuffles_each_label_in_turn(rng):
    """Each part lists the labels in increasing order, each label's graphs
    in one seeded permutation drawn per label."""
    graphs = random_graphs(rng, 40, p=4, num_classes=3)
    train, valid, test = split_dataset(graphs, seed=2)
    order = np.random.default_rng(2)
    expected = ([], [], [])
    for label in range(3):
        group = np.flatnonzero(graphs.labels == label)
        group = group[order.permutation(group.size)]
        n_valid, n_test = int(0.1 * group.size), int(0.1 * group.size)
        expected[1].extend(group[:n_valid].tolist())
        expected[2].extend(group[n_valid:n_valid + n_test].tolist())
        expected[0].extend(group[n_valid + n_test:].tolist())
    assert (train.tolist(), valid.tolist(), test.tolist()) == expected


def test_balanced_classes_stay_balanced():
    graphs = graph_set([np.zeros((1, 4), np.uint8)] * 100,
                       [0] * 50 + [1] * 50)
    train, valid, test = split_dataset(graphs, seed=0)
    for part, expected in ((train, 40), (valid, 5), (test, 5)):
        for label in (0, 1):
            count = np.count_nonzero(graphs.labels[part] == label)
            assert abs(count - expected) <= 1


def test_split_rejects_empty_and_bad_fractions(rng):
    with pytest.raises(EmptyDataset, match="cannot split zero graphs"):
        split_dataset(random_graphs(rng, 0, p=4), seed=0)
