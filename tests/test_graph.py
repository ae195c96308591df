"""Chain graphs, the propagation matrix oracle, batching, and splits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cgnn.errors import EmptyDataset, MixedFeatureWidth, ShapeMismatch
from cgnn.graph import (ChainPropagation, ChainedGraph, batch_graphs,
                        propagation_matrix, split_dataset, truncate_graph)
from cgnn.preprocess import graphs_from_records

from conftest import random_graphs, table_of, tcp_frame


def dense_propagation_oracle(n: int) -> np.ndarray:
    """Brute force in 64-bit: build A for a chain, add self-loops,
    normalize symmetrically. Entirely independent of the implementation."""
    adjacency = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    loop_adjacency = adjacency + np.eye(n)
    inv_sqrt_degree = np.diag(1.0 / np.sqrt(loop_adjacency.sum(axis=1)))
    return inv_sqrt_degree @ loop_adjacency @ inv_sqrt_degree


# --- propagation matrix ----------------------------------------------------

def test_known_matrices():
    assert propagation_matrix(1).tolist() == [[1.0]]
    assert propagation_matrix(2).tolist() == [[0.5, 0.5], [0.5, 0.5]]
    s3 = propagation_matrix(3)
    assert s3[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert s3[0, 1] == pytest.approx(1 / math.sqrt(6), abs=1e-15)
    assert s3[1, 1] == pytest.approx(1 / 3, abs=1e-15)
    assert s3[0, 2] == 0.0


def test_matches_dense_oracle_for_small_chains():
    for n in range(1, 11):
        expected = dense_propagation_oracle(n)
        got = propagation_matrix(n)
        assert np.abs(got - expected).max() <= 1e-12


def test_symmetric_with_spectral_radius_at_most_one():
    for n in (1, 2, 3, 7, 16, 33, 64):
        dense = propagation_matrix(n)
        assert np.array_equal(dense, dense.T)
        assert (dense >= 0).all()
        radius = np.abs(np.linalg.eigvalsh(dense)).max()
        assert radius <= 1.0 + 1e-12


def test_tridiagonal_structure():
    dense = propagation_matrix(6)
    for i in range(6):
        for j in range(6):
            if abs(i - j) > 1:
                assert dense[i, j] == 0.0


def test_apply_equals_dense_multiply(rng):
    for n in (1, 2, 5, 10):
        prop = ChainPropagation.for_batch([n])
        x = rng.standard_normal((n, 4))
        dense = prop.dense()
        for hops in (1, 2, 3):
            expected = np.linalg.matrix_power(dense, hops) @ x
            assert np.abs(prop.apply(x, hops) - expected).max() <= 1e-12


def test_apply_rejects_wrong_row_count():
    prop = ChainPropagation.for_batch([3])
    with pytest.raises(ShapeMismatch):
        prop.apply(np.zeros((4, 2)))


def test_batched_propagation_is_block_diagonal():
    # the second batch puts single-vertex graphs first, inside and last
    for lengths in ([2, 3], [1, 4, 1, 1, 3, 1]):
        dense = ChainPropagation.for_batch(lengths).dense()
        assert dense.shape == (sum(lengths), sum(lengths))
        start = 0
        for n in lengths:
            block = slice(start, start + n)
            assert np.array_equal(dense[block, block], propagation_matrix(n))
            assert (dense[block, :start] == 0).all()
            assert (dense[block, start + n:] == 0).all()
            start += n


def test_batch_propagation_rejects_empty():
    with pytest.raises(EmptyDataset):
        ChainPropagation.for_batch([])


# --- graph construction ----------------------------------------------------

def _session_graphs(payloads: list[bytes], p: int, label: int = 0) -> list:
    """Graphs ingest builds from one TCP session's packets."""
    frames = [tcp_frame(payload) for payload in payloads]
    graphs, _, _ = graphs_from_records(table_of(frames), label, p)
    return graphs


def test_build_chain_graph_six_vertices():
    (graph,) = _session_graphs([bytes([i + 1]) for i in range(6)], 48,
                               label=1)
    assert graph.n == 6
    assert graph.p == 48
    assert graph.label == 1
    assert graph.features[:, 40].tolist() == [1, 2, 3, 4, 5, 6]  # in order


def test_build_chain_graph_single_vertex():
    (graph,) = _session_graphs([b"ab"], 4)
    assert graph.n == 1


def test_build_chain_graph_identical_packets_identical_rows():
    (graph,) = _session_graphs([b"same", b"same"], 64)
    assert np.array_equal(graph.features[0], graph.features[1])


def test_build_chain_graph_rejects_empty():
    assert _session_graphs([b"", b""], 64) == []


def test_truncate_by_half():
    graph = ChainedGraph(np.arange(40, dtype=np.uint8).reshape(10, 4), 0)
    cut = truncate_graph(graph, 0.5)
    assert cut.n == 5
    assert np.array_equal(cut.features, graph.features[:5])


def test_truncate_full_fraction_is_identity():
    graph = ChainedGraph(np.zeros((3, 2), dtype=np.uint8), 0)
    assert truncate_graph(graph, 1.0) is graph


def test_truncate_rounds_up():
    graph = ChainedGraph(np.zeros((3, 2), dtype=np.uint8), 0)
    assert truncate_graph(graph, 0.4).n == 2


def test_truncate_rejects_bad_fraction():
    graph = ChainedGraph(np.zeros((3, 2), dtype=np.uint8), 0)
    for fraction in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            truncate_graph(graph, fraction)


# --- batching ---------------------------------------------------------------

def test_batch_single_graph_matches_it(rng):
    graph = random_graphs(rng, 1, p=6)[0]
    batch = batch_graphs([graph])
    assert np.array_equal(batch.features,
                          graph.features.astype(np.float32))
    assert batch.lengths.tolist() == [graph.n]
    assert batch.labels.tolist() == [graph.label]
    assert np.array_equal(batch.prop.dense(), propagation_matrix(graph.n))


def test_batch_offsets_and_block_structure():
    graphs = [ChainedGraph(np.zeros((2, 3), np.uint8), 0),
              ChainedGraph(np.ones((3, 3), np.uint8), 1)]
    batch = batch_graphs(graphs)
    assert batch.offsets.tolist() == [0, 2, 5]
    assert batch.prop.dense()[1, 2] == 0.0


def test_batch_of_32_graphs(rng):
    graphs = random_graphs(rng, 32, p=5)
    batch = batch_graphs(graphs)
    assert batch.size == 32
    assert batch.offsets.shape == (33,)
    assert batch.features.shape[0] == sum(g.n for g in graphs)


def test_batch_slicing_reproduces_inputs_exactly(rng):
    graphs = random_graphs(rng, 10, p=7)
    batch = batch_graphs(graphs)
    offsets = batch.offsets
    for i, graph in enumerate(graphs):
        rows = batch.features[offsets[i]:offsets[i + 1]]
        assert np.array_equal(rows, graph.features.astype(np.float32))


def test_batch_rejects_mixed_widths():
    graphs = [ChainedGraph(np.zeros((1, 3), np.uint8), 0),
              ChainedGraph(np.zeros((1, 4), np.uint8), 0)]
    with pytest.raises(MixedFeatureWidth):
        batch_graphs(graphs)


def test_batch_rejects_empty_list():
    with pytest.raises(EmptyDataset):
        batch_graphs([])


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
        assert [id(g) for g in a] == [id(g) for g in b]


def test_split_is_a_partition(rng):
    graphs = random_graphs(rng, 53, p=4, num_classes=4)
    train, valid, test = split_dataset(graphs, seed=5)
    combined = [id(g) for g in train + valid + test]
    assert sorted(combined) == sorted(id(g) for g in graphs)
    assert len(set(combined)) == len(graphs)


def test_balanced_classes_stay_balanced(rng):
    graphs = random_graphs(rng, 0, p=4)
    graphs += [ChainedGraph(np.zeros((1, 4), np.uint8), 0)
               for _ in range(50)]
    graphs += [ChainedGraph(np.zeros((1, 4), np.uint8), 1)
               for _ in range(50)]
    train, valid, test = split_dataset(graphs, seed=0)
    for part, expected in ((train, 40), (valid, 5), (test, 5)):
        for label in (0, 1):
            count = sum(1 for g in part if g.label == label)
            assert abs(count - expected) <= 1


def test_split_rejects_empty_and_bad_fractions(rng):
    with pytest.raises(EmptyDataset):
        split_dataset([], seed=0)
    graphs = random_graphs(rng, 5, p=4)
    with pytest.raises(ValueError):
        split_dataset(graphs, seed=0, valid_frac=0.6, test_frac=0.5)
