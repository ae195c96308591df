"""Model layers, forward pass against a dense oracle, and checkpoints."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

import cgnn.model

from cgnn.errors import (BadMagic, ConfigError, CorruptLength, DimsMismatch,
                         EmptySegment, NonFiniteInput, ShapeMismatch,
                         VersionMismatch)
from cgnn.graph import ChainPropagation, ChainedGraph, batch_graphs
from cgnn.model import (CHECKPOINT_MAGIC, CgnnModel, ModelDims, fc_softmax,
                        forward, init_model, load_checkpoint,
                        parse_checkpoint, pool, predict_probs, relu,
                        save_checkpoint, sgc_layer, softmax)

from conftest import random_graphs

TINY_DIMS = ModelDims(p=6, d1=5, d2=4, m=2)


def dense_forward_oracle(model: CgnnModel, graphs) -> np.ndarray:
    """Recompute the whole network with 64-bit dense matrices, one graph
    at a time: x = relu(S^k x theta) per layer, pool, softmax(y W + b)."""
    rows = []
    for graph in graphs:
        x = graph.features.astype(np.float64)
        if model.dims.standardize:
            x = x / 255.0
        from test_graph import dense_propagation_oracle
        s = dense_propagation_oracle(graph.n)
        for theta, hops in zip(model.thetas, model.dims.layer_hops):
            x = np.maximum(np.linalg.matrix_power(s, hops) @ x
                           @ theta.astype(np.float64), 0.0)
        if model.dims.pooling == "avg":
            y = x.mean(axis=0)
        elif model.dims.pooling == "sum":
            y = x.sum(axis=0)
        else:
            y = x.max(axis=0)
        logits = y @ model.W.astype(np.float64) + model.b.astype(np.float64)
        shifted = np.exp(logits - logits.max())
        rows.append(shifted / shifted.sum())
    return np.stack(rows)


# --- initialization ----------------------------------------------------------

def test_init_same_seed_same_weights():
    a = init_model(TINY_DIMS, seed=7)
    b = init_model(TINY_DIMS, seed=7)
    for x, y in zip(a.params(), b.params()):
        assert np.array_equal(x, y)


def test_init_different_seeds_differ():
    a = init_model(TINY_DIMS, seed=0)
    b = init_model(TINY_DIMS, seed=1)
    assert not np.array_equal(a.thetas[0], b.thetas[0])


def test_init_bias_is_zero_and_dtype_float32():
    model = init_model(TINY_DIMS, seed=0)
    assert model.b.tolist() == [0.0, 0.0]
    for arr in model.params():
        assert arr.dtype == np.float32


def test_init_shapes_follow_dims():
    model = init_model(TINY_DIMS, seed=0)
    assert model.thetas[0].shape == (6, 5)
    assert model.thetas[1].shape == (5, 4)
    assert model.W.shape == (4, 2)
    assert model.b.shape == (2,)


def test_init_respects_uniform_bound():
    model = init_model(ModelDims(), seed=0)
    limit = math.sqrt(6.0 / (1500 + 516))
    assert limit == pytest.approx(0.05455, abs=1e-4)
    values = model.thetas[0]
    assert np.abs(values).max() <= limit
    # With 774k samples the observed extreme sits essentially at the bound.
    assert np.abs(values).max() > 0.99 * limit


def test_init_three_layer_widths():
    dims = ModelDims(p=6, d1=5, d2=4, m=2, layers=3)
    model = init_model(dims, seed=0)
    assert [t.shape for t in model.thetas] == [(6, 5), (5, 4), (4, 4)]
    assert dims.layer_hops == [1, 1, 1]


def test_dims_validation_errors():
    for bad in (ModelDims(p=0), ModelDims(d1=0), ModelDims(d2=0),
                ModelDims(m=1), ModelDims(layers=4), ModelDims(k1=0),
                ModelDims(pooling="median")):
        with pytest.raises(ConfigError):
            bad.validate()


def test_single_layer_ignores_d2():
    ModelDims(p=4, d1=3, d2=0, m=2, layers=1).validate()


# --- activation and layers ---------------------------------------------------

def test_relu_basics():
    x = np.array([-2.0, -0.0, 0.0, 3.5])
    out = relu(x)
    assert out.tolist() == [0.0, 0.0, 0.0, 3.5]
    assert np.array_equal(relu(out), out)


def test_sgc_layer_single_vertex_is_plain_matmul():
    prop = ChainPropagation.for_chain(1)
    x = np.array([[1.0, 2.0]])
    theta = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert sgc_layer(prop, x, theta).tolist() == [[1.0, 2.0, 3.0]]


def test_sgc_layer_two_vertices_averages():
    prop = ChainPropagation.for_chain(2)
    x = np.array([[2.0, 0.0], [0.0, 2.0]])
    out = sgc_layer(prop, x, np.eye(2))
    assert out.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_sgc_layer_two_hops_matches_dense(rng):
    from test_graph import dense_propagation_oracle
    prop = ChainPropagation.for_chain(3)
    x = rng.standard_normal((3, 4))
    theta = rng.standard_normal((4, 2))
    expected = np.linalg.matrix_power(
        dense_propagation_oracle(3), 2) @ x @ theta
    assert np.abs(sgc_layer(prop, x, theta, k=2) - expected).max() <= 1e-12


def test_sgc_layer_rejects_width_mismatch():
    prop = ChainPropagation.for_chain(2)
    with pytest.raises(ShapeMismatch):
        sgc_layer(prop, np.zeros((2, 3)), np.zeros((4, 2)))


# --- pooling -----------------------------------------------------------------

def test_avg_pool_two_rows():
    x = np.array([[1.0, 3.0], [3.0, 5.0]])
    out = pool(x, np.array([0, 2]), np.array([2]), "avg")[0]
    assert out.tolist() == [[2.0, 4.0]]


def test_avg_pool_single_row_passthrough():
    x = np.array([[7.0, -1.0]])
    out = pool(x, np.array([0, 1]), np.array([1]), "avg")[0]
    assert out.tolist() == [[7.0, -1.0]]


def test_pool_variants_on_known_rows():
    x = np.array([[1.0, 3.0], [3.0, 5.0]])
    offsets, lengths = np.array([0, 2]), np.array([2])
    assert pool(x, offsets, lengths, "max")[0].tolist() == [[3.0, 5.0]]
    assert pool(x, offsets, lengths, "sum")[0].tolist() == [[4.0, 8.0]]


def test_max_pool_reports_winning_rows():
    x = np.array([[1.0, 9.0], [5.0, 2.0], [4.0, 4.0]])
    out, winners = pool(x, np.array([0, 2, 3]), np.array([2, 1]), "max")
    assert out.tolist() == [[5.0, 9.0], [4.0, 4.0]]
    assert winners.tolist() == [[1, 0], [2, 2]]


def test_sum_pool_equals_avg_times_length(rng):
    x = rng.standard_normal((9, 3))
    offsets = np.array([0, 4, 6, 9])
    lengths = np.array([4, 2, 3])
    summed = pool(x, offsets, lengths, "sum")[0]
    averaged = pool(x, offsets, lengths, "avg")[0]
    assert np.abs(summed - averaged * lengths[:, None]).max() <= 1e-12


def test_avg_pool_brute_force_oracle(rng):
    lengths = np.array([3, 1, 5, 2])
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    x = rng.standard_normal((offsets[-1], 4))
    out = pool(x, offsets, lengths, "avg")[0]
    for g in range(4):
        expected = x[offsets[g]:offsets[g + 1]].mean(axis=0)
        assert np.abs(out[g] - expected).max() <= 1e-12


def test_pool_rejects_empty_segments():
    with pytest.raises(EmptySegment):
        pool(np.zeros((0, 2)), np.array([0]), np.array([], dtype=int), "avg")
    with pytest.raises(EmptySegment):
        pool(np.zeros((2, 2)), np.array([0, 0, 2]), np.array([0, 2]), "avg")


def test_pool_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        pool(np.zeros((1, 2)), np.array([0, 1]), np.array([1]), "median")


# --- output layer ------------------------------------------------------------

def test_softmax_uniform_on_equal_logits():
    assert softmax(np.zeros((1, 4))).tolist() == [[0.25] * 4]


def test_fc_softmax_zero_everything_is_uniform():
    probs = fc_softmax(np.zeros(3), np.zeros((3, 2)), np.zeros(2))
    assert probs.tolist() == [0.5, 0.5]
    assert probs.shape == (2,)


def test_fc_softmax_batch_keeps_rows():
    probs = fc_softmax(np.zeros((4, 3)), np.zeros((3, 2)), np.zeros(2))
    assert probs.shape == (4, 2)


def test_fc_softmax_stable_for_huge_logits():
    probs = fc_softmax(np.array([1000.0]), np.array([[1.0, 0.0]]),
                       np.zeros(2))
    assert np.isfinite(probs).all()
    assert probs[0] == pytest.approx(1.0)
    assert probs.sum() == pytest.approx(1.0)


def test_fc_softmax_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        fc_softmax(np.array([np.inf]), np.array([[1.0, 0.0]]), np.zeros(2))


# --- full forward pass -------------------------------------------------------

def test_forward_zero_features_uniform_output():
    dims = ModelDims(p=4, d1=3, d2=3, m=3)
    model = init_model(dims, seed=0)
    model.W[:] = 0
    model.b[:] = 0
    graph = ChainedGraph(np.zeros((1, 4), dtype=np.uint8), 0)
    probs = forward(model, batch_graphs([graph])).probs
    assert np.abs(probs - 1 / 3).max() <= 1e-7


def test_forward_matches_dense_oracle(rng):
    for pooling in ("avg", "max", "sum"):
        for standardize in (False, True):
            dims = ModelDims(p=6, d1=5, d2=4, m=3, pooling=pooling,
                             standardize=standardize)
            model = init_model(dims, seed=3)
            graphs = random_graphs(rng, 8, p=6, num_classes=3)
            got = forward(model, batch_graphs(graphs)).probs
            expected = dense_forward_oracle(model, graphs)
            assert np.abs(got - expected).max() <= 1e-5


def test_forward_three_layers_two_hops_matches_oracle(rng):
    dims = ModelDims(p=6, d1=5, d2=4, m=2, layers=3, k1=2, k2=2)
    model = init_model(dims, seed=1)
    graphs = random_graphs(rng, 6, p=6)
    got = forward(model, batch_graphs(graphs)).probs
    assert np.abs(got - dense_forward_oracle(model, graphs)).max() <= 1e-5


def test_forward_rows_sum_to_one(rng):
    model = init_model(TINY_DIMS, seed=0)
    graphs = random_graphs(rng, 16, p=6)
    probs = forward(model, batch_graphs(graphs)).probs
    assert (probs >= 0).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-6


def test_forward_each_graph_independent_of_batch_order(rng):
    model = init_model(TINY_DIMS, seed=2)
    graphs = random_graphs(rng, 5, p=6)
    forward_order = forward(model, batch_graphs(graphs)).probs
    backward_order = forward(model, batch_graphs(graphs[::-1])).probs
    assert np.array_equal(forward_order, backward_order[::-1])


def test_forward_chain_reversal_same_distribution(rng):
    # The chain is undirected, so reading a session back to front must
    # classify identically (up to float addition order).
    model = init_model(TINY_DIMS, seed=4)
    graph = random_graphs(rng, 1, p=6, max_n=9)[0]
    flipped = ChainedGraph(graph.features[::-1].copy(), graph.label)
    a = forward(model, batch_graphs([graph])).probs
    b = forward(model, batch_graphs([flipped])).probs
    assert np.abs(a - b).max() <= 1e-6


def test_forward_rejects_wrong_feature_length(rng):
    model = init_model(TINY_DIMS, seed=0)
    graphs = random_graphs(rng, 2, p=9)
    with pytest.raises(DimsMismatch):
        forward(model, batch_graphs(graphs))


def test_forward_cache_holds_layer_intermediates(rng):
    model = init_model(TINY_DIMS, seed=0)
    batch = batch_graphs(random_graphs(rng, 3, p=6))
    cache = forward(model, batch)
    assert len(cache.hop_inputs) == 2
    assert cache.hop_inputs[0] is batch.features  # layer input, not S X
    assert cache.hop_inputs[1].shape == (batch.features.shape[0], 5)
    assert len(cache.pre_acts) == 2
    assert cache.pre_acts[0].shape == (batch.features.shape[0], 5)
    assert cache.pooled.shape == (3, 4)
    assert cache.pool_winners is None


def test_predict_probs_and_labels(rng, monkeypatch):
    model = init_model(TINY_DIMS, seed=0)
    graphs = random_graphs(rng, 10, p=6)
    monkeypatch.setattr(cgnn.model, "BATCH_GRAPHS", 3)
    probs = predict_probs(model, graphs)
    assert probs.shape == (10, 2)
    monkeypatch.setattr(cgnn.model, "BATCH_GRAPHS", 100)
    whole = predict_probs(model, graphs)
    assert np.abs(probs - whole).max() <= 1e-6


def test_predict_probs_empty_list():
    model = init_model(TINY_DIMS, seed=0)
    assert predict_probs(model, []).shape == (0, 2)


# --- checkpoints -------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = init_model(TINY_DIMS, seed=9)
    path = tmp_path / "model.cgm1"
    save_checkpoint(model, ["alpha", "beta"], path)
    raw = path.read_bytes()
    assert raw[:4] == CHECKPOINT_MAGIC
    restored = load_checkpoint(path)
    assert restored.label_names == ["alpha", "beta"]
    assert restored.model.dims == model.dims
    for mine, theirs in zip(model.params(), restored.model.params()):
        assert mine.tobytes() == theirs.tobytes()


def test_checkpoint_round_trip_all_poolings(tmp_path):
    for pooling in ("avg", "max", "sum"):
        dims = ModelDims(p=4, d1=3, d2=2, m=2, pooling=pooling,
                         standardize=True)
        model = init_model(dims, seed=0)
        path = tmp_path / f"{pooling}.cgm1"
        save_checkpoint(model, ["a", "b"], path)
        restored = load_checkpoint(path)
        assert restored.model.dims.pooling == pooling
        assert restored.model.dims.standardize is True


def test_checkpoint_rejects_bad_magic(tmp_path):
    with pytest.raises(BadMagic):
        parse_checkpoint(b"XXXX" + b"\x00" * 64)


def test_checkpoint_rejects_unknown_version(tmp_path):
    model = init_model(TINY_DIMS, seed=0)
    path = tmp_path / "model.cgm1"
    save_checkpoint(model, ["a", "b"], path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 2)
    with pytest.raises(VersionMismatch):
        parse_checkpoint(bytes(raw))


def test_checkpoint_rejects_truncation(tmp_path):
    model = init_model(TINY_DIMS, seed=0)
    path = tmp_path / "model.cgm1"
    save_checkpoint(model, ["a", "b"], path)
    raw = path.read_bytes()
    for cut in (8, len(raw) // 2, len(raw) - 1):
        with pytest.raises(CorruptLength):
            parse_checkpoint(raw[:cut])
    with pytest.raises(CorruptLength):
        parse_checkpoint(raw + b"\x01")


def test_save_checkpoint_rejects_wrong_name_count(tmp_path):
    model = init_model(TINY_DIMS, seed=0)
    with pytest.raises(DimsMismatch):
        save_checkpoint(model, ["only-one"], tmp_path / "model.cgm1")
