"""Model layers, forward pass against a dense oracle, and checkpoints."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

import cgnn.graph
import cgnn.model

from cgnn.dataset import load_dataset, save_dataset
from cgnn.errors import (ConfigError, CorruptFile, DimsMismatch,
                         NonFiniteInput)
from cgnn.graph import ChainPropagation, batch_graphs
from cgnn.model import (CHECKPOINT_MAGIC, CgnnModel, ModelDims,
                        bucket_product, bucket_transpose_product,
                        fc_softmax, forward, init_model, load_checkpoint,
                        parse_checkpoint, pool, predict_probs, relu,
                        save_checkpoint, sgc_layer)

from conftest import (batch_rows, bucket_widths, dense_propagation_oracle,
                      forward_with_pre_acts, graph_rows, graph_set,
                      random_graphs, traced_peak, zero_tailed_graphs)

TINY_DIMS = ModelDims(p=6, d1=5, d2=4, m=2)


def dense_forward_oracle(model: CgnnModel, graphs) -> np.ndarray:
    """Recompute the whole network with 64-bit dense matrices, one graph
    at a time: x = relu(S^k x theta) per layer, pool, softmax(y W + b)."""
    rows = []
    for i in range(len(graphs)):
        x = graph_rows(graphs, i).astype(np.float64) / 255.0
        s = dense_propagation_oracle(x.shape[0])
        for theta in model.thetas:
            x = np.maximum(np.linalg.matrix_power(s, model.dims.hops) @ x
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
    assert dims.param_shapes == [(6, 5), (5, 4), (4, 4), (4, 2), (2,)]


def test_dims_validation_errors():
    ModelDims(hops=0)  # S^0 = I: the bag-of-packets model
    for bad in ({"p": 0}, {"d1": 0}, {"d2": 0}, {"m": 1}, {"layers": 4},
                {"hops": -1}, {"pooling": "median"}):
        with pytest.raises(ConfigError):
            ModelDims(**bad)


def test_single_layer_ignores_d2():
    ModelDims(p=4, d1=3, d2=0, m=2, layers=1)


# --- activation and layers ---------------------------------------------------

def test_relu_basics():
    x = np.array([-2.0, -0.0, 0.0, 3.5])
    out = relu(x)
    assert out.tolist() == [0.0, 0.0, 0.0, 3.5]
    assert np.array_equal(relu(out), out)


def test_sgc_layer_single_vertex_is_plain_matmul():
    prop = ChainPropagation.for_batch([1])
    x = np.array([[1.0, 2.0]])
    theta = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert sgc_layer(prop, x, theta).tolist() == [[1.0, 2.0, 3.0]]


def test_sgc_layer_two_vertices_averages():
    prop = ChainPropagation.for_batch([2])
    x = np.array([[2.0, 0.0], [0.0, 2.0]])
    out = sgc_layer(prop, x, np.eye(2))
    assert out.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_sgc_layer_two_hops_matches_dense(rng):
    prop = ChainPropagation.for_batch([3])
    x = rng.standard_normal((3, 4))
    theta = rng.standard_normal((4, 2))
    expected = np.linalg.matrix_power(
        dense_propagation_oracle(3), 2) @ x @ theta
    assert np.abs(sgc_layer(prop, x, theta, k=2) - expected).max() <= 1e-12


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


# --- output layer ------------------------------------------------------------

def test_softmax_uniform_on_equal_logits():
    probs = fc_softmax(np.zeros((1, 4)), np.eye(4), np.zeros(4))
    assert probs.tolist() == [[0.25] * 4]


def test_fc_softmax_zero_everything_is_uniform():
    probs = fc_softmax(np.zeros((1, 3)), np.zeros((3, 2)), np.zeros(2))[0]
    assert probs.tolist() == [0.5, 0.5]
    assert probs.shape == (2,)


def test_fc_softmax_batch_keeps_rows():
    probs = fc_softmax(np.zeros((4, 3)), np.zeros((3, 2)), np.zeros(2))
    assert probs.shape == (4, 2)


def test_fc_softmax_stable_for_huge_logits():
    probs = fc_softmax(np.array([[1000.0]]), np.array([[1.0, 0.0]]),
                       np.zeros(2))[0]
    assert np.isfinite(probs).all()
    assert probs[0] == pytest.approx(1.0)
    assert probs.sum() == pytest.approx(1.0)


def test_fc_softmax_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        fc_softmax(np.array([[np.inf]]), np.array([[1.0, 0.0]]),
                   np.zeros(2))


# --- full forward pass -------------------------------------------------------

def test_forward_zero_features_uniform_output():
    dims = ModelDims(p=4, d1=3, d2=3, m=3)
    model = init_model(dims, seed=0)
    model.W[:] = 0
    model.b[:] = 0
    graphs = graph_set([np.zeros((1, 4), dtype=np.uint8)], [0])
    probs = forward(model, batch_graphs(graphs)).probs
    assert np.abs(probs - 1 / 3).max() <= 1e-7


def test_forward_matches_dense_oracle(rng):
    for pooling in ("avg", "max", "sum"):
        dims = ModelDims(p=6, d1=5, d2=4, m=3, pooling=pooling)
        model = init_model(dims, seed=3)
        graphs = random_graphs(rng, 8, p=6, num_classes=3)
        got = forward(model, batch_graphs(graphs)).probs
        expected = dense_forward_oracle(model, graphs)
        assert np.abs(got - expected).max() <= 1e-5


def test_forward_three_layers_two_hops_matches_oracle(rng):
    dims = ModelDims(p=6, d1=5, d2=4, m=2, layers=3, hops=2)
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
    graphs = random_graphs(rng, 1, p=6, max_n=9)
    flipped = graph_set([graph_rows(graphs, 0)[::-1]], graphs.labels)
    a = forward(model, batch_graphs(graphs)).probs
    b = forward(model, batch_graphs(flipped)).probs
    assert np.abs(a - b).max() <= 1e-6


def test_forward_rejects_wrong_feature_length(rng):
    model = init_model(TINY_DIMS, seed=0)
    graphs = random_graphs(rng, 2, p=9)
    with pytest.raises(DimsMismatch, match="batch has feature length 9"):
        forward(model, batch_graphs(graphs))


def test_forward_cache_holds_layer_intermediates(rng, monkeypatch):
    monkeypatch.setattr(cgnn.graph, "WIDTH_STEP", 8)
    model = init_model(ModelDims(p=27, d1=5, d2=4, m=2), seed=0)
    graphs = zero_tailed_graphs(rng, bucket_widths(27, 8), 27, count=3)
    batch = batch_graphs(graphs)
    n = batch.prop.n
    layer_inputs, sgc_layer = [], cgnn.model.sgc_layer
    monkeypatch.setattr(cgnn.model, "sgc_layer", lambda prop, x, *args:
                        layer_inputs.append(x) or sgc_layer(prop, x, *args))
    cache, pre_acts = forward_with_pre_acts(model, batch)
    # The first layer reads its input as uint8 buckets, widest first, one
    # per width bucket, that scatter back to the batch's bytes: not S X,
    # and no (rows, p) matrix. Cast, they are the bytes over 255.
    assert [x.shape[1] for _, x in batch.buckets] == [27, 8, 16, 24]
    assert all(x.shape[0] < n for _, x in batch.buckets)
    rows = np.concatenate([graph_rows(graphs, i) for i in range(len(graphs))])
    assert np.array_equal(batch_rows(batch), rows)  # each row in one bucket
    assert np.array_equal(bucket_product(batch, np.eye(27, dtype=np.float32)),
                          rows.astype(np.float32) / np.float32(255))
    assert len(cache.acts) == len(pre_acts) == 2
    assert cache.acts[0].shape == (n, 5)
    # Layer 2's input is layer 1's activation, one array held once.
    assert len(layer_inputs) == 1 and layer_inputs[0] is cache.acts[0]
    for act, pre_act in zip(cache.acts, pre_acts):
        assert np.array_equal(act, np.maximum(pre_act, 0))
    assert cache.pooled.shape == (3, 4)
    assert cache.pool_winners is None


@pytest.mark.parametrize("p", [1, 3, 255, 256, 257, 1500])
def test_bucketed_products_match_the_dense_ones(rng, monkeypatch, p):
    step = cgnn.graph.WIDTH_STEP
    graphs = zero_tailed_graphs(rng, bucket_widths(p, step) * 3, p)
    batch = batch_graphs(graphs)
    rows = np.concatenate([graph_rows(graphs, i) for i in range(len(graphs))])
    n, dense = rows.shape[0], rows.astype(np.float32) / np.float32(255)
    assert len(batch.buckets) == -(-p // step)  # every bucket is reached
    theta = rng.standard_normal((p, 7)).astype(np.float32)
    want = dense @ theta
    got = bucket_product(batch, theta)
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    g = rng.standard_normal((n, 7)).astype(np.float32)
    want = dense.T @ g
    for part_rows in (cgnn.model.PART_ROWS, 100):  # 100 cuts 256-byte edges
        monkeypatch.setattr(cgnn.model, "PART_ROWS", part_rows)
        got = bucket_transpose_product(batch, g)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_width_counts_every_nonzero_byte_of_a_row(monkeypatch):
    # A row's width must see a lone nonzero byte at any place, the
    # p mod 4 tail bytes included.
    monkeypatch.setattr(cgnn.graph, "WIDTH_STEP", 4)
    p = 11
    rows = np.zeros((p + 1, p), dtype=np.uint8)
    rows[np.arange(p), np.arange(p)] = 1  # row i ends at byte i + 1
    batch = batch_graphs(graph_set([rows], [0]))
    got = np.zeros(p + 1, dtype=int)
    for idx, bucket in batch.buckets:
        got[idx] = bucket.shape[1]
    assert got.tolist() == [4, 4, 4, 4, 8, 8, 8, 8, 11, 11, 11, 4]


def scanned_pieces(rows: np.ndarray, step: int):
    """The first layer's uint8 buckets as a scan of padded (N, p) rows
    finds them, the widest bucket first and the rest narrowest first: a
    row's width is the end of its last nonzero 4-byte word, or p when one
    of the p mod 4 tail bytes is nonzero."""
    n, p = rows.shape
    count = -(-p // step)
    bucket = np.full(n, count)
    if count > 1:
        words = p // 4
        nonzero = rows[:, :4 * words].view(np.uint32) != 0
        back = np.argmax(nonzero[:, ::-1], axis=1)
        width = 4 * (words - back)
        width[~nonzero[np.arange(n), words - 1 - back]] = 0
        if p % 4:
            width[rows[:, 4 * words:].any(axis=1)] = p
        bucket = np.clip(-(-width // step), 1, count)
    present = np.flatnonzero(np.bincount(bucket))
    pieces = []
    for k in np.roll(present, 1):
        idx = np.flatnonzero(bucket == k) if present.size > 1 else slice(None)
        pieces.append((idx, rows[idx, :min(int(k) * step, p)]))
    return pieces


@pytest.mark.parametrize("step", [4, 8, 256])
@pytest.mark.parametrize("p", [1, 3, 4, 255, 256, 257, 1500])
def test_pieces_from_stored_rows_equal_a_scan_of_padded_rows(
        rng, monkeypatch, p, step):
    monkeypatch.setattr(cgnn.graph, "WIDTH_STEP", step)
    widths = bucket_widths(p, step)
    graphs = zero_tailed_graphs(rng, widths * 2, p, count=6)
    for idx in (slice(None), rng.permutation(len(graphs))[:4]):
        batch = batch_graphs(graphs, idx)
        padded = np.concatenate([graph_rows(graphs, i)
                                 for i in np.arange(len(graphs))[idx]])
        got = batch.buckets
        want = scanned_pieces(padded, step)
        assert len(got) == len(want)
        for (got_idx, got_x), (want_idx, want_x) in zip(got, want):
            if isinstance(want_idx, slice):
                assert got_idx == want_idx
            else:
                assert got_idx.tolist() == want_idx.tolist()
            assert got_x.dtype == want_x.dtype == np.uint8
            assert got_x.flags.c_contiguous
            assert got_x.shape == want_x.shape
            assert got_x.tobytes() == want_x.tobytes()


def test_multi_bucket_graphs_score_alike_alone_and_in_one_block(rng,
                                                               monkeypatch):
    model = init_model(ModelDims(), seed=0)
    widths = bucket_widths(1500, cgnn.graph.WIDTH_STEP)
    graphs = zero_tailed_graphs(rng, widths * 8, 1500, count=30)
    alone = np.concatenate([forward(model, batch_graphs(graphs, [i])).probs
                            for i in range(len(graphs))])
    assert np.abs(alone - alone[::-1]).max() > 1e-2
    for rows in (1, 7, 10 ** 6):
        monkeypatch.setattr(cgnn.model, "BATCH_ROWS", rows)
        assert np.abs(predict_probs(model, graphs) - alone).max() <= 1e-5


def test_rows_stored_to_their_last_nonzero_byte_match_wider_ones(
        rng, tmp_path):
    """A set stored to each row's last nonzero byte, as older datasets
    were written, and the same rows stored wider: a saved and reloaded
    file expands to the same padded rows, and scores bit for bit alike
    while no row changes width bucket, within the block bound of
    test_multi_bucket_graphs_score_alike_alone_and_in_one_block when
    rows do."""
    p, step = 1500, cgnn.graph.WIDTH_STEP
    narrow = zero_tailed_graphs(rng, bucket_widths(p, step) * 8, p, count=30)
    rows = [graph_rows(narrow, i) for i in range(len(narrow))]
    width = narrow.packed()[1]
    bucket = np.maximum(-(-width // step), 1)
    same = np.minimum(bucket * step, p)  # the widest of each row's bucket
    other = rng.integers(width, p + 1)
    assert (same > width).any() and (-(-other // step) > bucket).any()
    model = init_model(ModelDims(), seed=0)
    probs = []
    for name, widths in [("narrow", None), ("same", same), ("other", other)]:
        path = tmp_path / f"{name}.cgd1"
        save_dataset([graph_set(rows, narrow.labels, p, widths)], path,
                     ["a", "b"], p)
        graphs = load_dataset(path).graphs
        assert [graph_rows(graphs, i).tobytes() for i in range(len(graphs))] \
            == [r.tobytes() for r in rows]
        probs.append(forward(model, batch_graphs(graphs)).probs)
    assert probs[1].tobytes() == probs[0].tobytes()
    assert np.abs(probs[2] - probs[0]).max() <= 1e-5


def test_forward_repeats_bit_for_bit_across_buckets(rng):
    model = init_model(ModelDims(), seed=1)
    batch = batch_graphs(zero_tailed_graphs(
        rng, bucket_widths(1500, cgnn.graph.WIDTH_STEP) * 4, 1500, count=12))
    first, second = forward(model, batch), forward(model, batch)
    assert first.probs.tobytes() == second.probs.tobytes()
    for a, b in zip(first.acts, second.acts):
        assert a.tobytes() == b.tobytes()


def test_predict_probs_and_labels(rng, monkeypatch):
    model = init_model(TINY_DIMS, seed=0)
    graphs = random_graphs(rng, 10, p=6)
    monkeypatch.setattr(cgnn.model, "BATCH_ROWS", 12)
    probs = predict_probs(model, graphs)
    assert probs.shape == (10, 2)
    monkeypatch.setattr(cgnn.model, "BATCH_ROWS", 10 ** 6)
    whole = predict_probs(model, graphs)
    assert np.abs(probs - whole).max() <= 1e-6


def test_predict_probs_runs_each_batch_through_forward(rng, monkeypatch):
    model = init_model(TINY_DIMS, seed=0)
    graphs = random_graphs(rng, 10, p=6)
    caches = []

    def keeping_forward(*args, **kwargs):
        caches.append(forward(*args, **kwargs))
        return caches[-1]

    monkeypatch.setattr(cgnn.model, "forward", keeping_forward)
    probs = predict_probs(model, graphs)
    assert len(caches) == 1
    assert np.array_equal(probs,
                          forward(model, batch_graphs(graphs)).probs)


def test_predict_probs_holds_one_bucket_piece_at_a_time(rng):
    """Full batches whose rows reach every width bucket: the peak is the
    batch's first-layer product and its propagation beside the batch's
    uint8 width buckets, 2.19-2.44 (rows, d1) float32 arrays over 8
    seeds and every pooling (2.13-2.38 when a batch held its packed rows
    and each pass gathered a bucket at a time). Keeping every bucket's
    float piece alive through the propagation took it to 3.7."""
    dims = ModelDims()
    model = init_model(dims, seed=0)
    widths = list(range(1, dims.p + 1, 10))
    graphs = zero_tailed_graphs(rng, widths * 14, dims.p, count=16)
    assert graphs.lengths.sum() >= 2 * cgnn.model.BATCH_ROWS
    probs, peak = traced_peak(lambda: predict_probs(model, graphs))
    assert probs.shape == (16, dims.m)
    assert peak <= 2.6 * cgnn.model.BATCH_ROWS * dims.d1 * 4


def test_predict_probs_does_not_depend_on_block_size(rng, monkeypatch):
    # Default dims. Bytes over 255 keep the softmax off its rails and
    # each graph gets its own byte range, so rows of different graphs
    # differ and a reordering would show.
    model = init_model(ModelDims(), seed=0)
    features = [rng.integers(0, 1 + int(rng.integers(256)), (n, 1500))
                .astype(np.uint8) for n in rng.integers(1, 300, size=60)]
    graphs = graph_set(features, [0] * len(features))
    assert graphs.lengths.sum() > 3 * cgnn.model.BATCH_ROWS
    alone = np.concatenate([forward(model, batch_graphs(graphs, [i])).probs
                            for i in range(len(graphs))])
    assert np.abs(alone - alone[::-1]).max() > 1e-2
    for rows in (1, 97, cgnn.model.BATCH_ROWS, 10 ** 6):
        monkeypatch.setattr(cgnn.model, "BATCH_ROWS", rows)
        assert np.abs(predict_probs(model, graphs) - alone).max() <= 1e-5


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
        dims = ModelDims(p=4, d1=3, d2=2, m=2, pooling=pooling)
        model = init_model(dims, seed=0)
        path = tmp_path / f"{pooling}.cgm1"
        save_checkpoint(model, ["a", "b"], path)
        restored = load_checkpoint(path)
        assert restored.model.dims.pooling == pooling


def test_checkpoint_rejects_bad_magic(tmp_path):
    with pytest.raises(CorruptFile, match="bad magic"):
        parse_checkpoint(b"XXXX" + b"\x00" * 64)


def test_checkpoint_rejects_unknown_version(tmp_path):
    model = init_model(TINY_DIMS, seed=0)
    path = tmp_path / "model.cgm1"
    save_checkpoint(model, ["a", "b"], path)
    raw = bytearray(path.read_bytes())
    for version in (4, 6):
        struct.pack_into("<I", raw, 4, version)
        with pytest.raises(CorruptFile, match=f"checkpoint version {version}, "
                                              f"this build reads 5"):
            parse_checkpoint(bytes(raw))


def test_checkpoint_rejects_truncation(tmp_path):
    model = init_model(TINY_DIMS, seed=0)
    path = tmp_path / "model.cgm1"
    save_checkpoint(model, ["a", "b"], path)
    raw = path.read_bytes()
    for cut in (8, len(raw) // 2, len(raw) - 1):
        with pytest.raises(CorruptFile, match=r"need \d+ bytes at offset"):
            parse_checkpoint(raw[:cut])
    with pytest.raises(CorruptFile, match="1 trailing bytes"):
        parse_checkpoint(raw + b"\x01")


def test_checkpoint_rejects_dimensions_that_fail_validation(tmp_path):
    # The checkpoint's dims are the one check of p and pooling on the
    # paths of evaluate and predict: ingest and pooling trust them.
    # Invalid dims cannot be built, so a valid checkpoint's header is
    # patched: magic and version, six u32 fields (p first), then the
    # pooling name as a u32 length and its bytes.
    path = tmp_path / "model.cgm1"
    save_checkpoint(init_model(ModelDims(p=4, d1=3, d2=2), seed=0),
                    ["a", "b"], path)
    raw = path.read_bytes()
    assert raw[32:39] == struct.pack("<I", 3) + b"avg"
    for offset, patch in ((8, struct.pack("<I", 0)), (36, b"med")):
        bad = raw[:offset] + patch + raw[offset + len(patch):]
        with pytest.raises(CorruptFile, match="checkpoint dimensions invalid"):
            parse_checkpoint(bad)


def test_save_checkpoint_rejects_wrong_name_count(tmp_path):
    model = init_model(TINY_DIMS, seed=0)
    with pytest.raises(DimsMismatch, match="1 label names for 2 classes"):
        save_checkpoint(model, ["only-one"], tmp_path / "model.cgm1")
