"""Loss, hand-derived gradients against finite differences, Adam, and fit."""

from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest

import cgnn.graph
import cgnn.model
import cgnn.train
from cgnn.errors import (ConfigError, DimsMismatch, EmptyDataset,
                         NonFiniteInput)
from cgnn.graph import (ChainPropagation, GraphSet, batch_graphs,
                        split_dataset)
from cgnn.model import (POOLING_KINDS, CgnnModel, ModelDims, forward,
                        init_model, predict_probs)
from cgnn.preprocess import graphs_from_records
from cgnn.train import (AdamState, TrainConfig, adam_step, backward,
                        cross_entropy, evaluate, fit)

from conftest import (IP_A, IP_B, bucket_widths, forward_with_pre_acts,
                      graph_rows, graph_set, pcap_bytes, random_graphs,
                      tcp_frame, traced_peak, zero_tailed_graphs)

TINY_DIMS = ModelDims(p=6, d1=5, d2=4, m=2)


def float64_model(dims: ModelDims, seed: int = 0) -> CgnnModel:
    """Same weights as init_model, widened so finite differences are clean."""
    base = init_model(dims, seed=seed)
    return CgnnModel(dims=dims,
                     thetas=tuple(t.astype(np.float64) for t in base.thetas),
                     W=base.W.astype(np.float64),
                     b=base.b.astype(np.float64))


def numeric_gradient(model: CgnnModel, batch, param: np.ndarray,
                     h: float = 1e-4) -> np.ndarray:
    """Central finite differences of the batch loss over one parameter."""
    grad = np.zeros_like(param)
    flat, gflat = param.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        hi = cross_entropy(forward(model, batch).probs, batch.labels)
        flat[i] = saved - h
        lo = cross_entropy(forward(model, batch).probs, batch.labels)
        flat[i] = saved
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / scale).max())


def smooth_case(dims: ModelDims, seed: int, rng, margin: float = 1e-3,
                draw=random_graphs):
    """Draw weights and a batch (of draw(rng, 4, p, num_classes)) that
    sit away from relu and max-pool kinks, so that central differences
    measure the true derivative.

    A perturbation of 1e-4 moves any pre-activation by well under the
    margin, so no activation changes side during the check. Rejected
    draws are redrawn with fresh weights and data.
    """
    for attempt in range(50):
        model = float64_model(dims, seed=seed + attempt * 101)
        batch = batch_graphs(draw(rng, 4, dims.p, dims.m))
        cache, pre_acts = forward_with_pre_acts(model, batch)
        if min(np.abs(pa).min() for pa in pre_acts) < margin:
            continue
        if dims.pooling == "max" and _max_pool_near_tie(batch, cache, margin):
            continue
        return model, batch, cache
    raise AssertionError("no kink-free draw found")


def _max_pool_near_tie(batch, cache, margin: float) -> bool:
    x = cache.acts[-1]
    for g in range(batch.size):
        rows = x[batch.offsets[g]:batch.offsets[g + 1]]
        if rows.shape[0] < 2:
            continue
        second, top = np.sort(rows, axis=0)[-2:]
        # A positive winner chased closely by another positive value
        # would let the perturbation swap them mid-measurement.
        if np.any((top > 0) & (top - second < margin)):
            return True
    return False


def check_gradients(dims: ModelDims, seed: int, rng,
                    draw=random_graphs) -> float:
    model, batch, cache = smooth_case(dims, seed, rng, draw=draw)
    analytic = backward(model, batch, cache)
    worst = 0.0
    for param, grad in zip(model.params(), analytic):
        worst = max(worst, max_rel_error(grad, numeric_gradient(
            model, batch, param)))
    return worst


# --- cross entropy -----------------------------------------------------------

def test_cross_entropy_coin_flip_is_ln_two():
    loss = cross_entropy(np.array([[0.5, 0.5]]), np.array([0]))
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_cross_entropy_perfect_prediction_is_zero():
    assert cross_entropy(np.array([[1.0, 0.0]]), np.array([0])) == 0.0


def test_cross_entropy_averages_over_rows():
    probs = np.array([[0.5, 0.5], [1.0, 0.0]])
    loss = cross_entropy(probs, np.array([0, 0]))
    assert loss == pytest.approx(math.log(2) / 2, abs=1e-12)


def test_cross_entropy_floors_impossible_events():
    loss = cross_entropy(np.array([[0.0, 1.0]]), np.array([0]))
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-9)


# --- gradients ---------------------------------------------------------------

def test_zero_features_give_known_bias_gradient():
    dims = ModelDims(p=4, d1=3, d2=3, m=2)
    model = init_model(dims, seed=0)
    batch = batch_graphs(graph_set([np.zeros((2, 4), dtype=np.uint8)], [0]))
    grads = backward(model, batch, forward(model, batch))
    # Zero input leaves the logits at b = 0, so probabilities are uniform
    # and only the bias sees gradient: (P - onehot) summed over the batch.
    assert np.abs(grads[-1] - np.array([-0.5, 0.5])).max() <= 1e-7
    for grad in grads[:-1]:
        assert np.abs(grad).max() == 0.0


def test_gradient_shapes_and_dtypes_match_params(rng):
    model = init_model(TINY_DIMS, seed=0)
    batch = batch_graphs(random_graphs(rng, 5, p=6))
    grads = backward(model, batch, forward(model, batch))
    params = model.params()
    assert len(grads) == len(params)
    for grad, param in zip(grads, params):
        assert grad.shape == param.shape
        assert grad.dtype == param.dtype


def test_gradients_match_finite_differences(rng):
    worst = check_gradients(TINY_DIMS, seed=0, rng=rng)
    assert worst <= 1e-4


def test_gradients_match_for_all_poolings(rng):
    for pooling in ("avg", "max", "sum"):
        dims = ModelDims(p=6, d1=5, d2=4, m=2, pooling=pooling)
        assert check_gradients(dims, seed=1, rng=rng) <= 1e-4, pooling


def test_gradients_match_for_layer_counts_and_hops(rng):
    for layers, hops in ((1, 1), (2, 2), (3, 1), (1, 0), (2, 0)):
        dims = ModelDims(p=6, d1=5, d2=4, m=3, layers=layers, hops=hops)
        assert check_gradients(dims, seed=2, rng=rng) <= 1e-4, (layers, hops)


def test_gradients_match_across_width_buckets(rng, monkeypatch):
    # Rows end at 0, at each bucket edge, one past it, and at p, where p
    # is not a multiple of the 4-byte word the width scan reads.
    monkeypatch.setattr(cgnn.graph, "WIDTH_STEP", 8)
    widths = bucket_widths(27, 8)
    assert widths == [0, 8, 9, 16, 17, 24, 25, 27]

    def draw(rng, count, p, num_classes):
        return zero_tailed_graphs(rng, widths, p, count, num_classes)

    for pooling in POOLING_KINDS:
        dims = ModelDims(p=27, d1=5, d2=4, m=2, pooling=pooling)
        assert check_gradients(dims, seed=3, rng=rng, draw=draw) <= 1e-4, \
            pooling


def spy_propagation(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Record (input, output) of every ChainPropagation.apply call."""
    calls = []
    apply = ChainPropagation.apply

    def spy(self, x, hops=1):
        out = apply(self, x, hops)
        calls.append((x, out))
        return out

    monkeypatch.setattr(ChainPropagation, "apply", spy)
    return calls


def test_propagation_runs_at_hidden_widths_only(rng, monkeypatch):
    # Every layer projects before it propagates, so neither pass ever
    # propagates a (rows, p) matrix.
    dims = ModelDims()
    model = init_model(dims, seed=0)
    batch = batch_graphs(random_graphs(rng, 3, p=dims.p))
    calls = spy_propagation(monkeypatch)
    backward(model, batch, forward(model, batch))
    assert [x.shape[1] for x, _ in calls] == [dims.d1, dims.d2, dims.d2,
                                              dims.d1]


def test_training_step_holds_only_what_backward_still_reads(rng):
    """A step over ~1,000 rows that reach every width bucket, at default
    dims; the batch, its uint8 width buckets included, is built before
    the trace. ReLU runs in place, backward drops each cached array once
    read, and it casts the batch's buckets one at a time, as forward
    does, so the peak is g, the p x d1 gradient and one float piece:
    3.60-3.71 (rows, d1) float32 arrays over 8 seeds and every pooling.
    Gathering every bucket's bytes again in backward read 3.64-3.76;
    holding every float piece from forward to backward read 4.7-4.8;
    keeping each pre-activation beside its activation, and the whole
    cache until backward returned, read 9.4."""
    dims = ModelDims()
    model = init_model(dims, seed=0)
    widths = bucket_widths(dims.p, cgnn.graph.WIDTH_STEP)
    widths += rng.integers(1, dims.p + 1, size=1000).tolist()
    batch = batch_graphs(zero_tailed_graphs(rng, widths, dims.p, count=32))
    grads, peak = traced_peak(
        lambda: backward(model, batch, forward(model, batch)))
    assert [g.shape for g in grads] == dims.param_shapes
    assert peak <= 4.3 * batch.prop.n * dims.d1 * 4


def test_a_training_step_gathers_each_batch_once(rng, monkeypatch):
    # batch_graphs gathers a batch's bytes into its width buckets; forward
    # and backward only cast them, so neither pass gathers again.
    gathers, built = [], []
    window = cgnn.graph.sliding_window_view

    def counting_window(*args, **kwargs):
        gathers.append(args[0].size)
        return window(*args, **kwargs)

    def counting_batch(*args):
        built.append(len(gathers))
        return batch_graphs(*args)

    monkeypatch.setattr(cgnn.graph, "sliding_window_view", counting_window)
    monkeypatch.setattr(cgnn.graph, "WIDTH_STEP", 8)
    dims = ModelDims(p=27, d1=5, d2=4, m=2)
    model = init_model(dims, seed=0)
    graphs = zero_tailed_graphs(rng, bucket_widths(27, 8) * 4, 27, count=12)
    batch = batch_graphs(graphs)
    assert len(gathers) == 1
    backward(model, batch, forward(model, batch))
    assert len(gathers) == 1
    for module in (cgnn.train, cgnn.model):  # fit's batches, and evaluate's
        monkeypatch.setattr(module, "batch_graphs", counting_batch)
    fit(graphs[:8], graphs[8:], dims, TrainConfig(batch_size=3, max_epochs=2))
    assert built == list(range(1, 9))  # 3 + 1 per epoch, and each gathered
    assert len(gathers) == 9


def test_gradient_scale_is_exact_in_float64(rng, monkeypatch):
    # Scaling by a power of two and back changes no bit of the result.
    for pooling in POOLING_KINDS:
        for layers in (1, 3):
            dims = ModelDims(p=6, d1=5, d2=4, m=3, layers=layers,
                             pooling=pooling)
            model = float64_model(dims, seed=layers)
            batch = batch_graphs(random_graphs(rng, 5, p=6, num_classes=3))
            scaled = backward(model, batch, forward(model, batch))
            monkeypatch.setattr(cgnn.train, "GRAD_SCALE", 1.0)
            plain = backward(model, batch, forward(model, batch))
            monkeypatch.undo()
            for a, b in zip(scaled, plain):
                assert a.tobytes() == b.tobytes(), (pooling, layers)


def test_saturated_float32_batch_keeps_backward_operands_normal(monkeypatch):
    # A first layer scaled by 255 gives, up to rounding, the
    # pre-activations of undivided bytes (the layers are bias-free ReLU),
    # which saturate the softmax at the default hidden widths; the tiny
    # (P - Y) / G values of well-classified rows must neither reach the
    # backward matrix products as subnormals nor spoil the gradients.
    dims = ModelDims(p=64)
    model = init_model(dims, seed=0)
    model.thetas[0][:] *= 255
    batch = batch_graphs(random_graphs(np.random.default_rng(0), 8, p=64))
    cache = forward(model, batch)
    assert cache.probs.min() < 1e-40
    calls = spy_propagation(monkeypatch)
    grads = backward(model, batch, cache)
    tiny = np.finfo(np.float32).tiny
    for x, out in calls:
        for operand in (x, out):
            assert not ((operand != 0) & (np.abs(operand) < tiny)).any()
    for grad in grads:
        assert grad.dtype == np.float32
        assert np.isfinite(grad).all()


def test_gradient_step_reduces_loss(rng):
    # A small plain step against the gradient must lower the batch loss.
    for seed in range(10):
        model = float64_model(TINY_DIMS, seed=seed)
        graphs = random_graphs(rng, 6, p=6)
        batch = batch_graphs(graphs)
        cache = forward(model, batch)
        before = cross_entropy(cache.probs, batch.labels)
        for param, grad in zip(model.params(), backward(model, batch, cache)):
            param -= 1e-5 * grad
        after = cross_entropy(forward(model, batch).probs, batch.labels)
        assert after < before


# --- Adam --------------------------------------------------------------------

def test_adam_first_step_is_signed_learning_rate():
    dims = ModelDims(p=2, d1=2, d2=2, m=2)
    model = float64_model(dims, seed=0)
    start = [p.copy() for p in model.params()]
    rng = np.random.default_rng(5)
    grads = [rng.standard_normal(p.shape) for p in model.params()]
    state = AdamState.for_model(model)
    adam_step(model, [g.copy() for g in grads], state, lr=1e-3)
    # With zero moments, one update reduces to lr * g / (|g| + eps).
    for before, after, grad in zip(start, model.params(), grads):
        expected = before - 1e-3 * grad / (np.abs(grad) + 1e-8)
        assert np.abs(after - expected).max() <= 1e-15


def test_adam_zero_gradient_changes_nothing():
    model = float64_model(ModelDims(p=2, d1=2, d2=2, m=2), seed=0)
    start = [p.copy() for p in model.params()]
    state = AdamState.for_model(model)
    adam_step(model, [np.zeros_like(p) for p in model.params()], state)
    for before, after in zip(start, model.params()):
        assert np.array_equal(before, after)


def test_adam_matches_reference_over_many_steps():
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    model = float64_model(ModelDims(p=3, d1=2, d2=2, m=2), seed=1)
    reference = [p.copy() for p in model.params()]
    m = [np.zeros_like(p) for p in reference]
    v = [np.zeros_like(p) for p in reference]
    state = AdamState.for_model(model)
    rng = np.random.default_rng(8)
    for t in range(1, 6):
        grads = [rng.standard_normal(p.shape) for p in reference]
        adam_step(model, [g.copy() for g in grads], state, lr=lr)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat = m[i] / (1 - b1 ** t)
            v_hat = v[i] / (1 - b2 ** t)
            reference[i] = reference[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    # state holds the moment sums: the moments over (1 - b1) and (1 - b2)
    for mine, ref in zip([*model.params(), *state.m, *state.v],
                         [*reference, *(mi / (1 - b1) for mi in m),
                          *(vi / (1 - b2) for vi in v)]):
        assert np.abs(mine - ref).max() <= 1e-12


def test_adam_chunk_size_changes_no_bit(monkeypatch):
    dims = ModelDims(p=40, d1=30, d2=20, m=3)
    rng = np.random.default_rng(9)
    grads = [[rng.standard_normal(p.shape).astype(np.float32)
              for p in init_model(dims).params()] for _ in range(3)]
    results = []
    for chunk in (7, 10 ** 6):  # 7 splits every matrix; 10**6 nothing
        monkeypatch.setattr(cgnn.train, "ADAM_CHUNK", chunk)
        model = init_model(dims, seed=2)
        state = AdamState.for_model(model)
        for step_grads in grads:
            adam_step(model, [g.copy() for g in step_grads], state)
        results.append([a.tobytes() for a in
                        [*model.params(), *state.m, *state.v]])
    assert max(p.size for p in init_model(dims).params()) < 10 ** 6
    assert results[0] == results[1]


def test_adam_step_allocates_less_than_one_chunk():
    # Each gradient chunk is the update's scratch, so a step allocates
    # nothing the size of a parameter, nor a chunk-sized scratch array.
    model = init_model(ModelDims(), seed=0)
    state = AdamState.for_model(model)
    rng = np.random.default_rng(3)
    grads = [rng.standard_normal(p.shape).astype(np.float32)
             for p in model.params()]
    assert max(p.size for p in model.params()) > cgnn.train.ADAM_CHUNK
    _, peak = traced_peak(lambda: adam_step(model, grads, state))
    assert peak < cgnn.train.ADAM_CHUNK * 4


def test_train_config_validation():
    TrainConfig()
    for bad in ({"lr": 0}, {"lr": math.nan}, {"lr": math.inf},
                {"batch_size": 0}, {"max_epochs": -1}, {"patience": 0}):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


# --- fit ---------------------------------------------------------------------

def two_pattern_graphs(rng, count: int, p: int = 16):
    """Trivially separable corpus: one class all 0x11, the other all 0xEE."""
    features = []
    for i in range(count):
        n = int(rng.integers(3, 9))
        fill = 0x11 if i % 2 == 0 else 0xEE
        features.append(np.full((n, p), fill, dtype=np.uint8))
    return graph_set(features, [i % 2 for i in range(count)])


def flipped_labels(graphs):
    """The same graphs with labels 0 and 1 swapped."""
    return dataclasses.replace(graphs, labels=1 - graphs.labels)


def test_fit_learns_separable_data(rng):
    graphs = two_pattern_graphs(rng, 40)
    dims = ModelDims(p=16, d1=8, d2=8, m=2)
    config = TrainConfig(lr=0.01, batch_size=8, max_epochs=60, patience=60,
                         seed=0)
    model, report = fit(graphs[:32], graphs[32:], dims, config)
    _, train_acc = evaluate(model, graphs[:32])
    assert train_acc == 1.0
    assert report.val_accuracies[-1] == 1.0
    assert report.train_losses[0] > report.train_losses[-1]


def test_fit_is_deterministic(rng):
    graphs = two_pattern_graphs(rng, 20)
    dims = ModelDims(p=16, d1=6, d2=4, m=2)
    config = TrainConfig(lr=0.01, batch_size=4, max_epochs=8, patience=8,
                         seed=3)
    model_a, report_a = fit(graphs[:16], graphs[16:], dims, config)
    model_b, report_b = fit(graphs[:16], graphs[16:], dims, config)
    for x, y in zip(model_a.params(), model_b.params()):
        assert x.tobytes() == y.tobytes()
    assert report_a.train_losses == report_b.train_losses
    assert report_a.val_losses == report_b.val_losses
    assert report_a.best_epoch == report_b.best_epoch


def test_fit_trains_a_batch_smaller_than_batch_size(rng):
    graphs = two_pattern_graphs(rng, 8)
    dims = ModelDims(p=16, d1=6, d2=4, m=2)
    config = TrainConfig(lr=0.01, batch_size=32, max_epochs=10, patience=10,
                         seed=0)
    _, report = fit(graphs[:6], graphs[6:], dims, config)
    assert report.train_losses[-1] < report.train_losses[0]


def test_fit_stops_after_patience_epochs_without_improvement(rng):
    # Validation labels contradict the training labels, so validation
    # loss rises as soon as the model starts fitting the training set.
    train = two_pattern_graphs(rng, 16)
    valid = flipped_labels(two_pattern_graphs(rng, 6))
    dims = ModelDims(p=16, d1=6, d2=4, m=2)
    config = TrainConfig(lr=0.02, batch_size=4, max_epochs=50, patience=1,
                         seed=0)
    model, report = fit(train, valid, dims, config)
    assert report.epochs_run == 2
    assert report.best_epoch == 1
    assert report.val_losses[1] >= report.val_losses[0]


def test_fit_returns_weights_of_the_best_epoch(rng):
    train = two_pattern_graphs(rng, 16)
    valid = flipped_labels(two_pattern_graphs(rng, 6))
    dims = ModelDims(p=16, d1=6, d2=4, m=2)
    config = TrainConfig(lr=0.02, batch_size=4, max_epochs=50, patience=3,
                         seed=0)
    model, report = fit(train, valid, dims, config)
    assert report.best_val_loss == min(report.val_losses)
    assert report.best_epoch == report.val_losses.index(
        report.best_val_loss) + 1
    returned_loss, _ = evaluate(model, valid)
    assert abs(returned_loss - report.best_val_loss) <= 1e-12


def test_fit_zero_epochs_returns_initial_weights(rng):
    graphs = two_pattern_graphs(rng, 10)
    dims = ModelDims(p=16, d1=6, d2=4, m=2)
    config = TrainConfig(max_epochs=0, seed=7)
    model, report = fit(graphs[:8], graphs[8:], dims, config)
    fresh = init_model(dims, seed=7)
    for mine, theirs in zip(model.params(), fresh.params()):
        assert mine.tobytes() == theirs.tobytes()
    assert report.epochs_run == 0
    assert report.best_epoch == 0
    assert report.train_losses == []


def test_fit_logs_one_line_per_epoch(rng):
    graphs = two_pattern_graphs(rng, 10)
    dims = ModelDims(p=16, d1=6, d2=4, m=2)
    lines = []
    fit(graphs[:8], graphs[8:], dims,
        TrainConfig(max_epochs=3, patience=3, seed=0), log=lines.append)
    assert len(lines) == 3
    assert lines[0].startswith("epoch 1:")
    assert "validation loss" in lines[0]


def test_fit_input_validation(rng):
    graphs = two_pattern_graphs(rng, 10)
    dims = ModelDims(p=16, d1=6, d2=4, m=2)
    with pytest.raises(EmptyDataset, match="cannot train on zero graphs"):
        fit(graphs[:0], graphs[:2], dims, TrainConfig(max_epochs=1))
    with pytest.raises(EmptyDataset, match="non-empty validation split"):
        fit(graphs[:8], graphs[:0], dims, TrainConfig(max_epochs=1))
    bad = dataclasses.replace(graphs[:1], labels=np.array([5]))
    with pytest.raises(DimsMismatch, match="graphs carry label 5"):
        fit(bad, graphs[:2], dims, TrainConfig(max_epochs=1))
    with pytest.raises(ConfigError):
        fit(graphs[:8], graphs[8:], dims, TrainConfig(lr=-1.0))


def test_negative_seed_is_refused_by_the_config_and_by_fit(rng):
    with pytest.raises(ConfigError, match="^seeds cannot be negative$"):
        TrainConfig(seed=-1)
    graphs = two_pattern_graphs(rng, 10)
    with pytest.raises(ConfigError, match="^seeds cannot be negative$"):
        fit(graphs[:8], graphs[8:], ModelDims(p=16, d1=6, d2=4, m=2),
            TrainConfig(seed=-1))


def test_fit_raises_on_exploding_loss(rng):
    graphs = random_graphs(rng, 8, p=6)
    dims = ModelDims(p=6, d1=5, d2=4, m=2)
    config = TrainConfig(lr=1e18, batch_size=4, max_epochs=5, seed=0)
    with pytest.raises(NonFiniteInput,
                       match="classifier logits are not finite"):
        fit(graphs[:6], graphs[6:], dims, config)


# --- evaluate and predict ----------------------------------------------------

def test_evaluate_uniform_model(rng):
    dims = ModelDims(p=4, d1=3, d2=3, m=2)
    model = init_model(dims, seed=0)
    model.W[:] = 0
    model.b[:] = 0
    graphs = graph_set([np.zeros((1, 4), np.uint8)] * 4, [0, 0, 1, 1])
    loss, acc = evaluate(model, graphs)
    assert loss == pytest.approx(math.log(2), abs=1e-6)
    assert acc == 0.5  # uniform rows tie, argmax picks class 0


def test_predict_breaks_ties_toward_lowest_class():
    dims = ModelDims(p=4, d1=3, d2=3, m=3)
    model = init_model(dims, seed=0)
    model.W[:] = 0
    model.b[:] = 0
    graphs = graph_set([np.zeros((2, 4), np.uint8)], [1])
    probs = predict_probs(model, graphs)
    assert probs.shape == (1, 3)
    assert probs.argmax(axis=1).tolist() == [0]


def test_predict_numbers_graphs_across_batches(rng, monkeypatch):
    model = init_model(TINY_DIMS, seed=0)
    graphs = random_graphs(rng, 7, p=6)
    features = [graph_rows(graphs, i) for i in range(7)]
    features.insert(5, np.full((15, 6), 7, np.uint8))
    graphs = graph_set(features, [0] * 8)  # predict reads no label
    batches = []

    def counting_batch(chosen, idx):
        batches.append(chosen.lengths[idx].tolist())
        return batch_graphs(chosen, idx)

    monkeypatch.setattr(cgnn.model, "BATCH_ROWS", 12)
    monkeypatch.setattr(cgnn.model, "batch_graphs", counting_batch)
    probs = predict_probs(model, graphs)
    monkeypatch.undo()
    # Batches keep graph order, hold at most 12 rows (a longer graph goes
    # alone), and close only when the next graph would pass that limit.
    assert [n for sizes in batches for n in sizes] == graphs.lengths.tolist()
    assert len(batches) > 2
    for sizes, following in zip(batches, batches[1:] + [None]):
        assert sum(sizes) <= 12 or len(sizes) == 1
        if following is not None:
            assert sum(sizes) + following[0] > 12
    labels = probs.argmax(axis=1)
    for graph_id in range(len(graphs)):
        alone = predict_probs(model, graphs[graph_id:graph_id + 1])[0]
        assert np.abs(probs[graph_id] - alone).max() <= 1e-6
        assert labels[graph_id] == alone.argmax()


def order_planted_graphs(seed: int, count: int = 400, p: int = 64):
    """Two classes with the same packets in another order: class 0
    alternates A B A B..., class 1 sends all its A before all its B.
    A and B are drawn once for the whole set, so a model that sees each
    graph as a bag of packets finds the same bag in both classes."""
    rng = np.random.default_rng(seed)
    packets = rng.integers(0, 256, size=(2, p), dtype=np.uint8)  # A, B
    features, labels = [], []
    for i in range(count):
        half = int(rng.integers(3, 9))  # 6 to 16 vertices
        label = i % 2
        order = np.repeat([0, 1], half) if label else np.tile([0, 1], half)
        features.append(packets[order])
        labels.append(label)
    return graph_set(features, labels)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_chain_reads_packet_order_a_bag_of_packets_cannot(seed):
    # The paper's claim that chaining packets keeps their order: one hop
    # along the chain separates the classes, and S^0 = I (no edges)
    # leaves both classes the same pooled vector, so chance is its ceiling.
    graphs = order_planted_graphs(seed)
    train_idx, valid_idx, test_idx = split_dataset(graphs, seed=seed)
    accuracy = {}
    for hops in (1, 0):
        dims = ModelDims(p=64, d1=32, d2=16, m=2, hops=hops,
                         pooling="avg")
        model, _ = fit(graphs[train_idx], graphs[valid_idx], dims,
                       TrainConfig(max_epochs=60, patience=10, seed=seed))
        _, accuracy[hops] = evaluate(model, graphs[test_idx])
    assert accuracy[1] >= 0.95 and accuracy[0] <= 0.65, accuracy


ORDER_MOTIFS = ("CSCSCSCS", "CCCCSSSS", "CCSSCCSS", "CCSSSSCC")
SERVER_PORTS = (443, 993, 5222, 8080, 8443, 9000)


def order_only_capture(rng, motif: str, sessions: int) -> bytes:
    """A capture of TCP sessions that each send motif once or twice: C a
    client packet of 40-160 payload bytes, S a server packet of 900-1400.
    Server ports come from one pool shared by every motif, client ports
    are ephemeral, and payloads are random bytes; sequence numbers, IP
    IDs and TTLs are the frame builders' fixed values."""
    frames = []
    clients = rng.choice(np.arange(49152, 65536), sessions, replace=False)
    for client in clients.tolist():
        server = int(rng.choice(SERVER_PORTS))
        for side in motif * int(rng.integers(1, 3)):
            if side == "C":
                frames.append(tcp_frame(
                    rng.bytes(int(rng.integers(40, 161))), sport=client,
                    dport=server, src=IP_A, dst=IP_B))
            else:
                frames.append(tcp_frame(
                    rng.bytes(int(rng.integers(900, 1401))), sport=server,
                    dport=client, src=IP_B, dst=IP_A))
    return pcap_bytes(frames)


def order_only_graphs(seed: int, sessions: int = 100, p: int = 64):
    """One class per motif, ingested from its capture. Every motif holds
    four client and four server packets, so only their order differs."""
    rng = np.random.default_rng(seed)
    parts = [graphs_from_records(
        io.BytesIO(order_only_capture(rng, motif, sessions)), label, p)[0]
        for label, motif in enumerate(ORDER_MOTIFS)]
    rows, widths = zip(*(part.packed() for part in parts))
    return GraphSet.from_widths(
        np.concatenate(rows), p, np.concatenate(widths),
        np.concatenate([part.lengths for part in parts]),
        np.concatenate([part.labels for part in parts]))


@pytest.mark.parametrize("seed", [1, 2])
def test_an_order_only_capture_needs_the_chain(seed):
    # Through the real ingest path: with hops = 0 the pooled rows form
    # the same bag in every class, so chance (0.25) is its ceiling.
    # Seeds 1-10 read 0.925-1.000 with hops = 1 and 0.200-0.350 with
    # hops = 0, at 1 and 2 BLAS threads.
    graphs = order_only_graphs(seed)
    train_idx, valid_idx, test_idx = split_dataset(graphs, seed=seed)
    accuracy = {}
    for hops in (1, 0):
        dims = ModelDims(p=64, d1=64, d2=32, m=4, hops=hops)
        model, _ = fit(graphs[train_idx], graphs[valid_idx], dims,
                       TrainConfig(lr=1e-2, max_epochs=100, patience=20,
                                   seed=seed))
        _, accuracy[hops] = evaluate(model, graphs[test_idx])
    assert accuracy[1] >= 0.85 and accuracy[0] <= 0.5, accuracy


def packet_like_graphs(seed: int, count: int, m: int, p: int = 1500):
    """Graphs whose rows look like packets: random nonzero bytes up to a
    random width in [41, p], zeros after, and the class in byte 23 (an
    IPv4 header's protocol byte)."""
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for i in range(count):
        n = int(rng.integers(1, 9))
        rows = rng.integers(1, 256, size=(n, p), dtype=np.uint8)
        widths = rng.integers(41, p + 1, size=(n, 1))
        rows[np.arange(p) >= widths] = 0
        rows[:, 23] = 60 * (i % m + 1)
        features.append(rows)
        labels.append(i % m)
    return graph_set(features, labels)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_the_default_configuration_trains_unsaturated(seed):
    # Bytes over 255 keep the default widths' first epoch near the
    # uninformed loss ln m; raw bytes saturated the softmax (about 19).
    m = 4
    graphs = packet_like_graphs(seed, 160, m)
    _, report = fit(graphs[:128], graphs[128:], ModelDims(m=m),
                    TrainConfig(max_epochs=1, seed=seed))
    assert report.train_losses[0] < 2 * math.log(m), report.train_losses
