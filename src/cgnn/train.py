"""Training loop: hand-derived gradients, Adam updates, mini-batches,
and early stopping on validation loss with best-weights restore.

The backward pass mirrors forward exactly. With P the softmax output,
Y the one-hot labels, and G the batch size, the loss gradient at the
logits is (P - Y) / G; from there gradients flow through the fully
connected layer, the pooling step, and each graph-convolution layer.
A layer computes Z = S^k (X theta) from its input X, and S is
symmetric, so with g = S^k dZ its gradients are d theta = X^T g and
dX = g theta^T: propagation runs once per layer, at the hidden width.

The backward pass carries every gradient multiplied by GRAD_SCALE and
divides it back out at the end. A saturated softmax leaves (P - Y) / G
near 1e-38 on well-classified rows; unscaled, those values reach the
backward matrix products as float32 subnormals, which the CPU handles
many times slower than normal numbers. Scaling by a power of two is
exact, and it keeps those rows normal without zeroing them (Adam is
scale-invariant, so a zeroed gradient would change the update). float32
tops out near 3e38, so a scaled value overflows only where the true
gradient already passes about 1e19.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimsMismatch, EmptyDataset
from .graph import BatchedGraph, GraphSet, batch_graphs
from .model import (CgnnModel, ForwardCache, ModelDims, forward,
                    init_model, predict_probs)

LOSS_FLOOR = 1e-12  # keeps log() finite when a probability collapses
GRAD_SCALE = 2.0 ** 64  # backward-pass gradient scale; see the docstring
# adam_step makes its 10 passes over one chunk of a parameter at a time,
# so the four arrays a chunk touches stay in L2 between passes.
ADAM_CHUNK = 2 ** 15
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's defaults (Kingma & Ba, 2015)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class."""
    p_true = probs[np.arange(labels.size), labels]
    return float(np.mean(-np.log(np.maximum(p_true, LOSS_FLOOR))))


def backward(model: CgnnModel, batch: BatchedGraph,
             cache: ForwardCache) -> list[np.ndarray]:
    """Gradients of the mean cross entropy, in model.params() order.
    Consumes its cache, dropping each layer's arrays once read."""
    dims = model.dims
    size = batch.size
    dlogits = cache.probs.copy()
    dlogits[np.arange(size), batch.labels] -= 1
    dlogits /= size / GRAD_SCALE

    d_w = cache.pooled.T @ dlogits
    d_b = dlogits.sum(axis=0)
    dpooled = dlogits @ model.W.T

    if dims.pooling == "avg":
        per_vertex = dpooled / batch.lengths[:, None].astype(dpooled.dtype)
        dx = np.repeat(per_vertex, batch.lengths, axis=0)
    elif dims.pooling == "sum":
        dx = np.repeat(dpooled, batch.lengths, axis=0)
    else:  # max: only the winning vertex of each feature gets gradient
        dx = np.zeros((batch.prop.n, dpooled.shape[1]), dtype=dpooled.dtype)
        dx[cache.pool_winners, np.arange(dpooled.shape[1])] = dpooled

    dthetas: list[np.ndarray | None] = [None] * len(model.thetas)
    for layer in range(len(model.thetas) - 1, -1, -1):
        dx *= cache.acts.pop() > 0  # relu(z) > 0 exactly where z > 0
        g = batch.prop.apply(dx, dims.hops)
        del dx  # before the products that read g
        if layer:  # its input is the activation of the layer below
            dthetas[layer] = cache.acts[-1].T @ g
            dx = g @ model.thetas[layer].T
        else:
            dthetas[0] = batch.transpose_product(g)
    grads = [*dthetas, d_w, d_b]
    for grad in grads:
        grad *= 1 / GRAD_SCALE
    return grads


@dataclass
class AdamState:
    """The moment sums, one pair per parameter: m = BETA1 m + g and
    v = BETA2 v + g^2, Adam's moments over (1 - BETA1) and (1 - BETA2)."""

    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def for_model(cls, model: CgnnModel) -> "AdamState":
        params = model.params()
        return cls(step=0, m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(model: CgnnModel, grads: list[np.ndarray], state: AdamState,
              lr: float = 1e-3) -> None:
    """One bias-corrected Adam update, applied to the model in place.
    Consumes grads: each chunk of a gradient is its own scratch.

    lr * m_hat / (sqrt(v_hat) + EPS) is computed from the moment sums as
    step * m / (sqrt(v) + eps_hat), the constants and bias corrections
    folded into the scalars step = lr * (1 - BETA1) / (1 - BETA1^t) * r
    and eps_hat = EPS * r, where r = sqrt((1 - BETA2^t) / (1 - BETA2)).
    """
    state.step += 1
    t = state.step
    r = math.sqrt((1 - BETA2 ** t) / (1 - BETA2))
    step = lr * (1 - BETA1) / (1 - BETA1 ** t) * r
    eps_hat = EPS * r
    for arrays in zip(model.params(), grads, state.m, state.v):
        flat = [a.reshape(-1) for a in arrays]  # C-contiguous, so views
        for lo in range(0, flat[0].size, ADAM_CHUNK):
            param, grad, m, v = (a[lo:lo + ADAM_CHUNK] for a in flat)
            m *= BETA1
            m += grad
            v *= BETA2
            v += np.square(grad, out=grad)
            np.sqrt(v, out=grad)
            grad += eps_hat
            np.divide(m, grad, out=grad)
            grad *= step
            param -= grad


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 400
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, "
                              f"got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, "
                              f"got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max epochs cannot be negative, "
                              f"got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be positive, "
                              f"got {self.patience}")
        if self.seed < 0:
            raise ConfigError("seeds cannot be negative")


@dataclass
class TrainReport:
    """What happened during fit, epoch by epoch."""

    best_epoch: int = 0  # 1-based; 0 when no epoch ran
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)

    @property
    def best_val_loss(self) -> float:
        return self.val_losses[self.best_epoch - 1] if self.best_epoch \
            else math.inf


def evaluate(model: CgnnModel, graphs: GraphSet) -> tuple[float, float]:
    """Mean cross entropy and accuracy over a whole set of graphs."""
    probs = predict_probs(model, graphs)
    correct = int((probs.argmax(axis=1) == graphs.labels).sum())
    return cross_entropy(probs, graphs.labels), correct / len(graphs)


def fit(train_graphs: GraphSet, valid_graphs: GraphSet, dims: ModelDims,
        config: TrainConfig = TrainConfig(),
        log=None) -> tuple[CgnnModel, TrainReport]:
    """Train a fresh model, returning the weights of the epoch with the
    lowest validation loss (the initial ones when no epoch runs).

    Every epoch shuffles the training graphs (seeded, so runs repeat
    bit for bit), walks them in mini-batches (the last one may be
    short), then measures validation loss. Training stops after
    config.patience epochs without a new strict best.
    """
    if not len(train_graphs):
        raise EmptyDataset("cannot train on zero graphs")
    if not len(valid_graphs):
        raise EmptyDataset("early stopping needs a non-empty validation split")
    worst = max(train_graphs.labels.max(), valid_graphs.labels.max())
    if worst >= dims.m:
        raise DimsMismatch(
            f"graphs carry label {worst}, model has {dims.m} classes")

    rng = np.random.default_rng(config.seed)
    model = init_model(dims, seed=config.seed)
    state = AdamState.for_model(model)
    best = None  # the best epoch's weights; none before an epoch ends
    report = TrainReport()

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_graphs))
        batch_losses = []
        for start in range(0, order.size, config.batch_size):
            batch = batch_graphs(train_graphs,
                                 order[start:start + config.batch_size])
            cache = forward(model, batch)
            loss = cross_entropy(cache.probs, batch.labels)
            grads = backward(model, batch, cache)
            adam_step(model, grads, state, lr=config.lr)
            del grads  # not held through the next step's forward
            batch_losses.append(loss)

        train_loss = float(np.mean(batch_losses))
        val_loss, val_acc = evaluate(model, valid_graphs)
        report.train_losses.append(train_loss)
        report.val_losses.append(val_loss)
        report.val_accuracies.append(val_acc)
        if log is not None:
            log(f"epoch {epoch}: train loss {train_loss:.6f}, "
                f"validation loss {val_loss:.6f}, "
                f"validation accuracy {val_acc:.4f}")

        if val_loss < report.best_val_loss:
            report.best_epoch = epoch
            best = None  # the old copy goes before the new one is taken
            best = model.copy()
        elif epoch - report.best_epoch >= config.patience:
            break

    return model if best is None else best, report
