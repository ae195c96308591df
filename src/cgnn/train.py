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

from .errors import (ConfigError, EmptyDataset, EmptySplit, LabelOutOfRange,
                     NonFiniteInput)
from .graph import BatchedGraph, ChainedGraph, batch_graphs
from .model import (CgnnModel, ForwardCache, ModelDims, forward,
                    init_model, predict_probs)

LOSS_FLOOR = 1e-12  # keeps log() finite when a probability collapses
GRAD_SCALE = 2.0 ** 64  # backward-pass gradient scale; see the docstring


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise EmptyDataset("cross entropy over zero rows")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise LabelOutOfRange(
            f"labels span [{labels.min()}, {labels.max()}], "
            f"distribution has {probs.shape[1]} classes")
    p_true = probs[np.arange(labels.size), labels]
    return float(np.mean(-np.log(np.maximum(p_true, LOSS_FLOOR))))


def backward(model: CgnnModel, batch: BatchedGraph,
             cache: ForwardCache) -> list[np.ndarray]:
    """Gradients of the mean cross entropy, in model.params() order."""
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
        dx = np.zeros((batch.features.shape[0], dpooled.shape[1]),
                      dtype=dpooled.dtype)
        dx[cache.pool_winners, np.arange(dpooled.shape[1])] = dpooled

    hops = dims.layer_hops
    dthetas: list[np.ndarray | None] = [None] * len(model.thetas)
    for layer in range(len(model.thetas) - 1, -1, -1):
        dx *= cache.pre_acts[layer] > 0
        g = batch.prop.apply(dx, hops[layer])
        dthetas[layer] = cache.hop_inputs[layer].T @ g
        if layer:
            dx = g @ model.thetas[layer].T
    grads = [*dthetas, d_w, d_b]
    for grad in grads:
        grad *= 1 / GRAD_SCALE
    return grads


@dataclass
class AdamState:
    """First and second moment accumulators, one pair per parameter,
    and one scratch array per parameter for the update."""

    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]
    scratch: list[np.ndarray]

    @classmethod
    def for_model(cls, model: CgnnModel) -> "AdamState":
        params = model.params()
        return cls(step=0,
                   m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params],
                   scratch=[np.empty_like(p) for p in params])


def adam_step(model: CgnnModel, grads: list[np.ndarray], state: AdamState,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One bias-corrected Adam update, applied to the model in place.

    lr * m_hat / (sqrt(v_hat) + eps) is computed as
    step * m / (sqrt(v) + eps_hat), with the bias corrections folded
    into the scalars step = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_hat = eps * sqrt(1 - beta2^t).
    """
    state.step += 1
    t = state.step
    root = math.sqrt(1 - beta2 ** t)
    step = lr * root / (1 - beta1 ** t)
    eps_hat = eps * root
    for param, grad, m, v, tmp in zip(model.params(), grads, state.m,
                                      state.v, state.scratch):
        m *= beta1
        np.multiply(grad, 1 - beta1, out=tmp)
        m += tmp
        v *= beta2
        np.square(grad, out=tmp)
        tmp *= 1 - beta2
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += eps_hat
        np.divide(m, tmp, out=tmp)
        tmp *= step
        param -= tmp


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 400
    patience: int = 20
    seed: int = 0

    def validate(self) -> None:
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise ConfigError(f"betas must lie in (0, 1), got "
                              f"{self.beta1}, {self.beta2}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, "
                              f"got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max epochs cannot be negative, "
                              f"got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be positive, "
                              f"got {self.patience}")


@dataclass
class TrainReport:
    """What happened during fit, epoch by epoch."""

    epochs_run: int = 0
    best_epoch: int = 0  # 1-based; 0 when no epoch ran
    best_val_loss: float = math.inf
    stopped_early: bool = False
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)


def evaluate(model: CgnnModel,
             graphs: list[ChainedGraph]) -> tuple[float, float]:
    """Mean cross entropy and accuracy over a whole list of graphs."""
    if not graphs:
        raise EmptyDataset("cannot evaluate zero graphs")
    probs = predict_probs(model, graphs)
    labels = np.array([g.label for g in graphs], dtype=np.int64)
    correct = int((probs.argmax(axis=1) == labels).sum())
    return cross_entropy(probs, labels), correct / len(graphs)


def fit(train_graphs: list[ChainedGraph], valid_graphs: list[ChainedGraph],
        dims: ModelDims, config: TrainConfig = TrainConfig(),
        log=None) -> tuple[CgnnModel, TrainReport]:
    """Train a fresh model, returning the weights of the epoch with the
    lowest validation loss.

    Every epoch shuffles the training graphs (seeded, so runs repeat
    bit for bit), walks them in mini-batches (the last one may be
    short), then measures validation loss. Training stops after
    config.patience epochs without a new strict best.
    """
    dims.validate()
    config.validate()
    if not train_graphs:
        raise EmptyDataset("cannot train on zero graphs")
    if not valid_graphs:
        raise EmptySplit("early stopping needs a non-empty validation split")
    worst = max(max(g.label for g in train_graphs),
                max(g.label for g in valid_graphs))
    if worst >= dims.m:
        raise LabelOutOfRange(
            f"graphs carry label {worst}, model has {dims.m} classes")

    rng = np.random.default_rng(config.seed)
    model = init_model(dims, seed=config.seed)
    state = AdamState.for_model(model)
    best = model.copy()
    report = TrainReport()
    since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_graphs))
        batch_losses = []
        for start in range(0, order.size, config.batch_size):
            picked = [train_graphs[i] for i in order[start:start +
                                                     config.batch_size]]
            batch = batch_graphs(picked)
            cache = forward(model, batch)
            loss = cross_entropy(cache.probs, batch.labels)
            if not math.isfinite(loss):
                raise NonFiniteInput(
                    f"training loss became {loss} in epoch {epoch}")
            grads = backward(model, batch, cache)
            adam_step(model, grads, state, lr=config.lr, beta1=config.beta1,
                      beta2=config.beta2, eps=config.eps)
            batch_losses.append(loss)

        train_loss = float(np.mean(batch_losses))
        val_loss, val_acc = evaluate(model, valid_graphs)
        report.epochs_run = epoch
        report.train_losses.append(train_loss)
        report.val_losses.append(val_loss)
        report.val_accuracies.append(val_acc)
        if log is not None:
            log(f"epoch {epoch}: train loss {train_loss:.6f}, "
                f"validation loss {val_loss:.6f}, "
                f"validation accuracy {val_acc:.4f}")

        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best = model.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                report.stopped_early = True
                break

    return best, report
