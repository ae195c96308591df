"""The classifier: stacked simplified graph-convolution layers, a pooling
step that collapses each graph to one vector, and a softmax output layer.

Layer l computes relu(S^k (X theta_l)) where S is the chain propagation
matrix; projecting before propagating keeps S at the hidden width, and S
is a fixed linear map, so the order does not change the result. Pooling
averages (or maxes, or sums) each graph's vertex rows;
the head computes softmax(y W + b). Checkpoints (magic "CGM1") store the
dimensions, the label names, and the float32 weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (BadMagic, ConfigError, CorruptLength, DimsMismatch,
                     EmptySegment, NonFiniteInput, ShapeMismatch,
                     VersionMismatch)
from .graph import BatchedGraph, ChainedGraph, batch_graphs
from .ioutil import ByteReader, ByteWriter, atomic_write_bytes

CHECKPOINT_MAGIC = b"CGM1"
CHECKPOINT_VERSION = 1

POOLING_KINDS = ("avg", "max", "sum")

# predict_probs closes a batch at BATCH_GRAPHS graphs, or before the next
# graph would take it past BATCH_ROWS vertex rows; a longer graph goes
# alone. The row cap bounds the (rows, p) feature matrix and the cached
# activations of one inference batch.
BATCH_GRAPHS = 256
BATCH_ROWS = 8192


@dataclass(frozen=True)
class ModelDims:
    """Shape of the network. p is the per-packet feature length, d1/d2
    the hidden widths, m the number of classes, k1/k2 the propagation
    hops of the first and the later layers."""

    p: int = 1500
    d1: int = 516
    d2: int = 256
    m: int = 2
    layers: int = 2
    k1: int = 1
    k2: int = 1
    pooling: str = "avg"
    standardize: bool = False

    def validate(self) -> None:
        if self.p < 1:
            raise ConfigError(f"feature length must be positive, got {self.p}")
        if self.layers not in (1, 2, 3):
            raise ConfigError(f"layers must be 1, 2, or 3, got {self.layers}")
        if self.d1 < 1:
            raise ConfigError(f"first hidden width must be positive, "
                              f"got {self.d1}")
        if self.layers >= 2 and self.d2 < 1:
            raise ConfigError(f"second hidden width must be positive, "
                              f"got {self.d2}")
        if self.m < 2:
            raise ConfigError(f"need at least 2 classes, got {self.m}")
        if self.k1 < 1 or self.k2 < 1:
            raise ConfigError(f"propagation hops must be positive, "
                              f"got k1={self.k1} k2={self.k2}")
        if self.pooling not in POOLING_KINDS:
            raise ConfigError(f"pooling must be one of {POOLING_KINDS}, "
                              f"got {self.pooling!r}")

    @property
    def hidden_widths(self) -> list[int]:
        if self.layers == 1:
            return [self.d1]
        if self.layers == 2:
            return [self.d1, self.d2]
        return [self.d1, self.d2, self.d2]

    @property
    def layer_hops(self) -> list[int]:
        return [self.k1] + [self.k2] * (self.layers - 1)


@dataclass
class CgnnModel:
    """Weights of the network: one theta per graph-convolution layer,
    then the fully connected output layer."""

    dims: ModelDims
    thetas: tuple[np.ndarray, ...]
    W: np.ndarray
    b: np.ndarray

    def params(self) -> list[np.ndarray]:
        """All trainable arrays, in a fixed flattening order."""
        return [*self.thetas, self.W, self.b]

    def copy(self) -> "CgnnModel":
        return CgnnModel(dims=self.dims,
                         thetas=tuple(t.copy() for t in self.thetas),
                         W=self.W.copy(), b=self.b.copy())


def _glorot(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out)).astype(np.float32)


def init_model(dims: ModelDims, seed: int = 0) -> CgnnModel:
    """Fresh weights: uniform(-sqrt(6/(fan_in+fan_out)), +same) for the
    matrices, zeros for the bias. Deterministic per seed."""
    dims.validate()
    rng = np.random.default_rng(seed)
    thetas = []
    fan_in = dims.p
    for width in dims.hidden_widths:
        thetas.append(_glorot(rng, fan_in, width))
        fan_in = width
    W = _glorot(rng, fan_in, dims.m)
    b = np.zeros(dims.m, dtype=np.float32)
    return CgnnModel(dims=dims, thetas=tuple(thetas), W=W, b=b)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def sgc_layer(prop, x: np.ndarray, theta: np.ndarray,
              k: int = 1) -> np.ndarray:
    """One graph-convolution layer before its activation: S^k (X theta)."""
    if x.shape[1] != theta.shape[0]:
        raise ShapeMismatch(f"features are {x.shape[1]} wide, layer weights "
                            f"expect {theta.shape[0]}")
    return prop.apply(x @ theta, k)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max so exp cannot overflow."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def fc_softmax(y: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Class distribution(s) from pooled features: softmax(y W + b).

    Accepts one vector or a batch of row vectors, returning the same
    arrangement.
    """
    single = y.ndim == 1
    with np.errstate(invalid="ignore", over="ignore"):
        logits = np.atleast_2d(y) @ W + b
    if not np.isfinite(logits).all():
        raise NonFiniteInput("classifier logits are not finite")
    probs = softmax(logits)
    return probs[0] if single else probs


def pool(x: np.ndarray, offsets: np.ndarray, lengths: np.ndarray,
         kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Collapse each graph's vertex rows to one row.

    Returns the pooled (B, width) matrix and, for max pooling, the row
    index that won each feature (needed to route gradients back).
    """
    if lengths.size == 0 or np.any(lengths <= 0):
        raise EmptySegment("cannot pool over an empty segment")
    starts = offsets[:-1]
    if kind == "avg":
        total = np.add.reduceat(x, starts, axis=0)
        return total / lengths[:, None].astype(x.dtype), None
    if kind == "sum":
        return np.add.reduceat(x, starts, axis=0), None
    if kind == "max":
        width = x.shape[1]
        out = np.empty((lengths.size, width), dtype=x.dtype)
        winners = np.empty((lengths.size, width), dtype=np.int64)
        cols = np.arange(width)
        for g in range(lengths.size):
            rows = x[offsets[g]:offsets[g + 1]]
            idx = np.argmax(rows, axis=0)
            out[g] = rows[idx, cols]
            winners[g] = offsets[g] + idx
        return out, winners
    raise ConfigError(f"pooling must be one of {POOLING_KINDS}, got {kind!r}")


@dataclass
class ForwardCache:
    """Everything the backward pass reuses from one forward pass."""

    hop_inputs: list[np.ndarray] = field(default_factory=list)  # layer inputs
    pre_acts: list[np.ndarray] = field(default_factory=list)  # before relu
    pooled: np.ndarray | None = None
    pool_winners: np.ndarray | None = None  # max pooling row indices
    probs: np.ndarray | None = None


def forward(model: CgnnModel, batch: BatchedGraph) -> ForwardCache:
    """Run the network over a batch, keeping the per-layer intermediates."""
    dims = model.dims
    if batch.features.shape[1] != dims.p:
        raise DimsMismatch(
            f"batch has feature length {batch.features.shape[1]}, "
            f"model expects {dims.p}")
    dtype = model.W.dtype
    x = batch.features.astype(dtype, copy=False)
    if dims.standardize:
        x = x / dtype.type(255)

    cache = ForwardCache()
    # Overflow to inf, and the inf * 0 it meets in propagation, are
    # tolerated here; fc_softmax and the training loop convert any
    # non-finite outcome into a typed error.
    with np.errstate(over="ignore", invalid="ignore"):
        for theta, hops in zip(model.thetas, dims.layer_hops):
            pre_act = sgc_layer(batch.prop, x, theta, hops)
            cache.hop_inputs.append(x)
            cache.pre_acts.append(pre_act)
            x = relu(pre_act)

    cache.pooled, cache.pool_winners = pool(
        x, batch.offsets, batch.lengths, dims.pooling)
    cache.probs = fc_softmax(cache.pooled, model.W, model.b)
    return cache


def predict_probs(model: CgnnModel,
                  graphs: list[ChainedGraph]) -> np.ndarray:
    """Class distributions for a list of graphs, shape (len(graphs), m):
    row i belongs to graphs[i]. A batch holds at most BATCH_GRAPHS graphs
    and, unless one graph alone is longer, at most BATCH_ROWS vertices."""
    parts = []
    start = 0
    while start < len(graphs):
        stop, rows = start + 1, graphs[start].n
        while (stop < len(graphs) and stop - start < BATCH_GRAPHS
               and rows + graphs[stop].n <= BATCH_ROWS):
            rows += graphs[stop].n
            stop += 1
        parts.append(forward(model, batch_graphs(graphs[start:stop])).probs)
        start = stop
    return np.concatenate(parts) if parts else \
        np.zeros((0, model.dims.m), dtype=np.float32)


def save_checkpoint(model: CgnnModel, label_names: list[str],
                    path: Path | str) -> None:
    """Serialize dimensions, label names, and weights (magic "CGM1")."""
    if len(label_names) != model.dims.m:
        raise DimsMismatch(
            f"{len(label_names)} label names for {model.dims.m} classes")
    dims = model.dims
    w = ByteWriter()
    w.raw(CHECKPOINT_MAGIC)
    w.u32(CHECKPOINT_VERSION)
    for value in (dims.p, dims.d1, dims.d2, dims.m, dims.layers,
                  dims.k1, dims.k2):
        w.u32(value)
    w.utf8(dims.pooling)
    w.u32(int(dims.standardize))
    for name in label_names:
        w.utf8(name)
    for arr in model.params():
        w.f32_array(arr)
    atomic_write_bytes(path, w.getvalue())


@dataclass
class Checkpoint:
    model: CgnnModel
    label_names: list[str]


def parse_checkpoint(data: bytes) -> Checkpoint:
    r = ByteReader(data)
    if r.raw(4) != CHECKPOINT_MAGIC:
        raise BadMagic("not a checkpoint file (bad magic)")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(
            f"checkpoint version {version}, this build reads "
            f"{CHECKPOINT_VERSION}")
    p, d1, d2, m, layers, k1, k2 = (r.u32() for _ in range(7))
    pooling = r.utf8()
    standardize = bool(r.u32())
    dims = ModelDims(p=p, d1=d1, d2=d2, m=m, layers=layers, k1=k1, k2=k2,
                     pooling=pooling, standardize=standardize)
    try:
        dims.validate()
    except ConfigError as exc:
        raise CorruptLength(f"checkpoint dimensions invalid: {exc}")
    label_names = [r.utf8() for _ in range(m)]
    thetas = []
    fan_in = dims.p
    for width in dims.hidden_widths:
        thetas.append(r.f32_array((fan_in, width)))
        fan_in = width
    W = r.f32_array((fan_in, m))
    b = r.f32_array((m,))
    r.expect_end()
    model = CgnnModel(dims=dims, thetas=tuple(thetas), W=W, b=b)
    return Checkpoint(model=model, label_names=label_names)


def load_checkpoint(path: Path | str) -> Checkpoint:
    return parse_checkpoint(Path(path).read_bytes())
