"""The classifier: stacked simplified graph-convolution layers, a pooling
step that collapses each graph to one vector, and a softmax output layer.

Layer l computes relu(S^k (X theta_l)) where S is the chain propagation
matrix and k = ModelDims.hops, the same for every layer; projecting
before propagating keeps S at the hidden width, and S is a fixed linear
map, so the order does not change the result. The first layer's X is a
batch's packet bytes / 255, cast and multiplied one width bucket at a
time (graph.batch_graphs), so that no zero byte past its bucket's edge
is cast or multiplied. Pooling averages (or maxes, or sums) each graph's
vertex rows; the head computes softmax(y W + b). Checkpoints (magic "CGM1")
store the dimensions, the label names, and the float32 weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, CorruptFile, DimsMismatch, NonFiniteInput
from .graph import BatchedGraph, GraphSet, batch_graphs
from .ioutil import ByteReader, ByteWriter, atomic_write

CHECKPOINT_MAGIC = b"CGM1"
CHECKPOINT_VERSION = 5

POOLING_KINDS = ("avg", "max", "sum")

# predict_probs closes a batch before the next graph would take it past
# BATCH_ROWS vertex rows; a longer graph goes alone. Time falls as a
# block's rows x d1 activations shrink toward the cache and is flat from
# 2048 rows down; 1024 is as fast as 2048 in half the memory. ms per
# predict_probs of 20,315 rows in 150 sessions at d1 = 516, bucket step
# 256 (2-vCPU Xeon, OpenBLAS), by cap:       512  1024  2048  4096  8192
#                                 p = 1500   303   288   295   371   372
#                                 p = 256    145   149   150   183   218
#                                 p = 64     123   116   123   157   195
BATCH_ROWS = 1024

PART_ROWS = 256  # rows of bucket_transpose_product's reused scratch block


@dataclass(frozen=True)
class ModelDims:
    """Shape of the network. p is the per-packet feature length, d1/d2
    the hidden widths, m the number of classes, hops the propagation
    depth k of every layer. The field order is the order of a
    checkpoint's shape header: ints as u32, pooling as UTF-8."""

    p: int = 1500
    d1: int = 516
    d2: int = 256
    m: int = 2
    layers: int = 2
    hops: int = 1
    pooling: str = "avg"

    def __post_init__(self) -> None:
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
        if self.hops < 0:
            raise ConfigError(f"propagation hops cannot be negative, "
                              f"got {self.hops}")
        if self.pooling not in POOLING_KINDS:
            raise ConfigError(f"pooling must be one of {POOLING_KINDS}, "
                              f"got {self.pooling!r}")
        for f in fields(self):  # checkpoints store the ints as u32
            value = getattr(self, f.name)
            if type(f.default) is int and not 0 <= value <= 0xFFFFFFFF:
                raise ConfigError(f"{f.name} must fit in an unsigned 32-bit "
                                  f"field, got {value}")

    @property
    def param_shapes(self) -> list[tuple[int, ...]]:
        """Shapes of the trainable arrays in CgnnModel.params() order:
        each layer's theta, then W, then b."""
        widths = [self.d1, self.d2, self.d2][:self.layers]
        return [*zip([self.p, *widths], widths), (widths[-1], self.m),
                (self.m,)]


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
    rng = np.random.default_rng(seed)
    *matrices, b_shape = dims.param_shapes
    *thetas, W = [_glorot(rng, *shape) for shape in matrices]
    b = np.zeros(b_shape, dtype=np.float32)
    return CgnnModel(dims=dims, thetas=tuple(thetas), W=W, b=b)


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


def sgc_layer(prop, x: np.ndarray, theta: np.ndarray,
              k: int = 1) -> np.ndarray:
    """One graph-convolution layer before its activation: S^k (X theta)."""
    return prop.apply(x @ theta, k)


def bucket_product(batch: BatchedGraph, theta: np.ndarray) -> np.ndarray:
    """X theta for the batch's first-layer input X, its bytes / 255. Each
    bucket is cast and multiplied alone, so one float piece is alive."""
    out = np.empty((batch.prop.n, theta.shape[1]), dtype=theta.dtype)
    for idx, rows in batch.buckets:
        x = np.divide(rows, 255, dtype=theta.dtype)
        if isinstance(idx, slice):  # the one bucket: every row, in order
            np.matmul(x, theta[:x.shape[1]], out=out)
        else:
            out[idx] = x @ theta[:x.shape[1]]
        del x  # before the next bucket is cast
    return out


def bucket_transpose_product(batch: BatchedGraph,
                             g: np.ndarray) -> np.ndarray:
    """X^T g for the batch's first-layer input X, one float piece alive
    at a time: the first (widest) bucket's X_b^T g[rows_b] is written
    into the rows of its columns, each later one added there."""
    out = np.zeros((batch.p, g.shape[1]), dtype=g.dtype)
    part = None
    for idx, rows in batch.buckets:
        x = np.divide(rows, 255, dtype=g.dtype)
        g_b = g[idx]
        edge = x.shape[1]
        if part is None:  # the widest bucket
            np.matmul(x.T, g_b, out=out[:edge])
            part = np.empty((PART_ROWS, g.shape[1]), dtype=g.dtype)
        else:
            for lo in range(0, edge, PART_ROWS):
                hi = min(lo + PART_ROWS, edge)
                np.matmul(x[:, lo:hi].T, g_b, out=part[:hi - lo])
                out[lo:hi] += part[:hi - lo]
        del x, g_b  # before the next bucket is cast
    return out


def fc_softmax(y: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Class distributions of a batch of pooled rows: softmax(y W + b),
    each row shifted by its max so exp cannot overflow."""
    with np.errstate(invalid="ignore", over="ignore"):
        logits = y @ W + b
    if not np.isfinite(logits).all():
        raise NonFiniteInput("classifier logits are not finite")
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def pool(x: np.ndarray, offsets: np.ndarray, lengths: np.ndarray,
         kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Collapse each graph's vertex rows to one row.

    Returns the pooled (B, width) matrix and, for max pooling, the row
    index that won each feature (needed to route gradients back).
    """
    width = x.shape[1]
    out = np.empty((lengths.size, width), dtype=x.dtype)
    winners = np.empty(out.shape, dtype=np.int64) if kind == "max" else None
    cols = np.arange(width) if kind == "max" else None
    for g, (a, b) in enumerate(zip(offsets[:-1].tolist(),
                                   offsets[1:].tolist())):
        rows = x[a:b]
        if winners is None:
            rows.sum(axis=0, out=out[g])
        else:
            idx = np.argmax(rows, axis=0)
            out[g] = rows[idx, cols]
            winners[g] = a + idx
    if kind == "avg":
        out /= lengths[:, None].astype(x.dtype)
    return out, winners


@dataclass
class ForwardCache:
    """What one forward pass leaves: each layer's activation (also the
    next layer's input), the pooled rows and the class distributions.
    Backward pops each activation as it reads it."""

    acts: list[np.ndarray] = field(default_factory=list)  # after relu
    pooled: np.ndarray | None = None
    pool_winners: np.ndarray | None = None  # max pooling row indices
    probs: np.ndarray | None = None


def forward(model: CgnnModel, batch: BatchedGraph) -> ForwardCache:
    """Run the network over a batch, for training and inference alike.
    One float piece of the first layer's input is alive at once; ReLU
    overwrites each pre-activation, and the cache keeps the result."""
    dims = model.dims
    if batch.p != dims.p:
        raise DimsMismatch(f"batch has feature length {batch.p}, "
                           f"model expects {dims.p}")
    cache = ForwardCache()
    # Overflow to inf, and the inf * 0 it meets in propagation, are
    # tolerated here; fc_softmax turns any non-finite outcome into a
    # typed error.
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, theta in enumerate(model.thetas):
            if layer:
                pre_act = sgc_layer(batch.prop, x, theta, dims.hops)
            else:
                pre_act = batch.prop.apply(bucket_product(batch, theta),
                                           dims.hops)
            cache.acts.append(pre_act)  # relu turns it into the activation
            x = relu(pre_act, out=pre_act)

    cache.pooled, cache.pool_winners = pool(
        x, batch.offsets, batch.lengths, dims.pooling)
    cache.probs = fc_softmax(cache.pooled, model.W, model.b)
    return cache


def predict_probs(model: CgnnModel, graphs: GraphSet) -> np.ndarray:
    """Class distributions of a set of graphs, shape (len(graphs), m):
    row i belongs to graphs[i]. Consecutive graphs share a batch up to
    BATCH_ROWS vertices in all; a longer graph is a batch alone. A batch's
    forward cache goes with it, before the next batch is built."""
    offsets = np.concatenate([[0], np.cumsum(graphs.lengths)])
    parts = []
    start = 0
    while start < len(graphs):
        stop = int(np.searchsorted(offsets, offsets[start] + BATCH_ROWS,
                                   "right")) - 1  # the most that fit
        stop = max(stop, start + 1)
        batch = batch_graphs(graphs, slice(start, stop))
        parts.append(forward(model, batch).probs)
        start = stop
    return np.concatenate(parts)


def save_checkpoint(model: CgnnModel, label_names: list[str],
                    path: Path | str) -> None:
    """Serialize dimensions, label names, and weights (magic "CGM1")."""
    if len(label_names) != model.dims.m:
        raise DimsMismatch(
            f"{len(label_names)} label names for {model.dims.m} classes")
    dims = model.dims
    with atomic_write(path) as handle:
        w = ByteWriter(handle)
        w.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        for f in fields(dims):
            value = getattr(dims, f.name)
            if type(f.default) is str:
                w.utf8(value)
            else:
                w.u32(value)
        for name in label_names:
            w.utf8(name)
        for arr in model.params():
            w.f32_array(arr)


@dataclass
class Checkpoint:
    model: CgnnModel
    label_names: list[str]


def parse_checkpoint(data: bytes) -> Checkpoint:
    r = ByteReader(data)
    r.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    try:
        dims = ModelDims(**{f.name: r.utf8() if type(f.default) is str
                            else r.u32() for f in fields(ModelDims)})
    except ConfigError as exc:
        raise CorruptFile(f"checkpoint dimensions invalid: {exc}")
    label_names = [r.utf8() for _ in range(dims.m)]
    *thetas, W, b = [r.f32_array(shape) for shape in dims.param_shapes]
    r.expect_end()
    model = CgnnModel(dims=dims, thetas=tuple(thetas), W=W, b=b)
    return Checkpoint(model, label_names)


def load_checkpoint(path: Path | str) -> Checkpoint:
    return parse_checkpoint(Path(path).read_bytes())
