"""Chained graphs over session packets, as one columnar set, and their
propagation matrix.

Each session becomes a graph whose vertices are its packets in arrival
order, joined in a chain: packet i connects to packet i+1, giving n
vertices and n-1 edges. The topology is a function of n alone, so a set
of graphs is one flat byte buffer, the offset and vertex count of each
graph's rows in it, and the labels (as in PyTorch Geometric's ``ptr``
layout). The offsets count bytes, not rows of a (V, p) matrix: a dataset
file puts an 8-byte header before each graph's rows, and only byte
offsets let a loaded set and its splits use the file's bytes without a
copy. The propagation matrix is built on demand in a tridiagonal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DimsMismatch, EmptyDataset


@dataclass
class ChainedGraph:
    """One graph of a GraphSet: read-only (n, p) packet rows and a label."""

    features: np.ndarray  # uint8
    label: int

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass
class GraphSet:
    """Labeled graphs in one shared buffer: the lengths[i] rows of p bytes
    of graph i begin at byte starts[i]. An int index gives one graph as a
    ChainedGraph; a slice or an index array gives the chosen graphs, in
    that order, as a GraphSet on the same buffer."""

    buffer: np.ndarray  # flat uint8
    p: int
    starts: np.ndarray  # (G,) int64 byte offsets into buffer
    lengths: np.ndarray  # (G,) int64 vertex counts
    labels: np.ndarray  # (G,) int64

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            start, n = int(self.starts[idx]), int(self.lengths[idx])
            rows = self.buffer[start:start + n * self.p].reshape(n, self.p)
            rows.setflags(write=False)
            return ChainedGraph(features=rows, label=int(self.labels[idx]))
        return GraphSet(buffer=self.buffer, p=self.p, starts=self.starts[idx],
                        lengths=self.lengths[idx], labels=self.labels[idx])

    def __iter__(self) -> Iterator[ChainedGraph]:
        return (self[i] for i in range(len(self)))


@dataclass
class ChainPropagation:
    """Symmetrically normalized propagation over one or more chains.

    With A the chain adjacency, the matrix is D^{-1/2} (A + I) D^{-1/2}
    where D holds the degrees of A + I. For chains this is tridiagonal,
    stored as its diagonal and its single off-diagonal; a batch of chains
    stays tridiagonal with zeros at the graph boundaries.
    """

    diag: np.ndarray  # (N,) float64
    off: np.ndarray  # (N-1,) float64, zero where two graphs meet

    @classmethod
    def for_batch(cls, lengths: Sequence[int]) -> "ChainPropagation":
        """Propagation over consecutive chains of the given lengths. The
        self-loop-augmented degree is 3 inside a chain, 2 at its ends and
        1 for a single vertex."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if not lengths.size:
            raise EmptyDataset("no graphs to build a propagation matrix for")
        if lengths.min() <= 0:
            raise ValueError(f"chain lengths must be positive, got "
                             f"{lengths.min()}")
        ends = np.cumsum(lengths)
        deg = np.full(ends[-1], 3.0, dtype=np.float64)
        deg[ends - lengths] -= 1.0
        deg[ends - 1] -= 1.0
        off = 1.0 / np.sqrt(deg[:-1] * deg[1:])
        off[ends[:-1] - 1] = 0.0  # two graphs meet here
        return cls(diag=1.0 / deg, off=off)

    @property
    def n(self) -> int:
        return self.diag.size

    def apply(self, x: np.ndarray, hops: int = 1) -> np.ndarray:
        """Multiply S @ x (hops times) without forming S. The matrix is
        symmetric, so this also serves as multiplication by its transpose."""
        if x.shape[0] != self.n:
            raise DimsMismatch(
                f"matrix has {x.shape[0]} rows, propagation covers {self.n}")
        diag = self.diag.astype(x.dtype, copy=False)
        off = self.off.astype(x.dtype, copy=False)
        for _ in range(hops):
            out = diag[:, None] * x
            if off.size:
                out[:-1] += off[:, None] * x[1:]
                out[1:] += off[:, None] * x[:-1]
            x = out
        return x

    def dense(self) -> np.ndarray:
        """Materialize S as a full (N, N) matrix."""
        out = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] = self.off
        out[idx + 1, idx] = self.off
        return out


def propagation_matrix(n: int) -> np.ndarray:
    """Dense propagation matrix of a single chain with n vertices."""
    return ChainPropagation.for_batch([n]).dense()


@dataclass
class BatchedGraph:
    """Several graphs packed into one feature matrix for a forward pass.

    Vertex rows of consecutive graphs are stacked; lengths give each
    graph's vertex count so pooling can find its rows again.
    """

    features: np.ndarray  # (N_total, p) uint8
    lengths: np.ndarray  # (B,) int64
    labels: np.ndarray  # (B,) int64
    prop: ChainPropagation

    @property
    def size(self) -> int:
        return self.lengths.size

    @property
    def offsets(self) -> np.ndarray:
        """Row offsets of each graph: offsets[i]:offsets[i+1] are its rows."""
        out = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=out[1:])
        return out


def batch_graphs(graphs: GraphSet, idx=slice(None)) -> BatchedGraph:
    """The graphs idx picks (default all), in that order, as one batch
    with a block propagation matrix. The graphs' byte rows are copied
    into one matrix; the model casts only the columns it multiplies."""
    chosen = graphs[idx]
    prop = ChainPropagation.for_batch(chosen.lengths)  # raises if empty
    features = np.concatenate([graph.features for graph in chosen])
    return BatchedGraph(features=features, lengths=chosen.lengths,
                        labels=chosen.labels, prop=prop)


def split_dataset(graphs: GraphSet, seed: int = 0,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified 8:1:1 train/validation/test split as three index
    arrays into graphs, deterministic per seed.

    Within every label the graphs are shuffled, then floor(n/10) go to
    validation, floor(n/10) to test, and the rest to train. Each part
    lists the labels in increasing order.
    """
    if not len(graphs):
        raise EmptyDataset("cannot split zero graphs")
    rng = np.random.default_rng(seed)
    train, valid, test = [], [], []
    for label in np.unique(graphs.labels):
        group = np.flatnonzero(graphs.labels == label)
        group = group[rng.permutation(group.size)]
        tenth = int(0.1 * group.size)
        valid.append(group[:tenth])
        test.append(group[tenth:2 * tenth])
        train.append(group[2 * tenth:])
    return np.concatenate(train), np.concatenate(valid), np.concatenate(test)
