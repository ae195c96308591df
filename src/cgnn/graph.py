"""Chained graphs over session packets and their propagation matrix.

Each session becomes a graph whose vertices are its packets in arrival
order, joined in a chain: packet i connects to packet i+1, giving n
vertices and n-1 edges. The topology is a function of n alone, so graphs
store only their vertex features and the propagation matrix is built on
demand in a tridiagonal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataset, MixedFeatureWidth, ShapeMismatch


@dataclass
class ChainedGraph:
    """One session as a graph: a (n, p) byte matrix and a class label."""

    features: np.ndarray  # uint8, one row per packet
    label: int

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


def truncate_graph(graph: ChainedGraph,
                   fraction: float = 1.0) -> ChainedGraph:
    """Keep only the first ceil(fraction * n) vertices of a graph."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    keep = math.ceil(fraction * graph.n)
    if keep >= graph.n:
        return graph
    return ChainedGraph(features=graph.features[:keep], label=graph.label)


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
            raise ShapeMismatch(
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

    features: np.ndarray  # (N_total, p) float32
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


def batch_graphs(graphs: Sequence[ChainedGraph]) -> BatchedGraph:
    """Stack graphs into one batch with a block propagation matrix."""
    if not graphs:
        raise EmptyDataset("cannot batch zero graphs")
    widths = {g.p for g in graphs}
    if len(widths) != 1:
        raise MixedFeatureWidth(
            f"graphs disagree on feature length: {sorted(widths)}")
    lengths = np.array([g.n for g in graphs], dtype=np.int64)
    features = np.concatenate(
        [g.features for g in graphs]).astype(np.float32)
    labels = np.array([g.label for g in graphs], dtype=np.int64)
    return BatchedGraph(features=features, lengths=lengths, labels=labels,
                        prop=ChainPropagation.for_batch(lengths))


def split_dataset(graphs: Sequence[ChainedGraph], seed: int = 0,
                  valid_frac: float = 0.1, test_frac: float = 0.1,
                  ) -> tuple[list[ChainedGraph], list[ChainedGraph],
                             list[ChainedGraph]]:
    """Stratified train/validation/test split, deterministic per seed.

    Within every label the graphs are shuffled, then floor(valid_frac*n)
    go to validation, floor(test_frac*n) to test, and the rest to train.
    Defaults give the 8:1:1 split.
    """
    if not graphs:
        raise EmptyDataset("cannot split zero graphs")
    if valid_frac < 0 or test_frac < 0 or valid_frac + test_frac >= 1:
        raise ValueError("split fractions must be nonnegative and leave "
                         "room for training data")
    rng = np.random.default_rng(seed)
    by_label: dict[int, list[ChainedGraph]] = {}
    for graph in graphs:
        by_label.setdefault(graph.label, []).append(graph)

    train: list[ChainedGraph] = []
    valid: list[ChainedGraph] = []
    test: list[ChainedGraph] = []
    for label in sorted(by_label):
        group = by_label[label]
        order = rng.permutation(len(group))
        n_valid = int(valid_frac * len(group))
        n_test = int(test_frac * len(group))
        for pos, idx in enumerate(order):
            if pos < n_valid:
                valid.append(group[idx])
            elif pos < n_valid + n_test:
                test.append(group[idx])
            else:
                train.append(group[idx])
    return train, valid, test
