"""Chained graphs over session packets, as one columnar set, and their
propagation.

Each session becomes a graph whose vertices are its packets in arrival
order, joined in a chain: packet i connects to packet i+1, giving n
vertices and n-1 edges. The topology is a function of n alone, so a set
of graphs is its rows, each graph's first row and vertex count, and the
labels (as in PyTorch Geometric's ``ptr`` layout). A row is stored only
up to its last nonzero byte, its width, in one flat byte buffer; the
model reads the zeros past it from the width. The propagation matrix is
kept as its diagonal and off-diagonal and applied a hop at a time, each
row from a 3-row window of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimsMismatch, EmptyDataset


@dataclass(frozen=True)
class ChainedGraph:
    """One graph of a GraphSet, kept for bench/: the vertex count and label
    that run.py checks and launch.py sums. Its rows are only in the set."""

    n: int
    label: int


@dataclass
class GraphSet:
    """Labeled graphs on one row buffer: row r is buffer[bounds[r]:
    bounds[r + 1]], and graph i the lengths[i] rows from row first[i]. An
    int index gives one graph's vertex count and label as a ChainedGraph,
    without its rows; a slice or an index array gives the chosen graphs,
    in order, as a GraphSet on the same buffer."""

    buffer: np.ndarray  # flat uint8
    p: int
    bounds: np.ndarray  # (V + 1,) int64 byte offsets into buffer
    first: np.ndarray  # (G,) int64 row indices
    lengths: np.ndarray  # (G,) int64 vertex counts
    labels: np.ndarray  # (G,) int64

    @classmethod
    def from_widths(cls, buffer: np.ndarray, p: int, widths: np.ndarray,
                    lengths, labels) -> "GraphSet":
        """Graphs of the rows, widths[r] stored bytes each, back to back
        in buffer: the first lengths[0] rows are graph 0, and so on."""
        bounds = np.zeros(widths.size + 1, dtype=np.int64)
        np.cumsum(widths, dtype=np.int64, out=bounds[1:])
        lengths = np.asarray(lengths, dtype=np.int64)
        return cls(buffer=buffer, p=p, bounds=bounds,
                   first=np.cumsum(lengths) - lengths, lengths=lengths,
                   labels=np.asarray(labels, dtype=np.int64))

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return ChainedGraph(n=int(self.lengths[idx]),
                                label=int(self.labels[idx]))
        return GraphSet(buffer=self.buffer, p=self.p, bounds=self.bounds,
                        first=self.first[idx], lengths=self.lengths[idx],
                        labels=self.labels[idx])

    def __iter__(self) -> Iterator[ChainedGraph]:
        return (self[i] for i in range(len(self)))

    def packed(self, pad: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The graphs' rows in order: their stored bytes back to back, then
        pad zero bytes (a view of the buffer when the graphs lie in it in
        that order and pad is 0, else a copy), and each row's width."""
        lo = self.bounds[self.first]
        hi = self.bounds[self.first + self.lengths]
        if len(self) and (lo[1:] == hi[:-1]).all():  # one run of bytes
            spans = [self.buffer[lo[0]:hi[-1]]]
        else:
            spans = [self.buffer[a:b]
                     for a, b in zip(lo.tolist(), hi.tolist())]
        data = spans[0] if len(spans) == 1 and not pad else np.concatenate(
            [*spans, np.zeros(pad, dtype=np.uint8)])
        row = np.repeat(self.first - (np.cumsum(self.lengths) - self.lengths),
                        self.lengths) + np.arange(self.lengths.sum())
        return data, self.bounds[row + 1] - self.bounds[row]


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
        symmetric, so this also serves as multiplication by its transpose.
        A hop reads x once: row i is the taps [off[i-1], diag[i], off[i]]
        times rows i-1..i+1, one stacked (1, 3) @ (3, width) matmul over a
        strided view of x; the first and last rows take the taps that fit."""
        n = self.n
        if x.shape[0] != n:
            raise DimsMismatch(
                f"matrix has {x.shape[0]} rows, propagation covers {n}")
        taps = np.zeros((n, 3), dtype=x.dtype)
        taps[:, 1] = self.diag
        taps[1:, 0] = self.off
        taps[:-1, 2] = self.off
        for _ in range(hops):
            out = np.empty(x.shape, dtype=x.dtype)
            rows = as_strided(x, (max(n - 2, 0), 3, x.shape[1]),
                              (x.strides[0], *x.strides), writeable=False)
            np.matmul(taps[1:-1, None], rows, out=out[1:-1, None])
            head, tail = x[:2], x[-2:]  # one row each when n is 1
            np.matmul(taps[0, 1:1 + len(head)], head, out=out[0])
            np.matmul(taps[-1, 2 - len(tail):2], tail, out=out[-1])
            x = out
        return x


@dataclass
class BatchedGraph:
    """Several graphs packed for one forward pass: their rows' stored
    bytes back to back, then p zero bytes, each row's width, and each
    graph's vertex count, so pooling can find its rows again."""

    rows: np.ndarray  # flat uint8
    widths: np.ndarray  # (N_total,) int64
    p: int
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
    with a block propagation matrix. Only the graphs' stored bytes are
    copied; the model reads each row's padding from its width."""
    chosen = graphs[idx]
    prop = ChainPropagation.for_batch(chosen.lengths)  # raises if empty
    rows, widths = chosen.packed(pad=chosen.p)
    return BatchedGraph(rows=rows, widths=widths, p=chosen.p,
                        lengths=chosen.lengths, labels=chosen.labels,
                        prop=prop)


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
    # Not np.unique: it imports numpy.ma, which train needs nowhere else.
    for label in np.flatnonzero(np.bincount(graphs.labels)):
        group = np.flatnonzero(graphs.labels == label)
        group = group[rng.permutation(group.size)]
        tenth = int(0.1 * group.size)
        valid.append(group[:tenth])
        test.append(group[tenth:2 * tenth])
        train.append(group[2 * tenth:])
    return np.concatenate(train), np.concatenate(valid), np.concatenate(test)
