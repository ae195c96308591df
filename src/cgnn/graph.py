"""Chained graphs over session packets, as one columnar set, and their
propagation.

Each session becomes a graph whose vertices are its packets in arrival
order, joined in a chain: packet i connects to packet i+1, giving n
vertices and n-1 edges. The topology is a function of n alone, so a set
of graphs is its rows, each graph's first row and vertex count, and the
labels (as in PyTorch Geometric's ``ptr`` layout). A row is stored as
its packet's cleaned bytes cut to p, its width, in one flat byte buffer;
a batch gathers its rows once, into width buckets, and multiplies them
for the first layer (X theta and X^T g, X its bytes / 255). The
propagation matrix is kept as each row's three taps and applied a hop
at a time, each row from a 3-row window of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import DimsMismatch

# A batch puts its rows into buckets by width with fixed edges
# WIDTH_STEP, 2 * WIDTH_STEP, ..., p, and the first layer multiplies
# each bucket over its first `edge` columns only, so each row's product
# is a function of its own bytes. Narrower steps skip more zero bytes
# in more, smaller products. ms per predict_probs of 20,315 rows in 150
# sessions, p = 1500, d1 = 516, BATCH_ROWS 1024 (2-vCPU Xeon, OpenBLAS):
# step (1500: one bucket)  128   192   256   320   384   512  1500
#                          293   287   281   280   284   295   367
WIDTH_STEP = 256
PART_ROWS = 256  # rows of transpose_product's reused scratch block


@dataclass(frozen=True)
class ChainedGraph:
    """One graph of a GraphSet, kept for bench/: the vertex count and label
    that run.py checks and launch.py sums. Its rows are only in the set."""

    n: int
    label: int


@dataclass
class GraphSet:
    """Labeled graphs on one row buffer: row r is buffer[bounds[r]:
    bounds[r + 1]], and graph i the lengths[i] rows from row first[i]. A
    slice or an index array gives the chosen graphs, in order, as a
    GraphSet on the same buffer."""

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

    def __getitem__(self, idx) -> "GraphSet":
        return GraphSet(buffer=self.buffer, p=self.p, bounds=self.bounds,
                        first=self.first[idx], lengths=self.lengths[idx],
                        labels=self.labels[idx])

    def __iter__(self) -> Iterator[ChainedGraph]:
        return map(ChainedGraph, self.lengths.tolist(), self.labels.tolist())

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
    stored as each row's three taps; a batch of chains stays tridiagonal
    with zero taps where two graphs meet.
    """

    taps: np.ndarray  # (N, 3) float64: row i's weights of rows i-1, i, i+1

    @classmethod
    def for_batch(cls, lengths: Sequence[int]) -> "ChainPropagation":
        """Propagation over consecutive chains of the given positive
        lengths. The self-loop-augmented degree is 3 inside a chain, 2 at
        its ends and 1 for a single vertex."""
        lengths = np.asarray(lengths, dtype=np.int64)
        ends = np.cumsum(lengths)
        deg = np.full(ends[-1], 3.0, dtype=np.float64)
        deg[ends - lengths] -= 1.0
        deg[ends - 1] -= 1.0
        off = np.zeros(ends[-1] + 1)  # off[i] joins rows i - 1 and i
        off[1:-1] = 1.0 / np.sqrt(deg[:-1] * deg[1:])
        off[ends[:-1]] = 0.0  # two graphs meet here
        return cls(taps=np.stack([off[:-1], 1.0 / deg, off[1:]], axis=1))

    @property
    def n(self) -> int:
        return self.taps.shape[0]

    def apply(self, x: np.ndarray, hops: int = 1) -> np.ndarray:
        """Multiply S @ x (hops times) without forming S. The matrix is
        symmetric, so this also serves as multiplication by its transpose.
        A hop reads x once: row i is its taps times rows i-1..i+1, one
        stacked (1, 3) @ (3, width) matmul over a strided view of x; the
        first and last rows take the taps that fit."""
        n = self.n
        if x.shape[0] != n:
            raise DimsMismatch(
                f"matrix has {x.shape[0]} rows, propagation covers {n}")
        taps = self.taps.astype(x.dtype, copy=False)
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
    """Several graphs packed for one forward pass: their rows in width
    buckets (see batch_graphs), each graph's vertex count, so pooling can
    find its rows again, and their propagation. The first layer reads the
    rows, as bytes / 255, only through product and transpose_product."""

    buckets: list[tuple[np.ndarray | slice, np.ndarray]]  # uint8 rows
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

    def product(self, theta: np.ndarray) -> np.ndarray:
        """X theta. Each bucket is cast and multiplied alone, so one
        float piece is alive."""
        out = np.empty((self.prop.n, theta.shape[1]), dtype=theta.dtype)
        for idx, rows in self.buckets:
            x = np.divide(rows, 255, dtype=theta.dtype)
            if isinstance(idx, slice):  # the one bucket: every row, in order
                np.matmul(x, theta[:x.shape[1]], out=out)
            else:
                out[idx] = x @ theta[:x.shape[1]]
            del x  # before the next bucket is cast
        return out

    def transpose_product(self, g: np.ndarray) -> np.ndarray:
        """X^T g, one float piece alive at a time: the first (widest)
        bucket's X_b^T g[rows_b] is written into the rows of its columns,
        each later one added there."""
        out = np.zeros((self.p, g.shape[1]), dtype=g.dtype)
        part = None
        for idx, rows in self.buckets:
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


def batch_graphs(graphs: GraphSet, idx=slice(None)) -> BatchedGraph:
    """The graphs idx picks (default all), in that order, as one batch
    with a block propagation matrix. Each row's bytes are gathered once,
    into the bucket of the first edge at or past its width, as the `edge`
    bytes from its start with those past its width zeroed. A bucket is
    its row indices (slice(None) when it holds every row) and those uint8
    rows; the widest comes first, then the rest narrowest first."""
    chosen = graphs[idx]
    prop = ChainPropagation.for_batch(chosen.lengths)
    p = chosen.p
    data, widths = chosen.packed(pad=p)
    count = -(-p // WIDTH_STEP)  # the last edge is p
    bucket = np.clip(-(-widths // WIDTH_STEP), 1, count)
    present = np.flatnonzero(np.bincount(bucket))
    windows = sliding_window_view(data, p)  # p bytes from each offset
    starts = np.cumsum(widths) - widths
    keep = np.tri(WIDTH_STEP + 1, WIDTH_STEP, -1, dtype=np.uint8)  # j ones
    buckets = []
    for k in np.roll(present, 1).tolist():
        edge, low = min(k * WIDTH_STEP, p), (k - 1) * WIDTH_STEP
        at = np.flatnonzero(bucket == k) if present.size > 1 else slice(None)
        x, width = windows[starts[at], :edge], widths[at]
        if width.min() < edge:
            x[:, low:] *= keep[width - low, :edge - low]
        buckets.append((at, x))
    return BatchedGraph(buckets=buckets, p=p, lengths=chosen.lengths,
                        labels=chosen.labels, prop=prop)


def split_dataset(graphs: GraphSet, seed: int = 0,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified 8:1:1 train/validation/test split as three index
    arrays into graphs, deterministic per seed.

    Within every label the graphs are shuffled, then floor(n/10) go to
    validation, floor(n/10) to test, and the rest to train. Each part
    lists the labels in increasing order.
    """
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
