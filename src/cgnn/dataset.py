"""On-disk dataset of labeled chained graphs (magic "CGD1").

Little-endian layout:

    magic        4 bytes  b"CGD1"
    version      u32      currently 2
    p            u32      feature length of every vertex row
    num_classes  u32
    label names  num_classes strings, each u32 length + UTF-8 bytes
    num_graphs   u32
    row_bytes    u64      length of the rows block
    rows         every row's stored bytes, in order
    labels       num_graphs u32
    lengths      num_graphs u32, vertex counts
    widths       sum(lengths) u32, stored bytes per row (at most p)

A row's p-byte vector is its stored bytes followed by zeros. In memory
a dataset is one GraphSet plus its label names; a parsed file's rows
block is its buffer, not a copy. A writer streams the rows of one
GraphSet after another, then the trailer, and patches the counts in.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

from .errors import CorruptFile
from .graph import GraphSet
from .ioutil import ByteReader, ByteWriter, atomic_write

DATASET_MAGIC = b"CGD1"
DATASET_VERSION = 2


@dataclass
class Dataset:
    """Labeled graphs plus the label-id to name mapping they index into."""

    graphs: GraphSet
    label_names: list[str]

    @property
    def p(self) -> int:
        return self.graphs.p

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        _write(buf, [self.graphs], self.label_names, self.p)
        return buf.getvalue()


def _write(handle: BinaryIO, parts: Iterable[GraphSet],
           label_names: list[str], p: int) -> int:
    """Serialize every graph of parts, in order, to a seekable binary
    handle: each part's rows in one write (from the buffer, without a
    copy when the part's graphs lie in it in order), then the trailer.
    Returns the graph count, which is patched in after the last part."""
    w = ByteWriter(handle)
    w.header(DATASET_MAGIC, DATASET_VERSION)
    w.u32(p)
    w.u32(len(label_names))
    for name in label_names:
        w.utf8(name)
    counts_at = handle.tell()
    w.u32(0)
    w.u64(0)
    columns = [(np.zeros(0, dtype=np.int64),) * 3]  # labels, lengths, widths
    for part in parts:
        rows, widths = part.packed()
        w.raw(rows)
        columns.append((part.labels, part.lengths, widths))
    labels, lengths, widths = map(np.concatenate, zip(*columns))
    for column in (labels, lengths, widths):
        w.u32_array(column)
    handle.seek(counts_at)
    w.u32(labels.size)
    w.u64(int(widths.sum()))
    handle.seek(0, io.SEEK_END)
    return labels.size


def save_dataset(parts: Iterable[GraphSet], path: Path | str,
                 label_names: list[str], p: int) -> int:
    """Stream the graphs of every part into a temporary file renamed over
    path, writing each part as it arrives; returns the graph count. If
    parts raises, no file is left at path."""
    with atomic_write(path) as handle:
        return _write(handle, parts, label_names, p)


def parse_dataset(data: bytes) -> Dataset:
    r = ByteReader(data)
    r.header(DATASET_MAGIC, DATASET_VERSION, "dataset")
    p = r.u32()
    if p == 0:
        raise CorruptFile("dataset declares feature length 0")
    num_classes = r.u32()
    label_names = [r.utf8() for _ in range(num_classes)]
    num_graphs, row_bytes = r.u32(), r.u64()
    rows = r.raw(row_bytes)
    labels, lengths = r.u32_array(num_graphs), r.u32_array(num_graphs)
    widths = r.u32_array(int(lengths.sum(dtype=np.int64)))
    r.expect_end()
    bad = np.flatnonzero(labels >= num_classes)
    if bad.size:
        raise CorruptFile(f"graph {bad[0]} has label {labels[bad[0]]}, "
                          f"file declares {num_classes} classes")
    bad = np.flatnonzero(lengths == 0)
    if bad.size:
        raise CorruptFile(f"graph {bad[0]} has zero vertices")
    bad = np.flatnonzero(widths > p)
    if bad.size:
        raise CorruptFile(f"row {bad[0]} stores {widths[bad[0]]} bytes, "
                          f"feature length is {p}")
    if widths.sum(dtype=np.int64) != row_bytes:
        raise CorruptFile(f"row widths sum to {widths.sum(dtype=np.int64)} "
                          f"bytes, rows block holds {row_bytes}")
    graphs = GraphSet.from_widths(np.frombuffer(rows, dtype=np.uint8), p,
                                  widths, lengths, labels)
    return Dataset(graphs=graphs, label_names=label_names)


def load_dataset(path: Path | str) -> Dataset:
    return parse_dataset(Path(path).read_bytes())
