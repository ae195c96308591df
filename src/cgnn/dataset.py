"""On-disk dataset of labeled chained graphs (magic "CGD1").

Little-endian layout:

    magic        4 bytes  b"CGD1"
    version      u32      currently 1
    p            u32      feature length of every vertex row
    num_classes  u32
    label names  num_classes strings, each u32 length + UTF-8 bytes
    num_graphs   u32
    graphs       per graph: label u32, n u32, then n*p raw feature bytes

In memory a dataset is one GraphSet plus its label names. A parsed
file's bytes are its buffer: one scan of the per-graph headers notes
the byte offset of each graph's rows (offsets, since a header sits
between graphs), and no feature byte is copied. A writer streams one
GraphSet after another and patches num_graphs in at the end.
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
DATASET_VERSION = 1


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
    handle, each feature row written from its buffer without a copy.
    Returns the graph count, which is patched in after the last part."""
    w = ByteWriter(handle)
    w.header(DATASET_MAGIC, DATASET_VERSION)
    w.u32(p)
    w.u32(len(label_names))
    for name in label_names:
        w.utf8(name)
    count_at = handle.tell()
    w.u32(0)
    count = 0
    for part in parts:
        for start, n, label in zip(part.starts.tolist(),
                                   part.lengths.tolist(),
                                   part.labels.tolist()):
            w.u32(label)
            w.u32(n)
            w.raw(part.buffer[start:start + n * p])
        count += len(part)
    handle.seek(count_at)
    w.u32(count)
    handle.seek(0, io.SEEK_END)
    return count


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
    num_graphs = r.u32()
    # grown per graph read, never sized by the count the file declares
    heads = []  # (start, n, label) per graph
    for i in range(num_graphs):
        label = r.u32()
        if label >= num_classes:
            raise CorruptFile(
                f"graph {i} has label {label}, file declares "
                f"{num_classes} classes")
        n = r.u32()
        if n == 0:
            raise CorruptFile(f"graph {i} has zero vertices")
        heads.append((r.skip(n * p), n, label))
    r.expect_end()
    starts, lengths, labels = np.array(heads, np.int64).reshape(-1, 3).T
    graphs = GraphSet(buffer=np.frombuffer(data, dtype=np.uint8), p=p,
                      starts=starts, lengths=lengths, labels=labels)
    return Dataset(graphs=graphs, label_names=label_names)


def load_dataset(path: Path | str) -> Dataset:
    return parse_dataset(Path(path).read_bytes())
