"""On-disk dataset of labeled chained graphs (magic "CGD1").

Little-endian layout:

    magic        4 bytes  b"CGD1"
    version      u32      currently 1
    p            u32      feature length of every vertex row
    num_classes  u32
    label names  num_classes strings, each u32 length + UTF-8 bytes
    num_graphs   u32
    graphs       per graph: label u32, n u32, then n*p raw feature bytes
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (BadMagic, CorruptLength, LabelOutOfRange,
                     MixedFeatureWidth, VersionMismatch)
from .graph import ChainedGraph
from .ioutil import ByteReader, ByteWriter, atomic_write

DATASET_MAGIC = b"CGD1"
DATASET_VERSION = 1


@dataclass
class Dataset:
    """Labeled graphs plus the label-id to name mapping they index into."""

    graphs: list[ChainedGraph]
    label_names: list[str]
    p: int

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    def validate(self) -> None:
        for i, graph in enumerate(self.graphs):
            if graph.p != self.p:
                raise MixedFeatureWidth(
                    f"graph {i} has feature length {graph.p}, "
                    f"dataset declares {self.p}")
            if not 0 <= graph.label < self.num_classes:
                raise LabelOutOfRange(
                    f"graph {i} has label {graph.label}, dataset has "
                    f"{self.num_classes} classes")

    def write(self, handle: BinaryIO) -> None:
        """Serialize to a binary handle, each graph's feature buffer
        written as it is, without an intermediate copy."""
        self.validate()
        w = ByteWriter(handle)
        w.raw(DATASET_MAGIC)
        w.u32(DATASET_VERSION)
        w.u32(self.p)
        w.u32(self.num_classes)
        for name in self.label_names:
            w.utf8(name)
        w.u32(len(self.graphs))
        for graph in self.graphs:
            w.u32(graph.label)
            w.u32(graph.n)
            w.raw(np.ascontiguousarray(graph.features, dtype=np.uint8))

    def to_bytes(self) -> bytes:
        buf = io.BytesIO()
        self.write(buf)
        return buf.getvalue()


def save_dataset(dataset: Dataset, path: Path | str) -> None:
    """Stream the dataset into a temporary file renamed over path."""
    with atomic_write(path) as handle:
        dataset.write(handle)


def parse_dataset(data: bytes) -> Dataset:
    r = ByteReader(data)
    if r.raw(4) != DATASET_MAGIC:
        raise BadMagic("not a dataset file (bad magic)")
    version = r.u32()
    if version != DATASET_VERSION:
        raise VersionMismatch(
            f"dataset version {version}, this build reads "
            f"{DATASET_VERSION}")
    p = r.u32()
    if p == 0:
        raise CorruptLength("dataset declares feature length 0")
    num_classes = r.u32()
    label_names = [r.utf8() for _ in range(num_classes)]
    num_graphs = r.u32()
    graphs = []
    for i in range(num_graphs):
        label = r.u32()
        if label >= num_classes:
            raise LabelOutOfRange(
                f"graph {i} has label {label}, file declares "
                f"{num_classes} classes")
        n = r.u32()
        if n == 0:
            raise CorruptLength(f"graph {i} has zero vertices")
        # a read-only view into the file bytes, which it keeps alive
        features = np.frombuffer(r.raw(n * p), dtype=np.uint8).reshape(n, p)
        graphs.append(ChainedGraph(features=features, label=label))
    r.expect_end()
    return Dataset(graphs=graphs, label_names=label_names, p=p)


def load_dataset(path: Path | str) -> Dataset:
    return parse_dataset(Path(path).read_bytes())
