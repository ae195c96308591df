"""Dataset file format: round-trips, fuzzing, and corruption handling."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from cgnn.dataset import (DATASET_MAGIC, Dataset, load_dataset, parse_dataset,
                          save_dataset)
from cgnn.errors import (BadMagic, CorruptLength, LabelOutOfRange,
                         MixedFeatureWidth, VersionMismatch)
from cgnn.graph import ChainedGraph
from cgnn.model import ModelDims, init_model, load_checkpoint, save_checkpoint

from conftest import random_graphs


def small_dataset() -> Dataset:
    graphs = [
        ChainedGraph(np.array([[1, 2, 3, 4]], dtype=np.uint8), 0),
        ChainedGraph(np.array([[5, 6, 7, 8], [9, 10, 11, 12]],
                              dtype=np.uint8), 1),
    ]
    return Dataset(graphs=graphs, label_names=["chat", "mail"], p=4)


def test_round_trip_small():
    data = small_dataset()
    parsed = parse_dataset(data.to_bytes())
    assert parsed.p == 4
    assert parsed.label_names == ["chat", "mail"]
    assert len(parsed.graphs) == 2
    for original, restored in zip(data.graphs, parsed.graphs):
        assert restored.label == original.label
        assert np.array_equal(restored.features, original.features)


def test_round_trip_zero_graphs():
    data = Dataset(graphs=[], label_names=["only"], p=16)
    parsed = parse_dataset(data.to_bytes())
    assert parsed.graphs == []
    assert parsed.label_names == ["only"]
    assert parsed.p == 16


def test_round_trip_single_vertex_small_p():
    graph = ChainedGraph(np.array([[255]], dtype=np.uint8), 0)
    data = Dataset(graphs=[graph], label_names=["x"], p=1)
    parsed = parse_dataset(data.to_bytes())
    assert parsed.graphs[0].features.tolist() == [[255]]


def test_label_name_order_preserved():
    data = Dataset(graphs=[], label_names=["zz", "aa", "mm"], p=2)
    assert parse_dataset(data.to_bytes()).label_names == ["zz", "aa", "mm"]


def test_file_starts_with_magic_and_version():
    raw = small_dataset().to_bytes()
    assert raw[:4] == DATASET_MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == 1


def test_save_and_load_file(tmp_path):
    path = tmp_path / "sample.cgd1"
    data = small_dataset()
    save_dataset(data, path)
    assert path.read_bytes() == data.to_bytes()
    loaded = load_dataset(path)
    assert loaded.to_bytes() == data.to_bytes()


def test_load_views_features_and_copies_weights(tmp_path):
    path = tmp_path / "sample.cgd1"
    save_dataset(small_dataset(), path)
    for graph in load_dataset(path).graphs:
        assert not graph.features.flags.owndata
        assert not graph.features.flags.writeable
    model = init_model(ModelDims(p=4, d1=3, d2=2, m=2), seed=0)
    save_checkpoint(model, ["chat", "mail"], tmp_path / "model.cgm1")
    for weights in load_checkpoint(tmp_path / "model.cgm1").model.params():
        assert weights.flags.writeable  # a view of the bytes would not be


def test_fuzz_round_trip_bit_exact(rng):
    for trial in range(25):
        p = int(rng.integers(1, 40))
        num_classes = int(rng.integers(1, 5))
        names = [f"class-{trial}-{i}-é" for i in range(num_classes)]
        count = int(rng.integers(0, 12))
        graphs = random_graphs(rng, count, p=p, num_classes=num_classes)
        data = Dataset(graphs=graphs, label_names=names, p=p)
        raw = data.to_bytes()
        assert parse_dataset(raw).to_bytes() == raw


def test_unicode_label_names():
    data = Dataset(graphs=[], label_names=["??????", "流量"], p=3)
    assert parse_dataset(data.to_bytes()).label_names == data.label_names


def test_rejects_wrong_magic():
    raw = bytearray(small_dataset().to_bytes())
    raw[:4] = b"NOPE"
    with pytest.raises(BadMagic):
        parse_dataset(bytes(raw))


def test_rejects_unknown_version():
    raw = bytearray(small_dataset().to_bytes())
    struct.pack_into("<I", raw, 4, 99)
    with pytest.raises(VersionMismatch):
        parse_dataset(bytes(raw))


def test_rejects_truncation_at_every_prefix():
    raw = small_dataset().to_bytes()
    for cut in range(4, len(raw), 7):
        with pytest.raises((BadMagic, CorruptLength)):
            parse_dataset(raw[:cut])


def test_rejects_trailing_garbage():
    raw = small_dataset().to_bytes()
    with pytest.raises(CorruptLength):
        parse_dataset(raw + b"\x00")


def test_rejects_zero_feature_width():
    data = Dataset(graphs=[], label_names=["a"], p=4)
    raw = bytearray(data.to_bytes())
    struct.pack_into("<I", raw, 8, 0)
    with pytest.raises(CorruptLength):
        parse_dataset(bytes(raw))


# Offset of the first graph record: magic, version, p, num_classes,
# two length-prefixed names, num_graphs.
FIRST_GRAPH_OFFSET = 4 + 4 + 4 + 4 + (4 + 4) + (4 + 4) + 4


def test_rejects_zero_vertex_graph():
    raw = bytearray(small_dataset().to_bytes())
    struct.pack_into("<I", raw, FIRST_GRAPH_OFFSET + 4, 0)
    with pytest.raises(CorruptLength):
        parse_dataset(bytes(raw))


def test_rejects_label_id_beyond_class_count():
    raw = bytearray(small_dataset().to_bytes())
    struct.pack_into("<I", raw, FIRST_GRAPH_OFFSET, 7)
    with pytest.raises(LabelOutOfRange):
        parse_dataset(bytes(raw))


def test_validate_catches_mixed_width():
    graphs = [ChainedGraph(np.zeros((1, 3), np.uint8), 0),
              ChainedGraph(np.zeros((1, 4), np.uint8), 0)]
    data = Dataset(graphs=graphs, label_names=["a"], p=3)
    with pytest.raises(MixedFeatureWidth):
        data.validate()


def test_validate_catches_bad_label():
    graphs = [ChainedGraph(np.zeros((1, 3), np.uint8), 5)]
    data = Dataset(graphs=graphs, label_names=["a"], p=3)
    with pytest.raises(LabelOutOfRange):
        data.validate()


def test_atomic_save_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.cgd1"
    save_dataset(small_dataset(), path)
    assert [f.name for f in tmp_path.iterdir()] == ["out.cgd1"]
