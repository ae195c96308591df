"""Dataset file format: round-trips, fuzzing, and corruption handling."""

from __future__ import annotations

import os
import stat
import struct

import numpy as np
import pytest

from cgnn.dataset import (DATASET_MAGIC, Dataset, load_dataset, parse_dataset,
                          save_dataset)
from cgnn.errors import CorruptFile
from cgnn.ioutil import WRITE_BUFFER, atomic_write_bytes
from cgnn.model import ModelDims, init_model, load_checkpoint, save_checkpoint

from conftest import graph_rows, graph_set, random_graphs, traced_peak


def small_dataset() -> Dataset:
    graphs = graph_set([np.array([[1, 2, 3, 4]], dtype=np.uint8),
                        np.array([[5, 6, 7, 8], [9, 10, 11, 12]],
                                 dtype=np.uint8)], [0, 1])
    return Dataset(graphs=graphs, label_names=["chat", "mail"])


def empty_dataset(label_names: list[str], p: int) -> Dataset:
    return Dataset(graphs=graph_set([], [], p), label_names=label_names)


def test_round_trip_small():
    data = small_dataset()
    parsed = parse_dataset(data.to_bytes())
    assert parsed.p == 4
    assert parsed.label_names == ["chat", "mail"]
    assert len(parsed.graphs) == 2
    for i in range(2):
        assert parsed.graphs.labels[i] == data.graphs.labels[i]
        assert np.array_equal(graph_rows(parsed.graphs, i),
                              graph_rows(data.graphs, i))


def test_round_trip_zero_graphs():
    data = empty_dataset(["only"], 16)
    parsed = parse_dataset(data.to_bytes())
    assert len(parsed.graphs) == 0
    assert parsed.label_names == ["only"]
    assert parsed.p == 16


def test_round_trip_single_vertex_small_p():
    data = Dataset(graphs=graph_set([np.array([[255]], dtype=np.uint8)], [0]),
                   label_names=["x"])
    parsed = parse_dataset(data.to_bytes())
    assert graph_rows(parsed.graphs, 0).tolist() == [[255]]


def test_label_name_order_preserved():
    data = empty_dataset(["zz", "aa", "mm"], 2)
    assert parse_dataset(data.to_bytes()).label_names == ["zz", "aa", "mm"]


def test_file_starts_with_magic_and_version():
    raw = small_dataset().to_bytes()
    assert raw[:4] == DATASET_MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == 2


def test_save_and_load_file(tmp_path):
    path = tmp_path / "sample.cgd1"
    data = small_dataset()
    assert save_dataset([data.graphs], path, data.label_names, 4) == 2
    assert path.read_bytes() == data.to_bytes()
    loaded = load_dataset(path)
    assert loaded.to_bytes() == data.to_bytes()


def test_load_views_features_and_copies_weights(tmp_path):
    path = tmp_path / "sample.cgd1"
    data = small_dataset()
    save_dataset([data.graphs], path, data.label_names, 4)
    raw = path.read_bytes()
    loaded = parse_dataset(raw).graphs
    # the buffer is the file's rows block, not a copy of it
    assert np.shares_memory(loaded.buffer, np.frombuffer(raw, np.uint8))
    assert loaded.buffer.tobytes() == bytes(range(1, 13))
    assert not loaded.buffer.flags.writeable
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
        data = Dataset(graphs=graphs, label_names=names)
        raw = data.to_bytes()
        assert parse_dataset(raw).to_bytes() == raw


def test_unicode_label_names():
    data = empty_dataset(["??????", "流量"], 3)
    assert parse_dataset(data.to_bytes()).label_names == data.label_names


def test_rejects_wrong_magic():
    raw = bytearray(small_dataset().to_bytes())
    raw[:4] = b"NOPE"
    with pytest.raises(CorruptFile, match="not a dataset file"):
        parse_dataset(bytes(raw))


def test_rejects_unknown_version():
    raw = bytearray(small_dataset().to_bytes())
    struct.pack_into("<I", raw, 4, 99)
    with pytest.raises(CorruptFile, match="dataset version 99"):
        parse_dataset(bytes(raw))


def test_rejects_truncation_at_every_prefix():
    raw = small_dataset().to_bytes()
    for cut in range(4, len(raw), 7):
        with pytest.raises(CorruptFile, match=r"need \d+ bytes at offset"):
            parse_dataset(raw[:cut])


def test_rejects_trailing_garbage():
    raw = small_dataset().to_bytes()
    with pytest.raises(CorruptFile, match="1 trailing bytes"):
        parse_dataset(raw + b"\x00")


def test_rejects_zero_feature_width():
    data = empty_dataset(["a"], 4)
    raw = bytearray(data.to_bytes())
    struct.pack_into("<I", raw, 8, 0)
    with pytest.raises(CorruptFile, match="feature length 0"):
        parse_dataset(bytes(raw))


def trailer_offsets(raw: bytes, num_graphs: int, num_rows: int):
    """Where a file's labels, lengths and widths columns begin."""
    labels = len(raw) - 4 * (2 * num_graphs + num_rows)
    return labels, labels + 4 * num_graphs, labels + 8 * num_graphs


def test_rejects_zero_vertex_graph():
    raw = bytearray(small_dataset().to_bytes())
    _, lengths, _ = trailer_offsets(raw, 2, 3)
    struct.pack_into("<II", raw, lengths, 0, 3)  # the row count still adds up
    with pytest.raises(CorruptFile, match="graph 0 has zero vertices"):
        parse_dataset(bytes(raw))


def test_rejects_label_id_beyond_class_count():
    raw = bytearray(small_dataset().to_bytes())
    labels, _, _ = trailer_offsets(raw, 2, 3)
    struct.pack_into("<I", raw, labels, 7)
    with pytest.raises(CorruptFile, match="graph 0 has label 7"):
        parse_dataset(bytes(raw))


def narrow_dataset_bytes() -> bytes:
    """Rows of widths 2, 4 and 1 (p = 4): a 7-byte rows block at
    offset 44, then labels, lengths and widths."""
    graphs = graph_set([np.array([[1, 2, 0, 0]], dtype=np.uint8),
                        np.array([[5, 6, 7, 8], [9, 0, 0, 0]],
                                 dtype=np.uint8)], [0, 1])
    return Dataset(graphs=graphs, label_names=["chat", "mail"]).to_bytes()


def v1_dataset_bytes() -> bytes:
    """The small dataset as version 1 wrote it: a header per graph."""
    head = b"CGD1" + struct.pack("<III", 1, 4, 2)
    names = b"".join(struct.pack("<I", len(n)) + n for n in (b"chat", b"mail"))
    return head + names + struct.pack("<I", 2) \
        + struct.pack("<II", 0, 1) + bytes([1, 2, 3, 4]) \
        + struct.pack("<II", 1, 2) + bytes(range(5, 13))


def patched(fmt: str, offset: int, *values):
    def patch(raw: bytearray) -> None:
        struct.pack_into(fmt, raw, offset if offset >= 0 else
                         len(raw) + offset, *values)
    return patch


# counts at offsets 32 (graphs) and 36 (row bytes, u64); the trailer's
# last 28 bytes: labels, lengths, widths
@pytest.mark.parametrize("patch, message", [
    (patched("<I", 32, 0xFFFFFFFF), r"need \d+ bytes at offset"),
    (patched("<Q", 36, 2 ** 64 - 1), r"need \d+ bytes at offset"),
    (patched("<II", -20, 0xFFFFFFFF, 2), r"need \d+ bytes at offset"),
    (patched("<II", -20, 1, 1), "4 trailing bytes"),
    (patched("<III", -12, 2, 5, 0), "row 1 stores 5 bytes, feature length "
                                    "is 4"),
    (patched("<III", -12, 2, 4, 2), "row widths sum to 8 bytes, rows block "
                                    "holds 7"),
    (patched("<II", -20, 0, 3), "graph 0 has zero vertices"),
    (patched("<I", -24, 2), "graph 1 has label 2, file declares 2 classes"),
], ids=["graphs past the end", "rows block past the end",
        "rows past the end", "rows short of the end", "width above p",
        "widths past the block", "zero-vertex graph",
        "label beyond the classes"])
def test_rejects_a_corrupt_trailer_before_sizing_any_array(patch, message):
    raw = bytearray(narrow_dataset_bytes())
    assert len(raw) == 44 + 7 + 4 * (2 + 2 + 3)
    parse_dataset(bytes(raw))  # valid as written
    patch(raw)

    def parse():
        with pytest.raises(CorruptFile, match=message):
            parse_dataset(bytes(raw))

    _, peak = traced_peak(parse)
    assert peak < 64 * 1024  # nothing sized by a declared count


def test_rejects_a_version_1_file():
    with pytest.raises(CorruptFile,
                       match="dataset version 1, this build reads 2"):
        parse_dataset(v1_dataset_bytes())


def test_save_streams_parts_in_order_and_patches_the_count(tmp_path, rng):
    parts = [random_graphs(rng, count, p=5) for count in (3, 0, 4)]
    path = tmp_path / "out.cgd1"
    assert save_dataset(iter(parts), path, ["a", "b"], 5) == 7
    loaded = load_dataset(path).graphs
    assert len(loaded) == 7
    whole = [(part, i) for part in parts for i in range(len(part))]
    for j, (part, i) in enumerate(whole):
        assert loaded.labels[j] == part.labels[i]
        assert np.array_equal(graph_rows(loaded, j), graph_rows(part, i))


def test_save_past_the_write_buffer_matches_to_bytes(tmp_path, rng):
    graphs = random_graphs(rng, 160, p=1500)
    assert graphs.buffer.nbytes > 4 * WRITE_BUFFER
    parts = [graphs[np.arange(i, i + 40)] for i in range(0, 160, 40)]
    path = tmp_path / "big.cgd1"
    assert save_dataset(parts, path, ["a", "b"], 1500) == 160
    assert path.read_bytes() == Dataset(graphs, ["a", "b"]).to_bytes()


def test_failed_part_leaves_no_file(tmp_path, rng):
    path = tmp_path / "out.cgd1"
    on_disk = []

    def parts():
        yield random_graphs(rng, 3, p=4)
        yield random_graphs(rng, 60, p=1500)  # past the write buffer
        on_disk.extend(f.stat().st_size for f in tmp_path.iterdir())
        raise CorruptFile("third capture is broken")

    with pytest.raises(CorruptFile, match="third capture is broken"):
        save_dataset(parts(), path, ["a", "b"], 1500)
    assert len(on_disk) == 1 and on_disk[0] > 0  # a buffer was flushed
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_gives_the_mode_open_gives(tmp_path):
    old = os.umask(0o022)
    try:
        atomic_write_bytes(tmp_path / "atomic", b"x")
        with open(tmp_path / "plain", "wb") as handle:
            handle.write(b"x")
    finally:
        os.umask(old)
    mode = {name: stat.S_IMODE((tmp_path / name).stat().st_mode)
            for name in ("atomic", "plain")}
    assert mode["atomic"] == mode["plain"]


def test_atomic_save_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.cgd1"
    data = small_dataset()
    save_dataset([data.graphs], path, data.label_names, 4)
    assert [f.name for f in tmp_path.iterdir()] == ["out.cgd1"]
