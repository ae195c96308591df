"""Small helpers shared by the binary file formats.

Both on-disk formats are little-endian streams of u32 and u64 fields,
length-prefixed UTF-8 strings, and raw arrays. Files are written to a
temporary sibling and renamed into place so readers never observe half
a file.
"""

from __future__ import annotations

import csv
import io
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .errors import CorruptFile

@contextmanager
def atomic_write(path: Path | str) -> Iterator[BinaryIO]:
    """A binary handle on a temporary sibling of path, renamed over path
    when the block ends without an exception. When it raises, the
    temporary file and the directories this call made are deleted."""
    path = Path(path)
    made = [d for d in path.parents if not d.exists()]  # innermost first
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)  # mkstemp made it 0600
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
            for directory in made:
                directory.rmdir()
        except OSError:
            pass
        raise


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Write data to path via a temporary file and an atomic rename."""
    with atomic_write(path) as handle:
        handle.write(data)


def atomic_write_csv(path: Path | str, rows) -> None:
    """Write rows of fields as CSV, one line each, quoting only as needed."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    atomic_write_bytes(path, text.getvalue().encode("utf-8"))


class ByteWriter:
    """Writes little-endian fields to a binary handle."""

    def __init__(self, handle: BinaryIO) -> None:
        self._handle = handle

    def raw(self, data) -> None:
        """Any C-contiguous buffer: bytes, or a uint8 array unconverted."""
        self._handle.write(data)

    def header(self, magic: bytes, version: int) -> None:
        self.raw(magic)
        self.u32(version)

    def u32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"value {value} does not fit in u32")
        self._handle.write(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._handle.write(struct.pack("<Q", value))

    def u32_array(self, values: np.ndarray) -> None:
        if values.size and not 0 <= values.min() <= values.max() < 2 ** 32:
            raise ValueError("values do not fit in u32")
        self._handle.write(values.astype("<u4"))

    def utf8(self, text: str) -> None:
        data = text.encode("utf-8")
        self.u32(len(data))
        self._handle.write(data)

    def f32_array(self, arr: np.ndarray) -> None:
        self._handle.write(np.ascontiguousarray(arr, dtype="<f4"))


class ByteReader:
    """Walks a byte string, raising CorruptFile on any overrun. raw()
    returns a view into the string, not a copy."""

    def __init__(self, data: bytes) -> None:
        self._data = memoryview(data)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def raw(self, count: int) -> memoryview:
        if count < 0 or count > self.remaining:
            raise CorruptFile(
                f"need {count} bytes at offset {self._pos}, "
                f"have {self.remaining}")
        self._pos += count
        return self._data[self._pos - count:self._pos]

    def u32(self) -> int:
        (value,) = struct.unpack("<I", self.raw(4))
        return value

    def u64(self) -> int:
        (value,) = struct.unpack("<Q", self.raw(8))
        return value

    def u32_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.raw(4 * count), dtype="<u4")

    def header(self, magic: bytes, version: int, kind: str) -> None:
        """Check a file's magic and format version; kind names the file
        in the error."""
        if self.raw(len(magic)) != magic:
            raise CorruptFile(f"not a {kind} file (bad magic)")
        found = self.u32()
        if found != version:
            raise CorruptFile(
                f"{kind} version {found}, this build reads {version}")

    def utf8(self) -> str:
        data = self.raw(self.u32())
        try:
            return str(data, "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFile(f"string field is not valid UTF-8: {exc}")

    def f32_array(self, shape: tuple[int, ...]) -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = self.raw(4 * count)
        return np.frombuffer(data, dtype="<f4").astype(
            np.float32).reshape(shape)

    def expect_end(self) -> None:
        if self.remaining:
            raise CorruptFile(
                f"{self.remaining} trailing bytes after the last field")
