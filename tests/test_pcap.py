"""Capture container walking against hand-built golden files."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from cgnn.errors import BadMagic, UnsupportedLinkType
from cgnn.pcap import RECORD_HEADER_LEN, walk_pcap

from conftest import pcap_bytes

FRAME = bytes(range(60))


def golden_single_record(magic: int = 0xA1B2C3D4,
                         big_endian: bool = False) -> bytes:
    """One 60-byte frame, header laid out field by field."""
    end = ">" if big_endian else "<"
    header = struct.pack(end + "I", magic)
    header += struct.pack(end + "HH", 2, 4)  # format version 2.4
    header += struct.pack(end + "i", 0)  # timezone offset
    header += struct.pack(end + "I", 0)  # timestamp significand figures
    header += struct.pack(end + "I", 65535)  # snaplen
    header += struct.pack(end + "I", 1)  # link type: Ethernet
    record = struct.pack(end + "IIII", 1700000000, 123456, 60, 60)
    return header + record + FRAME


def frames_of(table) -> list[bytes]:
    """The frame bytes a walked table points at."""
    return [table.data[s:s + n] for s, n in zip(table.starts.tolist(),
                                                table.lengths.tolist())]


def test_golden_single_record_little_endian():
    data = golden_single_record()
    table = walk_pcap(data)
    assert table.starts.tolist() == [24 + RECORD_HEADER_LEN]
    assert table.lengths.tolist() == [60]  # captured length
    assert frames_of(table) == [FRAME]
    assert table.snaplen == 65535
    assert not table.nanosecond
    assert not table.big_endian
    assert not table.truncated


def test_byte_swapped_magic_gives_identical_record():
    little = walk_pcap(golden_single_record())
    big = walk_pcap(golden_single_record(big_endian=True))
    assert big.starts.tolist() == little.starts.tolist()
    assert big.lengths.tolist() == little.lengths.tolist()
    assert frames_of(big) == frames_of(little)
    assert big.big_endian and not little.big_endian


@pytest.mark.parametrize("magic,big_endian,nanos", [
    (0xA1B2C3D4, False, False),
    (0xA1B2C3D4, True, False),
    (0xA1B23C4D, False, True),
    (0xA1B23C4D, True, True),
])
def test_all_four_magic_values(magic, big_endian, nanos):
    table = walk_pcap(golden_single_record(magic, big_endian))
    assert table.nanosecond == nanos
    assert table.big_endian == big_endian
    assert frames_of(table) == [FRAME]


def test_header_only_file_gives_zero_records():
    table = walk_pcap(pcap_bytes([]))
    assert table.starts.size == table.lengths.size == 0
    assert not table.truncated


def test_bad_magic():
    with pytest.raises(BadMagic):
        walk_pcap(b"\xde\xad\xbe\xef" + b"\x00" * 20)


def test_file_shorter_than_global_header():
    with pytest.raises(BadMagic):
        walk_pcap(b"\xd4\xc3\xb2\xa1\x02\x00")


def test_non_ethernet_link_type():
    data = bytearray(golden_single_record())
    data[20:24] = struct.pack("<I", 101)  # raw IP link type
    with pytest.raises(UnsupportedLinkType):
        walk_pcap(bytes(data))


def test_record_body_truncated_keeps_earlier_records():
    data = pcap_bytes([FRAME, FRAME])
    cut = walk_pcap(data[:-10])
    assert frames_of(cut) == [FRAME]
    assert cut.truncated


def test_partial_record_header_sets_flag():
    data = pcap_bytes([FRAME])
    cut = walk_pcap(data + b"\x01\x02\x03")  # 3 stray header bytes
    assert frames_of(cut) == [FRAME]
    assert cut.truncated


def test_captured_len_beyond_snaplen_stops():
    table = walk_pcap(pcap_bytes([FRAME], snaplen=32))
    assert table.starts.size == 0
    assert table.truncated


def test_walk_locates_frames_without_copying():
    frames = [FRAME, b"", FRAME[:14], FRAME * 3]
    data = pcap_bytes(frames)
    table = walk_pcap(data)
    assert table.data is data
    assert table.starts.dtype == table.lengths.dtype == np.int64
    assert [data[s:s + n] for s, n in zip(table.starts.tolist(),
                                          table.lengths.tolist())] == frames
    assert not table.truncated
    cut = walk_pcap(data[:-1])
    assert cut.truncated and cut.lengths.tolist() == [60, 0, 14]
    assert walk_pcap(pcap_bytes([FRAME], snaplen=32)).starts.size == 0


def test_round_trip_many_records(rng):
    frames = [bytes(rng.integers(0, 256, size=int(n)).astype("uint8"))
              for n in rng.integers(14, 200, size=20)]
    for magic in (0xA1B2C3D4, 0xA1B23C4D):
        for big_endian in (False, True):
            table = walk_pcap(pcap_bytes(frames, magic=magic,
                                         big_endian=big_endian))
            assert frames_of(table) == frames
            assert table.lengths.tolist() == [len(f) for f in frames]
            assert table.nanosecond == (magic == 0xA1B23C4D)
            assert table.big_endian == big_endian
            assert not table.truncated
