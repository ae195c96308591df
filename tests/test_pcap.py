"""Capture container walking against hand-built golden files."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from cgnn.errors import CorruptFile
from cgnn.preprocess import RECORD_HEADER_LEN, walk_pcap

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


def frames_of(data: bytes) -> list[bytes]:
    """The frame bytes the walk of a capture points at."""
    starts, lengths, _ = walk_pcap(data)
    return [data[s:s + n] for s, n in zip(starts.tolist(), lengths.tolist())]


def test_golden_single_record_little_endian():
    data = golden_single_record()
    starts, lengths, truncated = walk_pcap(data)
    assert starts.tolist() == [24 + RECORD_HEADER_LEN]
    assert lengths.tolist() == [60]  # captured length
    assert frames_of(data) == [FRAME]
    assert not truncated


def test_byte_swapped_magic_gives_identical_record():
    little = walk_pcap(golden_single_record())
    big = walk_pcap(golden_single_record(big_endian=True))
    assert big[0].tolist() == little[0].tolist()
    assert big[1].tolist() == little[1].tolist()
    assert big[2] is little[2] is False
    assert frames_of(golden_single_record(big_endian=True)) \
        == frames_of(golden_single_record())


@pytest.mark.parametrize("magic,big_endian,nanos", [
    (0xA1B2C3D4, False, False),
    (0xA1B2C3D4, True, False),
    (0xA1B23C4D, False, True),
    (0xA1B23C4D, True, True),
])
def test_all_four_magic_values(magic, big_endian, nanos):
    """Every magic value in either byte order walks to the records of the
    little-endian microsecond file."""
    data = golden_single_record(magic, big_endian)
    assert nanos == (magic == 0xA1B23C4D)  # the walk reads no timestamp
    starts, lengths, truncated = walk_pcap(data)
    assert starts.tolist() == [24 + RECORD_HEADER_LEN]
    assert lengths.tolist() == [60]
    assert not truncated
    assert frames_of(data) == [FRAME]


def test_header_only_file_gives_zero_records():
    starts, lengths, truncated = walk_pcap(pcap_bytes([]))
    assert starts.size == lengths.size == 0
    assert not truncated


def test_bad_magic():
    with pytest.raises(CorruptFile, match="not a pcap file"):
        walk_pcap(b"\xde\xad\xbe\xef" + b"\x00" * 20)


def test_file_shorter_than_global_header():
    with pytest.raises(CorruptFile, match="shorter than the 24-byte"):
        walk_pcap(b"\xd4\xc3\xb2\xa1\x02\x00")


def test_non_ethernet_link_type():
    data = bytearray(golden_single_record())
    data[20:24] = struct.pack("<I", 101)  # raw IP link type
    with pytest.raises(CorruptFile, match="link type 101"):
        walk_pcap(bytes(data))


def test_record_body_truncated_keeps_earlier_records():
    cut = pcap_bytes([FRAME, FRAME])[:-10]
    assert frames_of(cut) == [FRAME]
    assert walk_pcap(cut)[2]


def test_partial_record_header_sets_flag():
    cut = pcap_bytes([FRAME]) + b"\x01\x02\x03"  # 3 stray header bytes
    assert frames_of(cut) == [FRAME]
    assert walk_pcap(cut)[2]


def test_captured_len_beyond_snaplen_stops():
    starts, _, truncated = walk_pcap(pcap_bytes([FRAME], snaplen=32))
    assert starts.size == 0
    assert truncated


def test_walk_locates_frames_without_copying():
    frames = [FRAME, b"", FRAME[:14], FRAME * 3]
    data = pcap_bytes(frames)
    starts, lengths, truncated = walk_pcap(data)
    assert starts.dtype == lengths.dtype == np.int64
    assert [data[s:s + n] for s, n in zip(starts.tolist(),
                                          lengths.tolist())] == frames
    assert not truncated
    for cut in (1, len(frames[-1])):  # into the frame, to its header's end
        _, cut_lengths, cut_truncated = walk_pcap(data[:-cut])
        assert cut_truncated and cut_lengths.tolist() == [60, 0, 14]
    assert walk_pcap(pcap_bytes([FRAME], snaplen=32))[0].size == 0


def test_round_trip_many_records(rng):
    frames = [bytes(rng.integers(0, 256, size=int(n)).astype("uint8"))
              for n in rng.integers(14, 200, size=20)]
    reference = walk_pcap(pcap_bytes(frames))
    for magic in (0xA1B2C3D4, 0xA1B23C4D):
        for big_endian in (False, True):
            data = pcap_bytes(frames, magic=magic, big_endian=big_endian)
            starts, lengths, truncated = walk_pcap(data)
            assert frames_of(data) == frames
            assert lengths.tolist() == [len(f) for f in frames]
            assert starts.tolist() == reference[0].tolist()
            assert not truncated
