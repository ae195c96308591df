"""Capture container parsing against hand-built golden files."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from cgnn.errors import BadMagic, UnsupportedLinkType
from cgnn.pcap import PcapFile, PcapRecord, parse_pcap, walk_pcap

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


def test_golden_single_record_little_endian():
    pcap = parse_pcap(golden_single_record())
    assert len(pcap.records) == 1
    rec = pcap.records[0]
    assert rec == PcapRecord(ts_sec=1700000000, ts_frac=123456,
                             captured_len=60, original_len=60, data=FRAME)
    assert pcap.snaplen == 65535
    assert not pcap.nanosecond
    assert not pcap.big_endian
    assert not pcap.truncated


def test_byte_swapped_magic_gives_identical_record():
    little = parse_pcap(golden_single_record())
    big = parse_pcap(golden_single_record(big_endian=True))
    assert big.records == little.records
    assert big.big_endian and not little.big_endian


@pytest.mark.parametrize("magic,big_endian,nanos", [
    (0xA1B2C3D4, False, False),
    (0xA1B2C3D4, True, False),
    (0xA1B23C4D, False, True),
    (0xA1B23C4D, True, True),
])
def test_all_four_magic_values(magic, big_endian, nanos):
    pcap = parse_pcap(golden_single_record(magic, big_endian))
    assert pcap.nanosecond == nanos
    assert pcap.big_endian == big_endian
    assert pcap.records[0].data == FRAME


def test_header_only_file_gives_zero_records():
    pcap = parse_pcap(pcap_bytes([]))
    assert pcap.records == []
    assert not pcap.truncated


def test_bad_magic():
    with pytest.raises(BadMagic):
        parse_pcap(b"\xde\xad\xbe\xef" + b"\x00" * 20)


def test_file_shorter_than_global_header():
    with pytest.raises(BadMagic):
        parse_pcap(b"\xd4\xc3\xb2\xa1\x02\x00")


def test_non_ethernet_link_type():
    data = bytearray(golden_single_record())
    data[20:24] = struct.pack("<I", 101)  # raw IP link type
    with pytest.raises(UnsupportedLinkType):
        parse_pcap(bytes(data))


def test_record_body_truncated_keeps_earlier_records():
    data = pcap_bytes([FRAME, FRAME])
    cut = parse_pcap(data[:-10])
    assert len(cut.records) == 1
    assert cut.records[0].data == FRAME
    assert cut.truncated


def test_partial_record_header_sets_flag():
    data = pcap_bytes([FRAME])
    cut = parse_pcap(data + b"\x01\x02\x03")  # 3 stray header bytes
    assert len(cut.records) == 1
    assert cut.truncated


def test_captured_len_beyond_snaplen_stops():
    data = pcap_bytes([FRAME], snaplen=32)
    pcap = parse_pcap(data)
    assert pcap.records == []
    assert pcap.truncated


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


def test_round_trip_golden_file_is_byte_identical():
    for big_endian in (False, True):
        original = golden_single_record(big_endian=big_endian)
        assert parse_pcap(original).to_bytes() == original


def test_round_trip_many_records(rng):
    frames = [bytes(rng.integers(0, 256, size=int(n)).astype("uint8"))
              for n in rng.integers(14, 200, size=20)]
    for nanos in (False, True):
        for big_endian in (False, True):
            pcap = PcapFile(nanosecond=nanos, big_endian=big_endian)
            for i, frame in enumerate(frames):
                pcap.records.append(PcapRecord(
                    ts_sec=i, ts_frac=7 * i, captured_len=len(frame),
                    original_len=len(frame) + 4, data=frame))
            again = parse_pcap(pcap.to_bytes())
            assert again.records == pcap.records
            assert again.nanosecond == nanos
            assert again.big_endian == big_endian
            assert again.to_bytes() == pcap.to_bytes()
