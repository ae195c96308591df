"""Classic pcap container format: a 24-byte global header, then per-packet
records of a 16-byte header plus raw frame bytes.

Layout: Global Header | Record Header | Frame | Record Header | Frame | ...
Byte order of every header field follows the file's magic value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadMagic, UnsupportedLinkType

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16

LINKTYPE_ETHERNET = 1


@dataclass
class RecordTable:
    """Where each frame of a capture sits in its bytes, as int64 columns;
    no frame is copied."""

    data: bytes
    starts: np.ndarray  # offset of each frame's first byte in data
    lengths: np.ndarray  # captured length of each frame
    truncated: bool  # the file ended mid-record
    snaplen: int
    nanosecond: bool
    big_endian: bool


def walk_pcap(file_bytes: bytes) -> RecordTable:
    """Find every record of a classic pcap byte string, in file order.

    Raises BadMagic for unknown magic values and UnsupportedLinkType for
    non-Ethernet captures. A record header that claims more bytes than
    remain stops the walk; records found so far are returned with the
    ``truncated`` flag set.
    """
    if len(file_bytes) < GLOBAL_HEADER_LEN:
        raise BadMagic("file shorter than the 24-byte pcap global header")

    (raw_magic,) = struct.unpack_from("<I", file_bytes, 0)
    for end in "<>":  # little-endian first, then big-endian
        (magic,) = struct.unpack_from(end + "I", file_bytes, 0)
        if magic in (MAGIC_MICROS, MAGIC_NANOS):
            break
    else:
        raise BadMagic(f"not a pcap file (magic 0x{raw_magic:08x})")
    nanos, big = magic == MAGIC_NANOS, end == ">"

    _major, _minor, _zone, _sigfigs, snaplen, network = struct.unpack_from(
        end + "HHiIII", file_bytes, 4)
    if network != LINKTYPE_ETHERNET:
        raise UnsupportedLinkType(f"link type {network}, expected Ethernet (1)")

    captured_len = struct.Struct(end + "I").unpack_from
    starts: list[int] = []
    lengths: list[int] = []
    truncated = False
    offset = GLOBAL_HEADER_LEN
    total = len(file_bytes)
    while offset < total:
        if offset + RECORD_HEADER_LEN > total:
            truncated = True
            break
        (incl_len,) = captured_len(file_bytes, offset + 8)
        offset += RECORD_HEADER_LEN
        # incl_len beyond the snaplen means the stream is desynced or corrupt
        if offset + incl_len > total or (snaplen and incl_len > snaplen):
            truncated = True
            break
        starts.append(offset)
        lengths.append(incl_len)
        offset += incl_len
    return RecordTable(data=file_bytes,
                       starts=np.array(starts, dtype=np.int64),
                       lengths=np.array(lengths, dtype=np.int64),
                       truncated=truncated, snaplen=snaplen,
                       nanosecond=nanos, big_endian=big)

