"""Classic pcap container format: a 24-byte global header, then per-packet
records of a 16-byte header plus raw frame bytes.

Layout: Global Header | Record Header | Frame | Record Header | Frame | ...
Byte order of every header field follows the file's magic value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BadMagic, UnsupportedLinkType

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16

LINKTYPE_ETHERNET = 1

DEFAULT_SNAPLEN = 65535


@dataclass(frozen=True)
class PcapRecord:
    """One captured frame: timestamp, lengths, and link-layer bytes."""

    ts_sec: int
    ts_frac: int  # micro- or nanoseconds, per the file magic
    captured_len: int
    original_len: int
    data: bytes


@dataclass
class PcapFile:
    """Parsed pcap container, retaining enough header state to re-serialize."""

    records: list[PcapRecord] = field(default_factory=list)
    snaplen: int = DEFAULT_SNAPLEN
    nanosecond: bool = False
    big_endian: bool = False
    truncated: bool = False  # set when the file ended mid-record

    def to_bytes(self) -> bytes:
        """Serialize back to classic pcap with the original byte order."""
        end = ">" if self.big_endian else "<"
        magic = MAGIC_NANOS if self.nanosecond else MAGIC_MICROS
        out = [struct.pack(end + "IHHiII I", magic, 2, 4, 0, 0, self.snaplen,
                           LINKTYPE_ETHERNET)]
        for rec in self.records:
            out.append(struct.pack(end + "IIII", rec.ts_sec, rec.ts_frac,
                                   rec.captured_len, rec.original_len))
            out.append(rec.data)
        return b"".join(out)


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
    if raw_magic == MAGIC_MICROS:
        end, nanos, big = "<", False, False
    elif raw_magic == MAGIC_NANOS:
        end, nanos, big = "<", True, False
    else:
        (raw_magic_be,) = struct.unpack_from(">I", file_bytes, 0)
        if raw_magic_be == MAGIC_MICROS:
            end, nanos, big = ">", False, True
        elif raw_magic_be == MAGIC_NANOS:
            end, nanos, big = ">", True, True
        else:
            raise BadMagic(f"not a pcap file (magic 0x{raw_magic:08x})")

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


def parse_pcap(file_bytes: bytes) -> PcapFile:
    """Decode a classic pcap byte string into records, in file order.

    Raises as walk_pcap does; a capture that ends mid-record keeps the
    records before it and sets ``truncated``.
    """
    table = walk_pcap(file_bytes)
    header = struct.Struct((">" if table.big_endian else "<") + "IIII")
    records = [PcapRecord(*header.unpack_from(file_bytes,
                                              start - RECORD_HEADER_LEN),
                          data=file_bytes[start:start + length])
               for start, length in zip(table.starts.tolist(),
                                        table.lengths.tolist())]
    return PcapFile(records=records, snaplen=table.snaplen,
                    nanosecond=table.nanosecond,
                    big_endian=table.big_endian, truncated=table.truncated)
