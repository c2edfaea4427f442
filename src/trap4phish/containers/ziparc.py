"""Minimal ZIP reader.

Parses the central directory from the End-Of-Central-Directory record and
reads entries on demand. Only `stored` and `deflate` methods are supported
(the OOXML ecosystem uses deflate); ZIP64 is rejected explicitly. Sizes and
CRCs come from the central directory, which wins over local headers.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

from .errors import (
    CrcMismatch,
    MissingEocd,
    TruncatedEntry,
    UnsupportedMethod,
    Zip64Unsupported,
    ZipFormatError,
)

_EOCD_SIG = b"PK\x05\x06"
_CENTRAL_SIG = b"PK\x01\x02"
_LOCAL_SIG = b"PK\x03\x04"

_METHOD_STORED = 0
_METHOD_DEFLATE = 8

# Hard ceiling on any single decompressed entry, and on all the entries the
# analyzers read from one archive; OOXML parts are desk scale.
MAX_UNCOMPRESSED_SIZE = 512 * 1024 * 1024


class ZipEntry(NamedTuple):
    """One central-directory record. A tuple, not a dataclass: an archive
    builds one per entry, and a tuple costs about a third as much to make."""

    name: str
    method: str  # "stored" or "deflate"
    compressed_size: int
    uncompressed_size: int
    crc32: int
    local_header_offset: int


class ZipArchive:
    """Parsed view of a ZIP archive held fully in memory. The entries never
    change; `inflated` counts the declared sizes of the entries read."""

    def __init__(self, data: bytes, entries: list[ZipEntry]):
        self._data = data
        self.entries = entries
        # declared sizes of the entries read so far, successfully or not
        self.inflated = 0

    def read_entry(self, entry: ZipEntry) -> bytes:
        self.inflated += entry.uncompressed_size
        data = self._data
        off = entry.local_header_offset
        if off + 30 > len(data) or data[off:off + 4] != _LOCAL_SIG:
            raise ZipFormatError(f"bad local header for {entry.name!r} at {off}")
        name_len, extra_len = struct.unpack_from("<HH", data, off + 26)
        start = off + 30 + name_len + extra_len
        end = start + entry.compressed_size
        if end > len(data):
            raise TruncatedEntry(
                f"{entry.name!r}: needs {entry.compressed_size} bytes at {start}, have {len(data) - start}"
            )
        raw = data[start:end]
        if entry.method == "stored":
            out = raw
            if len(out) != entry.uncompressed_size:
                raise TruncatedEntry(
                    f"{entry.name!r}: stored size {len(out)} != declared {entry.uncompressed_size}"
                )
        else:
            out = self._inflate(entry, raw)
        if zlib.crc32(out) & 0xFFFFFFFF != entry.crc32:
            raise CrcMismatch(f"{entry.name!r}: CRC32 mismatch")
        return out

    @staticmethod
    def _inflate(entry: ZipEntry, raw: bytes) -> bytes:
        # Bail out as soon as output passes the declared size (zip-bomb guard).
        decomp = zlib.decompressobj(-15)
        try:
            out = decomp.decompress(raw, entry.uncompressed_size + 1)
        except zlib.error as exc:
            raise TruncatedEntry(f"{entry.name!r}: deflate error: {exc}") from None
        if len(out) > entry.uncompressed_size:
            raise ZipFormatError(
                f"{entry.name!r}: decompresses past declared size {entry.uncompressed_size}"
            )
        if len(out) < entry.uncompressed_size:
            raise TruncatedEntry(
                f"{entry.name!r}: got {len(out)} of {entry.uncompressed_size} bytes"
            )
        return out


def zip_open(data: bytes) -> ZipArchive:
    """Parse the central directory of `data` into a ZipArchive."""
    eocd_off = _find_eocd(data)
    (entry_count, cd_size, cd_offset) = _parse_eocd(data, eocd_off)
    if cd_offset + cd_size > len(data):
        raise ZipFormatError("central directory extends past end of data")
    entries: list[ZipEntry] = []
    pos = cd_offset
    for _ in range(entry_count):
        if data[pos:pos + 4] != _CENTRAL_SIG:
            raise ZipFormatError(f"bad central directory signature at {pos}")
        if pos + 46 > len(data):
            raise ZipFormatError("truncated central directory record")
        (method, crc, csize, usize, name_len, extra_len, comment_len, lho) = struct.unpack_from(
            "<10xH4xLLLHHH8xL", data, pos
        )
        if csize == 0xFFFFFFFF or usize == 0xFFFFFFFF or lho == 0xFFFFFFFF:
            raise Zip64Unsupported("ZIP64 sizes/offsets not supported")
        if usize > MAX_UNCOMPRESSED_SIZE:
            raise ZipFormatError(f"declared size {usize} exceeds limit")
        name = data[pos + 46:pos + 46 + name_len].decode("utf-8", errors="replace")
        if method == _METHOD_STORED:
            method_name = "stored"
        elif method == _METHOD_DEFLATE:
            method_name = "deflate"
        else:
            raise UnsupportedMethod(f"{name!r}: compression method {method}")
        entries.append(ZipEntry(name, method_name, csize, usize, crc, lho))
        pos += 46 + name_len + extra_len + comment_len
    return ZipArchive(data, entries)


def _find_eocd(data: bytes) -> int:
    # EOCD is within the last 64 KiB + 22 bytes (max comment length).
    window_start = max(0, len(data) - (0xFFFF + 22))
    idx = data.rfind(_EOCD_SIG, window_start)
    if idx < 0:
        raise MissingEocd("no End-Of-Central-Directory record")
    return idx


def _parse_eocd(data: bytes, off: int) -> tuple[int, int, int]:
    if off + 22 > len(data):
        raise ZipFormatError("truncated EOCD record")
    (disk_no, cd_disk, disk_entries, total_entries, cd_size, cd_offset) = struct.unpack_from(
        "<4xHHHHLL", data, off
    )
    if disk_no == 0xFFFF or total_entries == 0xFFFF or cd_offset == 0xFFFFFFFF:
        raise Zip64Unsupported("ZIP64 EOCD markers present")
    if disk_no != 0 or cd_disk != 0 or disk_entries != total_entries:
        raise ZipFormatError("multi-disk archives not supported")
    return total_entries, cd_size, cd_offset
