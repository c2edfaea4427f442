"""OLE Compound File Binary reader: enough of [MS-CFB] to pull streams such
as the VBA project out of `vbaProject.bin`.

One walker, `_chain`, follows every sector chain through its table: a
stream's FAT or mini-FAT chain, the directory and the mini-FAT itself. It
raises CfbRangeError on a sector outside the table and CfbCycleError on a
chain longer than the table, so cyclic inputs terminate with an error
instead of hanging. Stream reads are truncated to the directory-declared
size. Names compare case-insensitively.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from .errors import CfbBadSignature, CfbCycleError, CfbFormatError, CfbRangeError

CFB_SIGNATURE = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"

_ENDOFCHAIN = 0xFFFFFFFE
_FREESECT = 0xFFFFFFFF

_MINI_SECTOR_SIZE = 64

_TYPE_STORAGE = 1
_TYPE_STREAM = 2
_TYPE_ROOT = 5

_NOSTREAM = 0xFFFFFFFF

# Upper bound on directory entries we will walk.
_MAX_DIR_ENTRIES = 65536


@dataclass
class CfbDirEntry:
    name: str
    path: str  # "/"-joined path from the root storage, root excluded
    entry_type: str  # "storage", "stream" or "root"
    size: int
    start_sector: int
    child: int
    left: int
    right: int


def _chain(table: list[int], start: int, name: str,
           ends: tuple[int, ...] = (_ENDOFCHAIN,)) -> Iterator[int]:
    """The sector numbers of the chain that runs from `start` through
    `table` up to a sector number in `ends`. A chain of more sectors than
    `table` holds must loop, so the walk stops there."""
    sector = start
    for _ in range(len(table) + 1):
        if sector in ends:
            return
        if sector >= len(table):
            raise CfbRangeError(f"{name} chain references sector {sector} of {len(table)}")
        yield sector
        sector = table[sector]
    raise CfbCycleError(f"{name} chain exceeds sector count (cycle)")


def _read_sized(table: list[int], start: int, size: int, sectors: bytes, sector_size: int,
                name: str) -> bytes:
    """The first `size` bytes of the chain's sectors, sector n being
    sectors[n * sector_size:][:sector_size]. A read takes at least one
    sector, and a short one (the mini stream's last) is not padded and
    ends the read: no sector of the chain can follow it."""
    out = bytearray()
    for sector in _chain(table, start, name):
        off = sector * sector_size
        if off >= len(sectors):
            raise CfbRangeError(f"{name} chain references sector {sector} past {len(sectors)} bytes")
        out += sectors[off:off + sector_size]
        if len(out) >= size or off + sector_size > len(sectors):
            break
    if len(out) < size:
        raise CfbFormatError(f"{name} chain ends after {len(out)} of {size} bytes")
    return bytes(out[:size])


class CfbFile:
    def __init__(self, sectors: bytes, sector_size: int, mini_cutoff: int,
                 fat: list[int], minifat: list[int], directory: list[CfbDirEntry]):
        self._sectors = sectors
        self.sector_size = sector_size
        self.mini_cutoff = mini_cutoff
        self._fat = fat
        self._minifat = minifat
        self.directory = directory
        self._mini_stream: bytes | None = None
        self._by_path = {}
        for entry in directory:
            if entry.entry_type == "stream":
                self._by_path.setdefault(entry.path.lower(), entry)

    def find_stream(self, path: str) -> CfbDirEntry | None:
        return self._by_path.get(path.lower())

    def read_entry(self, entry: CfbDirEntry) -> bytes:
        if entry.size == 0:
            return b""
        if entry.entry_type != "stream" or entry.size >= self.mini_cutoff:
            return self._read_fat_chain(entry.start_sector, entry.size)
        if self._mini_stream is None:
            root = self.directory[0]
            self._mini_stream = self._read_fat_chain(root.start_sector, root.size)
        return _read_sized(self._minifat, entry.start_sector, entry.size, self._mini_stream,
                           _MINI_SECTOR_SIZE, "mini-FAT")

    def _read_fat_chain(self, start: int, size: int) -> bytes:
        return _read_sized(self._fat, start, size, self._sectors, self.sector_size, "FAT")


def cfb_open(data: bytes) -> CfbFile:
    """Parse header, FAT, mini-FAT and directory of a CFB file."""
    if len(data) < 512 or not data.startswith(CFB_SIGNATURE):
        raise CfbBadSignature("missing CFB signature")
    (sector_shift, mini_shift) = struct.unpack_from("<HH", data, 30)
    if sector_shift not in (9, 12):
        raise CfbFormatError(f"bad sector shift {sector_shift}")
    if mini_shift != 6:
        raise CfbFormatError(f"bad mini sector shift {mini_shift}")
    sector_size = 1 << sector_shift
    (num_fat_sectors, first_dir_sector, _trans, mini_cutoff,
     first_minifat, num_minifat, first_difat, num_difat) = struct.unpack_from("<LLLLLLLL", data, 44)

    total_sectors = max(0, (len(data) - 512 + sector_size - 1) // sector_size)

    # DIFAT: 109 header entries plus optional DIFAT sector chain. Each DIFAT
    # sector holds its own next pointer, in its last slot, so this chain has
    # no table for `_chain` to follow.
    difat: list[int] = list(struct.unpack_from("<109L", data, 76))
    sector = first_difat
    seen = 0
    while sector not in (_ENDOFCHAIN, _FREESECT) and seen < num_difat:
        seen += 1
        if seen > total_sectors:
            raise CfbCycleError("DIFAT chain cycle")
        off = 512 + sector * sector_size
        if off + sector_size > len(data):
            raise CfbRangeError(f"DIFAT sector {sector} outside file")
        vals = struct.unpack_from(f"<{sector_size // 4}L", data, off)
        difat.extend(vals[:-1])
        sector = vals[-1]

    fat: list[int] = []
    fat_sectors = [s for s in difat if s not in (_FREESECT, _ENDOFCHAIN)][:num_fat_sectors]
    for s in fat_sectors:
        off = 512 + s * sector_size
        if off + sector_size > len(data):
            raise CfbRangeError(f"FAT sector {s} outside file")
        fat.extend(struct.unpack_from(f"<{sector_size // 4}L", data, off))
    if len(fat) > total_sectors:
        fat = fat[:max(total_sectors, 1)]
    if not fat:
        raise CfbFormatError("empty FAT")

    # The sectors after the header, the last zero-padded when EOF cuts it
    # short. Every sector number below len(fat) lies inside them.
    sectors = data[512:].ljust(total_sectors * sector_size, b"\x00")

    def read_unsized(start: int) -> bytes:
        # the directory and mini-FAT chains have no declared size, and a
        # free sector ends them as well
        chain = _chain(fat, start, "FAT", (_ENDOFCHAIN, _FREESECT))
        return b"".join(sectors[s * sector_size:(s + 1) * sector_size] for s in chain)

    entries = _parse_directory(read_unsized(first_dir_sector))
    if not entries or entries[0] is None or entries[0].entry_type != "root":
        raise CfbFormatError("first directory entry is not the root storage")

    minifat: list[int] = []
    if num_minifat and first_minifat not in (_ENDOFCHAIN, _FREESECT):
        raw_minifat = read_unsized(first_minifat)
        minifat = list(struct.unpack_from(f"<{len(raw_minifat) // 4}L", raw_minifat, 0))

    return CfbFile(sectors, sector_size, mini_cutoff or 4096, fat, minifat, _resolve_paths(entries))


def _parse_directory(raw: bytes) -> list[CfbDirEntry | None]:
    entries: list[CfbDirEntry | None] = []
    for off in range(0, min(len(raw), _MAX_DIR_ENTRIES * 128), 128):
        block = raw[off:off + 128]
        if len(block) < 128:
            break
        (name_len,) = struct.unpack_from("<H", block, 64)
        etype = block[66]
        if etype == 0 or name_len < 2 or name_len > 64:
            entries.append(None)
            continue
        name = block[:name_len - 2].decode("utf-16-le", errors="replace")
        (left, right, child) = struct.unpack_from("<LLL", block, 68)
        (start_sector,) = struct.unpack_from("<L", block, 116)
        (size,) = struct.unpack_from("<Q", block, 120)
        size &= 0x7FFFFFFF  # v3 files: only the low 31 bits are significant
        if etype == _TYPE_ROOT:
            type_name = "root"
        elif etype == _TYPE_STORAGE:
            type_name = "storage"
        elif etype == _TYPE_STREAM:
            type_name = "stream"
        else:
            entries.append(None)
            continue
        entries.append(CfbDirEntry(name, name, type_name, size, start_sector, child, left, right))
    return entries


def _resolve_paths(entries: list[CfbDirEntry | None]) -> list[CfbDirEntry]:
    """Walk the sibling trees iteratively to assign slash-joined paths."""
    resolved: list[CfbDirEntry] = []
    visited: set[int] = set()

    def children_of(idx: int) -> list[int]:
        found: list[int] = []
        stack = [entries[idx].child]
        while stack:
            i = stack.pop()
            if i == _NOSTREAM or i >= len(entries) or entries[i] is None:
                continue
            if i in visited:
                raise CfbCycleError("directory sibling tree cycle")
            visited.add(i)
            found.append(i)
            stack.append(entries[i].left)
            stack.append(entries[i].right)
        return found

    root = entries[0]
    root.path = ""
    resolved.append(root)
    visited.add(0)
    # (storage index, path prefix) pairs still to expand
    pending: list[tuple[int, str]] = [(0, "")]
    while pending:
        idx, prefix = pending.pop()
        for ci in sorted(children_of(idx)):
            child = entries[ci]
            child.path = f"{prefix}/{child.name}" if prefix else child.name
            resolved.append(child)
            if child.entry_type == "storage":
                pending.append((ci, child.path))
    return resolved
