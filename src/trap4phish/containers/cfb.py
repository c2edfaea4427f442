"""OLE Compound File Binary reader: enough of [MS-CFB] to pull streams such
as the VBA project out of `vbaProject.bin`.

Chains (FAT, mini-FAT, directory) are followed with visit counters so cyclic
inputs terminate with an error instead of hanging. Stream reads are truncated
to the directory-declared size. Names compare case-insensitively.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import CfbBadSignature, CfbCycleError, CfbFormatError, CfbRangeError

CFB_SIGNATURE = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"

_ENDOFCHAIN = 0xFFFFFFFE
_FREESECT = 0xFFFFFFFF

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


class CfbFile:
    def __init__(self, data: bytes, sector_size: int, mini_sector_size: int,
                 mini_cutoff: int, fat: list[int], minifat: list[int],
                 directory: list[CfbDirEntry], root_start: int, root_size: int):
        self._data = data
        self.sector_size = sector_size
        self.mini_sector_size = mini_sector_size
        self.mini_cutoff = mini_cutoff
        self._fat = fat
        self._minifat = minifat
        self.directory = directory
        self._root_start = root_start
        self._root_size = root_size
        self._mini_stream: bytes | None = None
        self._by_path = {}
        for entry in directory:
            if entry.entry_type == "stream":
                self._by_path.setdefault(entry.path.lower(), entry)

    def stream_paths(self) -> list[str]:
        return [e.path for e in self.directory if e.entry_type == "stream"]

    def find_stream(self, path: str) -> CfbDirEntry | None:
        return self._by_path.get(path.lower())

    def read_stream(self, path: str) -> bytes:
        entry = self.find_stream(path)
        if entry is None:
            raise CfbFormatError(f"no stream at path {path!r}")
        return self.read_entry(entry)

    def read_entry(self, entry: CfbDirEntry) -> bytes:
        if entry.size == 0:
            return b""
        if entry.entry_type == "stream" and entry.size < self.mini_cutoff:
            return self._read_mini_chain(entry.start_sector, entry.size)
        return self._read_chain(entry.start_sector, entry.size)

    # -- chain walkers ---------------------------------------------------

    def _sector_bytes(self, sector: int) -> bytes:
        off = 512 + sector * self.sector_size
        if off >= len(self._data):
            raise CfbRangeError(f"sector {sector} outside file")
        return self._data[off:off + self.sector_size].ljust(self.sector_size, b"\x00")

    def _read_chain(self, start: int, size: int) -> bytes:
        out = bytearray()
        sector = start
        visits = 0
        limit = len(self._fat) + 1
        while sector != _ENDOFCHAIN:
            visits += 1
            if visits > limit:
                raise CfbCycleError("FAT chain exceeds sector count (cycle)")
            if sector >= len(self._fat):
                raise CfbRangeError(f"FAT chain references sector {sector} of {len(self._fat)}")
            out += self._sector_bytes(sector)
            if len(out) >= size:
                break
            sector = self._fat[sector]
        if len(out) < size:
            raise CfbFormatError(f"stream chain ends after {len(out)} of {size} bytes")
        return bytes(out[:size])

    def _read_chain_unsized(self, start: int) -> bytes:
        out = bytearray()
        sector = start
        visits = 0
        limit = len(self._fat) + 1
        while sector not in (_ENDOFCHAIN, _FREESECT):
            visits += 1
            if visits > limit:
                raise CfbCycleError("chain exceeds sector count (cycle)")
            if sector >= len(self._fat):
                raise CfbRangeError(f"chain references sector {sector} of {len(self._fat)}")
            out += self._sector_bytes(sector)
            sector = self._fat[sector]
        return bytes(out)

    def _read_mini_chain(self, start: int, size: int) -> bytes:
        if self._mini_stream is None:
            self._mini_stream = self._read_chain(self._root_start, self._root_size)
        mini_stream = self._mini_stream
        out = bytearray()
        sector = start
        visits = 0
        limit = len(self._minifat) + 1
        while sector != _ENDOFCHAIN:
            visits += 1
            if visits > limit:
                raise CfbCycleError("mini-FAT chain exceeds sector count (cycle)")
            if sector >= len(self._minifat):
                raise CfbRangeError(f"mini-FAT chain references sector {sector} of {len(self._minifat)}")
            off = sector * self.mini_sector_size
            if off >= len(mini_stream):
                raise CfbRangeError(f"mini sector {sector} outside mini stream")
            out += mini_stream[off:off + self.mini_sector_size]
            if len(out) >= size:
                break
            sector = self._minifat[sector]
        if len(out) < size:
            raise CfbFormatError(f"mini stream chain ends after {len(out)} of {size} bytes")
        return bytes(out[:size])


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
    mini_sector_size = 1 << mini_shift
    (num_fat_sectors, first_dir_sector, _trans, mini_cutoff,
     first_minifat, num_minifat, first_difat, num_difat) = struct.unpack_from("<LLLLLLLL", data, 44)

    total_sectors = max(0, (len(data) - 512 + sector_size - 1) // sector_size)

    # DIFAT: 109 header entries plus optional DIFAT sector chain.
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

    helper = CfbFile(data, sector_size, mini_sector_size, mini_cutoff or 4096,
                     fat, [], [], _ENDOFCHAIN, 0)

    raw_dir = helper._read_chain_unsized(first_dir_sector)
    entries = _parse_directory(raw_dir)
    if not entries or entries[0] is None or entries[0].entry_type != "root":
        raise CfbFormatError("first directory entry is not the root storage")
    root = entries[0]

    minifat: list[int] = []
    if num_minifat and first_minifat not in (_ENDOFCHAIN, _FREESECT):
        raw_minifat = helper._read_chain_unsized(first_minifat)
        minifat = list(struct.unpack_from(f"<{len(raw_minifat) // 4}L", raw_minifat, 0))

    directory = _resolve_paths(entries)
    return CfbFile(data, sector_size, mini_sector_size, mini_cutoff or 4096,
                   fat, minifat, directory, root.start_sector, root.size)


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
