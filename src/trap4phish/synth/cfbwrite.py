"""Minimal CFB writer used by the corpus generator to build `vbaProject.bin`
payloads. Writes version-3 files (512-byte sectors) with a mini stream for
small streams. Independent of the reader in `containers.cfb`.
"""

from __future__ import annotations

import struct

SECTOR = 512
MINI_SECTOR = 64
MINI_CUTOFF = 4096

_ENDOFCHAIN = 0xFFFFFFFE
_FREESECT = 0xFFFFFFFF
_FATSECT = 0xFFFFFFFD
_NOSTREAM = 0xFFFFFFFF


class CfbWriter:
    """Accumulates streams by slash-joined path, then serializes the file."""

    def __init__(self):
        self._tree: dict = {}

    def add_stream(self, path: str, data: bytes) -> None:
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise ValueError("empty stream path")
        node = self._tree
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"{part!r} already used as a stream name")
        if parts[-1] in node:
            raise ValueError(f"duplicate stream {path!r}")
        node[parts[-1]] = bytes(data)

    def tobytes(self) -> bytes:
        entries: list[dict] = []

        def add(name: str, entry_type: int, value: dict | bytes) -> dict:
            # The pre-order walk links each entry as it appends it: a first
            # child from its parent's `child`, a later one from the previous
            # sibling's `right`, so siblings form a right-leaning BST.
            entry = {"name": name, "type": entry_type, "data": None if isinstance(value, dict) else value,
                     "left": _NOSTREAM, "right": _NOSTREAM, "child": _NOSTREAM}
            entries.append(entry)
            if isinstance(value, dict):
                link, key = entry, "child"
                for child in sorted(value, key=lambda n: (len(n), n.upper())):
                    link[key] = len(entries)
                    link, key = add(child, 1 if isinstance(value[child], dict) else 2, value[child]), "right"
            return entry

        root = add("Root Entry", 5, self._tree)

        # Mini stream: concatenation of small streams in 64-byte slots.
        mini_data = bytearray()
        minifat: list[int] = []
        for entry in entries:
            data = entry["data"]
            if data is None:
                continue
            entry["size"] = len(data)
            if len(data) < MINI_CUTOFF:
                first = len(minifat)
                slots = max(1, -(-len(data) // MINI_SECTOR)) if data else 0
                for i in range(slots):
                    minifat.append(first + i + 1 if i < slots - 1 else _ENDOFCHAIN)
                entry["start"] = first if data else _ENDOFCHAIN
                mini_data += data.ljust(slots * MINI_SECTOR, b"\x00")
                entry["mini"] = True
            else:
                entry["mini"] = False

        # Regular sectors: large streams, mini stream, directory, mini-FAT.
        payload_sectors: list[bytes] = []
        fat: list[int] = []

        def add_sectors(data: bytes) -> int:
            if not data:
                return _ENDOFCHAIN
            first = len(payload_sectors)
            n = -(-len(data) // SECTOR)
            for i in range(n):
                payload_sectors.append(data[i * SECTOR:(i + 1) * SECTOR].ljust(SECTOR, b"\x00"))
                fat.append(first + i + 1 if i < n - 1 else _ENDOFCHAIN)
            return first

        for entry in entries:
            if entry["data"] is not None and not entry["mini"]:
                entry["start"] = add_sectors(entry["data"])

        root["size"] = len(mini_data)
        root["start"] = add_sectors(bytes(mini_data))

        minifat_blob = b"".join(struct.pack("<L", v) for v in minifat)
        first_minifat = add_sectors(minifat_blob)
        num_minifat = -(-len(minifat_blob) // SECTOR) if minifat_blob else 0

        dir_blob = b"".join(_pack_dir_entry(e) for e in entries)
        pad_entries = (-len(entries)) % 4
        dir_blob += b"\x00" * (128 * pad_entries)
        first_dir = add_sectors(dir_blob)

        # FAT sectors cover payload plus the FAT itself.
        num_fat = 0
        while (len(payload_sectors) + num_fat) > num_fat * (SECTOR // 4):
            num_fat += 1
        fat_start = len(payload_sectors)
        fat_full = fat + [_FATSECT] * num_fat
        fat_full += [_FREESECT] * (num_fat * (SECTOR // 4) - len(fat_full))
        fat_blob = b"".join(struct.pack("<L", v) for v in fat_full)

        difat = [fat_start + i for i in range(num_fat)]
        if len(difat) > 109:
            raise ValueError("file too large for header-resident DIFAT")
        difat += [_FREESECT] * (109 - len(difat))

        header = struct.pack(
            "<8s16xHHHHH6xLLLLLLLLL",
            b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1",
            0x003E,  # minor version
            0x0003,  # major version 3
            0xFFFE,  # little endian
            9,       # sector shift
            6,       # mini sector shift
            0,                      # number of directory sectors (v3: zero)
            num_fat,
            first_dir,
            0,                      # transaction signature
            MINI_CUTOFF,
            first_minifat if minifat_blob else _ENDOFCHAIN,
            num_minifat,
            _ENDOFCHAIN,            # first DIFAT sector
            0,                      # number of DIFAT sectors
        )
        header += b"".join(struct.pack("<L", v) for v in difat)
        assert len(header) == 512
        return header + b"".join(payload_sectors) + fat_blob


def _pack_dir_entry(entry: dict) -> bytes:
    name_bytes = entry["name"].encode("utf-16-le")[:62] + b"\x00\x00"
    block = bytearray(128)
    block[0:len(name_bytes)] = name_bytes
    struct.pack_into("<H", block, 64, len(name_bytes))
    block[66] = entry["type"]
    block[67] = 1  # black
    struct.pack_into("<LLL", block, 68, entry["left"], entry["right"], entry["child"])
    start = entry.get("start", _ENDOFCHAIN)
    size = entry.get("size", 0)
    struct.pack_into("<L", block, 116, start)
    struct.pack_into("<Q", block, 120, size)
    return bytes(block)
