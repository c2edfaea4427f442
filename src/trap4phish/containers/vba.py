"""VBA project extraction: locate the `VBA/dir` stream inside a CFB file,
decode its module table, and decompress each module's source with the
MS-OVBA copy/literal token scheme.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .cfb import CfbFile
from .errors import OvbaError

# dir-stream record ids we care about ([MS-OVBA] 2.3.4.2)
_REC_PROJECT_CODEPAGE = 0x0003
_REC_MODULE_NAME = 0x0019
_REC_MODULE_STREAM_NAME = 0x001A
_REC_MODULE_OFFSET = 0x0031
_REC_DIR_TERMINATOR = 0x0010

_CHUNK_DATA = 4096


@dataclass
class VbaModule:
    name: str
    source: str  # decompressed VBA code, CRLF normalized to LF


def ovba_decompress(data: bytes) -> bytes:
    """Decompress an MS-OVBA compressed container (signature byte 0x01).

    Chunks are at most 4096 decompressed bytes; inside a compressed chunk,
    each flag byte governs eight tokens: literals (one byte) or 16-bit copy
    tokens whose offset/length split depends on the position in the chunk.
    """
    if not data:
        raise OvbaError("empty container")
    if data[0] != 0x01:
        raise OvbaError(f"bad container signature 0x{data[0]:02x}")
    out = bytearray()
    pos = 1
    while pos < len(data):
        if pos + 2 > len(data):
            raise OvbaError("truncated chunk header")
        header = struct.unpack_from("<H", data, pos)[0]
        chunk_size = (header & 0x0FFF) + 3
        if (header >> 12) & 0x7 != 0b011:
            raise OvbaError("bad chunk signature bits")
        compressed = (header >> 15) & 1
        chunk_end = min(len(data), pos + chunk_size)
        pos += 2
        if not compressed:
            if pos + _CHUNK_DATA > len(data):
                raise OvbaError("truncated raw chunk")
            out += data[pos:pos + _CHUNK_DATA]
            pos += _CHUNK_DATA
            continue
        chunk_start = len(out)
        while pos < chunk_end:
            flags = data[pos]
            pos += 1
            if not flags:  # eight literals
                end = min(pos + 8, chunk_end)
                out += data[pos:end]
                pos = end
            else:
                for bit in range(8):
                    if pos >= chunk_end:
                        break
                    if not (flags >> bit) & 1:
                        out.append(data[pos])
                        pos += 1
                        continue
                    if pos + 2 > chunk_end:
                        raise OvbaError("truncated copy token")
                    token = struct.unpack_from("<H", data, pos)[0]
                    pos += 2
                    length_bits = _copy_length_bits(len(out) - chunk_start)
                    length = (token & ((1 << length_bits) - 1)) + 3
                    offset = (token >> length_bits) + 1
                    src = len(out) - offset
                    if src < chunk_start:
                        raise OvbaError("copy token references before chunk window")
                    if length <= offset:
                        out += out[src:src + length]
                    else:  # the copy reads its own output: its last `offset` bytes, repeated
                        out += (out[src:] * (length // offset + 1))[:length]
            if len(out) - chunk_start > _CHUNK_DATA:
                raise OvbaError("chunk decompresses past 4096 bytes")
    return bytes(out)


def _copy_length_bits(decompressed_in_chunk: int) -> int:
    """Number of length bits in a copy token, given bytes already produced
    in the current chunk ([MS-OVBA] CopyToken Help)."""
    if decompressed_in_chunk <= 1:
        return 12
    bits = (decompressed_in_chunk - 1).bit_length()
    return 16 - max(bits, 4)


def vba_extract(cfb: CfbFile, warnings: list[str] | None = None) -> list[VbaModule]:
    """Extract all VBA modules from a CFB file.

    Returns an empty list when no VBA storage exists. Malformed modules are
    skipped with a note appended to `warnings`, and so is a `dir` stream cut
    short, inside a record or before its terminator record.
    """
    if warnings is None:
        warnings = []
    dir_entry = None
    for entry in cfb.directory:
        if entry.entry_type == "stream" and entry.path.lower().endswith("vba/dir"):
            dir_entry = entry
            break
    if dir_entry is None:
        return []
    vba_root = dir_entry.path[: -len("/dir")]
    try:
        dir_data = ovba_decompress(cfb.read_entry(dir_entry))
    except Exception as exc:
        warnings.append(f"vba: cannot read dir stream: {exc}")
        return []

    codepage = "cp1252"
    modules_meta: list[dict] = []
    current: dict | None = None
    pos = 0
    terminated = False
    while pos + 6 <= len(dir_data):
        rec_id, size = struct.unpack_from("<HL", dir_data, pos)
        pos += 6
        if rec_id == 0x0009:
            size = 6  # PROJECTVERSION: declared size must be ignored
        payload = dir_data[pos:pos + size]
        pos += size
        if len(payload) < size:
            warnings.append(f"vba: dir record 0x{rec_id:04x} cut short: {len(payload)} of {size} bytes")
            break
        terminated |= rec_id == _REC_DIR_TERMINATOR
        if rec_id == _REC_PROJECT_CODEPAGE and size == 2:
            cp = struct.unpack_from("<H", payload, 0)[0]
            codepage = f"cp{cp}"
        elif rec_id == _REC_MODULE_NAME:
            current = {"name": _decode(payload, codepage)}
            modules_meta.append(current)
        elif rec_id == _REC_MODULE_STREAM_NAME and current is not None:
            current["stream"] = _decode(payload, codepage)
        elif rec_id == _REC_MODULE_OFFSET and current is not None and size == 4:
            current["offset"] = struct.unpack_from("<L", payload, 0)[0]
    else:  # not after a record cut short, which has its own warning
        if not terminated:
            warnings.append("vba: dir stream ends before its terminator record")

    modules: list[VbaModule] = []
    for meta in modules_meta:
        name = meta.get("name", "")
        stream_name = meta.get("stream", name)
        offset = meta.get("offset", 0)
        stream_path = f"{vba_root}/{stream_name}"
        entry = cfb.find_stream(stream_path)
        if entry is None:
            warnings.append(f"vba: module stream {stream_path!r} missing")
            continue
        try:
            raw = cfb.read_entry(entry)
            if offset >= len(raw):
                raise OvbaError(f"module offset {offset} past stream end")
            source = _decode(ovba_decompress(raw[offset:]), codepage)
        except Exception as exc:
            warnings.append(f"vba: module {name!r} skipped: {exc}")
            continue
        modules.append(VbaModule(name=name, source=source.replace("\r\n", "\n")))
    return modules


def _decode(raw: bytes, codepage: str) -> str:
    try:
        return raw.decode(codepage, errors="replace")
    except LookupError:
        return raw.decode("latin-1", errors="replace")
