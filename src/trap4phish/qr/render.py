"""Noise-free grayscale rendering of QR matrices and PGM (P5) serialization.
A bitmap is a (height, width) uint8 array, row-major: 0 is dark, 255 light."""

from __future__ import annotations

import numpy as np

from .decode import MAX_PIXELS
from .errors import BadBitmap
from .matrix import QrMatrix

DEFAULT_MODULE_PX = 8
DEFAULT_QUIET_ZONE = 4


def qr_render(matrix: QrMatrix, module_px: int = DEFAULT_MODULE_PX,
              quiet_zone: int = DEFAULT_QUIET_ZONE) -> np.ndarray:
    """Axis-aligned rendering with a light quiet zone; deterministic. A
    bitmap larger than `qr_decode` reads is refused (`BadBitmap`) before
    anything is allocated."""
    if module_px < 1:
        raise ValueError("module_px must be >= 1")
    if quiet_zone < 0:
        raise ValueError("quiet_zone must be >= 0")
    total = (matrix.size + 2 * quiet_zone) * module_px
    if total * total > MAX_PIXELS:
        raise BadBitmap(f"{total}x{total} bitmap exceeds the {MAX_PIXELS}-pixel budget")
    pixels = np.full((total, total), 255, dtype=np.uint8)
    grid = np.where(matrix.modules, np.uint8(0), np.uint8(255))
    inner = slice(quiet_zone * module_px, total - quiet_zone * module_px)
    pixels[inner, inner] = grid.repeat(module_px, 0).repeat(module_px, 1)
    return pixels


def to_pgm(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def from_pgm(data: bytes) -> np.ndarray:
    """Parse binary PGM (P5) into an owned, writable bitmap. Comments and
    arbitrary whitespace are allowed in the header, whose fields are
    unsigned decimal numbers."""
    if not data.startswith(b"P5") or not data[2:3].isspace():
        raise ValueError("not a binary PGM (P5) file")
    pos = 2
    fields = []
    while len(fields) < 3:
        # skip whitespace and comments
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        fields.append(data[start:pos])
    # bytes.isdigit accepts ASCII digits only: no sign, underscore or space
    if not all(field.isdigit() for field in fields):
        raise ValueError("malformed PGM header")
    width, height, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValueError("only 8-bit PGM supported")
    pos += 1  # single whitespace byte after maxval
    if len(data) - pos < width * height:
        raise ValueError("truncated PGM pixel data")
    pixels = np.frombuffer(data, np.uint8, width * height, pos).reshape(height, width)
    return pixels.copy()
