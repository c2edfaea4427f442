"""QR decoding for clean, axis-aligned bitmaps (as produced by qr_render,
possibly with bounded module corruption).

Finder patterns are located by the 1:1:3:1:1 run-ratio test (ISO/IEC 18004
section 12). One run-length pass encodes every row of the bitmap at once
(and, on the transpose, every column) and tests all five-run windows
together; refinement reuses the same scanner on single rows and columns. A
row hit counts only if a column hit with a similar unit lies within one unit
of it, and the surviving hits are clustered by running mean. Both searches
file their candidates in grid cells sized by scale level, 1.5 * 2**level
wide, and look only at the 3x3 cells around a point, so the finder stage
stays linear in the number of hits even on bitmaps tiled with finder-like
cells of mixed sizes.

The grid is sampled at module centers, format information is BCH-corrected
by nearest-codeword search, and each Reed-Solomon block is corrected
independently. The byte-mode bitstream is parsed strictly: pad bytes after
the terminator must alternate 0xEC/0x11, which turns nearly all
beyond-capacity miscorrections into loud failures.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadBitmap, FormatUnrecoverable, NoFinderPatterns, RsFailure, UnsupportedMode
from .gf256 import RsDecodeError, rs_decode
from .matrix import read_data_bits, read_format_words
from .render import QrBitmap
from .tables import (
    ALL_FORMAT_WORDS,
    BLOCK_STRUCTURE,
    MAX_VERSION,
    MIN_VERSION,
    blocks_of,
    count_indicator_bits,
    matrix_size,
)

_RATIOS = (1, 1, 3, 1, 1)

# The finder stage runs Python for every run-ratio hit, about 0.6 us a pixel
# on a bitmap tiled with finder-like cells. This budget still admits a
# version-10 symbol at 31 px a module with a 4-module quiet zone (2015 px).
MAX_PIXELS = 2048 * 2048


def qr_decode(bitmap: QrBitmap) -> bytes:
    """Decode a rendered QR bitmap back to its byte-mode payload."""
    if bitmap.width * bitmap.height > MAX_PIXELS:
        raise BadBitmap(f"{bitmap.width}x{bitmap.height} bitmap exceeds the "
                        f"{MAX_PIXELS}-pixel budget")
    binary = bitmap.pixels < 128
    clusters = _find_finder_centers(binary)
    tl, tr, bl, unit = _select_finders(clusters)
    refined = [_refine_center(binary, y, x, unit) for y, x in (tl, tr, bl)]
    tl, tr, bl = [(y, x) for y, x, _u in refined]
    unit = sum(u for _y, _x, u in refined) / 3.0
    modules, version = _sample_grid(binary, tl, tr, bl, unit)
    level, mask_id = _decode_format(modules)
    bits = read_data_bits(modules, mask_id, version)
    codewords = np.packbits(bits[: (len(bits) // 8) * 8]).tolist()
    data = _deinterleave_and_correct(codewords, version, level)
    return _parse_byte_mode(data, version)


_RATIO_ARR = np.array(_RATIOS, dtype=np.float64)
# the point's own cell first: most matches are found there
_NEIGHBOURS = [(0, 0)] + [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]


def _ratio_hits(lines: np.ndarray):
    """1:1:3:1:1 dark/light/dark/light/dark run windows in every row of a
    2-D boolean array, as (row, center, unit) arrays in row-major order."""
    n, width = lines.shape
    # run edges of all rows at once; each row is padded with an edge at both
    # ends, so a run is two consecutive edges of the same row
    edges = np.ones((n, width + 1), dtype=bool)
    np.not_equal(lines[:, 1:], lines[:, :-1], out=edges[:, 1:width])
    flat = np.flatnonzero(edges)
    row, pos = np.divmod(flat, width + 1)
    lengths = np.diff(pos)
    # window k covers runs k..k+4: edges k..k+5 on one row, first run dark
    k = np.flatnonzero(row[:-5] == row[5:])
    k = k[lines.reshape(-1)[flat[k] - row[k]]]
    windows = lengths[k[:, None] + np.arange(5)]
    units = windows.sum(axis=1) / 7.0
    tolerance = np.maximum(units * 0.75, 1.5)
    ok = (np.abs(windows - units[:, None] * _RATIO_ARR) <= tolerance[:, None]).all(axis=1)
    ok &= units >= 1.0
    k = k[ok]
    return row[k], pos[k + 2] + lengths[k + 2] / 2.0, units[ok]


def _level(unit: float) -> int:
    """Scale level of a hit unit (>= 1): the smallest L with unit <= 2**L.

    Hits are filed in grids whose cell size follows their level. One grid
    sized by the largest unit would let a single large pattern put every
    small hit of the bitmap into a few cells and make the search quadratic.
    """
    return (math.ceil(unit) - 1).bit_length()


def _cell(level: int, y: float, x: float) -> tuple[int, int, int]:
    """Grid cell of a point at a scale level. Cells are 1.5 * 2**level wide
    (+1 absorbs rounding in the division), so everything within that
    distance of a point lies in the 3x3 cells around its own."""
    size = 1.5 * (1 << level) + 1.0
    return level, int(y // size), int(x // size)


def _near(cells: dict, level: int, y: float, x: float) -> list:
    """Items filed at `level` in the 3x3 cells around (y, x)."""
    _, gy, gx = _cell(level, y, x)
    found = []
    for dy, dx in _NEIGHBOURS:
        found += cells.get((level, gy + dy, gx + dx), ())
    return found


def _has_perpendicular(col_cells: dict, y: float, x: float, unit: float) -> bool:
    """Whether a column hit lies within `unit` of (y, x) on both axes with a
    unit at most 1.5 times larger or smaller."""
    for level in range(_level(unit / 1.5), _level(unit * 1.5) + 1):
        for cy, cx, cu in _near(col_cells, level, y, x):
            if abs(cy - y) <= unit and abs(cx - x) <= unit and max(cu, unit) / min(cu, unit) <= 1.5:
                return True
    return False


def _find_finder_centers(binary: np.ndarray):
    """Cluster row/column ratio hits into candidate finder centers."""
    row_y, row_x, row_u = _ratio_hits(binary)
    col_x, col_y, col_u = _ratio_hits(binary.T)
    if not len(row_u) or not len(col_u):
        raise NoFinderPatterns("no 1:1:3:1:1 run pattern found")

    # a candidate needs a perpendicular hit with matching center and unit.
    # Column hits are filed at their own level: a match has a unit of at
    # least unit / 1.5, so its cells are at least `unit` wide
    col_cells: dict[tuple[int, int, int], list] = {}
    for y, x, u in zip(col_y.tolist(), col_x.tolist(), col_u.tolist()):
        col_cells.setdefault(_cell(_level(u), y, x), []).append((y, x, u))
    points = []
    for y, x, unit in zip(row_y.astype(np.float64).tolist(), row_x.tolist(), row_u.tolist()):
        if _has_perpendicular(col_cells, y, x, unit):
            points.append((y, x, unit))
    if not points:
        raise NoFinderPatterns("row and column patterns never intersect")

    # each point joins the first cluster, in creation order, whose running
    # mean lies within 1.5 * unit of it. Clusters are filed by the cell of
    # their mean at every level a point has, and a point looks only at its
    # own level, whose cells are at least 1.5 * unit wide
    levels = sorted({_level(unit) for _y, _x, unit in points})
    clusters: list[dict] = []
    cluster_cells: dict[tuple[int, int, int], list[int]] = {}
    for y, x, unit in points:
        first = None
        for i in _near(cluster_cells, _level(unit), y, x):
            cluster = clusters[i]
            if ((first is None or i < first) and abs(cluster["y"] - y) <= 1.5 * unit
                    and abs(cluster["x"] - x) <= 1.5 * unit):
                first = i
        if first is None:
            for level in levels:
                cluster_cells.setdefault(_cell(level, y, x), []).append(len(clusters))
            clusters.append({"y": y, "x": x, "unit": unit, "weight": 1})
            continue
        cluster = clusters[first]
        old = [_cell(level, cluster["y"], cluster["x"]) for level in levels]
        w = cluster["weight"]
        cluster["y"] = (cluster["y"] * w + y) / (w + 1)
        cluster["x"] = (cluster["x"] * w + x) / (w + 1)
        cluster["unit"] = (cluster["unit"] * w + unit) / (w + 1)
        cluster["weight"] = w + 1
        for level, old_cell in zip(levels, old):
            new_cell = _cell(level, cluster["y"], cluster["x"])
            if new_cell != old_cell:
                cluster_cells[old_cell].remove(first)
                cluster_cells.setdefault(new_cell, []).append(first)
    if len(clusters) < 3:
        raise NoFinderPatterns(f"found {len(clusters)} finder pattern(s), need 3")
    clusters.sort(key=lambda c: -c["weight"])
    return clusters[:12]


def _nearest_hit(lines: np.ndarray, target: float, radius: float):
    """(center, unit) of the ratio hit in a one-row array closest to
    `target`, among those within `radius`; None when there is none."""
    _row, centers, units = _ratio_hits(lines)
    near = np.flatnonzero(np.abs(centers - target) <= radius)
    if not len(near):
        return None
    best = near[np.argmin(np.abs(centers[near] - target))]
    return float(centers[best]), float(units[best])


def _refine_center(binary: np.ndarray, y: float, x: float, unit: float):
    """Snap a cluster mean to the exact run-ratio center near it."""
    height, width = binary.shape
    for dy in sorted(range(-int(unit) - 1, int(unit) + 2), key=abs):
        row_idx = int(round(y)) + dy
        if not 0 <= row_idx < height:
            continue
        horizontal = _nearest_hit(binary[row_idx:row_idx + 1], x, 2 * unit)
        if horizontal is None:
            continue
        x2, u2 = horizontal
        col_idx = int(round(x2))
        if not 0 <= col_idx < width:
            continue
        vertical = _nearest_hit(binary[:, col_idx:col_idx + 1].T, y, 2 * unit)
        if vertical is None:
            continue
        y2, u3 = vertical
        return y2, x2, (u2 + u3) / 2.0
    return y, x, unit


def _select_finders(clusters: list[dict]):
    """Pick the (top-left, top-right, bottom-left) triple: the heaviest
    cluster triple forming an upright L with equal arms."""
    import itertools

    best = None
    for combo in itertools.combinations(clusters, 3):
        for tl, tr, bl in itertools.permutations(combo, 3):
            v1x = tr["x"] - tl["x"]
            v1y = tr["y"] - tl["y"]
            v2x = bl["x"] - tl["x"]
            v2y = bl["y"] - tl["y"]
            if v1x <= 0 or v2y <= 0:
                continue
            if abs(v1y) > 0.15 * v1x or abs(v2x) > 0.15 * v2y:
                continue
            if abs(v1x - v2y) > 0.15 * max(v1x, v2y):
                continue
            weight = tl["weight"] + tr["weight"] + bl["weight"]
            asym = abs(v1y) + abs(v2x) + abs(v1x - v2y)
            key = (weight, -asym)
            if best is None or key > best[0]:
                best = (key, tl, tr, bl)
    if best is None:
        raise NoFinderPatterns("no upright finder triple found")
    _key, tl, tr, bl = best
    unit = (tl["unit"] + tr["unit"] + bl["unit"]) / 3.0
    return (tl["y"], tl["x"]), (tr["y"], tr["x"]), (bl["y"], bl["x"]), unit


def _sample_grid(binary: np.ndarray, tl, tr, bl, unit: float) -> tuple[np.ndarray, int]:
    span_h = tr[1] - tl[1]
    span_v = bl[0] - tl[0]
    if span_h <= 0 or span_v <= 0:
        raise NoFinderPatterns("degenerate finder geometry")
    size_est = (span_h + span_v) / 2.0 / unit + 7.0
    version = int(round((size_est - 17.0) / 4.0))
    version = min(max(version, MIN_VERSION), MAX_VERSION)
    size = matrix_size(version)
    if abs(size_est - size) > 2.5:
        raise BadBitmap(f"grid size estimate {size_est:.1f} does not match a supported version")
    m_h = span_h / (size - 7)
    m_v = span_v / (size - 7)
    rr = np.arange(size)
    # round half up: half-to-even would alternate across module boundaries
    ys = np.floor(tl[0] + (rr - 3) * m_v + 0.5).astype(int)
    xs = np.floor(tl[1] + (rr - 3) * m_h + 0.5).astype(int)
    if ys.min() < 0 or xs.min() < 0 or ys.max() >= binary.shape[0] or xs.max() >= binary.shape[1]:
        raise BadBitmap("sampling grid escapes the bitmap (missing quiet zone?)")
    modules = binary[np.ix_(ys, xs)]
    return modules, version


def _decode_format(modules: np.ndarray) -> tuple[str, int]:
    word_a, word_b = read_format_words(modules)
    best = None
    for (level, mask_id), codeword in ALL_FORMAT_WORDS.items():
        dist = min(
            bin(word_a ^ codeword).count("1"),
            bin(word_b ^ codeword).count("1"),
        )
        if best is None or dist < best[0]:
            best = (dist, level, mask_id)
    dist, level, mask_id = best
    if dist > 3:
        raise FormatUnrecoverable(f"format word distance {dist} exceeds BCH capacity")
    return level, mask_id


def _deinterleave_and_correct(codewords: list[int], version: int, level: str) -> list[int]:
    ec_per_block, _ = BLOCK_STRUCTURE[(version, level)]
    lens = blocks_of(version, level)
    n_blocks = len(lens)
    total_data = sum(lens)
    expected = total_data + n_blocks * ec_per_block
    if len(codewords) < expected:
        raise RsFailure(f"read {len(codewords)} codewords, expected {expected}")

    data_blocks: list[list[int]] = [[] for _ in lens]
    idx = 0
    for i in range(max(lens)):
        for b, dlen in enumerate(lens):
            if i < dlen:
                data_blocks[b].append(codewords[idx])
                idx += 1
    ec_blocks: list[list[int]] = [[] for _ in lens]
    for _i in range(ec_per_block):
        for b in range(n_blocks):
            ec_blocks[b].append(codewords[idx])
            idx += 1

    data: list[int] = []
    for b in range(n_blocks):
        try:
            data.extend(rs_decode(data_blocks[b] + ec_blocks[b], ec_per_block))
        except RsDecodeError as exc:
            raise RsFailure(f"block {b}: {exc}") from None
    return data


class _BitReader:
    def __init__(self, data: list[int]):
        self.data = data
        self.pos = 0  # bit position

    def take(self, width: int) -> int:
        if self.pos + width > len(self.data) * 8:
            raise UnsupportedMode("bitstream truncated")
        value = 0
        for _ in range(width):
            byte = self.data[self.pos // 8]
            value = (value << 1) | ((byte >> (7 - self.pos % 8)) & 1)
            self.pos += 1
        return value

    def remaining_bits(self) -> int:
        return len(self.data) * 8 - self.pos


def _parse_byte_mode(data: list[int], version: int) -> bytes:
    reader = _BitReader(data)
    payload = bytearray()
    while True:
        if reader.remaining_bits() < 4:
            break  # implicit terminator at capacity
        mode = reader.take(4)
        if mode == 0b0000:
            break
        if mode != 0b0100:
            raise UnsupportedMode(f"segment mode {mode:04b} not supported (byte mode only)")
        count = reader.take(count_indicator_bits(version))
        for _ in range(count):
            payload.append(reader.take(8))
    # strict padding: skip to byte boundary, then 0xEC/0x11 alternation
    if reader.pos % 8:
        if reader.take(8 - reader.pos % 8) != 0:
            raise UnsupportedMode("nonzero padding bits after terminator")
    expected = 0xEC
    while reader.remaining_bits() >= 8:
        if reader.take(8) != expected:
            raise UnsupportedMode("pad bytes do not alternate 0xEC/0x11")
        expected = 0x11 if expected == 0xEC else 0xEC
    return bytes(payload)
