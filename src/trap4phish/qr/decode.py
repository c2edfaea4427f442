"""QR decoding for clean, axis-aligned bitmaps (as produced by qr_render,
possibly with bounded module corruption).

Finder patterns are located by the 1:1:3:1:1 run-ratio test (ISO/IEC 18004
section 12). One run-length pass encodes every row of the bitmap at once
(and, on the transpose, every column) and tests all five-run windows
together; a line equal to the one before it, as every module of a
rendered symbol makes several, is not scanned again but copies its hits.
A row hit counts only if a column hit with a similar unit lies within one
unit of it, and the surviving hits are clustered by running mean. Both
steps look for candidates in grid cells sized by scale level, 1.5 *
2**level wide, and only in the 3x3 cells around a point, so the finder
stage stays linear in the number of hits even on bitmaps tiled with
finder-like cells of mixed sizes. The row/column match is one sorted-key
join over all hits (`searchsorted` on cell keys); the clustering is a loop,
because each point joins the first cluster whose running mean lies near
it. Refinement scans nothing: it reads the hits of the rows and the column
it needs out of the whole-bitmap hits, which are sorted by line.

The grid is sampled at module centers, format information is BCH-corrected
by nearest-codeword search, and each Reed-Solomon block is corrected
independently (`rs_decode` once per block, its syndromes read from the
GF(256) log tables). The byte-mode bitstream is parsed strictly: pad bytes
after the terminator must alternate 0xEC/0x11, which turns nearly all
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

# The finder stage clusters its matched hits one at a time in Python: about
# 0.5-0.65 us a pixel on a bitmap tiled with 1-px finder-like cells, where
# all three center rows of every cell are matched (2043 x 2043: 2.0-2.7 s
# CPU on a 2-vCPU Xeon host). This budget still admits a version-10 symbol
# at 31 px a module with a 4-module quiet zone (2015 px).
MAX_PIXELS = 2048 * 2048


def qr_decode(bitmap: QrBitmap) -> bytes:
    """Decode a rendered QR bitmap back to its byte-mode payload."""
    if bitmap.width * bitmap.height > MAX_PIXELS:
        raise BadBitmap(f"{bitmap.width}x{bitmap.height} bitmap exceeds the "
                        f"{MAX_PIXELS}-pixel budget")
    binary = bitmap.pixels < 128
    clusters, row_hits, col_hits = _find_finder_centers(binary)
    tl, tr, bl, unit = _select_finders(clusters)
    refined = [_refine_center(row_hits, col_hits, y, x, unit) for y, x in (tl, tr, bl)]
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
    2-D boolean array, as (row, center, unit) arrays in row-major order.

    A row equal to the one above it has the same hits, so only the first
    row of each run of equal rows is scanned, and its hits are repeated
    over the run."""
    first = np.ones(len(lines), dtype=bool)
    np.any(lines[1:] != lines[:-1], axis=1, out=first[1:])
    first = np.flatnonzero(first)
    row, center, unit = _scan_lines(lines[first])
    # distinct row j repeats over reps[j] rows: its hits, hits[j] of them,
    # fill a block of reps[j] * hits[j] outputs, one copy per repeated row
    reps = np.diff(first, append=len(lines))
    hits = np.bincount(row, minlength=len(first))
    block = reps * hits
    owner = np.repeat(np.arange(len(first)), block)
    offset = _ranges(np.zeros_like(block), block)
    own_hits = hits[owner]
    take = (np.cumsum(hits) - hits)[owner] + offset % own_hits
    return first[owner] + offset // own_hits, center[take], unit[take]


def _scan_lines(lines: np.ndarray):
    """`_ratio_hits` with every row run-length encoded."""
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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated aranges: starts[i], ..., starts[i] + counts[i] - 1."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - starts, counts)


def _levels(units: np.ndarray) -> np.ndarray:
    """`_level` of each unit: the bit length of ceil(unit) - 1, which is the
    binary exponent `frexp` returns for it."""
    return np.frexp(np.ceil(units) - 1.0)[1].astype(np.int64)


def _perpendicular(row_hits, col_hits, span: int) -> np.ndarray:
    """Whether each row hit (y, x, unit) has a column hit within `unit` of
    it on both axes with a unit at most 1.5 times larger or smaller.

    Column hits are filed at their own level: a match has a unit of at least
    unit / 1.5, so its cells are at least `unit` wide. A row hit looks at
    the 3x3 cells around it at each level from that of unit / 1.5 to that of
    unit * 1.5. This is one sorted-key join: the column hits sorted by cell
    key, `searchsorted` ranges for the nine neighbour keys of every (row
    hit, level), and the predicate on exactly the pairs those ranges hold.
    `span` exceeds every grid index + 2, so a key is (level, row + 1,
    column + 1) in base `span`, and a neighbour is a fixed key offset."""
    def keys(levels, y, x):
        size = np.ldexp(1.5, levels) + 1.0
        cell_y = (y // size).astype(np.int64) + 1
        cell_x = (x // size).astype(np.int64) + 1
        return (levels * span + cell_y) * span + cell_x

    row_y, row_x, row_u = row_hits
    col_y, col_x, col_u = col_hits
    col_keys = keys(_levels(col_u), col_y, col_x)
    order = np.argsort(col_keys)
    col_keys = col_keys[order]

    low = _levels(row_u / 1.5)
    n_levels = _levels(row_u * 1.5) - low + 1
    hit = np.repeat(np.arange(len(row_u)), n_levels)
    level = _ranges(low, n_levels)
    neighbours = np.array([dy * span + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
    query = (keys(level, row_y[hit], row_x[hit])[:, None] + neighbours).ravel()
    hit = np.repeat(hit, len(neighbours))
    start = np.searchsorted(col_keys, query, "left")
    count = np.searchsorted(col_keys, query, "right") - start
    hit = np.repeat(hit, count)
    col = order[_ranges(start, count)]

    y, x, unit = row_y[hit], row_x[hit], row_u[hit]
    cy, cx, cu = col_y[col], col_x[col], col_u[col]
    ok = (np.abs(cy - y) <= unit) & (np.abs(cx - x) <= unit)
    ok &= np.maximum(cu, unit) / np.minimum(cu, unit) <= 1.5
    found = np.zeros(len(row_u), dtype=bool)
    found[hit[ok]] = True
    return found


def _find_finder_centers(binary: np.ndarray):
    """Cluster row/column ratio hits into candidate finder centers; also
    returns the (row, x, unit) and (column, y, unit) hits, sorted by line."""
    row_y, row_x, row_u = row_hits = _ratio_hits(binary)
    col_x, col_y, col_u = col_hits = _ratio_hits(binary.T)
    if not len(row_u) or not len(col_u):
        raise NoFinderPatterns("no 1:1:3:1:1 run pattern found")

    # run centers are edge coordinates (pixel i spans [i, i + 1)), so a
    # hit's line stands for the middle of that line
    row_y = row_y + 0.5
    col_x = col_x + 0.5
    # a candidate needs a perpendicular hit with matching center and unit;
    # cells are at least 2.5 px wide, so max(shape) + 3 bounds a grid index + 2
    keep = _perpendicular((row_y, row_x, row_u), (col_y, col_x, col_u), max(binary.shape) + 3)
    points = list(zip(row_y[keep].tolist(), row_x[keep].tolist(), row_u[keep].tolist()))
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
    return clusters[:12], row_hits, col_hits


def _nearest_hit(hits, line: int, target: float, radius: float):
    """(center, unit) of the hit on line `line` closest to `target`, among
    those within `radius`; None when there is none. `hits` comes from
    `_ratio_hits`: sorted by line, each line's hits found on their own."""
    lines, centers, units = hits
    lo, hi = np.searchsorted(lines, (line, line + 1))
    offsets = np.abs(centers[lo:hi] - target)
    near = np.flatnonzero(offsets <= radius)
    if not len(near):
        return None
    best = lo + near[np.argmin(offsets[near])]
    return float(centers[best]), float(units[best])


def _refine_center(row_hits, col_hits, y: float, x: float, unit: float):
    """Snap a cluster mean to the exact run-ratio center near it. A line
    outside the bitmap has no hits, so it is skipped like one without."""
    for dy in sorted(range(-int(unit) - 1, int(unit) + 2), key=abs):
        horizontal = _nearest_hit(row_hits, int(round(y)) + dy, x, 2 * unit)
        if horizontal is None:
            continue
        x2, u2 = horizontal
        vertical = _nearest_hit(col_hits, int(round(x2)), y, 2 * unit)
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
    # module centers are edge coordinates: the pixel that holds one is its floor
    ys = np.floor(tl[0] + (rr - 3) * m_v).astype(int)
    xs = np.floor(tl[1] + (rr - 3) * m_h).astype(int)
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
        self.value = int.from_bytes(bytes(data), "big")
        self.n_bits = len(data) * 8
        self.pos = 0  # bit position

    def take(self, width: int) -> int:
        if self.pos + width > self.n_bits:
            raise UnsupportedMode("bitstream truncated")
        self.pos += width
        return (self.value >> (self.n_bits - self.pos)) & ((1 << width) - 1)

    def remaining_bits(self) -> int:
        return self.n_bits - self.pos


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
        payload += reader.take(8 * count).to_bytes(count, "big")
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
