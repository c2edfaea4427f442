"""QR decoding for clean, axis-aligned bitmaps (as produced by qr_render,
possibly with bounded module corruption).

Finder patterns are located by the 1:1:3:1:1 run-ratio test (ISO/IEC 18004
section 12). One run-length pass encodes every row of the bitmap at once
(and, on the transpose, every column) and tests all five-run windows
together. Lines come in runs of equal lines, as every module of a rendered
symbol makes several, and only the first line of a run is scanned. A row
hit counts only if a column hit with a similar unit lies within one unit
of it. That match is one sorted-key join (`searchsorted` on cell keys)
over the hits of each run of lines, not of each line: for each column hit
it meets, the rows of a row hit's run that match are an interval. The
matched copies, one for each row, are clustered by running mean in a loop,
because each point joins the first cluster whose running mean lies near
it. Both steps look for candidates in grid cells sized by scale level,
1.5 * 2**level wide, and only in the cells around a point, so the finder
stage stays linear in the number of hits even on bitmaps tiled with
finder-like cells of mixed sizes. The finder triple is picked by scoring
all ordered triples of the heaviest clusters at once, and the next-ranked
triples are tried when the best one does not decode. Refinement scans
nothing: it reads the hits of the rows and the column it needs out of the
whole-bitmap hits.

The grid is sampled at module centers, format information is BCH-corrected
by nearest-codeword search (both words against all 32 codewords at once,
with a byte popcount table), and each Reed-Solomon block is corrected
independently (`rs_decode` once per block, its syndromes and Chien search
read from cached GF(256) tables). The byte-mode bitstream is parsed
strictly: pad bytes after the terminator must alternate 0xEC/0x11, which
turns nearly all beyond-capacity miscorrections into loud failures.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import BadBitmap, FormatUnrecoverable, NoFinderPatterns, QrError, RsFailure, UnsupportedMode
from .gf256 import RsDecodeError, rs_decode
from .matrix import POPCOUNT, read_data_bits, read_format_words
from .tables import (
    ALL_FORMAT_WORDS,
    BLOCK_STRUCTURE,
    MAX_VERSION,
    MIN_VERSION,
    blocks_of,
    count_indicator_bits,
    interleave_order,
    matrix_size,
)

_RATIOS = (1, 1, 3, 1, 1)

# The finder stage clusters its matched hits one at a time in Python: about
# 0.25-0.3 us a pixel on a bitmap tiled with 1-px finder-like cells, where
# all three center rows of every cell are matched (2043 x 2043: 1.0-1.2 s
# CPU on a 2-vCPU Xeon host). This budget still admits a version-10 symbol
# at 31 px a module with a 4-module quiet zone (2015 px).
MAX_PIXELS = 2048 * 2048

# A finder-like pattern in the data region can outweigh a real finder, so a
# triple that fails to decode gives way to the next-ranked one. Every symbol
# that decodes on the first triple costs nothing more.
MAX_TRIPLES = 4


def qr_decode(pixels: np.ndarray) -> bytes:
    """Decode a rendered QR bitmap, a 2-D uint8 array (0 dark), to its byte-mode payload."""
    if pixels.ndim != 2:
        raise BadBitmap(f"a bitmap is 2-D, got {pixels.ndim} dimensions")
    if pixels.size > MAX_PIXELS:
        raise BadBitmap(f"{pixels.shape[1]}x{pixels.shape[0]} bitmap exceeds the {MAX_PIXELS}-pixel budget")
    binary = pixels < 128
    clusters, row_hits, col_hits = _find_finder_centers(binary)
    first_error = None
    for triple in _finder_triples(clusters, MAX_TRIPLES):
        try:
            return _decode_at(binary, row_hits, col_hits, *triple)
        except QrError as exc:
            first_error = first_error or exc
    raise first_error


def _decode_at(binary: np.ndarray, row_hits, col_hits, tl, tr, bl, unit: float) -> bytes:
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


def _ratio_hits(lines: np.ndarray):
    """1:1:3:1:1 dark/light/dark/light/dark run windows in every row of a
    2-D boolean array.

    A row equal to the one above it has the same hits, so the rows are taken
    in runs of equal rows and only the first row of each run is scanned.
    Returns (first, reps, run, center, unit): the first row and the length
    of each run of equal rows, and for each hit of a run's first row the
    index of that run, its center and its unit, in row-major order."""
    first = np.ones(len(lines), dtype=bool)
    np.any(lines[1:] != lines[:-1], axis=1, out=first[1:])
    first = np.flatnonzero(first)
    run, center, unit = _scan_lines(lines[first])
    return first, np.diff(first, append=len(lines)), run, center, unit


def _scan_lines(lines: np.ndarray):
    """The hits of every row, each row run-length encoded: (row, center,
    unit) arrays in row-major order."""
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


def _ranges(starts, counts: np.ndarray) -> np.ndarray:
    """Concatenated aranges: starts[i], ..., starts[i] + counts[i] - 1
    (`starts` may be one number for all)."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - starts, counts)


def _levels(units: np.ndarray) -> np.ndarray:
    """Scale level of each hit unit (>= 1): the smallest L with unit <= 2**L,
    which is the bit length of ceil(unit) - 1, the binary exponent `frexp`
    returns for it.

    Hits are filed in grids of cells 1.5 * 2**level + 1 wide (+1 absorbs
    rounding in the division), so everything within 1.5 * 2**level of a
    point lies in the 3x3 cells around its own. One grid sized by the
    largest unit would let a single large pattern put every small hit of
    the bitmap into a few cells and make the search quadratic."""
    return np.frexp(np.ceil(units) - 1.0)[1].astype(np.int64)


def _cell_keys(levels, y, x, span: int) -> np.ndarray:
    """Key of the grid cell of (y, x) at each level: (level, row + 1,
    column + 1) in base `span`, which exceeds every grid index + 2, so a
    neighbour cell is a fixed key offset."""
    size = np.ldexp(1.5, levels) + 1.0
    return (levels * span + (y // size).astype(np.int64) + 1) * span + (x // size).astype(np.int64) + 1


def _perpendicular(row_hits, col_hits, span: int):
    """The copies of the row hits, one for each row of a hit's run of equal
    rows, that have a column hit within `unit` of them on both axes with a
    unit at most 1.5 times larger or smaller: (y, x, unit) arrays in
    row-major order. Run centers are edge coordinates (pixel i spans
    [i, i + 1)), so a copy lies at y = row + 0.5, and a column hit's copies
    at column + 0.5.

    Hits are joined once per run of equal lines, as one sorted-key join. A
    column hit is filed at its own level in every cell its run of columns
    crosses; a match has a unit of at least unit / 1.5, so those cells are
    at least `unit` wide. A row hit looks, at each level from that of
    unit / 1.5 to that of unit * 1.5, in the cells its run of rows crosses
    and their neighbours, with `searchsorted` on the cell keys. On each pair
    found, either some copy of the column run lies within `unit` of the row
    hit in x or none does, and the row copies within `unit` of the column
    hit in y are an interval; both tests are exact integer arithmetic."""
    first, reps, run, x, u = row_hits
    col_first, col_reps, col_run, col_y, col_u = col_hits
    top, rows = first[run], reps[run]
    left, cols = col_first[col_run], col_reps[col_run]
    # file each column hit in the cells from its first copy's to its last's
    col_levels = _levels(col_u)
    col_key = _cell_keys(col_levels, col_y, left + 0.5, span)
    cells = _cell_keys(col_levels, col_y, left + cols - 0.5, span) - col_key + 1
    col = np.repeat(np.arange(len(col_u)), cells)
    col_keys = np.repeat(col_key, cells) + _ranges(0, cells)
    order = np.argsort(col_keys)
    col_keys, col = col_keys[order], col[order]

    # each row hit, at each of its levels, looks in the cell rows from the
    # one above its first copy's to the one below its last copy's
    low = _levels(u / 1.5)
    n_levels = _levels(u * 1.5) - low + 1
    hit = np.repeat(np.arange(len(u)), n_levels)
    level = _ranges(low, n_levels)
    key = _cell_keys(level, top[hit] + 0.5, x[hit], span) - span
    n_keys = (_cell_keys(level, (top + rows)[hit] - 0.5, x[hit], span) - key) // span + 2
    hit = np.repeat(hit, n_keys)
    key = np.repeat(key, n_keys) + _ranges(0, n_keys) * span
    # a cell and its left and right neighbours are one key range
    start = np.searchsorted(col_keys, key - 1, "left")
    count = np.searchsorted(col_keys, key + 1, "right") - start
    hit = np.repeat(hit, count)
    col = col[_ranges(start, count)]

    # copies lie at line + 0.5 and centers at multiples of 0.5, so, doubled,
    # |line + 0.5 - center| <= u is |2 * line - (2 * center - 1)| <= floor(2u)
    reach = np.floor(2.0 * u).astype(np.int64)[hit]
    mid_x = (2.0 * x).astype(np.int64)[hit] - 1
    mid_y = (2.0 * col_y).astype(np.int64)[col] - 1
    lo = np.maximum(top[hit], (mid_y - reach + 1) // 2)
    hi = np.minimum((top + rows - 1)[hit], (mid_y + reach) // 2)
    ok = (lo <= hi) & (np.maximum(left[col], (mid_x - reach + 1) // 2)
                       <= np.minimum((left + cols - 1)[col], (mid_x + reach) // 2))
    cu, unit = col_u[col], u[hit]
    ok &= np.maximum(cu, unit) / np.minimum(cu, unit) <= 1.5
    # the matched rows of each pair; sorted (row, hit) keys put the copies in
    # row-major order, and a copy matched by several pairs is kept once
    hit, lo = hit[ok], lo[ok]
    length = hi[ok] - lo + 1
    copy = np.sort(_ranges(lo, length) * len(u) + np.repeat(hit, length))
    copy = copy[np.diff(copy, prepend=-1) > 0]
    copy_row, hit = np.divmod(copy, len(u))
    return copy_row + 0.5, x[hit], u[hit]


def _find_finder_centers(binary: np.ndarray):
    """Cluster row/column ratio hits into candidate finder centers; also
    returns the row and column hits (`_ratio_hits` of the bitmap and of its
    transpose)."""
    row_hits = _ratio_hits(binary)
    col_hits = _ratio_hits(binary.T)
    if not len(row_hits[4]) or not len(col_hits[4]):
        raise NoFinderPatterns("no 1:1:3:1:1 run pattern found")
    # cells are at least 2.5 px wide, so max(shape) + 3 bounds a grid index + 2
    span = max(binary.shape) + 3
    # a candidate needs a perpendicular hit with matching center and unit
    y, x, unit = _perpendicular(row_hits, col_hits, span)
    if not len(y):
        raise NoFinderPatterns("row and column patterns never intersect")
    clusters = _cluster(y, x, unit, span)
    if len(clusters) < 3:
        raise NoFinderPatterns(f"found {len(clusters)} finder pattern(s), need 3")
    clusters.sort(key=lambda c: -c["weight"])
    return clusters[:12], row_hits, col_hits


def _cluster(y: np.ndarray, x: np.ndarray, unit: np.ndarray, span: int) -> list[dict]:
    """Running-mean clusters of the points: each point joins the first
    cluster, in creation order, whose mean lies within 1.5 * unit of it.
    Clusters are filed by the cell of their mean at every level a point
    has, and a point looks only in the 3x3 cells around its own at its own
    level, whose cells are at least 1.5 * unit wide."""
    point_levels = _levels(unit)
    levels = np.flatnonzero(np.bincount(point_levels))
    # (size, key of cell (0, 0)) of each level's grid, as `_cell_keys` has it
    grids = list(zip((np.ldexp(1.5, levels) + 1.0).tolist(), ((levels * span + 1) * span + 1).tolist()))
    neighbours = [dy * span + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    mean_y: list[float] = []
    mean_x: list[float] = []
    mean_u: list[float] = []
    weight: list[int] = []
    cluster_cells: list[list[int]] = []
    cells: dict[int, list[int]] = {}
    for py, px, pu, key in zip(y.tolist(), x.tolist(), unit.tolist(),
                               _cell_keys(point_levels, y, x, span).tolist()):
        reach = 1.5 * pu
        first = None
        for offset in neighbours:
            for i in cells.get(key + offset, ()):
                if ((first is None or i < first) and abs(mean_y[i] - py) <= reach
                        and abs(mean_x[i] - px) <= reach):
                    first = i
        if first is None:
            filed = [base + int(py // size) * span + int(px // size) for size, base in grids]
            for cell in filed:
                cells.setdefault(cell, []).append(len(weight))
            cluster_cells.append(filed)
            mean_y.append(py)
            mean_x.append(px)
            mean_u.append(pu)
            weight.append(1)
            continue
        w = weight[first]
        my = mean_y[first] = (mean_y[first] * w + py) / (w + 1)
        mx = mean_x[first] = (mean_x[first] * w + px) / (w + 1)
        mean_u[first] = (mean_u[first] * w + pu) / (w + 1)
        weight[first] = w + 1
        filed = cluster_cells[first]
        for j, (size, base) in enumerate(grids):
            cell = base + int(my // size) * span + int(mx // size)
            if cell != filed[j]:
                cells[filed[j]].remove(first)
                cells.setdefault(cell, []).append(first)
                filed[j] = cell
    return [{"y": cy, "x": cx, "unit": cu, "weight": w}
            for cy, cx, cu, w in zip(mean_y, mean_x, mean_u, weight)]


def _nearest_hit(hits, line: int, target: float, radius: float):
    """(center, unit) of the hit on line `line` closest to `target`, among
    those within `radius`; None when there is none. `hits` comes from
    `_ratio_hits`: a line has the hits of the run of equal lines it is in."""
    first, reps, run, centers, units = hits
    if not 0 <= line < first[-1] + reps[-1]:
        return None
    j = np.searchsorted(first, line, "right") - 1
    lo, hi = np.searchsorted(run, (j, j + 1))
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


@functools.cache
def _triples(n: int) -> np.ndarray:
    """Indices of every ordered triple of n clusters, as three rows, in the
    order `itertools.combinations` then `itertools.permutations` gives.
    Built without a list of tuples and kept as bytes (n is at most 12), so
    the cache for every n stays a few kilobytes."""
    triples = itertools.chain.from_iterable(
        p for c in itertools.combinations(range(n), 3) for p in itertools.permutations(c))
    return np.fromiter(triples, dtype=np.uint8).reshape(-1, 3).T


def _finder_triples(clusters: list[dict], limit: int) -> list[tuple]:
    """Up to `limit` (top-left, top-right, bottom-left, unit) triples that
    form an upright L with equal arms: the heaviest first, the least
    asymmetric first among equally heavy ones, in triple order among equal
    ones. All triples are scored at once."""
    tl, tr, bl = _triples(len(clusters)).astype(np.intp)
    y, x = np.array([(c["y"], c["x"]) for c in clusters]).reshape(-1, 2).T
    weight = np.array([c["weight"] for c in clusters], dtype=np.int64)
    v1x, v1y = x[tr] - x[tl], y[tr] - y[tl]
    v2x, v2y = x[bl] - x[tl], y[bl] - y[tl]
    arms = np.abs(v1x - v2y)
    ok = (v1x > 0) & (v2y > 0) & (np.abs(v1y) <= 0.15 * v1x) & (np.abs(v2x) <= 0.15 * v2y)
    ok &= arms <= 0.15 * np.maximum(v1x, v2y)
    valid = np.flatnonzero(ok)
    if not len(valid):
        raise NoFinderPatterns("no upright finder triple found")
    total = weight[tl[valid]] + weight[tr[valid]] + weight[bl[valid]]
    asym = np.abs(v1y[valid]) + np.abs(v2x[valid]) + arms[valid]
    # lexsort is stable, so equal keys keep triple order
    ranked = valid[np.lexsort((asym, -total))[:limit]]
    out = []
    for i in ranked:
        a, b, c = clusters[tl[i]], clusters[tr[i]], clusters[bl[i]]
        out.append(((a["y"], a["x"]), (b["y"], b["x"]), (c["y"], c["x"]),
                    (a["unit"] + b["unit"] + c["unit"]) / 3.0))
    return out


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


_FORMATS = list(ALL_FORMAT_WORDS)
_FORMAT_WORDS = np.array(list(ALL_FORMAT_WORDS.values()), dtype=np.int64)


def _decode_format(modules: np.ndarray) -> tuple[str, int]:
    """(level, mask) of the format codeword nearest to either format copy;
    the first in `ALL_FORMAT_WORDS` order among equally near ones."""
    diff = np.array(read_format_words(modules), dtype=np.int64)[:, None] ^ _FORMAT_WORDS
    dist = (POPCOUNT[diff & 0xFF] + POPCOUNT[diff >> 8]).min(axis=0)
    best = int(np.argmin(dist))  # the first of equal minima
    if dist[best] > 3:
        raise FormatUnrecoverable(f"format word distance {int(dist[best])} exceeds BCH capacity")
    return _FORMATS[best]


def _deinterleave_and_correct(codewords: list[int], version: int, level: str) -> list[int]:
    ec_per_block, _ = BLOCK_STRUCTURE[(version, level)]
    order = interleave_order(version, level)
    if len(codewords) < len(order):
        raise RsFailure(f"read {len(codewords)} codewords, expected {len(order)}")
    laid_out = [0] * len(order)
    for codeword, i in zip(codewords, order):
        laid_out[i] = codeword

    lens = blocks_of(version, level)
    data: list[int] = []
    pos, parity = 0, sum(lens)
    for b, dlen in enumerate(lens):
        block = laid_out[pos:pos + dlen] + laid_out[parity:parity + ec_per_block]
        pos, parity = pos + dlen, parity + ec_per_block
        try:
            data.extend(rs_decode(block, ec_per_block))
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
