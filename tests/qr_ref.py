"""Plain QR code paths used only as test oracles.

The finder search scans each row and each column on its own for 1:1:3:1:1
run windows, checks every row hit against every column hit, and clusters the
survivors by comparing each one with every cluster in creation order
(`cluster_points`).
Quadratic, but written the plain way, and shares no code with the
whole-bitmap scanner in `trap4phish.qr.decode`. `has_perpendicular` is the
per-row-hit cell lookup that the sorted-key join in `decode._perpendicular`
replaced, with the scalar `level`, `cell` and `near` it files and looks up
hits by. `select_finders` tries the ordered cluster triples one at a time.
`render_pixels` paints a symbol with `np.kron` and a boolean-mask store.

The encoder builds one masked symbol at a time with per-module loops and
scores it with sliding-window reductions (`penalty_score`), computes
Reed-Solomon parity by long polynomial division and syndromes by Horner
evaluation, and packs the data codewords from a list of bits.

The decoder's former loops: `decode_format` measures both format words
against each codeword in turn with `bin().count`, and `find_errors` is the
Chien search that evaluates the reciprocal locator at one power of alpha
at a time.
"""

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from trap4phish.qr import FormatUnrecoverable, NoFinderPatterns, QrMatrix
from trap4phish.qr.encode import PAD_BYTES
from trap4phish.qr.gf256 import RsDecodeError, generator_poly, gf_pow, poly_divmod, poly_eval
from trap4phish.qr.matrix import (
    _format_positions_a,
    _format_positions_b,
    data_positions,
    mask_grid,
    read_format_words,
)
from trap4phish.qr.tables import (
    ALIGNMENT_CENTERS,
    ALL_FORMAT_WORDS,
    BLOCK_STRUCTURE,
    REMAINDER_BITS,
    blocks_of,
    count_indicator_bits,
    format_info_bits,
    matrix_size,
    smallest_version,
    version_info_bits,
)

_RATIO_ARR = np.array((1, 1, 3, 1, 1), dtype=np.float64)


def ratio_candidates(line: np.ndarray) -> list[tuple[float, float]]:
    """Centers of 1:1:3:1:1 dark/light/dark/light/dark run windows."""
    boundaries = np.flatnonzero(np.concatenate(([True], line[1:] != line[:-1], [True])))
    lengths = np.diff(boundaries)
    if len(lengths) < 5:
        return []
    starts = boundaries[:-1]
    dark_first = bool(line[0])
    windows = sliding_window_view(lengths, 5)
    units = windows.sum(axis=1) / 7.0
    tolerance = np.maximum(units * 0.75, 1.5)
    ok = (np.abs(windows - units[:, None] * _RATIO_ARR) <= tolerance[:, None]).all(axis=1)
    ok &= units >= 1.0
    # runs alternate, so window k starts dark iff k parity matches line[0]
    parity = np.arange(len(windows)) % 2
    ok &= parity == (0 if dark_first else 1)
    out = []
    for k in np.flatnonzero(ok):
        center = starts[k + 2] + lengths[k + 2] / 2.0
        out.append((float(center), float(units[k])))
    return out


def find_finder_centers(binary: np.ndarray):
    """Cluster row/column ratio hits into candidate finder centers."""
    row_hits = []  # (y, x, unit)
    for y in range(binary.shape[0]):
        for x, unit in ratio_candidates(binary[y]):
            row_hits.append((y + 0.5, x, unit))
    col_hits = []
    for x in range(binary.shape[1]):
        for y, unit in ratio_candidates(binary[:, x]):
            col_hits.append((y, x + 0.5, unit))
    if not row_hits or not col_hits:
        raise NoFinderPatterns("no 1:1:3:1:1 run pattern found")

    # a candidate needs a perpendicular hit with matching center and unit
    col_arr = np.array(col_hits)
    points = []
    for y, x, unit in row_hits:
        dy = np.abs(col_arr[:, 0] - y)
        dx = np.abs(col_arr[:, 1] - x)
        du = np.maximum(col_arr[:, 2], unit) / np.minimum(col_arr[:, 2], unit)
        close = (dy <= unit) & (dx <= unit) & (du <= 1.5)
        if close.any():
            points.append((y, x, unit))
    if not points:
        raise NoFinderPatterns("row and column patterns never intersect")

    clusters = cluster_points(points)
    if len(clusters) < 3:
        raise NoFinderPatterns(f"found {len(clusters)} finder pattern(s), need 3")
    clusters.sort(key=lambda c: -c["weight"])
    return clusters[:12]


def cluster_points(points) -> list[dict]:
    """Running-mean clusters in creation order: each (y, x, unit) point
    joins the first cluster whose mean lies within 1.5 * unit of it."""
    clusters: list[dict] = []
    for y, x, unit in points:
        for cluster in clusters:
            if abs(cluster["y"] - y) <= 1.5 * unit and abs(cluster["x"] - x) <= 1.5 * unit:
                w = cluster["weight"]
                cluster["y"] = (cluster["y"] * w + y) / (w + 1)
                cluster["x"] = (cluster["x"] * w + x) / (w + 1)
                cluster["unit"] = (cluster["unit"] * w + unit) / (w + 1)
                cluster["weight"] = w + 1
                break
        else:
            clusters.append({"y": y, "x": x, "unit": unit, "weight": 1})
    return clusters


def refine_center(binary: np.ndarray, y: float, x: float, unit: float):
    """Snap a cluster mean to the exact run-ratio center near it."""
    height, width = binary.shape
    for dy in sorted(range(-int(unit) - 1, int(unit) + 2), key=abs):
        row_idx = int(round(y)) + dy
        if not 0 <= row_idx < height:
            continue
        candidates = [(cx, u) for cx, u in ratio_candidates(binary[row_idx])
                      if abs(cx - x) <= 2 * unit]
        if not candidates:
            continue
        x2, u2 = min(candidates, key=lambda c: abs(c[0] - x))
        col_idx = int(round(x2))
        if not 0 <= col_idx < width:
            continue
        vertical = [(cy, u) for cy, u in ratio_candidates(binary[:, col_idx])
                    if abs(cy - y) <= 2 * unit]
        if not vertical:
            continue
        y2, u3 = min(vertical, key=lambda c: abs(c[0] - y))
        return y2, x2, (u2 + u3) / 2.0
    return y, x, unit


def level(unit: float) -> int:
    """Scale level of a hit unit (>= 1): the smallest L with unit <= 2**L."""
    return (math.ceil(unit) - 1).bit_length()


def cell(lvl: int, y: float, x: float) -> tuple[int, int, int]:
    """Grid cell of a point at a scale level; cells are 1.5 * 2**lvl + 1 wide."""
    size = 1.5 * (1 << lvl) + 1.0
    return lvl, int(y // size), int(x // size)


def near(cells: dict, lvl: int, y: float, x: float) -> list:
    """Items filed at `lvl` in the 3x3 cells around (y, x)."""
    _, gy, gx = cell(lvl, y, x)
    return [item for dy in (-1, 0, 1) for dx in (-1, 0, 1) for item in cells.get((lvl, gy + dy, gx + dx), ())]


def has_perpendicular(row_hits, col_hits) -> list[bool]:
    """Per row hit: whether a column hit lies within `unit` of it on both
    axes with a unit at most 1.5 times larger or smaller, looked up in the
    3x3 cells around it at each level from that of unit / 1.5 to that of
    unit * 1.5, with column hits filed at their own level."""
    col_cells: dict = {}
    for y, x, u in zip(*(np.asarray(a, dtype=np.float64).tolist() for a in col_hits)):
        col_cells.setdefault(cell(level(u), y, x), []).append((y, x, u))
    found = []
    for y, x, unit in zip(*(np.asarray(a, dtype=np.float64).tolist() for a in row_hits)):
        found.append(any(
            abs(cy - y) <= unit and abs(cx - x) <= unit and max(cu, unit) / min(cu, unit) <= 1.5
            for lvl in range(level(unit / 1.5), level(unit * 1.5) + 1)
            for cy, cx, cu in near(col_cells, lvl, y, x)
        ))
    return found


def select_finders(clusters: list[dict]):
    """Pick the (top-left, top-right, bottom-left) triple: the heaviest
    cluster triple forming an upright L with equal arms."""
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


def render_pixels(matrix: QrMatrix, module_px: int, quiet_zone: int) -> np.ndarray:
    """Grayscale pixels of a symbol: a light canvas, the module grid scaled
    by `np.kron` and its dark modules stored through a boolean mask."""
    total = (matrix.size + 2 * quiet_zone) * module_px
    pixels = np.full((total, total), 255, dtype=np.uint8)
    dark = np.kron(matrix.modules, np.ones((module_px, module_px), dtype=bool))
    offset = quiet_zone * module_px
    span = matrix.size * module_px
    pixels[offset:offset + span, offset:offset + span][dark] = 0
    return pixels


_PATTERN_A = np.array([1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0], dtype=np.int8)
_PATTERN_B = _PATTERN_A[::-1].copy()


def penalty_score(modules: np.ndarray) -> int:
    """Mask evaluation penalty of one symbol: runs, 2x2 blocks, finder-like
    patterns, and dark-ratio deviation."""
    n = modules.shape[0]
    score = 0
    m = modules.astype(np.int8)

    for grid in (m, m.T):
        # rule 1: a run of length L >= 5 scores L - 2, which totals 3*W5 - 2*W6
        # over the counts of all-equal windows of widths 5 and 6
        same = grid[:, 1:] == grid[:, :-1]
        w5 = int(sliding_window_view(same, 4, axis=1).all(axis=2).sum())
        w6 = int(sliding_window_view(same, 5, axis=1).all(axis=2).sum()) if n >= 6 else 0
        score += 3 * w5 - 2 * w6
        # rule 3: finder-like 1:1:3:1:1 pattern flanked by a light quiet run
        if n >= 11:
            windows = sliding_window_view(grid, 11, axis=1)
            hits = (windows == _PATTERN_A).all(axis=2) | (windows == _PATTERN_B).all(axis=2)
            score += 40 * int(hits.sum())

    # rule 2: 2x2 blocks of one color
    same_block = (
        (modules[:-1, :-1] == modules[1:, :-1])
        & (modules[:-1, :-1] == modules[:-1, 1:])
        & (modules[:-1, :-1] == modules[1:, 1:])
    )
    score += 3 * int(same_block.sum())

    # rule 4: dark module proportion
    dark = int(modules.sum())
    percent = dark * 100 / (n * n)
    score += 10 * int(abs(percent - 50) // 5)
    return score


def rs_encode(data: list[int], nsym: int) -> list[int]:
    """Parity by long division of data * x^nsym by the generator."""
    _, remainder = poly_divmod(list(data) + [0] * nsym, generator_poly(nsym))
    return remainder


def syndromes(msg: list[int], nsym: int) -> list[int]:
    return [0] + [poly_eval(msg, gf_pow(2, i)) for i in range(nsym)]


def find_errors(err_loc: list[int], nmess: int) -> list[int]:
    # roots of the reciprocal locator sit at alpha^(coefficient degree)
    errs = len(err_loc) - 1
    reciprocal = err_loc[::-1]
    positions = []
    for i in range(nmess):
        if poly_eval(reciprocal, gf_pow(2, i)) == 0:
            positions.append(nmess - 1 - i)
    if len(positions) != errs:
        raise RsDecodeError("Chien search found a different error count than the locator degree")
    return positions


def decode_format(modules: np.ndarray) -> tuple[str, int]:
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


def build_data_codewords(payload: bytes, version: int, level: str) -> list[int]:
    """Byte-mode bitstream: mode, count, payload, terminator, pad bytes."""
    capacity_bits = 8 * sum(blocks_of(version, level))
    bits: list[int] = []

    def push(value: int, width: int):
        for i in range(width - 1, -1, -1):
            bits.append((value >> i) & 1)

    push(0b0100, 4)
    push(len(payload), count_indicator_bits(version))
    for byte in payload:
        push(byte, 8)
    push(0, min(4, capacity_bits - len(bits)))
    while len(bits) % 8:
        bits.append(0)
    codewords = [int("".join(map(str, bits[i:i + 8])), 2) for i in range(0, len(bits), 8)]
    pad_idx = 0
    while len(codewords) < capacity_bits // 8:
        codewords.append(PAD_BYTES[pad_idx % 2])
        pad_idx += 1
    return codewords


def interleave(codewords: list[int], version: int, level: str) -> list[int]:
    ec_per_block, _groups = BLOCK_STRUCTURE[(version, level)]
    data_blocks = []
    pos = 0
    for dlen in blocks_of(version, level):
        data_blocks.append(codewords[pos:pos + dlen])
        pos += dlen
    ec_blocks = [rs_encode(block, ec_per_block) for block in data_blocks]
    out = []
    for i in range(max(len(b) for b in data_blocks)):
        out += [block[i] for block in data_blocks if i < len(block)]
    for i in range(ec_per_block):
        out += [block[i] for block in ec_blocks]
    return out


def assemble(version: int, level: str, final_codewords: list[int], mask_id: int) -> np.ndarray:
    """One masked symbol, module by module."""
    n = matrix_size(version)
    modules = np.zeros((n, n), dtype=bool)
    # function patterns, written out again rather than copied from the layout
    for r0, c0 in ((0, 0), (0, n - 7), (n - 7, 0)):
        for dr in range(7):
            for dc in range(7):
                ring = max(abs(dr - 3), abs(dc - 3))
                modules[r0 + dr, c0 + dc] = ring != 2
    centers = ALIGNMENT_CENTERS[version]
    for rc in centers:
        for cc in centers:
            if (rc < 9 and cc < 9) or (rc < 9 and cc > n - 10) or (rc > n - 10 and cc < 9):
                continue
            for dr in range(-2, 3):
                for dc in range(-2, 3):
                    modules[rc + dr, cc + dc] = max(abs(dr), abs(dc)) != 1
    for i in range(8, n - 8):
        modules[6, i] = modules[i, 6] = i % 2 == 0
    modules[n - 8, 8] = True

    bits = np.unpackbits(np.array(final_codewords, dtype=np.uint8)).tolist()
    bits += [0] * REMAINDER_BITS[version]
    rows, cols = data_positions(version)
    grid = mask_grid(version, mask_id)
    for bit, r, c in zip(bits, rows.tolist(), cols.tolist()):
        modules[r, c] = bool(bit) ^ bool(grid[r, c])

    word = format_info_bits(level, mask_id)
    for positions in (_format_positions_a(n), _format_positions_b(n)):
        for i, (r, c) in enumerate(positions):
            modules[r, c] = bool((word >> i) & 1)
    if version >= 7:
        word = version_info_bits(version)
        for i in range(18):
            modules[i // 3, n - 11 + i % 3] = modules[n - 11 + i % 3, i // 3] = bool((word >> i) & 1)
    return modules


def qr_encode(payload: bytes, level: str = "M", mask_id=None, version=None) -> QrMatrix:
    """Symbol by symbol: each of the eight masks is assembled and scored on
    its own, and the first lowest score wins."""
    if version is None:
        version = smallest_version(len(payload), level)
    final = interleave(build_data_codewords(payload, version, level), version, level)
    scored = [(penalty_score(assemble(version, level, final, m)), m)
              for m in (range(8) if mask_id is None else [mask_id])]
    _score, chosen = min(scored)
    return QrMatrix(version, level, chosen, assemble(version, level, final, chosen))
