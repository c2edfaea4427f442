"""QR module-matrix construction: function patterns, format/version words,
zigzag data placement, the eight masks, and penalty scoring for mask choice.

Layouts, placement orders and mask grids are cached per version; callers must
treat the cached arrays as read-only. The encoder builds its mask candidates
as one (masks, n, n) stack, and `penalty_scores` scores the whole stack on
its rows and columns packed into one 64-bit word each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tables import ALIGNMENT_CENTERS, matrix_size, version_info_bits

MASK_FUNCTIONS = (
    lambda r, c: (r + c) % 2 == 0,
    lambda r, c: r % 2 == 0,
    lambda r, c: c % 3 == 0,
    lambda r, c: (r + c) % 3 == 0,
    lambda r, c: (r // 2 + c // 3) % 2 == 0,
    lambda r, c: (r * c) % 2 + (r * c) % 3 == 0,
    lambda r, c: ((r * c) % 2 + (r * c) % 3) % 2 == 0,
    lambda r, c: ((r * c) % 3 + (r + c) % 2) % 2 == 0,
)


@dataclass
class QrMatrix:
    version: int
    ec_level: str
    mask_id: int
    modules: np.ndarray  # size x size bool grid, True = dark

    def __post_init__(self):
        assert self.modules.shape == (self.size, self.size)

    @property
    def size(self) -> int:
        return matrix_size(self.version)


@lru_cache(maxsize=None)
def function_layout(version: int) -> tuple[np.ndarray, np.ndarray]:
    """(reserved, base) for a version: `reserved` marks every function module
    (including format/version areas), `base` holds their dark/light values,
    the version words included, except the format words themselves."""
    n = matrix_size(version)
    reserved = np.zeros((n, n), dtype=bool)
    base = np.zeros((n, n), dtype=bool)

    def set_module(r: int, c: int, dark: bool):
        reserved[r, c] = True
        base[r, c] = dark

    def finder(r0: int, c0: int):
        for dr in range(-1, 8):
            for dc in range(-1, 8):
                r, c = r0 + dr, c0 + dc
                if not (0 <= r < n and 0 <= c < n):
                    continue
                dark = (
                    0 <= dr <= 6 and 0 <= dc <= 6
                    and (dr in (0, 6) or dc in (0, 6) or (2 <= dr <= 4 and 2 <= dc <= 4))
                )
                set_module(r, c, dark)

    finder(0, 0)
    finder(0, n - 7)
    finder(n - 7, 0)

    # alignment patterns (skip the three that would overlap a finder)
    centers = ALIGNMENT_CENTERS[version]
    for rc in centers:
        for cc in centers:
            if reserved[rc, cc]:
                continue
            for dr in range(-2, 3):
                for dc in range(-2, 3):
                    dark = max(abs(dr), abs(dc)) != 1
                    set_module(rc + dr, cc + dc, dark)

    # timing patterns (alignment modules on row/col 6 carry the same values)
    for i in range(8, n - 8):
        dark = i % 2 == 0
        if not reserved[6, i]:
            set_module(6, i, dark)
        if not reserved[i, 6]:
            set_module(i, 6, dark)

    # dark module
    set_module(n - 8, 8, True)

    # format info areas (values set later per mask)
    for r, c in _format_positions_a(n) + _format_positions_b(n):
        reserved[r, c] = True

    # version info areas
    if version >= 7:
        bits = version_info_bits(version)
        for i in range(18):
            dark = bool((bits >> i) & 1)
            set_module(i // 3, n - 11 + i % 3, dark)
            set_module(n - 11 + i % 3, i // 3, dark)

    reserved.setflags(write=False)
    base.setflags(write=False)
    return reserved, base


def _format_positions_a(n: int) -> list[tuple[int, int]]:
    """Positions of format bits 0..14, copy A (top-left column + row)."""
    positions = []
    for i in range(15):
        if i < 6:
            positions.append((i, 8))
        elif i < 8:
            positions.append((i + 1, 8))
        elif i == 8:
            positions.append((8, 7))
        else:
            positions.append((8, 14 - i))
    return positions


def _format_positions_b(n: int) -> list[tuple[int, int]]:
    """Positions of format bits 0..14, copy B (top-right row + bottom-left column)."""
    positions = []
    for i in range(15):
        if i < 8:
            positions.append((8, n - 1 - i))
        else:
            positions.append((n - 15 + i, 8))
    return positions


@lru_cache(maxsize=None)
def format_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of both format copies, bits 0..14 of copy A then of
    copy B."""
    rows, cols = zip(*(_format_positions_a(n) + _format_positions_b(n)))
    r_arr = np.array(rows, dtype=np.intp)
    c_arr = np.array(cols, dtype=np.intp)
    r_arr.setflags(write=False)
    c_arr.setflags(write=False)
    return r_arr, c_arr


def read_format_words(modules: np.ndarray) -> tuple[int, int]:
    """Raw 15-bit words from both format copies (LSB = bit index 0)."""
    bits = modules[format_index(modules.shape[0])].reshape(2, 15)
    word_a, word_b = (bits << np.arange(15)).sum(axis=1).tolist()
    return word_a, word_b


@lru_cache(maxsize=None)
def data_positions(version: int) -> tuple[np.ndarray, np.ndarray]:
    """Zigzag order of the non-function modules: column pairs right to left
    (skipping the timing column), alternating upward and downward. Returned
    as (row_indices, col_indices) arrays."""
    reserved, _ = function_layout(version)
    n = reserved.shape[0]
    rows: list[int] = []
    cols: list[int] = []
    upward = True
    col = n - 1
    while col > 0:
        if col == 6:
            col -= 1
        row_iter = range(n - 1, -1, -1) if upward else range(n)
        for r in row_iter:
            for c in (col, col - 1):
                if not reserved[r, c]:
                    rows.append(r)
                    cols.append(c)
        upward = not upward
        col -= 2
    r_arr = np.array(rows, dtype=np.intp)
    c_arr = np.array(cols, dtype=np.intp)
    r_arr.setflags(write=False)
    c_arr.setflags(write=False)
    return r_arr, c_arr


@lru_cache(maxsize=None)
def mask_grid(version: int, mask_id: int) -> np.ndarray:
    n = matrix_size(version)
    grid = np.fromfunction(MASK_FUNCTIONS[mask_id], (n, n), dtype=np.int64)
    grid = grid.astype(bool)
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=None)
def data_masks(version: int) -> np.ndarray:
    """(8, data modules) stack: mask m's flips in `data_positions` order."""
    rows, cols = data_positions(version)
    masks = np.stack([mask_grid(version, mask_id)[rows, cols] for mask_id in range(8)])
    masks.setflags(write=False)
    return masks


def read_data_bits(modules: np.ndarray, mask_id: int, version: int) -> np.ndarray:
    rows, cols = data_positions(version)
    return (modules[rows, cols] ^ data_masks(version)[mask_id]).astype(np.uint8)


# bits set in each byte value, for popcounts of packed words
POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)

# shift counts as uint64, so that no operand of the word arithmetic is signed
_SHIFTS = tuple(np.uint64(v) for v in range(8))


def penalty_scores(stack: np.ndarray) -> np.ndarray:
    """Mask evaluation penalty of each (n, n) symbol of a (k, n, n) boolean
    stack, n <= 64: runs, 2x2 blocks, finder-like patterns, and
    dark-ratio deviation.

    Rows and columns are scored together as the symbols and their
    transposes: each of the 2k * n lines is packed into one little-endian
    uint64 word, bit j = module j (dark = 1). Each rule is a few shifts and
    ANDs of those words whose set bits are the positions it counts, and all
    the rule words are popcounted in one pass over their bytes."""
    k, n, _ = stack.shape
    u1, u2, u3, u4, u5, u6, u7 = _SHIFTS[1:]
    lines = np.concatenate([stack, stack.transpose(0, 2, 1)])
    packed = np.zeros((2 * k, n, 8), dtype=np.uint8)
    packed[..., :-(-n // 8)] = np.packbits(lines, axis=2, bitorder="little")
    dark = packed.view("<u8")[..., 0]
    light = ~dark & np.uint64((1 << n) - 1)

    # rule 1: each run of length L >= 5 scores 3 + (L - 5) = L - 2. With
    # W5/W6 = counts of all-equal windows of widths 5/6, the number of long
    # runs is W5 - W6 and sum(L - 4) over them is W5, so the rule totals
    # 3*W5 - 2*W6. Bit j of `same` is set when modules j and j + 1 are
    # equal, and a window of width w is w - 1 such bits in a row.
    same = ~(dark ^ dark >> u1) & np.uint64((1 << (n - 1)) - 1)
    same2 = same & same >> u1
    same4 = same2 & same2 >> u2
    rules = np.empty((5, 2 * k, n), dtype=np.uint64)
    rules[0] = same4
    rules[1] = same4 & same >> u4

    # rule 3: the dark-light-dark-dark-dark-light-dark core at bit p, with
    # four light modules after it (p + 7 .. p + 10) or before it
    # (p - 4 .. p - 1)
    core = (dark & light >> u1 & dark >> u2 & dark >> u3 & dark >> u4
            & light >> u5 & dark >> u6)
    light4 = light & light >> u1
    light4 &= light4 >> u2
    rules[2] = core & light4 >> u7
    rules[3] = core & light4 << u4

    # rule 2, in the row half: a 2x2 block of one color at (r, j) is equal
    # neighbours at j on rows r and r + 1 with rows r and r + 1 equal at j;
    # the column half holds the dark modules for rule 4
    rows, row_same = dark[:k], same[:k]
    rules[4, :k, :-1] = row_same[:, :-1] & row_same[:, 1:] & ~(rows[:, :-1] ^ rows[:, 1:])
    rules[4, :k, -1] = 0
    rules[4, k:] = rows

    # at most 64 * n <= 4096 bits per sum, so uint16 holds it
    counts = np.take(POPCOUNT, rules.view(np.uint8)).reshape(5, 2, k, 8 * n).sum(axis=3, dtype=np.uint16)
    counts = counts.astype(np.int64)
    runs, six, after, before = counts[:4, 0] + counts[:4, 1]
    blocks, dark_count = counts[4]
    scores = 3 * runs - 2 * six + 40 * (after + before) + 3 * blocks
    # rule 4: dark module proportion
    return scores + [10 * int(abs(d * 100 / (n * n) - 50) // 5) for d in dark_count.tolist()]
