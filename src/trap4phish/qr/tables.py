"""Symbol structure tables for QR versions 1-10 and the BCH-protected
format / version information words.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

MIN_VERSION = 1
MAX_VERSION = 10

EC_LEVELS = ("L", "M", "Q", "H")

# format-info indicator bits per level
EC_LEVEL_BITS = {"L": 1, "M": 0, "Q": 3, "H": 2}

# (version, level) -> (ec codewords per block, ((block count, data codewords per block), ...))
BLOCK_STRUCTURE: dict[tuple[int, str], tuple[int, tuple[tuple[int, int], ...]]] = {
    (1, "L"): (7, ((1, 19),)),
    (1, "M"): (10, ((1, 16),)),
    (1, "Q"): (13, ((1, 13),)),
    (1, "H"): (17, ((1, 9),)),
    (2, "L"): (10, ((1, 34),)),
    (2, "M"): (16, ((1, 28),)),
    (2, "Q"): (22, ((1, 22),)),
    (2, "H"): (28, ((1, 16),)),
    (3, "L"): (15, ((1, 55),)),
    (3, "M"): (26, ((1, 44),)),
    (3, "Q"): (18, ((2, 17),)),
    (3, "H"): (22, ((2, 13),)),
    (4, "L"): (20, ((1, 80),)),
    (4, "M"): (18, ((2, 32),)),
    (4, "Q"): (26, ((2, 24),)),
    (4, "H"): (16, ((4, 9),)),
    (5, "L"): (26, ((1, 108),)),
    (5, "M"): (24, ((2, 43),)),
    (5, "Q"): (18, ((2, 15), (2, 16))),
    (5, "H"): (22, ((2, 11), (2, 12))),
    (6, "L"): (18, ((2, 68),)),
    (6, "M"): (16, ((4, 27),)),
    (6, "Q"): (24, ((4, 19),)),
    (6, "H"): (28, ((4, 15),)),
    (7, "L"): (20, ((2, 78),)),
    (7, "M"): (18, ((4, 31),)),
    (7, "Q"): (18, ((2, 14), (4, 15))),
    (7, "H"): (26, ((4, 13), (1, 14))),
    (8, "L"): (24, ((2, 97),)),
    (8, "M"): (22, ((2, 38), (2, 39))),
    (8, "Q"): (22, ((4, 18), (2, 19))),
    (8, "H"): (26, ((4, 14), (2, 15))),
    (9, "L"): (30, ((2, 116),)),
    (9, "M"): (22, ((3, 36), (2, 37))),
    (9, "Q"): (20, ((4, 16), (4, 17))),
    (9, "H"): (24, ((4, 12), (4, 13))),
    (10, "L"): (18, ((2, 68), (2, 69))),
    (10, "M"): (26, ((4, 43), (1, 44))),
    (10, "Q"): (24, ((6, 19), (2, 20))),
    (10, "H"): (28, ((6, 15), (2, 16))),
}

TOTAL_CODEWORDS = {1: 26, 2: 44, 3: 70, 4: 100, 5: 134, 6: 172, 7: 196, 8: 242, 9: 292, 10: 346}

REMAINDER_BITS = {1: 0, 2: 7, 3: 7, 4: 7, 5: 7, 6: 7, 7: 0, 8: 0, 9: 0, 10: 0}

ALIGNMENT_CENTERS = {
    1: (),
    2: (6, 18),
    3: (6, 22),
    4: (6, 26),
    5: (6, 30),
    6: (6, 34),
    7: (6, 22, 38),
    8: (6, 24, 42),
    9: (6, 26, 46),
    10: (6, 28, 50),
}

_G15 = 0b10100110111
_G15_MASK = 0b101010000010010
_G18 = 0b1111100100101


def matrix_size(version: int) -> int:
    return 17 + 4 * version


def data_codewords(version: int, level: str) -> int:
    _ec, groups = BLOCK_STRUCTURE[(version, level)]
    return sum(count * dlen for count, dlen in groups)


def byte_mode_capacity(version: int, level: str) -> int:
    """Maximum payload bytes for a byte-mode segment (mode + count header)."""
    header_bits = 4 + count_indicator_bits(version)
    return (data_codewords(version, level) * 8 - header_bits) // 8


def count_indicator_bits(version: int) -> int:
    return 8 if version <= 9 else 16


def smallest_version(payload_len: int, level: str) -> int | None:
    for version in range(MIN_VERSION, MAX_VERSION + 1):
        if payload_len <= byte_mode_capacity(version, level):
            return version
    return None


def blocks_of(version: int, level: str) -> list[int]:
    """Data codeword count of each block, in block order."""
    _ec, groups = BLOCK_STRUCTURE[(version, level)]
    out = []
    for count, dlen in groups:
        out.extend([dlen] * count)
    return out


@lru_cache(maxsize=None)
def interleave_order(version: int, level: str) -> tuple[int, ...]:
    """For each codeword of the symbol, in placement order, its index in the
    blocks laid end to end: every block's data codewords, in block order,
    then every block's parity codewords. Data codewords interleave first,
    one from each block that still has one, then parity codewords."""
    ec_per_block, _groups = BLOCK_STRUCTURE[(version, level)]
    lens = blocks_of(version, level)
    starts = list(accumulate(lens, initial=0))
    data = [starts[b] + i for i in range(max(lens)) for b, dlen in enumerate(lens) if i < dlen]
    parity = [starts[-1] + b * ec_per_block + i for i in range(ec_per_block) for b in range(len(lens))]
    return tuple(data + parity)


def _bch_remainder(value: int, generator: int) -> int:
    g_len = generator.bit_length()
    v = value
    while v.bit_length() >= g_len:
        v ^= generator << (v.bit_length() - g_len)
    return v


def format_info_bits(level: str, mask_id: int) -> int:
    """Masked 15-bit format word for (error level, mask)."""
    data = (EC_LEVEL_BITS[level] << 3) | mask_id
    shifted = data << 10
    return (shifted | _bch_remainder(shifted, _G15)) ^ _G15_MASK


def version_info_bits(version: int) -> int:
    """18-bit version word (versions 7 and up carry it in the symbol)."""
    shifted = version << 12
    return shifted | _bch_remainder(shifted, _G18)


ALL_FORMAT_WORDS = {
    (level, mask): format_info_bits(level, mask)
    for level in EC_LEVELS
    for mask in range(8)
}
