"""QR encoding: byte-mode segment, Reed-Solomon parity per block, codeword
interleaving, and penalty-based mask selection.

The data bits are placed once for all eight masks: the candidates are one
(8, n, n) stack, the data modules of each XORed with that mask's grid and
the format words written through index arrays, and `penalty_scores` scores
the whole stack in one call. A forced mask is a stack of one.
"""

from __future__ import annotations

import numpy as np

from .errors import PayloadTooLong
from .gf256 import rs_encode
from .matrix import (
    QrMatrix,
    data_masks,
    data_positions,
    format_index,
    function_layout,
    penalty_scores,
)
from .tables import (
    BLOCK_STRUCTURE,
    EC_LEVELS,
    blocks_of,
    byte_mode_capacity,
    count_indicator_bits,
    format_info_bits,
    interleave_order,
    smallest_version,
)

PAD_BYTES = (0xEC, 0x11)


def build_data_codewords(payload: bytes, version: int, level: str) -> list[int]:
    """Byte-mode bitstream: mode, count, payload, terminator, pad bytes."""
    capacity = sum(blocks_of(version, level))
    count_bits = count_indicator_bits(version)
    n_bits = 4 + count_bits + 8 * len(payload)
    value = (0b0100 << count_bits | len(payload)) << 8 * len(payload) | int.from_bytes(payload, "big")
    # terminator: up to four zero bits, truncated at capacity, then zero bits
    # to the byte boundary
    length = -(-min(n_bits + 4, 8 * capacity) // 8)
    codewords = list((value << 8 * length - n_bits).to_bytes(length, "big"))
    return codewords + list(PAD_BYTES * capacity)[:capacity - len(codewords)]


def interleave(codewords: list[int], version: int, level: str) -> list[int]:
    """Split into RS blocks, append parity, and interleave both sections."""
    ec_per_block, _groups = BLOCK_STRUCTURE[(version, level)]
    data_blocks: list[list[int]] = []
    pos = 0
    for dlen in blocks_of(version, level):
        data_blocks.append(codewords[pos:pos + dlen])
        pos += dlen
    laid_out = codewords + [p for block in data_blocks for p in rs_encode(block, ec_per_block)]
    return [laid_out[i] for i in interleave_order(version, level)]


def mask_candidates(version: int, level: str, final_codewords: list[int],
                    mask_ids: list[int]) -> np.ndarray:
    """(len(mask_ids), n, n) stack of the symbol under each listed mask."""
    _reserved, base = function_layout(version)
    rows, cols = data_positions(version)
    bits = np.zeros(len(rows), dtype=bool)  # the remainder bits stay 0
    bits[:8 * len(final_codewords)] = np.unpackbits(np.array(final_codewords, dtype=np.uint8))
    stack = np.repeat(base[None], len(mask_ids), axis=0)
    stack[:, rows, cols] = bits ^ data_masks(version)[mask_ids]
    words = np.array([format_info_bits(level, mask_id) for mask_id in mask_ids])
    format_bits = (words[:, None] >> np.arange(15)) & 1 == 1
    format_rows, format_cols = format_index(base.shape[0])
    stack[:, format_rows, format_cols] = np.tile(format_bits, 2)
    return stack


def qr_encode(payload: bytes, ec_level: str = "M", mask_id: int | None = None,
              version: int | None = None) -> QrMatrix:
    """Encode `payload` as the smallest-version byte-mode symbol.

    `mask_id` forces a specific mask; by default all eight are scored and the
    lowest penalty (lowest id on ties) wins. `version` forces a version as
    long as the payload fits.
    """
    if ec_level not in EC_LEVELS:
        raise ValueError(f"ec_level must be one of {EC_LEVELS}")
    if mask_id is not None and not 0 <= mask_id <= 7:
        raise ValueError("mask_id must be in 0..7")
    if version is None:
        version = smallest_version(len(payload), ec_level)
        if version is None:
            raise PayloadTooLong(
                f"payload of {len(payload)} bytes exceeds the version-10 "
                f"{ec_level} capacity of {byte_mode_capacity(10, ec_level)} bytes"
            )
    elif len(payload) > byte_mode_capacity(version, ec_level):
        raise PayloadTooLong(
            f"payload of {len(payload)} bytes exceeds the version-{version} "
            f"{ec_level} capacity of {byte_mode_capacity(version, ec_level)} bytes"
        )

    codewords = build_data_codewords(payload, version, ec_level)
    final = interleave(codewords, version, ec_level)

    mask_ids = list(range(8)) if mask_id is None else [mask_id]
    stack = mask_candidates(version, ec_level, final, mask_ids)
    best = int(np.argmin(penalty_scores(stack)))  # the lowest id on ties
    return QrMatrix(version, ec_level, mask_ids[best], stack[best].copy())
