"""QR encoding: byte-mode segment, Reed-Solomon parity per block, codeword
interleaving, and penalty-based mask selection.
"""

from __future__ import annotations

import numpy as np

from .errors import PayloadTooLong
from .gf256 import rs_encode
from .matrix import (
    QrMatrix,
    function_layout,
    penalty_score,
    place_data,
    place_format_info,
    place_version_info,
)
from .tables import (
    BLOCK_STRUCTURE,
    EC_LEVELS,
    REMAINDER_BITS,
    blocks_of,
    byte_mode_capacity,
    count_indicator_bits,
    matrix_size,
    smallest_version,
)

PAD_BYTES = (0xEC, 0x11)


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
    # terminator: up to four zero bits, truncated at capacity
    push(0, min(4, capacity_bits - len(bits)))
    while len(bits) % 8:
        bits.append(0)
    codewords = [
        int("".join(map(str, bits[i:i + 8])), 2) for i in range(0, len(bits), 8)
    ]
    pad_idx = 0
    while len(codewords) < capacity_bits // 8:
        codewords.append(PAD_BYTES[pad_idx % 2])
        pad_idx += 1
    return codewords


def interleave(codewords: list[int], version: int, level: str) -> list[int]:
    """Split into RS blocks, append parity, and interleave both sections."""
    ec_per_block, _groups = BLOCK_STRUCTURE[(version, level)]
    data_blocks: list[list[int]] = []
    pos = 0
    for dlen in blocks_of(version, level):
        data_blocks.append(codewords[pos:pos + dlen])
        pos += dlen
    ec_blocks = [rs_encode(block, ec_per_block) for block in data_blocks]

    out: list[int] = []
    for i in range(max(len(b) for b in data_blocks)):
        for block in data_blocks:
            if i < len(block):
                out.append(block[i])
    for i in range(ec_per_block):
        for block in ec_blocks:
            out.append(block[i])
    return out


def assemble(version: int, level: str, final_codewords: list[int], mask_id: int) -> np.ndarray:
    _reserved, base = function_layout(version)
    modules = base.copy()
    bits = np.unpackbits(np.array(final_codewords, dtype=np.uint8))
    bits = np.concatenate([bits, np.zeros(REMAINDER_BITS[version], dtype=np.uint8)])
    place_data(modules, bits, mask_id, version)
    place_format_info(modules, level, mask_id)
    place_version_info(modules, version)
    return modules


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

    if mask_id is not None:
        modules = assemble(version, ec_level, final, mask_id)
        chosen = mask_id
    else:
        best = None
        chosen = 0
        for candidate in range(8):
            modules = assemble(version, ec_level, final, candidate)
            score = penalty_score(modules)
            if best is None or score < best[0]:
                best = (score, candidate, modules)
        _score, chosen, modules = best
    return QrMatrix(version, matrix_size(version), ec_level, chosen, modules)
