"""QR symbol generation and decoding (versions 1-10, byte mode) with
Reed-Solomon error correction over GF(256)."""

from .errors import (
    BadBitmap,
    FormatUnrecoverable,
    NoFinderPatterns,
    PayloadTooLong,
    QrError,
    RsFailure,
    UnsupportedMode,
)
from .matrix import QrMatrix
from .encode import qr_encode
from .decode import qr_decode
from .render import DEFAULT_MODULE_PX, DEFAULT_QUIET_ZONE, from_pgm, qr_render, to_pgm
from .tables import byte_mode_capacity, smallest_version

__all__ = [
    "QrError",
    "PayloadTooLong",
    "NoFinderPatterns",
    "FormatUnrecoverable",
    "RsFailure",
    "UnsupportedMode",
    "BadBitmap",
    "QrMatrix",
    "qr_encode",
    "qr_decode",
    "qr_render",
    "to_pgm",
    "from_pgm",
    "byte_mode_capacity",
    "smallest_version",
    "DEFAULT_MODULE_PX",
    "DEFAULT_QUIET_ZONE",
]
