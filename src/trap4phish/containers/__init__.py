"""Hostile-input-hardened readers for the containers OOXML documents live in:
ZIP archives, OLE Compound File Binary (CFB) storage, and MS-OVBA-compressed
VBA source."""

from .errors import (
    CfbBadSignature,
    CfbCycleError,
    CfbError,
    CfbFormatError,
    CfbRangeError,
    ContainerError,
    CrcMismatch,
    EntryNotFound,
    MissingEocd,
    OvbaError,
    TruncatedEntry,
    UnsupportedMethod,
    Zip64Unsupported,
    ZipError,
    ZipFormatError,
)
from .ziparc import ZipArchive, ZipEntry, zip_open
from .cfb import CfbDirEntry, CfbFile, cfb_open
from .vba import VbaModule, ovba_decompress, vba_extract

__all__ = [
    "ContainerError",
    "ZipError",
    "MissingEocd",
    "TruncatedEntry",
    "CrcMismatch",
    "UnsupportedMethod",
    "Zip64Unsupported",
    "ZipFormatError",
    "EntryNotFound",
    "CfbError",
    "CfbBadSignature",
    "CfbCycleError",
    "CfbRangeError",
    "CfbFormatError",
    "OvbaError",
    "ZipArchive",
    "ZipEntry",
    "zip_open",
    "CfbFile",
    "CfbDirEntry",
    "cfb_open",
    "VbaModule",
    "vba_extract",
    "ovba_decompress",
]
