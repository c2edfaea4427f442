"""Error taxonomy for the container readers.

Each distinct failure mode gets its own class so callers can downgrade
selectively (the analyzers turn most of these into report warnings).
"""


class ContainerError(Exception):
    """Base class for all container parsing failures."""


class ZipError(ContainerError):
    pass


class MissingEocd(ZipError):
    """No End-Of-Central-Directory record found."""


class ZipFormatError(ZipError):
    """Structurally malformed archive (bad signatures, bogus offsets)."""


class TruncatedEntry(ZipError):
    """Entry data extends past the end of the buffer."""


class CrcMismatch(ZipError):
    """Decompressed data does not match the recorded CRC32."""


class UnsupportedMethod(ZipError):
    """Compression method other than stored or deflate."""


class Zip64Unsupported(ZipError):
    """ZIP64 archives are outside desk scale."""


class CfbError(ContainerError):
    pass


class CfbBadSignature(CfbError):
    pass


class CfbFormatError(CfbError):
    pass


class CfbCycleError(CfbError):
    """A FAT / mini-FAT / directory chain loops."""


class CfbRangeError(CfbError):
    """Sector reference outside the file."""


class OvbaError(ContainerError):
    """Malformed MS-OVBA compressed container."""
