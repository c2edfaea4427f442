"""Property tests of the container readers against independent writers: the
ZIP reader against archives built by the standard-library `zipfile`, the
MS-OVBA decompressor against the copy-token compressor in `ovba_ref.py` and,
on malformed containers, against the per-token decompressor kept there, and
the CFB reader, on damaged FAT chains, against a sector-by-sector walker."""

import io
import random
import struct
import zipfile

from hypothesis import example, given, settings, strategies as st

import ovba_ref
from trap4phish.containers import (
    CfbCycleError,
    CfbError,
    CfbFormatError,
    CfbRangeError,
    OvbaError,
    cfb_open,
    ovba_decompress,
    zip_open,
)
from trap4phish.synth import CfbWriter

NAME_CHARS = st.sampled_from("abcXYZ019._-/ éü")


@st.composite
def contents(draw, max_size=3000):
    """Random bytes, or a short random pattern repeated, so that deflate and
    the OVBA compressor both emit back-references."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=max_size))
    pattern = draw(st.binary(min_size=1, max_size=40))
    return (pattern * (draw(st.integers(0, max_size)) // len(pattern) + 1))[:max_size]


@st.composite
def archives(draw):
    """(zip bytes, entries) written by `zipfile`, entries in archive order."""
    entries = draw(st.lists(st.tuples(
        st.text(NAME_CHARS, min_size=1, max_size=12).filter(lambda n: not n.startswith("/")),
        contents(),
        st.sampled_from([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED]),
        st.integers(0, 9),
    ), max_size=6, unique_by=lambda entry: entry[0]))
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data, method, level in entries:
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = method
            zf.writestr(info, data, compresslevel=level)
        zf.comment = draw(st.text("abc xyz", max_size=30)).encode()
    return buf.getvalue()


@settings(deadline=None, max_examples=200)
@given(archives())
def test_zip_reader_matches_zipfile(data):
    archive = zip_open(data)
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        infos = zf.infolist()
        assert [entry.name for entry in archive.entries] == [info.filename for info in infos]
        for entry, info in zip(archive.entries, infos):
            assert (entry.compressed_size, entry.uncompressed_size, entry.crc32) == (
                info.compress_size, info.file_size, info.CRC)
            assert entry.method == {zipfile.ZIP_STORED: "stored", zipfile.ZIP_DEFLATED: "deflate"}[
                info.compress_type]
            assert archive.read_entry(entry) == zf.read(info)
    assert archive.inflated == sum(info.file_size for info in infos)


# after one literal a copy at offset 1, after two a copy at offset 2, each
# reading its own output for as long as a chunk's 4,096 bytes allow
_OVERLAPPING_COPIES = b"a" * 4096 + b"ab" * 2048


@settings(deadline=None, max_examples=200)
@given(contents(max_size=10000))
@example(_OVERLAPPING_COPIES)
def test_ovba_decompress_inverts_reference_compressor(source):
    assert ovba_decompress(ovba_ref.compress(source)) == source


@st.composite
def damaged_containers(draw):
    """Compressed chunks of random literals and copy tokens: literal runs cut
    short by the chunk's end, copy tokens reaching one byte before the chunk
    or past 4096 bytes, truncated tokens and headers."""
    rnd = random.Random(draw(st.integers(0, 2**32)))  # drawing each byte would be slow
    out = bytearray([0x01])
    for _ in range(rnd.randint(1, 3)):
        body = bytearray()
        produced = 0
        for _ in range(rnd.randint(0, 500)):
            flags = rnd.choice([0x00, 0x00, 0x00, 0xFF, 0x01, 0x80, 0x55])
            if not produced:
                flags &= 0xFE  # nothing to copy yet
            body.append(flags)
            for bit in range(8):
                if not (flags >> bit) & 1:
                    body.append(rnd.randrange(256))
                    produced += 1
                    continue
                length_bits = ovba_ref._length_bits(produced)
                offset = rnd.randint(1, produced) if produced and rnd.random() < 0.999 else produced + 1
                offset = min(offset, 1 << (16 - length_bits))
                length = rnd.randint(3, rnd.choice([10, (1 << length_bits) + 2]))
                body += struct.pack("<H", ((offset - 1) << length_bits) | (length - 3))
                produced += length
        body = body[:rnd.randint(0, len(body))]
        size = rnd.randint(max(len(body) - 40, 0), len(body) + 40)
        out += struct.pack("<H", (max(min(size, 4098), 3) - 3) | (0b011 << 12) | (1 << 15)) + body
    return bytes(out[:rnd.randint(1, len(out))])


def _outcome(decompress, data):
    try:
        return decompress(data)
    except OvbaError as exc:
        return str(exc)


def _chunk(body: bytes) -> bytes:
    return struct.pack("<H", (len(body) + 2 - 3) | (0b011 << 12) | (1 << 15)) + body


# a copy token fills the chunk to 4096 bytes, then eight literals overflow it
_LITERALS_PAST_4096 = b"\x01" + _chunk(
    b"\x00" + b"a" * 8 + b"\x01" + struct.pack("<H", 4081 - 3) + b"b" * 7 + b"\x00" + b"c" * 8)


@settings(deadline=None, max_examples=200)
@given(damaged_containers())
@example(_LITERALS_PAST_4096)
def test_ovba_decompress_matches_per_token_loop_on_damaged_input(data):
    assert _outcome(ovba_decompress, data) == _outcome(ovba_ref.decompress_per_token, data)


_ENDOFCHAIN = 0xFFFFFFFE
_FREESECT = 0xFFFFFFFF


def _one_stream() -> bytes:
    """Sectors 0-9 hold the 5000-byte stream "s", sector 10 the directory,
    sector 11 the FAT."""
    writer = CfbWriter()
    writer.add_stream("s", bytes(i % 251 for i in range(5000)))
    return writer.tobytes()


_ONE_STREAM = _one_stream()
_FAT_AT = 512 + 11 * 512
_S_ENTRY = 512 + 10 * 512 + 128  # the root entry comes first
# a next-sector value: one of the stream's own sectors (listed three times,
# so that chains run long enough to loop), the directory or FAT sector, a
# chain end, a free sector or a sector past the FAT
_NEXT_SECTORS = st.sampled_from([*range(10)] * 3 + [10, 11, _ENDOFCHAIN, _FREESECT, 12, 500, 0xFFFFFFFD])


def _reference_read(data: bytes, start: int, size: int) -> bytes:
    fat = struct.unpack_from("<12L", data, _FAT_AT)
    out, sector = b"", start
    for _ in range(len(fat) + 1):  # a chain longer than the FAT loops
        if sector == _ENDOFCHAIN:
            raise CfbFormatError("chain ends before the declared size")
        if sector >= len(fat):
            raise CfbRangeError(f"sector {sector} outside the FAT")
        out += data[512 + 512 * sector:512 + 512 * (sector + 1)]
        if len(out) >= size:
            return out[:size]
        sector = fat[sector]
    raise CfbCycleError("chain loops")


def _result(read):
    try:
        return read()
    except CfbError as exc:
        return type(exc)


@settings(deadline=None, max_examples=150)
@given(_NEXT_SECTORS, st.lists(st.one_of(st.none(), _NEXT_SECTORS), min_size=10, max_size=10),
       st.sampled_from([4096, 5000, 5120, 6656, 0x7FFFFFF0, 0x7FFFFFF0]))
def test_cfb_fat_chains_match_reference_walker(start, next_sectors, size):
    data = bytearray(_ONE_STREAM)
    for sector, value in enumerate(next_sectors):
        if value is not None:
            struct.pack_into("<L", data, _FAT_AT + 4 * sector, value)
    struct.pack_into("<LQ", data, _S_ENTRY + 116, start, size)
    cfb = cfb_open(bytes(data))
    entry = cfb.find_stream("s")
    assert _result(lambda: cfb.read_entry(entry)) == _result(lambda: _reference_read(data, start, size))
