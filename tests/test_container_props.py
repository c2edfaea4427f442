"""Property tests of the container readers against independent writers: the
ZIP reader against archives built by the standard-library `zipfile`, and the
MS-OVBA decompressor against the copy-token compressor in `ovba_ref.py`."""

import io
import zipfile

from hypothesis import given, settings, strategies as st

import ovba_ref
from trap4phish.containers import ovba_decompress, zip_open

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
        assert archive.names() == [info.filename for info in infos]
        for entry, info in zip(archive.entries, infos):
            assert (entry.compressed_size, entry.uncompressed_size, entry.crc32) == (
                info.compress_size, info.file_size, info.CRC)
            assert entry.method == {zipfile.ZIP_STORED: "stored", zipfile.ZIP_DEFLATED: "deflate"}[
                info.compress_type]
            assert archive.read_entry(entry) == zf.read(info)
            assert archive.read(entry.name) == zf.read(info.filename)
    assert archive.inflated == 2 * sum(info.file_size for info in infos)


@settings(deadline=None, max_examples=200)
@given(contents(max_size=10000))
def test_ovba_decompress_inverts_reference_compressor(source):
    assert ovba_decompress(ovba_ref.compress(source)) == source
