import io
import random
import struct
import zipfile

import pytest

from trap4phish.analyzers import FORMATS
from trap4phish.containers import (
    CfbBadSignature,
    CfbCycleError,
    CfbFormatError,
    CfbRangeError,
    CrcMismatch,
    MissingEocd,
    OvbaError,
    TruncatedEntry,
    UnsupportedMethod,
    cfb_open,
    ovba_decompress,
    vba_extract,
    zip_open,
)
from trap4phish.synth import CfbWriter, SynthConfig, build_vba_project, ovba_compress, synthesize

import ovba_ref
from conftest import make_zip


class TestZip:
    def test_stored_entry(self):
        data = make_zip({"a.txt": "hi"}, method=zipfile.ZIP_STORED)
        archive = zip_open(data)
        [entry] = archive.entries
        assert (entry.name, entry.method) == ("a.txt", "stored")
        assert archive.read_entry(entry) == b"hi"

    def test_deflate_roundtrip_random(self):
        rng = random.Random(5)
        payload = bytes(rng.randrange(256) for _ in range(10 * 1024))
        data = make_zip({"blob.bin": payload})
        archive = zip_open(data)
        [entry] = archive.entries
        assert (entry.name, entry.method) == ("blob.bin", "deflate")
        assert archive.read_entry(entry) == payload

    def test_crc_mismatch(self):
        data = bytearray(make_zip({"a.txt": "hello world"}, method=zipfile.ZIP_STORED))
        # flip a byte of the stored payload (after the 30-byte local header + name)
        payload_at = data.index(b"hello world")
        data[payload_at] ^= 0xFF
        archive = zip_open(bytes(data))
        with pytest.raises(CrcMismatch):
            archive.read_entry(archive.entries[0])

    def test_missing_eocd(self):
        with pytest.raises(MissingEocd):
            zip_open(b"PK\x03\x04not really a zip")

    def test_unsupported_method(self):
        data = bytearray(make_zip({"a.txt": "hi" * 50}))
        # rewrite central-directory method field (offset 10 in the record) to bzip2 (12)
        cd = data.index(b"PK\x01\x02")
        struct.pack_into("<H", data, cd + 10, 12)
        with pytest.raises(UnsupportedMethod):
            zip_open(bytes(data))

    def test_duplicate_names_are_listed_in_order(self):
        import io
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr(zipfile.ZipInfo("dup.txt", (1980, 1, 1, 0, 0, 0)), "first")
            zf.writestr(zipfile.ZipInfo("dup.txt", (1980, 1, 1, 0, 0, 0)), "second")
        archive = zip_open(buf.getvalue())
        assert [entry.name for entry in archive.entries] == ["dup.txt", "dup.txt"]
        assert [archive.read_entry(entry) for entry in archive.entries] == [b"first", b"second"]

    def test_truncated_entry(self):
        data = bytearray(make_zip({"a.txt": "payload data here"}, method=zipfile.ZIP_STORED))
        # declare a compressed size that runs past the end of the buffer
        cd = data.index(b"PK\x01\x02")
        struct.pack_into("<L", data, cd + 20, 1 << 20)
        archive = zip_open(bytes(data))
        with pytest.raises(TruncatedEntry):
            archive.read_entry(archive.entries[0])


_ENDOFCHAIN = 0xFFFFFFFE
_FREESECT = 0xFFFFFFFF


def _two_streams() -> bytearray:
    """A CFB file whose sectors 0-9 hold the 5000-byte stream "s", sector 10
    the mini stream (200-byte stream "m", mini sectors 0-3), sector 11 the
    mini-FAT, sector 12 the directory and sector 13 the FAT."""
    writer = CfbWriter()
    writer.add_stream("s", bytes(i % 251 for i in range(5000)))
    writer.add_stream("m", b"z" * 200)
    return bytearray(writer.tobytes())


def _set_next(data: bytearray, table_header_offset: int, sector: int, value: int) -> None:
    """Point `sector` at `value` in the FAT (header offset 76, the first
    DIFAT entry) or the mini-FAT (header offset 60)."""
    table_sector = struct.unpack_from("<L", data, table_header_offset)[0]
    struct.pack_into("<L", data, 512 + table_sector * 512 + 4 * sector, value)


def _dir_entry(data: bytes, name: str) -> int:
    """Offset of the directory entry of the stream `name`."""
    first_dir = struct.unpack_from("<L", data, 48)[0]
    key = name.encode("utf-16-le") + b"\x00\x00"
    for off in range(512 + first_dir * 512, len(data) - 127, 128):
        if data[off:off + len(key)] == key and data[off + 66] == 2:
            return off
    raise AssertionError(f"directory entry {name!r} not found")


def _read(data: bytes, path: str) -> bytes:
    cfb = cfb_open(bytes(data))
    return cfb.read_entry(cfb.find_stream(path))


class TestCfbChains:
    """Sector chains: sized stream reads stop only at ENDOFCHAIN, the
    directory and mini-FAT chains also at FREESECT, and every walk ends."""

    @pytest.mark.parametrize("next_sector", [500, _FREESECT])
    def test_sized_chain_to_a_sector_outside_the_fat(self, next_sector):
        data = _two_streams()
        _set_next(data, 76, 3, next_sector)
        with pytest.raises(CfbRangeError):
            _read(data, "s")

    def test_mini_fat_chain_to_a_sector_outside_the_mini_fat(self):
        data = _two_streams()
        _set_next(data, 60, 1, 500)
        with pytest.raises(CfbRangeError):
            _read(data, "m")

    def test_mini_fat_cycle_detected(self):
        data = _two_streams()
        # a mini cutoff above the declared size keeps the stream in the mini
        # stream, and a self-loop can never fill that size
        struct.pack_into("<L", data, 56, 0x7FFFFFFF)
        _set_next(data, 60, 0, 0)
        struct.pack_into("<Q", data, _dir_entry(data, "m") + 120, 0x7FFFFFF0)
        with pytest.raises(CfbCycleError):
            _read(data, "m")

    @pytest.mark.parametrize("name, declared", [("s", 6000), ("m", 300)])
    def test_chain_shorter_than_declared_size(self, name, declared):
        data = _two_streams()
        struct.pack_into("<Q", data, _dir_entry(data, name) + 120, declared)
        with pytest.raises(CfbFormatError):
            _read(data, name)

    @pytest.mark.parametrize("first_sector_at", [48, 60], ids=["directory", "mini-FAT"])
    def test_unsized_chain_ending_in_freesect_opens(self, first_sector_at):
        data = _two_streams()
        _set_next(data, 76, struct.unpack_from("<L", data, first_sector_at)[0], _FREESECT)
        assert _read(data, "s") == bytes(i % 251 for i in range(5000))
        assert _read(data, "m") == b"z" * 200

    def test_last_file_sector_cut_by_eof_reads_zero_padded(self):
        data = _two_streams()
        # move the stream's last sector (392 bytes of data) to a new sector
        # 14 at the end of the file, cut to 100 bytes
        data += data[512 + 9 * 512:512 + 9 * 512 + 100]
        _set_next(data, 76, 8, 14)
        _set_next(data, 76, 14, _ENDOFCHAIN)
        blob = bytes(i % 251 for i in range(5000))
        assert _read(data, "s") == blob[:4708] + b"\x00" * 292

    def test_mini_sector_cut_by_mini_stream_size_is_not_padded(self):
        data = _two_streams()
        # the root entry's size cuts the stream's last mini sector from 64
        # bytes to 10, so the four-sector chain holds 202 bytes, not 256
        struct.pack_into("<Q", data, _dir_entry(data, "m") + 120, 210)
        root = 512 + struct.unpack_from("<L", data, 48)[0] * 512
        struct.pack_into("<Q", data, root + 120, 3 * 64 + 10)
        with pytest.raises(CfbFormatError):
            _read(data, "m")

    def test_mini_sector_cut_by_mini_stream_size_ends_the_read(self):
        data = _two_streams()
        # as above, and the chain goes on from the cut mini sector 3 to
        # mini sector 0: the 10 bytes of sector 3 end the mini stream, so
        # no later sector may be joined to them
        struct.pack_into("<Q", data, _dir_entry(data, "m") + 120, 210)
        root = 512 + struct.unpack_from("<L", data, 48)[0] * 512
        struct.pack_into("<Q", data, root + 120, 3 * 64 + 10)
        _set_next(data, 60, 3, 0)
        with pytest.raises(CfbFormatError):
            _read(data, "m")


class TestCfb:
    def test_small_stream_roundtrip(self):
        writer = CfbWriter()
        writer.add_stream("s", bytes(range(16)))
        assert _read(writer.tobytes(), "s") == bytes(range(16))

    def test_large_stream_and_nested_storage(self):
        writer = CfbWriter()
        blob = b"\xAB" * 5000
        writer.add_stream("Macros/VBA/dir", b"x" * 100)
        writer.add_stream("big", blob)
        data = writer.tobytes()
        assert _read(data, "big") == blob
        assert _read(data, "macros/vba/DIR") == b"x" * 100  # case-insensitive

    def test_bad_signature(self):
        with pytest.raises(CfbBadSignature):
            cfb_open(b"hello")

    def test_fat_cycle_detected(self):
        writer = CfbWriter()
        writer.add_stream("s", b"y" * 5000)
        data = bytearray(writer.tobytes())
        # point the stream's FAT chain at itself AND declare a size the looped
        # chain can never satisfy: the visit counter must fire, not hang
        fat_sector = struct.unpack_from("<L", data, 76)[0]
        struct.pack_into("<L", data, 512 + fat_sector * 512, 0)  # sector 0 -> itself
        for off in range(512, len(data) - 128, 128):
            if data[off:off + 2] == b"s\x00" and data[off + 64] == 4:
                struct.pack_into("<L", data, off + 120, 0x7FFFFFF0)
                break
        else:
            raise AssertionError("directory entry not found")
        with pytest.raises(CfbCycleError):
            _read(data, "s")

    def test_declared_size_bounds_read(self):
        writer = CfbWriter()
        writer.add_stream("s", b"q" * 4100)
        assert len(_read(writer.tobytes(), "s")) == 4100


class TestOvba:
    def test_literal_chunk_by_hand(self):
        # all-literal token sequences per the container layout: flag byte 0x00
        # then eight literal bytes
        source = b"Sub A()\nEnd Sub"
        body = bytearray()
        for i in range(0, len(source), 8):
            body.append(0x00)
            body += source[i:i + 8]
        header = (len(body) + 2 - 3) | (0b011 << 12) | (1 << 15)
        chunk = b"\x01" + struct.pack("<H", header) + bytes(body)
        assert ovba_decompress(chunk) == source

    def test_bad_signature(self):
        with pytest.raises(OvbaError):
            ovba_decompress(b"\x02\x00\x00")

    def test_copy_before_window_rejected(self):
        # one literal 'A', then a copy token with offset 2 (before chunk start)
        body = bytearray([0b00000010, ord("A")])
        lbits = 12  # one byte decompressed -> 12 length bits
        token = ((2 - 1) << lbits) | 0  # offset 2, length 3
        body += struct.pack("<H", token)
        header = (len(body) + 2 - 3) | (0b011 << 12) | (1 << 15)
        with pytest.raises(OvbaError):
            ovba_decompress(b"\x01" + struct.pack("<H", header) + bytes(body))

    @pytest.mark.parametrize("size", [0, 1, 15, 4095, 4096, 4097, 40000])
    def test_reference_compressor_roundtrip(self, size):
        rng = random.Random(size)
        source = bytes(rng.randrange(32, 127) for _ in range(size))
        assert ovba_decompress(ovba_ref.compress(source)) == source

    def test_reference_compressor_roundtrip_repetitive(self):
        source = (b"Dim x As String\nx = x & Chr(65)\n" * 3000)[:65536]
        compressed = ovba_ref.compress(source)
        assert len(compressed) < len(source) / 2  # copy tokens actually used
        assert ovba_decompress(compressed) == source

    def test_synth_literal_compressor_roundtrip(self):
        rng = random.Random(1)
        for size in (0, 1, 3639, 3640, 3641, 10000):
            source = bytes(rng.randrange(256) for _ in range(size))
            assert ovba_decompress(ovba_compress(source)) == source


class TestVbaExtract:
    def test_basic_modules(self):
        source = 'Sub AutoOpen()\n  Shell "x"\nEnd Sub\n'
        proj = build_vba_project([("Module1", source), ("Helper", "' nothing\n")])
        modules = vba_extract(cfb_open(proj))
        assert [m.name for m in modules] == ["Module1", "Helper"]
        assert modules[0].source == source  # CRLF normalized back to LF

    def test_missing_vba_storage_is_empty(self):
        writer = CfbWriter()
        writer.add_stream("something", b"data")
        assert vba_extract(cfb_open(writer.tobytes())) == []

    def test_malformed_module_skipped_with_warning(self):
        source = "Sub Ok()\nEnd Sub\n"
        proj = bytearray(build_vba_project([("Bad", "x" * 50), ("Good", source)]))
        # corrupt the compressed container of module "Bad": find its stream
        bad_stream = _read(proj, "VBA/Bad")
        at = bytes(proj).index(bad_stream)
        proj[at] = 0x42  # break the 0x01 signature byte
        warnings: list[str] = []
        modules = vba_extract(cfb_open(bytes(proj)), warnings)
        assert [m.name for m in modules] == ["Good"]
        assert any("Bad" in w for w in warnings)

    def test_roundtrip_with_reference_compressor(self):
        # build a vbaProject whose module stream uses the copy-token compressor
        source_text = "Sub Loop1()\n" + "    y = y + 1\n" * 500 + "End Sub\n"
        raw = source_text.replace("\n", "\r\n").encode()
        compressed = ovba_ref.compress(raw)
        writer = CfbWriter()
        dir_stream = bytearray()
        for rec_id, payload in [
            (0x0003, struct.pack("<H", 1252)),
            (0x0019, b"M1"),
            (0x001A, b"M1"),
            (0x0031, struct.pack("<L", 0)),
        ]:
            dir_stream += struct.pack("<HL", rec_id, len(payload)) + payload
        writer.add_stream("VBA/dir", ovba_compress(bytes(dir_stream)))
        writer.add_stream("VBA/M1", compressed)
        modules = vba_extract(cfb_open(writer.tobytes()))
        assert len(modules) == 1
        assert modules[0].source == source_text

    @pytest.mark.parametrize("cut_record, module_name", [
        ((0x0003, struct.pack("<H", 1252)), None),  # PROJECTCODEPAGE keeps 1 of 2 bytes
        ((0x0031, struct.pack("<L", 0)), "M1"),  # MODULEOFFSET keeps 3 of 4 bytes
    ])
    @pytest.mark.parametrize("fmt", ["docx", "xlsx"])
    def test_record_cut_by_end_of_dir_stream(self, fmt, cut_record, module_name):
        records = [(0x0001, struct.pack("<L", 1))]
        if module_name:
            records += [(0x0019, b"M1"), (0x001A, b"M1")]
        records.append(cut_record)
        dir_stream = b"".join(struct.pack("<HL", rec_id, len(payload)) + payload
                              for rec_id, payload in records)[:-1]
        writer = CfbWriter()
        writer.add_stream("VBA/dir", ovba_compress(dir_stream))
        writer.add_stream("VBA/M1", ovba_compress(b"Sub AutoOpen()\r\nEnd Sub\r\n"))
        project = writer.tobytes()
        warnings: list[str] = []
        modules = vba_extract(cfb_open(project), warnings)
        assert [m.name for m in modules] == ([module_name] if module_name else [])
        assert f"vba: dir record 0x{cut_record[0]:04x} cut short" in " ".join(warnings)
        report = FORMATS[fmt].analyze(_with_vba_project(_corpus_file(fmt), project))
        assert any(w.startswith("vba: dir record") for w in report.warnings), report.warnings

    @pytest.mark.parametrize("fmt", ["docx", "xlsx"])
    def test_every_truncation_of_a_corpus_dir_stream_gives_a_report(self, fmt):
        document = _corpus_file(fmt)
        cfb = cfb_open(_vba_project(document))
        streams = {e.path: cfb.read_entry(e) for e in cfb.directory if e.entry_type == "stream"}
        dir_stream = ovba_decompress(streams["VBA/dir"])
        cuts = set()  # lengths that end inside a record's payload
        pos = 0
        while pos + 6 <= len(dir_stream):
            size = struct.unpack_from("<L", dir_stream, pos + 2)[0]
            cuts.update(range(pos + 6, pos + 6 + size))
            pos += 6 + size
        assert pos == len(dir_stream) and cuts
        width = len(FORMATS[fmt].schema)
        for n in range(len(dir_stream)):
            writer = CfbWriter()
            for path, data in streams.items():
                writer.add_stream(path, ovba_compress(dir_stream[:n]) if path == "VBA/dir" else data)
            report = FORMATS[fmt].analyze(_with_vba_project(document, writer.tobytes()))
            assert len(report.features.values) == width
            cut = any(w.startswith("vba: dir record") for w in report.warnings)
            assert cut == (n in cuts), (n, report.warnings)
            # a cut between records, or inside a record's header, warns too
            assert sum(w.startswith("vba: dir") for w in report.warnings) == 1, (n, report.warnings)


def _corpus_file(fmt: str) -> bytes:
    """A malicious corpus file of `fmt`, one with a VBA project."""
    return synthesize(SynthConfig(fmt, count=1, seed=3))[1][1]


def _vba_project(document: bytes) -> bytes:
    with zipfile.ZipFile(io.BytesIO(document)) as zf:
        [name] = [n for n in zf.namelist() if n.endswith("vbaProject.bin")]
        return zf.read(name)


def _with_vba_project(document: bytes, project: bytes) -> bytes:
    """`document` with its vbaProject.bin replaced by `project`."""
    with zipfile.ZipFile(io.BytesIO(document)) as zf:
        entries = {n: project if n.endswith("vbaProject.bin") else zf.read(n) for n in zf.namelist()}
    return make_zip(entries)
