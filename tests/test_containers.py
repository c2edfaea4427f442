import random
import struct
import zipfile

import pytest

from trap4phish.containers import (
    CfbBadSignature,
    CfbCycleError,
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
from trap4phish.synth import CfbWriter, build_vba_project, ovba_compress

import ovba_ref
from conftest import make_zip


class TestZip:
    def test_stored_entry(self):
        data = make_zip({"a.txt": "hi"}, method=zipfile.ZIP_STORED)
        archive = zip_open(data)
        assert archive.read("a.txt") == b"hi"
        entry = archive.find("a.txt")
        assert entry.method == "stored"

    def test_deflate_roundtrip_random(self):
        rng = random.Random(5)
        payload = bytes(rng.randrange(256) for _ in range(10 * 1024))
        data = make_zip({"blob.bin": payload})
        archive = zip_open(data)
        assert archive.find("blob.bin").method == "deflate"
        assert archive.read("blob.bin") == payload

    def test_crc_mismatch(self):
        data = bytearray(make_zip({"a.txt": "hello world"}, method=zipfile.ZIP_STORED))
        # flip a byte of the stored payload (after the 30-byte local header + name)
        payload_at = data.index(b"hello world")
        data[payload_at] ^= 0xFF
        archive = zip_open(bytes(data))
        with pytest.raises(CrcMismatch):
            archive.read("a.txt")

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

    def test_duplicate_names_last_wins(self):
        import io
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr(zipfile.ZipInfo("dup.txt", (1980, 1, 1, 0, 0, 0)), "first")
            zf.writestr(zipfile.ZipInfo("dup.txt", (1980, 1, 1, 0, 0, 0)), "second")
        archive = zip_open(buf.getvalue())
        assert len(archive.entries) == 2
        assert archive.read("dup.txt") == b"second"

    def test_truncated_entry(self):
        data = bytearray(make_zip({"a.txt": "payload data here"}, method=zipfile.ZIP_STORED))
        # declare a compressed size that runs past the end of the buffer
        cd = data.index(b"PK\x01\x02")
        struct.pack_into("<L", data, cd + 20, 1 << 20)
        archive = zip_open(bytes(data))
        with pytest.raises(TruncatedEntry):
            archive.read("a.txt")


class TestCfb:
    def test_small_stream_roundtrip(self):
        writer = CfbWriter()
        writer.add_stream("s", bytes(range(16)))
        cfb = cfb_open(writer.tobytes())
        assert cfb.read_stream("s") == bytes(range(16))

    def test_large_stream_and_nested_storage(self):
        writer = CfbWriter()
        blob = b"\xAB" * 5000
        writer.add_stream("Macros/VBA/dir", b"x" * 100)
        writer.add_stream("big", blob)
        cfb = cfb_open(writer.tobytes())
        assert cfb.read_stream("big") == blob
        assert cfb.read_stream("macros/vba/DIR") == b"x" * 100  # case-insensitive

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
        cfb = cfb_open(bytes(data))
        with pytest.raises(CfbCycleError):
            cfb.read_stream("s")

    def test_declared_size_bounds_read(self):
        writer = CfbWriter()
        writer.add_stream("s", b"q" * 4100)
        data = bytearray(writer.tobytes())
        cfb = cfb_open(bytes(data))
        assert len(cfb.read_stream("s")) == 4100


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
        cfb = cfb_open(bytes(proj))
        bad_stream = cfb.read_stream("VBA/Bad")
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
