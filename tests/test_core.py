import io
import math
import random

import pytest

from trap4phish.core import (
    DatasetError,
    FeatureSchema,
    FeatureVector,
    FileKind,
    LabeledDataset,
    SchemaError,
    read_dataset_csv,
    shannon_entropy,
    sniff_file_kind,
    write_dataset_csv,
)

from conftest import make_zip


class TestShannonEntropy:
    def test_single_symbol(self):
        assert shannon_entropy(b"\x41" * 1024) == 0.0

    def test_uniform_all_bytes(self):
        assert shannon_entropy(bytes(range(256))) == 8.0

    def test_two_equiprobable(self):
        assert shannon_entropy(b"aabb") == 1.0

    def test_aab(self):
        expected = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
        assert abs(shannon_entropy(b"aab") - 0.9183) < 1e-4
        assert abs(shannon_entropy(b"aab") - expected) < 1e-12

    def test_empty(self):
        assert shannon_entropy(b"") == 0.0

    def test_range_and_permutation_invariance(self):
        rng = random.Random(42)
        for _ in range(100):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 300)))
            h = shannon_entropy(data)
            assert 0.0 <= h <= 8.0
            shuffled = bytearray(data)
            rng.shuffle(shuffled)
            assert shannon_entropy(bytes(shuffled)) == pytest.approx(h, abs=1e-12)

    def test_doubling_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
            assert shannon_entropy(data + data) == pytest.approx(shannon_entropy(data), abs=1e-12)


class TestSniffFileKind:
    def test_pdf(self):
        assert sniff_file_kind(b"%PDF-1.7 stuff") is FileKind.PDF

    def test_docx(self):
        data = make_zip({"word/document.xml": "<w:document/>"})
        assert sniff_file_kind(data) is FileKind.DOCX

    def test_xlsx(self):
        data = make_zip({"xl/workbook.xml": "<workbook/>"})
        assert sniff_file_kind(data) is FileKind.XLSX

    def test_unknown(self):
        assert sniff_file_kind(b"hello") is FileKind.UNKNOWN

    def test_html_with_leading_whitespace(self):
        assert sniff_file_kind(b"   \n<!DOCTYPE html><html></html>") is FileKind.HTML
        assert sniff_file_kind(b"<HTML>") is FileKind.HTML

    def test_pgm_and_png(self):
        assert sniff_file_kind(b"P5\n2 2\n255\n0000") is FileKind.QR_IMAGE
        # nothing decodes PNG, so it is not a QR image kind
        assert sniff_file_kind(b"\x89PNG\r\n\x1a\nrest") is FileKind.UNKNOWN

    def test_never_raises(self):
        rng = random.Random(11)
        for _ in range(500):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
            sniff_file_kind(data)
        # truncated zip magic
        assert sniff_file_kind(b"PK\x03\x04") is FileKind.UNKNOWN


def _small_dataset() -> LabeledDataset:
    schema = FeatureSchema("pdf", ("a", "b", "c"))
    rows = [
        (FeatureVector(schema, [1.0, 2.5, 3.125]), 0),
        (FeatureVector(schema, [0.1234567891, 7.0, 0.0]), 1),
        (FeatureVector(schema, [9999999.0, -1.5, 1e-9]), 0),
    ]
    return LabeledDataset(schema, rows)


class TestDatasetCsv:
    def test_roundtrip(self):
        ds = _small_dataset()
        buf = io.BytesIO()
        n = write_dataset_csv(ds, buf)
        assert n == len(buf.getvalue())
        back = read_dataset_csv(buf.getvalue(), ds.schema)
        assert back.labels == ds.labels
        for (v1, _), (v2, _) in zip(ds.rows, back.rows):
            for a, b in zip(v1.values, v2.values):
                assert b == pytest.approx(a, rel=1e-9)

    def test_header_must_include_label(self):
        csv_text = b"a,b,c\n1,2,3\n"
        with pytest.raises(SchemaError):
            read_dataset_csv(csv_text, _small_dataset().schema)

    def test_non_numeric_cell_names_row_and_column(self):
        csv_text = b"a,b,c,label\n1,abc,3,0\n"
        with pytest.raises(DatasetError) as err:
            read_dataset_csv(csv_text, _small_dataset().schema)
        assert "row 2" in str(err.value)
        assert "'b'" in str(err.value)

    def test_label_outside_01(self):
        csv_text = b"a,b,c,label\n1,2,3,5\n"
        with pytest.raises(DatasetError):
            read_dataset_csv(csv_text, _small_dataset().schema)


class TestFeatureVector:
    def test_rejects_nan(self):
        schema = FeatureSchema("html", ("x",))
        with pytest.raises(ValueError):
            FeatureVector(schema, [float("nan")])

    def test_rejects_length_mismatch(self):
        schema = FeatureSchema("html", ("x", "y"))
        with pytest.raises(SchemaError):
            FeatureVector(schema, [1.0])

    def test_projection(self):
        schema = FeatureSchema("html", ("x", "y", "z"))
        vec = FeatureVector(schema, [1.0, 2.0, 3.0])
        projected = vec.project(schema.project(["z", "x"]))
        assert projected.values == [3.0, 1.0]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema("html", ("x", "x"))
