import csv
import io
import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trap4phish import core
from trap4phish.core import (
    CsvRowWriter,
    DatasetError,
    FeatureSchema,
    FileKind,
    LabeledDataset,
    SchemaError,
    analysis_report,
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


def _counter_entropy(data: bytes) -> float:
    """The entropy summed over `Counter`'s counts, as it was for every input."""
    entropy = 0.0
    for count in Counter(data).values():
        p = count / len(data)
        entropy -= p * math.log2(p)
    return entropy


class TestEntropyMatchesCounter:
    """Every length gives the `Counter` loop's float to the bit."""

    CHUNK = core._ENTROPY_CHUNK

    @pytest.mark.parametrize("n", [core._NUMPY_ENTROPY_MIN - 1, core._NUMPY_ENTROPY_MIN,
                                   core._NUMPY_ENTROPY_MIN + 1])
    def test_both_sides_of_the_threshold(self, n):
        rng = random.Random(n)
        for k in (1, 2, 7, 256):
            data = bytes(rng.randrange(k) for _ in range(n))
            assert shannon_entropy(data) == _counter_entropy(data)

    @pytest.mark.parametrize("data", [
        b"",
        b"\x41" * 5000,
        bytes(range(256)) * 8,
        bytes(range(255, -1, -1)) * 300,  # all 256 values, over more than one chunk
        bytes(CHUNK) + b"\x07" + bytes(9) + b"\x03",  # values first seen after the first chunk
        b"ab" * CHUNK + b"c" + b"a" * (CHUNK - 1) + b"d",  # ...the last one on a chunk's first byte
        bytes(range(200)) * (3 * CHUNK // 200) + bytes(range(199, 256)),
    ], ids=["empty", "one-value", "all-values", "all-values-chunks", "late-values",
            "late-on-boundary", "late-tail"])
    def test_edge_inputs(self, data):
        assert shannon_entropy(data) == _counter_entropy(data)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=1500), st.lists(st.integers(0, 5), max_size=1500).map(bytes)),
           st.integers(1, 300))
    def test_chunked_counts_keep_first_occurrence_order(self, data, chunk):
        # chunks this short put first occurrences in every chunk
        with mock.patch.object(core, "_ENTROPY_CHUNK", chunk):
            assert core._byte_counts(data) == list(Counter(data).values())
            assert shannon_entropy(data) == _counter_entropy(data)

    def test_memory_stays_bounded_on_large_input(self):
        data = random.Random(5).randbytes(8 << 20)
        tracemalloc.start()
        try:
            shannon_entropy(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


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

    @pytest.mark.parametrize("data", [
        b"\xef\xbb\xbf<!DOCTYPE html><html></html>",
        b"<!-- saved from url=(0014)about:internet -->\r\n<html><body></body></html>",
        b"\xef\xbb\xbf \n<!-- one -->\n<!--\ntwo <html> -->\t<HTML>",
    ], ids=["byte-order-mark", "saved-page-comment", "mark-and-comments"])
    def test_html_after_byte_order_mark_and_comments(self, data):
        assert sniff_file_kind(data) is FileKind.HTML

    @pytest.mark.parametrize("data", [
        b"<!-- never closed <html>",
        b"\xef\xbb\xbf\xef\xbb\xbf<html>",
        b"<!--" + b" " * 4096 + b"--><html>",
    ], ids=["unterminated-comment", "two-marks", "past-the-head"])
    def test_html_prelude_limits(self, data):
        assert sniff_file_kind(data) is FileKind.UNKNOWN

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
    rows = [[1.0, 2.5, 3.125], [0.1234567891, 7.0, 0.0], [9999999.0, -1.5, 1e-9]]
    return LabeledDataset(schema, rows, [0, 1, 0])


class TestLabeledDataset:
    def test_arrays(self):
        ds = _small_dataset()
        assert ds.x.dtype == np.float64 and ds.x.shape == (3, 3)
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [0, 1, 0]
        assert len(ds) == 3
        empty = LabeledDataset(ds.schema, [], [])
        assert empty.x.shape == (0, 3) and len(empty) == 0

    @pytest.mark.parametrize("x, y, error", [
        ([[1.0, math.nan, 0.0]], [0], DatasetError),
        ([[1.0, 2.0, math.inf]], [1], DatasetError),
        ([[1.0, 2.0]], [0], SchemaError),
        ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [0], DatasetError),
        ([[1.0, 2.0, 3.0]], [2], DatasetError),
    ], ids=["nan", "inf", "width", "label-count", "label-2"])
    def test_refuses(self, x, y, error):
        with pytest.raises(DatasetError) as err:
            LabeledDataset(_small_dataset().schema, x, y)
        assert type(err.value) is error


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path):
        ds = _small_dataset()
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path, ds.schema)
        assert back.y.tolist() == ds.y.tolist()
        for v1, v2 in zip(ds.x, back.x):
            for a, b in zip(v1, v2):
                assert b == pytest.approx(a, rel=1e-9)

    def test_leading_byte_order_mark_is_dropped(self):
        csv_text = b"a,b,c,label\n1,2.5,3,1\n"
        back = read_dataset_csv(b"\xef\xbb\xbf" + csv_text, _small_dataset().schema)
        assert back.x.tolist() == [[1.0, 2.5, 3.0]] and back.y.tolist() == [1]

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


def _csv_writer_rows(schema: FeatureSchema, rows: list[list[float]], labels: list[int] | None) -> bytes:
    """The bytes the CSV writers wrote before rows were joined: every cell
    through csv.writer, with format_value as it was then."""
    def format_value(v):
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.9g}"

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(schema.columns) + ["label"] * (labels is not None))
    for i, row in enumerate(rows):
        cells = [format_value(v) for v in row]
        writer.writerow(cells if labels is None else cells + [str(labels[i])])
    return out.getvalue().encode("utf-8")


_EDGE_VALUES = [0.0, -0.0, 1023.0, 1024.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15,
                2.0 ** 53, 0.1, 1 / 3, 5e-324, 1e300]


class TestCsvRowWriter:
    schema = FeatureSchema("pdf", ("a", "b", "c"))

    def _written(self, rows, labels):
        out = io.BytesIO()
        writer = CsvRowWriter(self.schema, out, labeled=labels is not None)
        for i, row in enumerate(rows):
            writer.add(row) if labels is None else writer.add(row, labels[i])
        return out.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
                    max_size=5),
           st.booleans())
    def test_rows_equal_csv_writer(self, rows, labeled):
        labels = [i % 2 for i in range(len(rows))] if labeled else None
        assert self._written(rows, labels) == _csv_writer_rows(self.schema, rows, labels)

    @pytest.mark.parametrize("labeled", [False, True])
    def test_edge_values_equal_csv_writer(self, labeled):
        rows = [_EDGE_VALUES[i:i + 3] for i in range(len(_EDGE_VALUES) - 2)]
        rows += [[-v for v in row] for row in rows]
        labels = [i % 2 for i in range(len(rows))] if labeled else None
        assert self._written(rows, labels) == _csv_writer_rows(self.schema, rows, labels)


def _stub_report(schema: FeatureSchema, values: dict, data: bytes = b"", parse_failed: bool = False):
    """`analysis_report` with an extractor that sets `values` and warns once."""
    def extract(data, into, warnings):
        into.update(values)
        warnings.append("stub")
        return parse_failed

    return analysis_report(schema, data, "<stub>", extract)


class TestFeatureVector:
    """The feature vector of one file: the features dict of its report, as
    `analysis_report` builds it, and its CSV row."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_value_names_its_column(self, bad, position):
        values = [1.0, math.nan, math.inf]
        values[position] = bad  # the first bad column is the one named
        values[:position] = [1.0] * position
        with pytest.raises(ValueError) as err:
            _stub_report(FeatureSchema("pdf", ("a", "b", "c")), dict(zip("abc", values)))
        assert str(err.value) == f"non-finite value for feature {'abc'[position]!r}: {bad}"

    def test_rejects_nan(self):
        schema = FeatureSchema("html", ("x",))
        with pytest.raises(ValueError):
            _stub_report(schema, {"x": float("nan")})

    def test_rejects_length_mismatch(self):
        schema = FeatureSchema("html", ("x", "y"))
        writer = CsvRowWriter(schema, io.BytesIO())
        with pytest.raises(SchemaError):
            writer.add([1.0])

    def test_projection(self):
        schema = FeatureSchema("html", ("x", "y", "z"))
        features = _stub_report(schema, {"x": 1.0, "y": 2.0, "z": 3.0}).features
        projected = schema.project(["z", "x"])
        assert [features[c] for c in projected.columns] == [3.0, 1.0]

    def test_frame_fills_every_column_in_order_as_float(self):
        schema = FeatureSchema("pdf", ("a", "file_size", "b"))
        report = _stub_report(schema, {"b": 2, "extra": 9.0}, data=b"abcd", parse_failed=True)
        assert list(report.features.items()) == [("a", 0.0), ("file_size", 4.0), ("b", 2.0)]
        assert type(report.features["b"]) is float
        assert (report.source_path, report.format_kind) == ("<stub>", "pdf")
        assert report.warnings == ["stub"] and report.parse_failed is True
        assert '"features": {"a": 0.0, "file_size": 4.0, "b": 2.0}' in report.to_json()

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema("html", ("x", "x"))
