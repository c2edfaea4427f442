import zlib

import pytest

from trap4phish.analyzers import analyze_pdf
from trap4phish.analyzers.pdf import PDF_COLUMNS, SCHEMA, SELECTED

from conftest import MINIMAL_PDF_OBJECTS, make_pdf


def test_schema_shape():
    assert len(SCHEMA.columns) == 40
    assert len(PDF_COLUMNS) == 40


def test_minimal_fixture_counts(minimal_pdf):
    d = analyze_pdf(minimal_pdf).features.as_dict()
    assert d["valid_pdf_header"] == 1
    assert d["object_count"] == 4
    assert d["stream_count"] == 1
    assert d["endstream_count"] == 1
    assert d["text_length"] == 2  # "Hi"
    assert d["page_count"] == 1
    assert d["trailer_present"] == 1
    assert d["startxref_present"] == 1


def test_non_pdf_input(minimal_pdf):
    report = analyze_pdf(b"hello world")
    assert report.parse_failed
    d = report.features.as_dict()
    assert d["valid_pdf_header"] == 0
    assert d["object_count"] == 0
    assert report.warnings


def test_openaction_javascript_cooccurrence():
    objects = list(MINIMAL_PDF_OBJECTS)
    objects[0] = b"<< /Type /Catalog /Pages 2 0 R /OpenAction << /S /JavaScript /JS (app.alert(1)) >> >>"
    d = analyze_pdf(make_pdf(objects)).features.as_dict()
    assert d["openaction_count"] == 1
    assert d["javascript_count"] == 1
    assert d["js_count"] == 1
    assert d["risky_cooccurrence_count"] == 1


def test_uri_nonstandard_port():
    objects = list(MINIMAL_PDF_OBJECTS)
    objects.append(b"<< /Type /Action /URI (http://evil.test:8080/) >>")
    d = analyze_pdf(make_pdf(objects)).features.as_dict()
    assert d["uri_count"] == 1
    assert d["nonstandard_port_flag"] == 1


def test_standard_ports_not_flagged():
    objects = list(MINIMAL_PDF_OBJECTS)
    objects.append(b"<< /Type /Action /URI (https://ok.test:443/page) >>")
    objects.append(b"<< /Type /Action /URI (http://ok2.test/page) >>")
    d = analyze_pdf(make_pdf(objects)).features.as_dict()
    assert d["uri_count"] == 2
    assert d["nonstandard_port_flag"] == 0


def test_metadata_absent_is_zero(minimal_pdf):
    assert analyze_pdf(minimal_pdf).features["metadata_size"] == 0


def test_metadata_stream_size():
    xmp = b"<x:xmpmeta>test metadata body</x:xmpmeta>"
    objects = list(MINIMAL_PDF_OBJECTS)
    objects.append(
        b"<< /Type /Metadata /Subtype /XML /Length " + str(len(xmp)).encode()
        + b" >>\nstream\n" + xmp + b"\nendstream"
    )
    d = analyze_pdf(make_pdf(objects)).features.as_dict()
    assert d["metadata_size"] == len(xmp)


def test_flate_text_extraction():
    content = b"BT (Hello) Tj (World) Tj ET"
    compressed = zlib.compress(content)
    objects = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>",
        b"<< /Length " + str(len(compressed)).encode() + b" /Filter /FlateDecode >>\nstream\n"
        + compressed + b"\nendstream",
    ]
    d = analyze_pdf(make_pdf(objects)).features.as_dict()
    assert d["text_length"] == 10
    assert d["total_filters"] == 1


def test_tj_array_operator():
    content = b"BT [(ab) -120 (cd)] TJ ET"
    objects = list(MINIMAL_PDF_OBJECTS)
    objects[3] = b"<< /Length " + str(len(content)).encode() + b" >>\nstream\n" + content + b"\nendstream"
    assert analyze_pdf(make_pdf(objects)).features["text_length"] == 4


def test_other_filters_contribute_zero_text():
    content = b"BT (Hi) Tj ET"
    objects = list(MINIMAL_PDF_OBJECTS)
    objects[3] = (b"<< /Length 13 /Filter [/ASCIIHexDecode /FlateDecode] >>\nstream\n"
                  + content + b"\nendstream")
    d = analyze_pdf(make_pdf(objects)).features.as_dict()
    assert d["text_length"] == 0
    assert d["total_filters"] == 2
    assert d["nested_filter_count"] == 1


def test_title_chars():
    objects = list(MINIMAL_PDF_OBJECTS)
    objects.append(b"<< /Title (My Document) /Author (x) >>")
    assert analyze_pdf(make_pdf(objects)).features["title_chars"] == 11


def test_name_obfuscation():
    objects = list(MINIMAL_PDF_OBJECTS)
    objects.append(b"<< /J#61vaScript (x) /Normal (y) >>")
    assert analyze_pdf(make_pdf(objects)).features["name_obfuscation_count"] == 1


def test_entropy_of_streams_range(minimal_pdf):
    d = analyze_pdf(minimal_pdf).features.as_dict()
    assert 0.0 <= d["entropy_of_streams"] <= 8.0
    # no streams -> defined zero
    no_stream = make_pdf([b"<< /Type /Catalog >>"])
    assert analyze_pdf(no_stream).features["entropy_of_streams"] == 0.0


def test_stream_endstream_match_on_wellformed():
    for n_streams in (1, 2, 3):
        objects = [b"<< /Type /Catalog /Pages 2 0 R >>", b"<< /Type /Pages /Count 0 >>"]
        for k in range(n_streams):
            body = f"BT (s{k}) Tj ET".encode()
            objects.append(b"<< /Length " + str(len(body)).encode() + b" >>\nstream\n" + body + b"\nendstream")
        d = analyze_pdf(make_pdf(objects)).features.as_dict()
        assert d["stream_count"] == d["endstream_count"] == n_streams


def test_xref_counters(minimal_pdf):
    d = analyze_pdf(minimal_pdf).features.as_dict()
    assert d["xref_table_count"] == 1
    assert d["xref_entry_count"] == 5  # 4 objects + free entry


def test_projection_order(minimal_pdf):
    report = analyze_pdf(minimal_pdf)
    projected = report.features.project(SELECTED)
    assert projected.schema.columns == SELECTED.columns
    # positions 5, 6, 7 are object_count, stream_count, endstream_count
    assert projected.values[4] == 4
    assert projected.values[5] == 1
    assert projected.values[6] == 1


def test_determinism(minimal_pdf):
    assert analyze_pdf(minimal_pdf).features.values == analyze_pdf(minimal_pdf).features.values
