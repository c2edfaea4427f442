import random
import tracemalloc

from trap4phish.analyzers import analyze_docx, docx
from trap4phish.analyzers.docx import DOCX_COLUMNS, SCHEMA, SELECTED
from trap4phish.config import VBA_SUSPICIOUS_KEYWORDS
from trap4phish.synth import build_vba_project

from conftest import make_docx, make_zip


def test_schema_shape():
    assert len(SCHEMA.columns) == 43
    for name in SELECTED.columns:
        assert name in SCHEMA.columns


def test_minimal_benign(minimal_docx):
    report = analyze_docx(minimal_docx)
    d = report.features
    assert not report.parse_failed
    assert d["macro_present"] == 0
    assert d["dde_present"] == 0
    assert d["ole_object_count"] == 0
    assert d["struct_ContentType"] >= 1
    assert d["file_size"] == len(minimal_docx)


def test_non_zip_input_still_reports():
    report = analyze_docx(b"definitely not a zip file")
    assert report.parse_failed
    d = report.features
    assert d["file_size"] == 25
    assert d["entropy"] > 0
    assert len(report.features) == 43
    assert report.warnings


def test_macro_keywords_counted():
    # AutoOpen once and Shell twice -> 3 keyword hits
    vba = build_vba_project([("Module1", 'Sub AutoOpen()\n  a = Shell("x")\n  b = Shell("y")\nEnd Sub\n')])
    data = make_docx({"word/vbaProject.bin": vba})
    d = analyze_docx(data).features
    assert d["macro_present"] == 1
    assert d["vba_keywords_count"] == 3


def test_keyword_count_matches_bruteforce_scan():
    source = (
        "Sub Document_Open()\n"
        '  Set w = CreateObject("WScript.Shell")\n'
        '  w.Run "powershell -nop"\n'
        "  Environ(\"TEMP\")\n"
        "End Sub\n"
    )
    vba = build_vba_project([("M", source)])
    data = make_docx({"word/vbaProject.bin": vba})
    got = analyze_docx(data).features["vba_keywords_count"]
    expected = sum(source.encode().lower().count(kw.encode()) for kw in VBA_SUSPICIOUS_KEYWORDS)
    assert got == expected == 7


def test_no_macro_means_no_keywords(minimal_docx):
    d = analyze_docx(minimal_docx).features
    assert d["macro_present"] == 0
    assert d["vba_keywords_count"] == 0


def test_dde_in_field_instruction():
    doc = (
        '<w:document xmlns:w="http://x/main"><w:body><w:p>'
        "<w:r><w:instrText>DDEAUTO c:\\\\windows\\\\system32\\\\cmd.exe \"/k calc\"</w:instrText></w:r>"
        "</w:p></w:body></w:document>"
    )
    assert analyze_docx(make_docx(document_xml=doc)).features["dde_present"] == 1


def test_dde_split_across_runs():
    doc = (
        '<w:document xmlns:w="http://x/main"><w:body>'
        "<w:r><w:instrText>DDE</w:instrText></w:r>"
        "<w:r><w:instrText>AUTO c:\\\\cmd</w:instrText></w:r>"
        "</w:body></w:document>"
    )
    assert analyze_docx(make_docx(document_xml=doc)).features["dde_present"] == 1


def test_ddex_is_not_dde():
    doc = "<w:document><w:body><w:p><w:t>GRIDDED text</w:t></w:p></w:body></w:document>"
    assert analyze_docx(make_docx(document_xml=doc)).features["dde_present"] == 0


def test_two_ole_objects_same_class():
    doc = (
        '<w:document xmlns:w="http://x" xmlns:o="urn:o" xmlns:r="http://r"><w:body>'
        '<w:object><o:OLEObject Type="Embed" ProgID="Equation.3" r:id="rId4"/></w:object>'
        '<w:object><o:OLEObject Type="Embed" ProgID="Equation.3" r:id="rId5"/></w:object>'
        "</w:body></w:document>"
    )
    rels = (
        "<Relationships>"
        '<Relationship Id="rId4" Type="http://x/oleObject" Target="embeddings/oleObject1.bin"/>'
        '<Relationship Id="rId5" Type="http://x/oleObject" Target="embeddings/oleObject2.bin"/>'
        "</Relationships>"
    )
    data = make_docx(
        {
            "word/_rels/document.xml.rels": rels,
            "word/embeddings/oleObject1.bin": b"\x01" * 32,
            "word/embeddings/oleObject2.bin": b"\x02" * 32,
        },
        document_xml=doc,
    )
    d = analyze_docx(data).features
    assert d["ole_object_count"] == 2
    assert d["ole_object_type_count"] == 1


def test_ole_type_count_bounded():
    rng = random.Random(2)
    data = make_docx({
        "word/embeddings/a.bin": b"1",
        "word/embeddings/b.doc": b"2",
        "word/embeddings/c.bin": b"3",
    })
    d = analyze_docx(data).features
    assert d["ole_object_count"] == 3
    assert d["ole_object_type_count"] == 2  # bin + doc
    assert d["ole_object_type_count"] <= d["ole_object_count"]


def test_projection_order_and_identity(minimal_docx):
    features = analyze_docx(minimal_docx).features
    projected = [features[c] for c in SELECTED.columns]
    assert len(projected) == 10
    full = list(features.values())
    assert projected == [full[DOCX_COLUMNS.index(c)] for c in SELECTED.columns]


def test_projection_ignores_unselected_counters():
    a = make_docx(document_xml="<w:document><w:body><w:p/></w:body></w:document>")
    b = make_docx(document_xml="<w:document><w:body><w:p/><w:tbl/><w:tbl/></w:body></w:document>")
    fa = analyze_docx(a).features
    fb = analyze_docx(b).features
    # struct_w_tbl is not selected; only file_size/entropy columns may differ
    diffs = [c for c in SELECTED.columns if fa[c] != fb[c]]
    assert set(diffs) <= {"file_size", "entropy"}


def test_determinism(minimal_docx):
    r1 = analyze_docx(minimal_docx)
    r2 = analyze_docx(minimal_docx)
    assert r1.features == r2.features


def test_struct_counters_count_attribute_positions_only():
    # "pos" as an attribute counts; "pos" inside text or tag names does not
    doc = '<w:document><w:body><w:p w:x="1" pos="2"/><w:t>pos pos</w:t><pose pos="3"/></w:body></w:document>'
    d = analyze_docx(make_docx(document_xml=doc)).features
    assert d["struct_pos"] == 2


def test_struct_counting_memory_stays_bounded_on_a_large_part():
    # one findall over the whole part would hold one match per tag at once;
    # the tail has no "<" at which a window could end
    unit = b"<w:p><w:r><w:t>lorem ipsum dolor sit amet</w:t></w:r></w:p>"
    n = (3 << 20) // len(unit)
    part = unit * n + b' w="1"' * 100_000
    tracemalloc.start()
    try:
        counts = docx._struct_counts([part])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == {"struct_w_p": n, "struct_w_r": n, "struct_w_t": n, "struct_w": 100_000}
    assert peak < 2 << 20
