"""The inflate budget the OOXML analyzers share per archive."""

from trap4phish.analyzers import analyze_docx
from trap4phish.analyzers.ooxml import extract_vba_sources, read_xml_parts
from trap4phish.containers import ziparc, zip_open

from conftest import make_docx, make_zip

_PART = "<a>" + "x" * 993 + "</a>"  # 1,000 bytes inflated


def _limit_warnings(warnings):
    return [w for w in warnings if w.startswith("limit.inflated_bytes")]


def test_read_xml_parts_stops_at_the_archive_budget(monkeypatch):
    monkeypatch.setattr(ziparc, "MAX_UNCOMPRESSED_SIZE", 2500)
    archive = zip_open(make_zip({"a.xml": _PART, "b.xml": _PART, "c.xml": _PART, "d.xml": _PART}))
    warnings = []
    parts = read_xml_parts(archive, warnings)
    assert list(parts) == ["a.xml", "b.xml"]
    assert warnings == _limit_warnings(warnings)
    assert len(warnings) == 1 and "'c.xml'" in warnings[0]


def test_budget_is_shared_by_every_reader_of_one_archive(monkeypatch):
    monkeypatch.setattr(ziparc, "MAX_UNCOMPRESSED_SIZE", 2500)
    archive = zip_open(make_zip({"word/vbaProject.bin": b"\0" * 1000, "a.xml": _PART, "b.xml": _PART}))
    warnings = []
    assert extract_vba_sources(archive, warnings) == []  # not a CFB file, but its bytes count
    assert list(read_xml_parts(archive, warnings)) == ["a.xml"]
    assert len(_limit_warnings(warnings)) == 1


def test_analyzer_reports_one_limit_warning(monkeypatch):
    data = make_docx({f"word/part{i}.xml": _PART for i in range(6)})
    monkeypatch.setattr(ziparc, "MAX_UNCOMPRESSED_SIZE", 3000)
    report = analyze_docx(data)
    assert len(_limit_warnings(report.warnings)) == 1
    assert report.features["struct_ContentType"] > 0  # [Content_Types].xml came first
    monkeypatch.undo()
    assert _limit_warnings(analyze_docx(data).warnings) == []
