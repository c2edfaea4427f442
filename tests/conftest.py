"""Shared fixture builders.

The OOXML fixtures are written with the standard-library zipfile module, so
the package's own ZIP reader is always exercised against an independent
writer. PDF fixtures are assembled as byte strings with known counts.
"""

import io
import os
import zipfile

import pytest
from hypothesis import settings

# CI runs draw the same examples every time and print a reproduction blob
# for any failure, so a red build can be replayed locally
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def make_zip(entries: dict, method=zipfile.ZIP_DEFLATED) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", method) as zf:
        for name, data in entries.items():
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = method
            zf.writestr(info, data)
    return buf.getvalue()


MINIMAL_DOCX_ENTRIES = {
    "[Content_Types].xml": (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
        '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
        '<Default Extension="xml" ContentType="application/xml"/>'
        '<Override PartName="/word/document.xml" '
        'ContentType="application/vnd.openxmlformats-officedocument.wordprocessingml.document.main+xml"/>'
        "</Types>"
    ),
    "_rels/.rels": (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
        '<Relationship Id="rId1" '
        'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" '
        'Target="word/document.xml"/></Relationships>'
    ),
    "word/document.xml": (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">'
        "<w:body><w:p><w:r><w:t>Hello there</w:t></w:r></w:p></w:body></w:document>"
    ),
}


@pytest.fixture
def minimal_docx() -> bytes:
    return make_zip(dict(MINIMAL_DOCX_ENTRIES))


def make_docx(extra_entries: dict | None = None, document_xml: str | None = None) -> bytes:
    entries = dict(MINIMAL_DOCX_ENTRIES)
    if document_xml is not None:
        entries["word/document.xml"] = document_xml
    if extra_entries:
        entries.update(extra_entries)
    return make_zip(entries)


def make_xlsx(sheet_xml: str, shared: list[str] | None = None,
              extra_entries: dict | None = None, workbook_xml: str | None = None) -> bytes:
    entries = {
        "[Content_Types].xml": (
            '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
            '<Override PartName="/xl/workbook.xml" '
            'ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
            "</Types>"
        ),
        "xl/workbook.xml": workbook_xml or (
            '<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">'
            '<sheets><sheet name="Sheet1" sheetId="1"/></sheets></workbook>'
        ),
        "xl/worksheets/sheet1.xml": sheet_xml,
    }
    if shared is not None:
        entries["xl/sharedStrings.xml"] = (
            "<sst>" + "".join(f"<si><t>{s}</t></si>" for s in shared) + "</sst>"
        )
    if extra_entries:
        entries.update(extra_entries)
    return make_zip(entries)


def make_pdf(objects: list[bytes], header: bytes = b"%PDF-1.4\n",
             with_trailer: bool = True) -> bytes:
    """Assemble numbered objects into a classic-xref PDF."""
    buf = io.BytesIO()
    buf.write(header)
    offsets = []
    for i, body in enumerate(objects, start=1):
        offsets.append(buf.tell())
        buf.write(f"{i} 0 obj\n".encode())
        buf.write(body)
        buf.write(b"\nendobj\n")
    xref_at = buf.tell()
    if with_trailer:
        buf.write(f"xref\n0 {len(objects) + 1}\n".encode())
        buf.write(b"0000000000 65535 f \n")
        for off in offsets:
            buf.write(f"{off:010d} 00000 n \n".encode())
        buf.write(f"trailer\n<< /Size {len(objects) + 1} /Root 1 0 R >>\n".encode())
        buf.write(f"startxref\n{xref_at}\n%%EOF\n".encode())
    return buf.getvalue()


MINIMAL_PDF_OBJECTS = [
    b"<< /Type /Catalog /Pages 2 0 R >>",
    b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
    b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>",
    b"<< /Length 14 >>\nstream\nBT (Hi) Tj ET\nendstream",
]


@pytest.fixture
def minimal_pdf() -> bytes:
    # 4 objects, 1 content stream "BT (Hi) Tj ET"
    return make_pdf(list(MINIMAL_PDF_OBJECTS))
