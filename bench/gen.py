"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives the
same bytes. The program under test only ever sees the files these produce.
"""

from __future__ import annotations

import io
import zipfile
import zlib

import numpy as np

from trap4phish import synth

FORMATS = ("docx", "xlsx", "pdf", "html")
HOSTILE_FAMILIES = ("pdf_streams", "pdf_objects", "docx_instrtext", "xlsx_cells", "html_scripts")

_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey",
    "xray", "yankee", "zulu", "meadow", "harbor", "lantern", "orchard",
)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _hex(rng: np.random.Generator, n_bytes: int) -> str:
    # hex digits cannot spell any PDF or OOXML keyword the analyzers look for
    return rng.bytes(n_bytes).hex()


def _words(rng: np.random.Generator, n: int) -> str:
    return " ".join(_WORDS[int(k)] for k in rng.integers(0, len(_WORDS), n))


def zip_bytes(entries: dict[str, bytes | str], stored: tuple[str, ...] = ()) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in entries.items():
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED if name in stored else zipfile.ZIP_DEFLATED
            zf.writestr(info, data)
    return buf.getvalue()


# --- synthetic corpora (through trap4phish.synth) --------------------------


def corpus(seed: int, per_class: int, formats=FORMATS) -> list[tuple[str, bytes, int]]:
    """(relative path, bytes, label) for a synth corpus of every format."""
    out = []
    for fmt in formats:
        for name, data, label in synth.synthesize(synth.SynthConfig(format=fmt, count=per_class, seed=seed)):
            out.append((f"{fmt}/{name}", data, label))
    return out


# --- OOXML scaffolding -------------------------------------------------------

_RELS_NS = "http://schemas.openxmlformats.org/package/2006/relationships"
_OFFICE_DOC = "http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument"
_XML_HEAD = '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'


def _content_types(main_part: str, main_type: str) -> str:
    return (
        _XML_HEAD
        + '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
        '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
        '<Default Extension="xml" ContentType="application/xml"/>'
        f'<Override PartName="/{main_part}" ContentType="{main_type}"/></Types>'
    )


def _root_rels(target: str) -> str:
    return (
        f'{_XML_HEAD}<Relationships xmlns="{_RELS_NS}">'
        f'<Relationship Id="rId1" Type="{_OFFICE_DOC}" Target="{target}"/></Relationships>'
    )


_DOCX_MAIN = "application/vnd.openxmlformats-officedocument.wordprocessingml.document.main+xml"
_XLSX_MAIN = "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"
_DOC_HEAD = (
    _XML_HEAD + '<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main" '
    'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships"><w:body>'
)
_DOC_TAIL = "<w:sectPr/></w:body></w:document>"
_SHEET_HEAD = (
    _XML_HEAD + '<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"><sheetData>'
)
_SHEET_TAIL = "</sheetData></worksheet>"


def docx_entries(document_xml: str | bytes) -> dict[str, bytes | str]:
    return {
        "[Content_Types].xml": _content_types("word/document.xml", _DOCX_MAIN),
        "_rels/.rels": _root_rels("word/document.xml"),
        "word/document.xml": document_xml,
    }


def xlsx_entries(sheet_xml: str | bytes, shared: list[str] | None = None) -> dict[str, bytes | str]:
    entries: dict[str, bytes | str] = {
        "[Content_Types].xml": _content_types("xl/workbook.xml", _XLSX_MAIN),
        "_rels/.rels": _root_rels("xl/workbook.xml"),
        "xl/workbook.xml": (
            _XML_HEAD + '<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" '
            'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">'
            '<sheets><sheet name="Sheet1" sheetId="1" r:id="rId1"/></sheets></workbook>'
        ),
        "xl/_rels/workbook.xml.rels": (
            f'{_XML_HEAD}<Relationships xmlns="{_RELS_NS}"><Relationship Id="rId1" '
            'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet" '
            'Target="worksheets/sheet1.xml"/></Relationships>'
        ),
        "xl/worksheets/sheet1.xml": sheet_xml,
    }
    if shared is not None:
        entries["xl/sharedStrings.xml"] = (
            _XML_HEAD + '<sst xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" '
            f'count="{len(shared)}" uniqueCount="{len(shared)}">'
            + "".join(f"<si><t>{s}</t></si>" for s in shared) + "</sst>"
        )
    return entries


# --- hostile families ---------------------------------------------------------
#
# Each family is (head, body(n), tail, pack): the file at size n is
# pack(head + body(n) + tail) and the file at 2n is pack(head + body(n) * 2 + tail),
# so the two inputs differ only in how often the same pattern repeats.


def _pdf_streams_body(rng, n):
    # `stream` openers with no `endstream` until the very end of the file
    return "".join(f"stream\n{_hex(rng, 24)}\n" for _ in range(n))


def _pdf_objects_body(rng, n):
    # object headers with no `endobj` anywhere
    return "".join(f"{i + 1} 0 obj\n<< /F {_hex(rng, 6)} >>\n" for i in range(n))


def _docx_instrtext_body(rng, n):
    # field-instruction runs that are never closed
    return "".join(f"<w:r><w:instrText>HYPERLINK {_hex(rng, 4)}</w:r>" for _ in range(n))


def _xlsx_cells_body(rng, n):
    # cell openers that are never closed
    return "".join(f'<c r="A{i + 1}"><v>{int(rng.integers(10**6))}</v>' for i in range(n))


def _html_scripts_body(rng, n):
    # long bodies, so the whole-document rescan per script outweighs the
    # per-tag cost already at a few thousand scripts
    return "".join(f"<script>var v{_hex(rng, 3)}='{_hex(rng, 150)}';</script>\n" for _ in range(n))


def _raw(text: str) -> bytes:
    return text.encode("latin-1")


_FAMILIES = {
    "pdf_streams": ("%PDF-1.4\n", _pdf_streams_body, "endstream\n%%EOF\n", _raw, "pdf"),
    "pdf_objects": ("%PDF-1.4\n", _pdf_objects_body, "trailer\n<< >>\n%%EOF\n", _raw, "pdf"),
    "docx_instrtext": (_DOC_HEAD + "<w:p>", _docx_instrtext_body, "</w:p>" + _DOC_TAIL,
                       lambda xml: zip_bytes(docx_entries(xml)), "docx"),
    "xlsx_cells": (_SHEET_HEAD + '<row r="1">', _xlsx_cells_body, "</row>" + _SHEET_TAIL,
                   lambda xml: zip_bytes(xlsx_entries(xml)), "xlsx"),
    "html_scripts": ("<!DOCTYPE html>\n<html><head><title>t</title></head><body>\n",
                     _html_scripts_body, "</body></html>\n", _raw, "html"),
}


def hostile_file(family: str, n: int, seed: int, repeat: int = 1) -> tuple[str, bytes]:
    """(file name, bytes) of one hostile input; `repeat=2` gives the 2n input."""
    head, body, tail, pack, ext = _FAMILIES[family]
    text = head + body(rng_for(seed, 1, HOSTILE_FAMILIES.index(family)), n) * repeat + tail
    return f"{family}_x{repeat}.{ext}", pack(text)


def docx_inflate(seed: int, inflated_mb: int) -> bytes:
    """A docx whose document.xml is `inflated_mb` MiB inflated and about
    4 KB per MiB deflated. The part is streamed into the archive, so
    building it never holds the inflated text in memory."""
    rng = rng_for(seed, 2)
    unit = f"<w:p><w:r><w:t>{_words(rng, 6)}</w:t></w:r></w:p>".encode()
    block = unit * (65536 // len(unit))
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in docx_entries("").items():
            if name == "word/document.xml":
                continue
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, data)
        info = zipfile.ZipInfo("word/document.xml", date_time=(1980, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_DEFLATED
        with zf.open(info, "w") as fh:
            fh.write(_DOC_HEAD.encode())
            for _ in range(inflated_mb * 1024 * 1024 // len(block)):
                fh.write(block)
            fh.write(_DOC_TAIL.encode())
    return buf.getvalue()


# --- well-formed large files ---------------------------------------------------


def large_docx(seed: int, size: int) -> bytes:
    rng = rng_for(seed, 3, 0)
    paras = "".join(f"<w:p><w:r><w:t>{_words(rng, 12)}</w:t></w:r></w:p>" for _ in range(3000))
    rels = (
        f'{_XML_HEAD}<Relationships xmlns="{_RELS_NS}"><Relationship Id="rId7" '
        'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/image" '
        'Target="media/image1.png"/></Relationships>'
    )
    entries = docx_entries(_DOC_HEAD + paras + _DOC_TAIL)
    entries["word/_rels/document.xml.rels"] = rels
    entries["word/media/image1.png"] = b""
    base = len(zip_bytes(entries))
    entries["word/media/image1.png"] = rng.bytes(max(0, size - base))
    return zip_bytes(entries, stored=("word/media/image1.png",))


def large_xlsx(seed: int, size: int) -> bytes:
    rng = rng_for(seed, 3, 1)
    shared = [_words(rng, 3) for _ in range(2000)]
    rows = []
    for r in range(1, 4001):
        cells = "".join(
            f'<c r="{col}{r}"><v>{int(rng.integers(10**6))}</v></c>' if col != "C"
            else f'<c r="{col}{r}" t="s"><v>{int(rng.integers(len(shared)))}</v></c>'
            for col in "ABCDE"
        )
        rows.append(f'<row r="{r}">{cells}</row>')
    entries = xlsx_entries(_SHEET_HEAD + "".join(rows) + _SHEET_TAIL, shared)
    entries["xl/media/image1.png"] = b""
    base = len(zip_bytes(entries))
    entries["xl/media/image1.png"] = rng.bytes(max(0, size - base))
    return zip_bytes(entries, stored=("xl/media/image1.png",))


def large_pdf(seed: int, size: int) -> bytes:
    rng = rng_for(seed, 3, 2)
    objects: list[bytes] = []
    n_pages = 300
    page_ids = []
    first_page = 4  # 1 catalog, 2 pages, 3 font
    for p in range(n_pages):
        text = "BT /F1 10 Tf 72 720 Td " + " ".join(f"({_words(rng, 8)}) Tj T*" for _ in range(20)) + " ET"
        content = zlib.compress(text.encode(), 6)
        while content.endswith(b"\r"):
            # the analyzer strips one EOL before `endstream`; keep the checksum intact
            text += " "
            content = zlib.compress(text.encode(), 6)
        page_id = first_page + 2 * p
        page_ids.append(page_id)
        objects.append(
            f"<< /Type /Page /Parent 2 0 R /Contents {page_id + 1} 0 R "
            f"/Resources << /Font << /F1 3 0 R >> >> >>".encode())
        objects.append(f"<< /Length {len(content)} /Filter /FlateDecode >>\nstream\n".encode()
                       + content + b"\nendstream")
    kids = " ".join(f"{i} 0 R" for i in page_ids)
    head = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>".encode(),
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    ]
    body = head + objects

    def assemble(blob: bytes) -> bytes:
        items = body + [
            f"<< /Type /XObject /Subtype /Image /Width 64 /Height 64 /BitsPerComponent 8 "
            f"/ColorSpace /DeviceGray /Filter /DCTDecode /Length {len(blob)} >>\nstream\n".encode()
            + blob + b"\nendstream"
        ]
        out = io.BytesIO()
        out.write(b"%PDF-1.7\n%\xe2\xe3\xcf\xd3\n")
        offsets = []
        for i, obj in enumerate(items, start=1):
            offsets.append(out.tell())
            out.write(f"{i} 0 obj\n".encode() + obj + b"\nendobj\n")
        xref = out.tell()
        out.write(f"xref\n0 {len(items) + 1}\n0000000000 65535 f \n".encode())
        out.write("".join(f"{off:010d} 00000 n \n" for off in offsets).encode())
        out.write(f"trailer\n<< /Size {len(items) + 1} /Root 1 0 R >>\nstartxref\n{xref}\n%%EOF\n".encode())
        return out.getvalue()

    base = len(assemble(b""))
    return assemble(rng.bytes(max(0, size - base)))


def large_html(seed: int, size: int) -> bytes:
    rng = rng_for(seed, 3, 3)
    parts = ["<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>report</title>"
             "<style>p { margin: 0 }</style></head>\n<body>\n"]
    total = len(parts[0])
    k = 0
    while total < size:
        k += 1
        chunk = (
            f"<div class=\"s{k % 7}\"><h2>{_words(rng, 3)}</h2>\n"
            f"<p>{_words(rng, 40)}</p>\n"
            f"<p>{_words(rng, 25)} <a href=\"/{_WORDS[k % len(_WORDS)]}/page{k}\">more</a> "
            f"<a href=\"https://ref{k % 13}.example/doc/{k}\">source</a></p>\n"
            f"<img src=\"/img/{k}.png\" alt=\"figure {k}\"></div>\n"
        )
        if k % 100 == 0:
            chunk += f"<script>var section{k} = {{id: {k}}};</script>\n"
        parts.append(chunk)
        total += len(chunk)
    parts.append("</body></html>\n")
    return "".join(parts).encode()


LARGE_MAKERS = {"docx": large_docx, "xlsx": large_xlsx, "pdf": large_pdf, "html": large_html}


# --- URLs for the QR round trip --------------------------------------------------

_TLDS = ("com", "net", "info", "top", "xyz", "ru")
_LURES = ("login", "secure", "verify", "account", "update", "billing", "signin", "support")
# exact URL lengths: the largest byte payloads of QR versions 4, 5 and 6 at
# EC level M, so the mix of symbol versions does not depend on the seed
URL_LENGTHS = (62, 84, 106)


def phishing_urls(seed: int, count: int) -> list[str]:
    rng = rng_for(seed, 4)
    urls = []
    for i in range(count):
        lure = _LURES[int(rng.integers(len(_LURES)))]
        brand = _WORDS[int(rng.integers(len(_WORDS)))]
        tld = _TLDS[int(rng.integers(len(_TLDS)))]
        kind = i % 4
        if kind == 0:
            url = f"http://{lure}-{brand}.{tld}/{lure}?session="
        elif kind == 1:
            ip = ".".join(str(int(x)) for x in rng.integers(1, 255, 4))
            url = f"http://{ip}:{int(rng.choice([8080, 8443, 4443]))}/{brand}/{lure}.php?id="
        elif kind == 2:
            url = f"https://{brand}.{lure}.{_WORDS[int(rng.integers(len(_WORDS)))]}.{tld}/{lure}.html?k="
        else:
            url = f"https://bit.ly/{_hex(rng, 5)}?r={brand}%40{lure}.{tld}&x="
        pad = URL_LENGTHS[(i // 4) % len(URL_LENGTHS)] - len(url)
        urls.append(url + _hex(rng, (pad + 1) // 2)[:pad])
    return urls
