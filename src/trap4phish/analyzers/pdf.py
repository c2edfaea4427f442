"""PDF analyzer: 40 structural/behavioral features from byte-level scanning
plus FlateDecode stream decoding for text operators, and the top-10 projection.

No object graph is reconstructed: counters are keyword- and token-based in
the pdfid tradition, which keeps the scan total on malformed input.
"""

from __future__ import annotations

import re
import zlib

from ..core import AnalysisReport, FeatureSchema, FeatureVector, shannon_entropy

SCHEMA_VERSION = 1

PDF_COLUMNS = (
    # basic metadata
    "file_size", "page_count", "is_encrypted", "metadata_size",
    # content properties
    "text_length", "title_chars", "embedded_image_count", "ocr_fallback_flag",
    # stream analysis
    "stream_count", "endstream_count", "avg_stream_size", "entropy_of_streams", "objstm_count",
    # object statistics
    "object_count", "font_object_count", "xref_table_count", "xref_entry_count",
    # embedded files
    "embedded_file_count", "avg_embedded_file_size",
    # obfuscation indicators
    "name_obfuscation_count", "nested_filter_count",
    # javascript / uri
    "javascript_count", "js_count", "uri_count",
    # action triggers
    "launch_count", "openaction_count", "aa_count", "submitform_count", "goto_remote_count",
    # forms
    "acroform_present", "xfa_present",
    # encoding and media
    "jbig2_count", "richmedia_count", "total_filters", "lzw_count",
    # behavioral correlation
    "risky_cooccurrence_count",
    # structure validity
    "valid_pdf_header", "trailer_present", "startxref_present",
    # non-standard usage
    "nonstandard_port_flag",
)

SCHEMA = FeatureSchema("pdf", PDF_COLUMNS, SCHEMA_VERSION)
SELECTED = SCHEMA.project((
    "text_length",
    "total_filters",
    "title_chars",
    "file_size",
    "object_count",
    "stream_count",
    "endstream_count",
    "metadata_size",
    "valid_pdf_header",
    "entropy_of_streams",
))

_HEADER_RE = re.compile(rb"%PDF-\d")
_OBJ_RE = re.compile(rb"(?<![0-9])(\d{1,10})\s+(\d{1,5})\s+obj(?![A-Za-z0-9])")
_STREAM_RE = re.compile(rb"(?<![A-Za-z])stream(?![A-Za-z])")
_ENDSTREAM_RE = re.compile(rb"endstream")
_XREF_RE = re.compile(rb"(?<![A-Za-z])xref(?![A-Za-z])")
_STARTXREF_RE = re.compile(rb"startxref")
_XREF_ENTRY_RE = re.compile(rb"\d{10}\s\d{5}\s[nf]")
_TRAILER_RE = re.compile(rb"trailer")
_NAME_OBFUSCATION_RE = re.compile(rb"/[#A-Za-z0-9.+_-]*#[0-9A-Fa-f]{2}[#A-Za-z0-9.+_-]*")
_FILTER_ENTRY_RE = re.compile(rb"/Filter\s*(\[[^\]]*\]|/[A-Za-z0-9#]+)")
_FILTER_NAME_RE = re.compile(rb"/[A-Za-z0-9#]+")
_TITLE_LITERAL_RE = re.compile(rb"/Title\s*\(((?:\\.|[^\\)])*)\)", re.DOTALL)
_TITLE_HEX_RE = re.compile(rb"/Title\s*<([0-9A-Fa-f\s]*)>")
_URI_VALUE_RE = re.compile(rb"/URI\s*\(((?:\\.|[^\\)])*)\)", re.DOTALL)
_PORT_RE = re.compile(rb"^[a-zA-Z][a-zA-Z0-9+.-]*://[^/:?#]+:(\d{1,5})")
_TYPE_METADATA_RE = re.compile(rb"/Type\s*/Metadata(?![A-Za-z])")
_EMBEDDED_FILE_SUBTYPE_RE = re.compile(rb"/EmbeddedFile(?![A-Za-z])")

def _name_token(name: bytes) -> re.Pattern:
    return re.compile(rb"/" + name + rb"(?![#A-Za-z0-9])")

_TOKEN_COUNTERS = {
    "objstm_count": _name_token(b"ObjStm"),
    "javascript_count": _name_token(b"JavaScript"),
    "js_count": _name_token(b"JS"),
    "uri_count": _name_token(b"URI"),
    "launch_count": _name_token(b"Launch"),
    "openaction_count": _name_token(b"OpenAction"),
    "aa_count": _name_token(b"AA"),
    "submitform_count": _name_token(b"SubmitForm"),
    "goto_remote_count": _name_token(b"GoToR"),
    "jbig2_count": _name_token(b"JBIG2Decode"),
    "richmedia_count": _name_token(b"RichMedia"),
    "lzw_count": _name_token(b"LZWDecode"),
}
_PAGE_RE = re.compile(rb"/Type\s*/Page(?![A-Za-z0-9])")
_FONT_RE = re.compile(rb"/Type\s*/Font(?![A-Za-z0-9])")
_IMAGE_RE = re.compile(rb"/Subtype\s*/Image(?![A-Za-z0-9])")
_ENCRYPT_RE = _name_token(b"Encrypt")
_ACROFORM_RE = _name_token(b"AcroForm")
_XFA_RE = _name_token(b"XFA")

_RISKY_PATTERNS = tuple(
    _name_token(t) for t in (b"JavaScript", b"Launch", b"OpenAction", b"AA", b"SubmitForm", b"EmbeddedFile")
)

# Tj / ' / " take one literal string; TJ takes an array of strings and numbers.
_TJ_RE = re.compile(rb"\(((?:\\.|[^\\)])*)\)\s*(?:Tj|'|\")")
_TJ_ARRAY_RE = re.compile(rb"\[((?:\\.|[^\]\\])*)\]\s*TJ")
_ARRAY_STRING_RE = re.compile(rb"\(((?:\\.|[^\\)])*)\)")
_ESCAPE_RE = re.compile(rb"\\(\d{1,3}|.)")


def analyze_pdf(data: bytes, source_path: str = "<bytes>") -> AnalysisReport:
    """Extract the full 40-column PDF feature vector from raw bytes.

    Never fails: non-PDF input yields zero counters and a warning.
    """
    warnings: list[str] = []
    values = dict.fromkeys(PDF_COLUMNS, 0.0)
    values["file_size"] = float(len(data))

    header = _HEADER_RE.search(data[:1024])
    values["valid_pdf_header"] = 1.0 if header is not None else 0.0
    parse_failed = header is None
    if parse_failed:
        warnings.append("no %PDF- header with version token in the first 1024 bytes")

    for column, pattern in _TOKEN_COUNTERS.items():
        values[column] = float(len(pattern.findall(data)))
    values["page_count"] = float(len(_PAGE_RE.findall(data)))
    values["font_object_count"] = float(len(_FONT_RE.findall(data)))
    values["embedded_image_count"] = float(len(_IMAGE_RE.findall(data)))
    values["is_encrypted"] = 1.0 if _ENCRYPT_RE.search(data) else 0.0
    values["acroform_present"] = 1.0 if _ACROFORM_RE.search(data) else 0.0
    values["xfa_present"] = 1.0 if _XFA_RE.search(data) else 0.0
    values["trailer_present"] = 1.0 if _TRAILER_RE.search(data) else 0.0
    values["startxref_present"] = 1.0 if _STARTXREF_RE.search(data) else 0.0
    values["name_obfuscation_count"] = float(len(_NAME_OBFUSCATION_RE.findall(data)))

    values["xref_table_count"] = float(len(_XREF_RE.findall(data)))
    values["xref_entry_count"] = float(len(_XREF_ENTRY_RE.findall(data)))

    values["embedded_file_count"] = float(len(_EMBEDDED_FILE_SUBTYPE_RE.findall(data)))

    total_filters = 0
    nested = 0
    for m in _FILTER_ENTRY_RE.finditer(data):
        names = _FILTER_NAME_RE.findall(m.group(1))
        total_filters += len(names)
        if m.group(1).startswith(b"[") and len(names) >= 2:
            nested += 1
    values["total_filters"] = float(total_filters)
    values["nested_filter_count"] = float(nested)

    title = _TITLE_LITERAL_RE.search(data)
    if title is not None:
        values["title_chars"] = float(len(_unescape_string(title.group(1))))
    else:
        hex_title = _TITLE_HEX_RE.search(data)
        if hex_title is not None:
            digits = re.sub(rb"\s+", b"", hex_title.group(1))
            values["title_chars"] = float((len(digits) + 1) // 2)

    values["nonstandard_port_flag"] = 0.0
    for m in _URI_VALUE_RE.finditer(data):
        uri = _unescape_string(m.group(1))
        port_m = _PORT_RE.match(uri)
        if port_m and int(port_m.group(1)) not in (80, 443):
            values["nonstandard_port_flag"] = 1.0
            break

    streams = _stream_regions(data, warnings)
    values["stream_count"] = float(len(_STREAM_RE.findall(data)))
    values["endstream_count"] = float(len(_ENDSTREAM_RE.findall(data)))
    if streams:
        sizes = [len(s["data"]) for s in streams]
        values["avg_stream_size"] = sum(sizes) / len(sizes)
        values["entropy_of_streams"] = sum(shannon_entropy(s["data"]) for s in streams) / len(streams)

    _object_statistics(data, values, streams, warnings)

    vector = FeatureVector(SCHEMA, [values[c] for c in PDF_COLUMNS])
    return AnalysisReport(source_path, "pdf", vector, warnings, parse_failed)


def _stream_regions(data: bytes, warnings: list[str]) -> list[dict]:
    """Raw bytes between each `stream` keyword EOL and its `endstream`."""
    regions = []
    for m in _STREAM_RE.finditer(data):
        start = m.end()
        if data[start:start + 2] == b"\r\n":
            start += 2
        elif data[start:start + 1] in (b"\n", b"\r"):
            start += 1
        end = data.find(b"endstream", start)
        if end < 0:
            warnings.append("stream keyword without matching endstream")
            break
        raw = data[start:end]
        if raw.endswith(b"\r\n"):
            raw = raw[:-2]
        elif raw.endswith(b"\n") or raw.endswith(b"\r"):
            raw = raw[:-1]
        # Dict slice between the owning object header and the keyword, used
        # for filter decisions; bounded so binary blobs cannot blow it up.
        dict_start = data.rfind(b"obj", max(0, m.start() - 65536), m.start())
        if dict_start < 0:
            dict_start = max(0, m.start() - 1024)
        regions.append({"data": raw, "dict": data[dict_start:m.start()]})
    return regions


def _object_statistics(data: bytes, values: dict, streams: list[dict], warnings: list[str]) -> None:
    objects = []
    for m in _OBJ_RE.finditer(data):
        end = data.find(b"endobj", m.end())
        body = data[m.end():end if end >= 0 else len(data)]
        objects.append(body)
    values["object_count"] = float(len(objects))

    risky = 0
    for body in objects:
        distinct = sum(1 for pattern in _RISKY_PATTERNS if pattern.search(body))
        if distinct >= 2:
            risky += 1
    values["risky_cooccurrence_count"] = float(risky)

    # Metadata stream size: streams whose dict marks /Type /Metadata.
    meta_bytes = 0
    embedded_sizes = []
    text_total = 0
    for region in streams:
        head = region["dict"]
        if _TYPE_METADATA_RE.search(head):
            meta_bytes += len(region["data"])
        if _EMBEDDED_FILE_SUBTYPE_RE.search(head):
            embedded_sizes.append(len(region["data"]))
        text_total += _text_operand_bytes(region, warnings)
    values["metadata_size"] = float(meta_bytes)
    if embedded_sizes:
        values["avg_embedded_file_size"] = sum(embedded_sizes) / len(embedded_sizes)
    values["text_length"] = float(text_total)


def _text_operand_bytes(region: dict, warnings: list[str]) -> int:
    """Bytes of Tj/TJ/'/" string operands; only plain or FlateDecode-alone
    streams are inspected, everything else contributes 0."""
    head = region["dict"]
    filter_m = _FILTER_ENTRY_RE.search(head)
    content = region["data"]
    if filter_m is not None:
        names = _FILTER_NAME_RE.findall(filter_m.group(1))
        if names != [b"/FlateDecode"]:
            return 0
        try:
            content = zlib.decompress(content)
        except zlib.error:
            warnings.append("stream: FlateDecode failed")
            return 0
    total = 0
    for m in _TJ_RE.finditer(content):
        total += len(_unescape_string(m.group(1)))
    for m in _TJ_ARRAY_RE.finditer(content):
        for s in _ARRAY_STRING_RE.findall(m.group(1)):
            total += len(_unescape_string(s))
    return total


def _unescape_string(raw: bytes) -> bytes:
    def repl(m: re.Match) -> bytes:
        token = m.group(1)
        if token.isdigit():
            return bytes([int(token, 8) & 0xFF])
        mapping = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\x0c"}
        return mapping.get(token, token)

    return _ESCAPE_RE.sub(repl, raw)
