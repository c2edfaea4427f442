"""The analyzers' scanners as they were before they became single-pass,
kept verbatim as oracles for tests/test_analyzer_diff.py.

Each one rescans to the end of its input for every unclosed opener, so it
takes quadratic time on hostile input; run them on small inputs only. The
PDF and HTML analyzers are here whole. For docx and xlsx only the scanners
are, and the tests swap them into the current analyzer.

The HTML reader here is the per-`<` loop. Its token stream holds every
start tag with all its attributes; the live reader keeps the attributes of
only the tags where a feature can read one, so the tests compare the two
streams through what both hold. Its base64 and word patterns are here too:
the live analyzer counts both with byte translations.

The docx structure counters are here as the 36 patterns that counted them,
one `findall` pass each per XML part, and the DDE pattern as it was before
it began with its literal.

The five OOXML start-tag patterns (`SHEET_RE`, `DEFINED_NAME_RE`,
`CELL_TAG_RE`, `REL_RE`, `OLE_ELEMENT_RE`) are here to be searched as they
were, with no end bound: each rescans to the end of the part from every
opener with no `>` after it.

Two patterns are here as they were before they became linear:
`ATTR_RE`, which the OOXML analyzers use on start tags, and
`STYLE_URL_RE`, which the HTML analyzer used on style bodies and
attributes. Each backtracks in quadratic time on a long name run with no
`=`, or on many `url(` that never close.

The whole-file patterns that began with a lookbehind, a class, a branch or
a repeat are here as they were: the five PDF ones (`_OBJ_RE`, `_STREAM_RE`,
`_XREF_RE`, `_XREF_ENTRY_RE`, `BACKSLASHES_RE`), the joined docx structure
pattern `STRUCT_RE`, the HTML `_JS_ESCAPE_RE` and the six VBA metric
patterns in `VBA_PATTERNS`. `re` tries a match at every offset of each. The
live PDF, docx and HTML ones begin with a literal, some reading backwards
from it or split into one pass per branch; the live VBA ones begin with
their word, one class or a lookahead of one class.

Three differences from the old code are deliberate. `_scan_cells` reads
shared-string indexes and row numbers only as ASCII digits, and counts no
value holding `_` as numeric; there, `-1` took the last shared string and
`1_0` read as 10. It takes a row number past 1,048,576 or a column past
XFD (16,384), Excel's sheet limits, as no reference; there, such a number
raised OverflowError or ValueError out of the analyzer. And there, `\\8`
or `\\9` in a PDF string made `_unescape_string` raise ValueError
(`int(b"8", 8)`), which aborted the whole scan. The tests skip inputs on
which these oracles raise.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field

from trap4phish.analyzers.html import (
    HTML_COLUMNS, _ATTR_RE, _EVENT_ATTR_RE, _HEX_ESCAPE_RE,
    _VOID_ELEMENTS, _iframe_hidden, _url_features,
)
from trap4phish.analyzers.pdf import (
    PDF_COLUMNS, _EMBEDDED_FILE_SUBTYPE_RE, _ENCRYPT_RE, _ACROFORM_RE,
    _ENDSTREAM_RE, _FILTER_NAME_RE, _FONT_RE, _HEADER_RE, _IMAGE_RE,
    _NAME_OBFUSCATION_RE, _PAGE_RE, _PORT_RE, _STARTXREF_RE, _TITLE_HEX_RE,
    _TOKEN_COUNTERS, _TRAILER_RE, _XFA_RE, _name_token,
)
from trap4phish.analyzers.docx import STRUCT_ATTRIBUTES, STRUCT_ELEMENTS, _struct_column
from trap4phish.config import BASE64_MIN_LENGTH, HTML_SUSPICIOUS_KEYWORDS
from trap4phish.core import AnalysisReport, shannon_entropy

# one name="value" attribute pair inside a start tag
ATTR_RE = re.compile(rb'([A-Za-z:_][\w:.-]*)\s*=\s*"([^"]*)"')
# the target of a CSS url(...)
STYLE_URL_RE = re.compile(r"url\(\s*['\"]?([^)'\"]+)['\"]?\s*\)", re.IGNORECASE)

# the five OOXML start-tag patterns
SHEET_RE = re.compile(rb"<sheet\b([^>]*)>")
DEFINED_NAME_RE = re.compile(rb"<definedName\b([^>]*)>")
CELL_TAG_RE = re.compile(rb"<c\b([^>]*)>")
REL_RE = re.compile(rb"<Relationship\b([^>]*)>")
OLE_ELEMENT_RE = re.compile(rb"<(?:o:OLEObject|oleObject)\b([^>]*)>")

# --- pdf ---------------------------------------------------------------------

_OBJ_RE = re.compile(rb"(?<![0-9])(\d{1,10})\s+(\d{1,5})\s+obj(?![A-Za-z0-9])")
_STREAM_RE = re.compile(rb"(?<![A-Za-z])stream(?![A-Za-z])")
_XREF_RE = re.compile(rb"(?<![A-Za-z])xref(?![A-Za-z])")
_XREF_ENTRY_RE = re.compile(rb"\d{10}\s\d{5}\s[nf]")
# the backslash runs that pdf._Literals reads escapes from
BACKSLASHES_RE = re.compile(rb"\\+")
_FILTER_ENTRY_RE = re.compile(rb"/Filter\s*(\[[^\]]*\]|/[A-Za-z0-9#]+)")
_TYPE_METADATA_RE = re.compile(rb"/Type\s*/Metadata(?![A-Za-z])")
_TITLE_LITERAL_RE = re.compile(rb"/Title\s*\(((?:\\.|[^\\)])*)\)", re.DOTALL)
_URI_VALUE_RE = re.compile(rb"/URI\s*\(((?:\\.|[^\\)])*)\)", re.DOTALL)

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

    features = {c: float(values[c]) for c in PDF_COLUMNS}
    return AnalysisReport(source_path, "pdf", features, warnings, parse_failed)


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


# --- docx --------------------------------------------------------------------

_INSTR_TEXT_RE = re.compile(rb"<w:instrText\b[^>]*>(.*?)</w:instrText>", re.DOTALL)


def _instr_text(content: bytes) -> bytes:
    return b"".join(m.group(1) for m in _INSTR_TEXT_RE.finditer(content))


# the structure counters as 36 patterns, one findall pass each over every part
_STRUCT_PATTERNS = {
    **{_struct_column(name): re.compile(rb"\s" + re.escape(name.encode()) + rb"\s*=")
       for name in STRUCT_ATTRIBUTES},
    **{_struct_column(name): re.compile(rb"<" + re.escape(name.encode()) + rb"(?=[\s/>])")
       for name in STRUCT_ELEMENTS},
}


def _struct_counts(parts) -> dict[str, int]:
    counts = dict.fromkeys(_STRUCT_PATTERNS, 0)
    for content in parts:
        for column, pattern in _STRUCT_PATTERNS.items():
            counts[column] += len(pattern.findall(content))
    return counts


# the 36 patterns joined, as one pass counted them; a match's one nonempty
# group is its name
STRUCT_RE = re.compile(
    rb"\s(" + b"|".join(re.escape(n.encode()) for n in STRUCT_ATTRIBUTES) + rb")\s*="
    rb"|<(" + b"|".join(re.escape(n.encode()) for n in STRUCT_ELEMENTS) + rb")(?=[\s/>])"
)

# tried at every offset: the lookbehind comes first
DDE_TOKEN_RE = re.compile(rb"DDEAUTO|(?<![A-Za-z])DDE(?![A-Za-z])")


# --- xlsx --------------------------------------------------------------------

# the VBA metric patterns that began with a lookbehind, by their name in
# trap4phish.analyzers.xlsx
VBA_PATTERNS = {
    "_CHR_RE": re.compile(r"(?<![A-Za-z0-9_])chr(?:w|\$)?\s*\(", re.IGNORECASE),
    "_IF_RE": re.compile(r"(?<![A-Za-z0-9_])if(?![A-Za-z0-9_])", re.IGNORECASE),
    "_LOOP_RE": re.compile(r"(?<![A-Za-z0-9_])(?:for|while|do)(?![A-Za-z0-9_])", re.IGNORECASE),
    "_DECLARE_RE": re.compile(r"(?<![A-Za-z0-9_])declare(?![A-Za-z0-9_])", re.IGNORECASE),
    "_MOD_RE": re.compile(r"(?<![A-Za-z0-9_])mod(?![A-Za-z0-9_])", re.IGNORECASE),
    "_NUM_RE": re.compile(r"(?<![A-Za-z0-9_.$])\d+(?:\.\d+)?(?![A-Za-z0-9_.$])"),
}

_CELL_RE = re.compile(rb"<c\b([^>]*?)(?:/>|>(.*?)</c>)", re.DOTALL)
_V_RE = re.compile(rb"<v[^>]*>(.*?)</v>", re.DOTALL)
_IS_T_RE = re.compile(rb"<t[^>]*>(.*?)</t>", re.DOTALL)
_SI_RE = re.compile(rb"<si>(.*?)</si>", re.DOTALL)
_ROW_RE = re.compile(rb"<row\b([^>]*)>")
_CELL_REF_RE = re.compile(rb"([A-Z]+)(\d+)")
# shared-string indexes and row numbers: int() alone would also take a sign,
# `_` and whitespace
_DIGITS_RE = re.compile(rb"[0-9]+")
MAX_ROW, MAX_COL = 1_048_576, 16_384


def _col_number(letters: bytes) -> int:
    n = 0
    for ch in letters:
        n = n * 26 + (ch - ord("A") + 1)
    return n


def _row_number(digits: bytes) -> int | None:
    """ASCII digits as a row number, None past the sheet's last row."""
    digits = digits.lstrip(b"0") or b"0"
    return int(digits) if len(digits) <= 7 and int(digits) <= MAX_ROW else None


def _shared_strings(content: bytes) -> list[str]:
    out = []
    for m in _SI_RE.finditer(content):
        text = b"".join(t for t in _IS_T_RE.findall(m.group(1)))
        out.append(text.decode("utf-8", errors="replace"))
    return out


def _scan_cells(content: bytes, shared: list[str], strings: list[str]) -> dict:
    numeric = 0
    populated = 0
    max_row = 0
    max_col = 0
    row_ordinal = 0
    for rm in _ROW_RE.finditer(content):
        row_ordinal += 1
        attrs = dict(ATTR_RE.findall(rm.group(1)))
        row_idx = _row_number(attrs[b"r"]) if _DIGITS_RE.fullmatch(attrs.get(b"r", b"")) else None
        max_row = max(max_row, row_ordinal if row_idx is None else row_idx)
    col_ordinal = 0
    for m in _CELL_RE.finditer(content):
        col_ordinal += 1
        attrs = dict(ATTR_RE.findall(m.group(1)))
        body = m.group(2) or b""
        ref = attrs.get(b"r", b"")
        ref_m = _CELL_REF_RE.match(ref)
        col = _col_number(ref_m.group(1)) if ref_m else None
        row = _row_number(ref_m.group(2)) if ref_m else None
        if col is not None and col <= MAX_COL and row is not None:
            max_col = max(max_col, col)
            max_row = max(max_row, row)
        else:
            max_col = max(max_col, col_ordinal)
        ctype = attrs.get(b"t", b"")
        vm = _V_RE.search(body)
        if ctype == b"s":
            if vm is not None:
                populated += 1
                try:
                    if not _DIGITS_RE.fullmatch(vm.group(1)):
                        raise ValueError
                    strings.append(shared[int(vm.group(1))])
                except (ValueError, IndexError):
                    strings.append("")
        elif ctype == b"str":
            if vm is not None:
                populated += 1
                strings.append(vm.group(1).decode("utf-8", errors="replace"))
        elif ctype == b"inlineStr":
            text = b"".join(_IS_T_RE.findall(body))
            populated += 1
            strings.append(text.decode("utf-8", errors="replace"))
        elif vm is not None:
            populated += 1
            try:
                if b"_" in vm.group(1):
                    raise ValueError
                float(vm.group(1))
                numeric += 1
            except ValueError:
                pass
    return {"numeric": numeric, "populated": populated, "max_row": max_row, "max_col": max_col}


# --- html --------------------------------------------------------------------

_WS_BYTES = frozenset(b" \t\r\n\x0b\x0c")
_TAG_NAME_RE = re.compile(r"[a-zA-Z][-a-zA-Z0-9:]*")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_BASE64_RE = re.compile(rb"[A-Za-z0-9+/]{%d,}={0,2}" % BASE64_MIN_LENGTH)
_JS_ESCAPE_RE = re.compile(r"\\u[0-9A-Fa-f]{4}|%u[0-9A-Fa-f]{4}")


@dataclass
class _Tag:
    name: str
    attrs: dict[str, str]
    self_closing: bool


@dataclass
class _TokenStream:
    tags: list[_Tag] = field(default_factory=list)
    events: list[tuple[str, str, bool]] = field(default_factory=list)  # (kind, name, self_closing)
    text_chunks: list[str] = field(default_factory=list)
    comments: int = 0
    scripts: list[tuple[_Tag, str]] = field(default_factory=list)  # (tag, body)
    styles: list[str] = field(default_factory=list)


def _tokenize(text: str) -> _TokenStream:
    out = _TokenStream()
    i = 0
    n = len(text)
    while i < n:
        lt = text.find("<", i)
        if lt < 0:
            out.text_chunks.append(text[i:])
            break
        if lt > i:
            out.text_chunks.append(text[i:lt])
        if text.startswith("<!--", lt):
            end = text.find("-->", lt + 4)
            out.comments += 1
            i = n if end < 0 else end + 3
            continue
        if text.startswith("<!", lt) or text.startswith("<?", lt):
            end = text.find(">", lt)
            i = n if end < 0 else end + 1
            continue
        if text.startswith("</", lt):
            end = text.find(">", lt)
            if end < 0:
                break
            m = _TAG_NAME_RE.match(text, lt + 2)
            if m:
                out.events.append(("end", m.group().lower(), False))
            i = end + 1
            continue
        m = _TAG_NAME_RE.match(text, lt + 1)
        if not m:
            # stray "<": treat as text and continue after it
            out.text_chunks.append("<")
            i = lt + 1
            continue
        name = m.group().lower()
        end = text.find(">", m.end())
        if end < 0:
            break
        inner = text[m.end():end]
        self_closing = inner.rstrip().endswith("/")
        attrs = {}
        for am in _ATTR_RE.finditer(inner):
            key = am.group(1).lower()
            raw = am.group(2) or ""
            if raw[:1] in ("'", '"'):
                raw = raw[1:-1] if raw[-1:] == raw[:1] else raw[1:]
            attrs.setdefault(key, raw)
        tag = _Tag(name, attrs, self_closing)
        out.tags.append(tag)
        out.events.append(("start", name, self_closing))
        i = end + 1
        if name in ("script", "style") and not self_closing:
            close = text.lower().find(f"</{name}", i)
            body = text[i:] if close < 0 else text[i:close]
            if name == "script":
                out.scripts.append((tag, body))
            else:
                out.styles.append(body)
            i = n if close < 0 else close
    return out


def analyze_html(
    data: bytes,
    page_host: str | None = None,
    source_path: str = "<bytes>",
) -> AnalysisReport:
    """Extract the full 40-column HTML feature vector from raw markup bytes.

    `page_host` anchors internal/external link classification; when absent,
    a `<base href>` host is used, else relative links count as internal and
    absolute ones as external.
    """
    warnings: list[str] = []
    values = dict.fromkeys(HTML_COLUMNS, 0.0)
    text = data.decode("utf-8", errors="replace")

    values["file_size"] = float(len(data))
    values["line_count"] = float(len(data.splitlines()))
    values["entropy"] = shannon_entropy(data)
    if data:
        ws = sum(1 for b in data if b in _WS_BYTES)
        values["html_whitespace_ratio"] = ws / len(data)

    stream = _tokenize(text)

    # tag structure
    values["tag_count"] = float(len(stream.tags))
    values["unique_tag_count"] = float(len({t.name for t in stream.tags}))
    values["max_nesting_depth"] = float(_max_depth(stream))
    values["comment_count"] = float(stream.comments)
    values["noscript_count"] = float(sum(1 for t in stream.tags if t.name == "noscript"))
    values["object_tag_count"] = float(sum(1 for t in stream.tags if t.name == "object"))
    values["form_count"] = float(sum(1 for t in stream.tags if t.name == "form"))
    values["img_tag_count"] = float(sum(1 for t in stream.tags if t.name == "img"))
    values["event_handler_count"] = float(
        sum(1 for t in stream.tags for a in t.attrs if _EVENT_ATTR_RE.match(a))
    )

    # iframes
    iframes = [t for t in stream.tags if t.name == "iframe"]
    values["iframe_count"] = float(len(iframes))
    values["hidden_iframe_count"] = float(sum(1 for t in iframes if _iframe_hidden(t)))

    # scripts
    script_tags = [t for t in stream.tags if t.name == "script"]
    embedded = [body for tag, body in stream.scripts if "src" not in tag.attrs]
    values["script_block_count"] = float(len(script_tags))
    values["external_script_count"] = float(sum(1 for t in script_tags if "src" in t.attrs))
    values["embedded_js_count"] = float(
        sum(1 for t in script_tags if "src" not in t.attrs)
    )
    values["total_script_characters"] = float(sum(len(b) for b in embedded))
    if embedded:
        values["script_entropy"] = sum(
            shannon_entropy(b.encode("utf-8", "replace")) for b in embedded
        ) / len(embedded)
        joined = "\n".join(embedded)
        values["eval_count"] = float(joined.count("eval("))
        values["location_redirect_count"] = float(joined.count("window.location"))

    # redirection
    values["meta_refresh_count"] = float(
        sum(
            1
            for t in stream.tags
            if t.name == "meta" and t.attrs.get("http-equiv", "").lower() == "refresh"
        )
    )

    # obfuscation
    values["base64_occurrence_count"] = float(len(_BASE64_RE.findall(data)))
    values["hex_escape_count"] = float(len(_HEX_ESCAPE_RE.findall(text)))
    values["js_escape_count"] = float(len(_JS_ESCAPE_RE.findall(text)))

    # visible text and suspicious keywords
    visible = "".join(stream.text_chunks)
    if visible:
        values["whitespace_ratio"] = sum(1 for ch in visible if ch.isspace()) / len(visible)
    lowered = visible.lower()
    keyword_hits = sum(lowered.count(k) for k in HTML_SUSPICIOUS_KEYWORDS)
    values["suspicious_keyword_count"] = float(keyword_hits)
    words = len(_WORD_RE.findall(visible))
    values["keyword_text_ratio"] = keyword_hits / words if words else 0.0

    _url_features(stream, values, page_host)

    features = {c: float(values[c]) for c in HTML_COLUMNS}
    return AnalysisReport(source_path, "html", features, warnings, False)


def _max_depth(stream: _TokenStream) -> int:
    # Replay tag events against a stack; implied closes for <p>/<li> only,
    # void and self-closing elements do not nest.
    depth = 0
    stack: list[str] = []
    for kind, name, self_closing in stream.events:
        if kind == "start":
            if name in ("p", "li") and stack and stack[-1] == name:
                stack.pop()
            if name in _VOID_ELEMENTS or self_closing:
                depth = max(depth, len(stack) + 1)
                continue
            stack.append(name)
            depth = max(depth, len(stack))
        else:
            if name in stack:
                while stack and stack[-1] != name:
                    stack.pop()
                if stack:
                    stack.pop()
    return depth
