r"""Excel workbook analyzer: 48 features over cell content, VBA macro code
metrics, behavioral indicators, sheet properties and embedded media, plus the
top-10 projection.

Worksheet rows and cells and the shared-string table are each read by one
`finditer` pass over the part (`_elements`). Its pattern reads an element in
the shapes writers produce, attributes in any order, `<f>` before `<v>`, and
gives the reference, type, first value and inline text as groups, so a cell
costs one match and a few comparisons. Any other opener is read by the
forward scanners (`_read_cell`, `_read_row`, `_read_si`,
`ooxml.element_spans`), which find exactly what `re.finditer` finds for the
DOTALL patterns
    <c\b([^>]*?)(?:/>|>(.*?)</c>)    <v[^>]*>(.*?)</v>    <row\b([^>]*)>
    <t[^>]*>(.*?)</t>                <si>(.*?)</si>
Each element is read once, one way or the other, and neither way runs past
the next opener when an element is unclosed. A cell left open with no `</c>`
after it can be followed only by self-closing cells, and
`_self_closing_cells` reads the rest of the part for those, by the bounded
start-tag search in `ooxml` that the sheet and defined-name reads use too.
So a part is read in linear time whatever its mix of shapes.

A reference past Excel's sheet limits, column XFD (16,384) or row
1,048,576, names no cell and counts as no reference, like a malformed one:
the row or cell then counts by its position in the part.
"""

from __future__ import annotations

import re

from ..config import AUTO_EXEC_NAMES, BASE64_MIN_LENGTH, XLSX_API_KEYWORDS
from ..core import AnalysisReport, FeatureSchema, FeatureVector, shannon_entropy
from ..containers import ContainerError
from .ooxml import (
    ATTR_RE, count_keywords, element_spans, extract_vba_sources, open_archive,
    parse_relationships, read_xml_parts, start_tags, tag_attributes,
)

SCHEMA_VERSION = 1

# VBA macro metrics, in xlsx column order (`compute_macro_metrics`)
MACRO_METRIC_NAMES = (
    # structure
    "line_count", "token_count", "vocab_size", "sub_count", "function_count", "max_line_length",
    "if_count", "loop_count", "comment_count", "string_literal_count", "declare_count",
    # advanced
    "chr_count", "arithmetic_operator_count", "concat_count", "hex_literal_count", "long_line_count",
    "max_string_length", "numeric_literal_count",
)

XLSX_COLUMNS = (
    # basic metadata
    "file_size", "entropy_of_file", "sheet_count", "max_rows", "max_cols",
    # cell content
    "numeric_cell_count", "string_cell_count", "empty_cell_ratio",
    "avg_cell_length", "max_cell_length", "entropy_of_text", "base64_cell_count",
    # formulas and hyperlinks
    "formula_count", "hyperlink_count",
) + tuple("macro_" + name for name in MACRO_METRIC_NAMES) + (
    # behavioral indicators
    "remote_template_present", "external_reference_count", "url_in_cell_count",
    "api_keyword_count", "auto_exec_name_present",
    # sheet properties
    "hidden_sheet_count", "very_hidden_sheet_count", "protected_sheet_count",
    "chart_sheet_count", "defined_name_count", "suspicious_defined_name_count",
    # embedded media
    "embedded_image_count", "largest_image_bytes", "image_type_count",
    "drawing_part_count", "media_entry_count",
)

SCHEMA = FeatureSchema("xlsx", XLSX_COLUMNS, SCHEMA_VERSION)
SELECTED = SCHEMA.project((
    "entropy_of_text",
    "macro_chr_count",
    "macro_vocab_size",
    "macro_arithmetic_operator_count",
    "macro_token_count",
    "macro_max_line_length",
    "remote_template_present",
    "numeric_cell_count",
    "string_cell_count",
    "avg_cell_length",
))

# The keyword and number patterns start with their word, a digit or a
# lookahead of one class, and any lookbehind comes after that, so a match
# attempt where no match can start fails at its first test.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_.$]+|[^\sA-Za-z0-9_.$]")
_CHR_RE = re.compile(r"chr(?<![A-Za-z0-9_]chr)(?:w|\$)?\s*\(", re.IGNORECASE)
_STRING_RE = re.compile(r'"[^"\n]*"')
_SUB_RE = re.compile(r"^\s*(?:public\s+|private\s+|friend\s+)?sub\s+\w", re.IGNORECASE | re.MULTILINE)
_FUNC_RE = re.compile(r"^\s*(?:public\s+|private\s+|friend\s+)?function\s+\w", re.IGNORECASE | re.MULTILINE)
_IF_RE = re.compile(r"if(?<![A-Za-z0-9_]if)(?![A-Za-z0-9_])", re.IGNORECASE)
# the first letters as a lookahead: with a lookbehind after each word, the
# alternation is still entered at every character, about as slowly as with
# the lookbehind first
_LOOP_RE = re.compile(r"(?=[dfw])(?<![A-Za-z0-9_])(?:for|while|do)(?![A-Za-z0-9_])", re.IGNORECASE)
_DECLARE_RE = re.compile(r"declare(?<![A-Za-z0-9_]declare)(?![A-Za-z0-9_])", re.IGNORECASE)
_MOD_RE = re.compile(r"mod(?<![A-Za-z0-9_]mod)(?![A-Za-z0-9_])", re.IGNORECASE)
_HEX_RE = re.compile(r"&H[0-9A-Fa-f]+", re.IGNORECASE)
_NUM_RE = re.compile(r"\d(?<![A-Za-z0-9_.$]\d)\d*(?:\.\d+)?(?![A-Za-z0-9_.$])")
_ARITH_CHARS = set("+-*/\\^")

LONG_LINE_THRESHOLD = 200


def compute_macro_metrics(source: str) -> dict[str, int]:
    """Lexical complexity/obfuscation metrics for one VBA source text, keyed
    by `MACRO_METRIC_NAMES` in that order.

    Tokens are maximal runs of [A-Za-z0-9_.$] plus single-character operator
    tokens; no grammar is involved. Every metric of empty source is 0.
    """
    if not source:
        return dict.fromkeys(MACRO_METRIC_NAMES, 0)
    lines = source.split("\n")
    tokens = _TOKEN_RE.findall(source)
    masked = _STRING_RE.sub(lambda m: '"' + " " * (len(m.group()) - 2) + '"', source)
    strings = [m.group()[1:-1] for m in _STRING_RE.finditer(source)]
    arithmetic = sum(map(masked.count, _ARITH_CHARS)) + len(_MOD_RE.findall(masked))
    return {
        "line_count": len(lines),
        "token_count": len(tokens),
        "vocab_size": len(set(tokens)),
        "sub_count": len(_SUB_RE.findall(source)),
        "function_count": len(_FUNC_RE.findall(source)),
        "max_line_length": max(len(line) for line in lines),
        "if_count": len(_IF_RE.findall(masked)),
        "loop_count": len(_LOOP_RE.findall(masked)),
        "comment_count": sum(1 for line in lines
                             if line.lstrip().startswith("'") or line.lstrip().lower().startswith("rem ")),
        "string_literal_count": len(strings),
        "declare_count": len(_DECLARE_RE.findall(masked)),
        "chr_count": len(_CHR_RE.findall(source)),
        "arithmetic_operator_count": arithmetic,
        "concat_count": masked.count("&") - len(_HEX_RE.findall(masked)),
        "hex_literal_count": len(_HEX_RE.findall(source)),
        "long_line_count": sum(1 for line in lines if len(line.rstrip()) > LONG_LINE_THRESHOLD),
        "max_string_length": max((len(s) for s in strings), default=0),
        "numeric_literal_count": len(_NUM_RE.findall(masked)),
    }


_SHEET_RE = re.compile(rb"<sheet\b([^>]*)>")
_F_RE = re.compile(rb"<f[\s/>]")
_HYPERLINK_RE = re.compile(rb"<hyperlink[\s/>]")
_SHEETPROT_RE = re.compile(rb"<sheetProtection[\s/>]")
_EXTREF_RE = re.compile(rb"<externalReference[\s/>]")
_DEFINED_NAME_RE = re.compile(rb"<definedName\b([^>]*)>")
# Excel's sheet limits, column XFD (16,384) and row 1,048,576: a reference
# past either names no cell and counts as none.
_COLUMN = rb"([A-Z]{1,2}|[A-W][A-Z]{2}|X[A-E][A-Z]|XF[A-D])"
_ROW_NUMBER = (rb"0*(0|[1-9][0-9]{0,5}|10[0-3][0-9]{4}|104[0-7][0-9]{3}|1048[0-4][0-9]{2}"
               rb"|10485[0-6][0-9]|104857[0-6])")
# `([A-Z]+)(\d+)` matched at the start of a cell's r, and a row's r whole
_CELL_REF_RE = re.compile(_COLUMN + _ROW_NUMBER + rb"(?![0-9])")
_ROW_REF_RE = re.compile(_ROW_NUMBER)

# Each pass pattern is an opener, then optionally the element in the shapes
# writers produce: name="value" attributes in any order with an r within the
# limits, a cell body of <f>, <v> and <is><t> in schema order, an <si> of one
# <t>. Its last group, a `>`, takes part exactly when that shape matched.
# Nothing in a fast shape crosses a `<` but its own tags, so no match attempt
# runs past the next opener.
# name="value", the name not r
_OTHER_ATTRIBUTE = rb'(?:[A-Za-qs-z:_]|r[\w:.-])[\w:.-]*\s*=\s*"[^"<>]*"'
# groups: column, row, t, first <v> value, inline text, ">"
_CELL_RE = re.compile(
    rb'<c\b(?:(?:\s+(?:r\s*=\s*"' + _COLUMN + _ROW_NUMBER + rb'"|t\s*=\s*"([^"<>]*)"|' + _OTHER_ATTRIBUTE
    + rb"))*\s*(?:/|>(?:<f(?:\s[^<>]*)?(?:/>|>[^<]*</f>))?(?:<v>([^<]*)</v>)?"
    rb"(?:<is><t(?:\s[^<>]*)?>([^<]*)</t></is>)?</c)(>))?"
)
# groups: row, ">"
_ROW_RE = re.compile(rb'<row\b(?:(?:\s+(?:r\s*=\s*"' + _ROW_NUMBER + rb'"|' + _OTHER_ATTRIBUTE + rb"))*\s*/?(>))?")
# groups: text, ">"
_SI_RE = re.compile(rb"<si>(?:(?:<t(?:\s[^<>]*)?>([^<]*)</t>)?</si(>))?")
# a cell's start tag, for `_self_closing_cells`
_CELL_TAG_RE = re.compile(rb"<c\b([^>]*)>")
_STRING_KINDS = frozenset((b"s", b"str", b"inlineStr"))
_WORKSHEET_PART_RE = re.compile(r"^xl/worksheets/[^/]+\.xml$")
_IMAGE_EXTENSIONS = {"png", "jpg", "jpeg", "gif", "bmp", "tif", "tiff", "emf", "wmf", "svg"}
_BASE64_CELL_RE = re.compile(r"^[A-Za-z0-9+/]{%d,}={0,2}$" % BASE64_MIN_LENGTH)
_API_KEYWORDS = tuple(keyword.encode() for keyword in XLSX_API_KEYWORDS)
_AUTO_EXEC_RE = re.compile(
    r"(?i)\b(?:sub|function)\s+(" + "|".join(re.escape(n) for n in AUTO_EXEC_NAMES) + r")\b"
)


def analyze_xlsx(data: bytes, source_path: str = "<bytes>") -> AnalysisReport:
    """Extract the full 48-column Excel feature vector from raw .xlsx/.xlsm bytes."""
    warnings: list[str] = []
    values = dict.fromkeys(XLSX_COLUMNS, 0.0)
    values["file_size"] = float(len(data))
    values["entropy_of_file"] = shannon_entropy(data)

    archive = open_archive(data, warnings)
    if archive is not None:
        try:
            _extract_from_archive(archive, values, warnings)
        except ContainerError as exc:
            warnings.append(f"workbook: {exc}")

    vector = FeatureVector(SCHEMA, [values[c] for c in XLSX_COLUMNS])
    return AnalysisReport(source_path, "xlsx", vector, warnings, archive is None)


def _extract_from_archive(archive, values, warnings) -> None:
    parts = read_xml_parts(archive, warnings)
    workbook = parts.get("xl/workbook.xml", b"")

    sheet_states = [attrs.get("state", "visible") for attrs in tag_attributes(_SHEET_RE, workbook)]
    values["sheet_count"] = float(len(sheet_states))
    values["hidden_sheet_count"] = float(sum(1 for s in sheet_states if s == "hidden"))
    values["very_hidden_sheet_count"] = float(sum(1 for s in sheet_states if s == "veryHidden"))

    defined_names = tag_attributes(_DEFINED_NAME_RE, workbook)
    values["defined_name_count"] = float(len(defined_names))
    suspicious_names = 0
    for attrs in defined_names:
        name = attrs.get("name", "").lower()
        if name in AUTO_EXEC_NAMES or name.startswith("auto_"):
            suspicious_names += 1
    values["suspicious_defined_name_count"] = float(suspicious_names)

    values["external_reference_count"] = float(
        len(_EXTREF_RE.findall(workbook))
        + sum(1 for e in archive.entries if e.name.startswith("xl/externalLinks/") and e.name.endswith(".xml"))
    )

    shared = _shared_strings(parts.get("xl/sharedStrings.xml", b""))
    sheet_parts = [name for name in parts if _WORKSHEET_PART_RE.match(name)]

    strings: list[str] = []
    numeric_cells = 0
    populated = 0
    grid = 0
    max_row = 0
    max_col = 0
    formula_count = 0
    hyperlink_count = 0
    protection_count = 0
    for name in sorted(sheet_parts):
        content = parts[name]
        formula_count += len(_F_RE.findall(content))
        hyperlink_count += len(_HYPERLINK_RE.findall(content))
        protection_count += len(_SHEETPROT_RE.findall(content))
        stats = _scan_cells(content, shared, strings)
        numeric_cells += stats["numeric"]
        populated += stats["populated"]
        if stats["max_row"] and stats["max_col"]:
            grid += stats["max_row"] * stats["max_col"]
        max_row = max(max_row, stats["max_row"])
        max_col = max(max_col, stats["max_col"])

    values["numeric_cell_count"] = float(numeric_cells)
    values["string_cell_count"] = float(len(strings))
    values["max_rows"] = float(max_row)
    values["max_cols"] = float(max_col)
    values["formula_count"] = float(formula_count)
    values["hyperlink_count"] = float(hyperlink_count)
    values["protected_sheet_count"] = float(protection_count)
    values["empty_cell_ratio"] = max(0.0, 1.0 - populated / grid) if grid else 0.0
    if strings:
        values["avg_cell_length"] = sum(len(s) for s in strings) / len(strings)
        values["max_cell_length"] = float(max(len(s) for s in strings))
        values["entropy_of_text"] = shannon_entropy("".join(strings).encode("utf-8"))
        values["base64_cell_count"] = float(sum(1 for s in strings if _BASE64_CELL_RE.match(s)))
        values["url_in_cell_count"] = float(
            sum(1 for s in map(str.lower, strings) if "http://" in s or "https://" in s)
        )

    values["chart_sheet_count"] = float(
        sum(1 for e in archive.entries if e.name.startswith("xl/chartsheets/") and e.name.endswith(".xml"))
    )

    # VBA macro metrics over the concatenated module sources.
    sources = extract_vba_sources(archive, warnings)
    combined = "\n".join(sources)
    for name, value in compute_macro_metrics(combined).items():
        values["macro_" + name] = float(value)

    values["api_keyword_count"] = float(count_keywords(combined, _API_KEYWORDS))

    if _AUTO_EXEC_RE.search(combined) or suspicious_names:
        values["auto_exec_name_present"] = 1.0

    _scan_relationships(parts, values)
    _scan_media(archive, values)


def _text_runs(content: bytes, start: int, end: int) -> bytes:
    """The text of every closed <t> element in content[start:end], joined."""
    return b"".join(content[s:e] for s, e in element_spans(content, b"<t", b"</t>", start, end))


def _elements(pattern: re.Pattern, content: bytes, closer: bytes, read_other):
    """The groups of each element in `content`, in order. Where `pattern`
    matched its fast shape they are the match's groups. At any other opener
    `read_other(content, start, last)` reads on from there, where `last` is
    the offset of the part's last `closer`: it returns the groups of the
    elements it read and the offset before which later openers are inside
    those elements or cannot start one."""
    last = content.rfind(closer)
    resume = 0
    for m in pattern.finditer(content):
        if resume:
            if m.start() < resume:
                continue
            resume = 0
        groups = m.groups()
        if groups[-1] is not None:
            yield groups
            continue
        elements, resume = read_other(content, m.start(), last)
        yield from elements
        if resume == len(content):
            return


def _read_cell(content: bytes, start: int, last: int):
    r"""The cells that `<c\b([^>]*?)(?:/>|>(.*?)</c>)` matches from `start`
    on. `[^>]*?` runs to the first `>`, which closes the cell when a `/`
    precedes it and otherwise opens a body that runs to the first `</c>`.
    When that body has no `</c>`, neither has any later one."""
    attrs = start + 2
    gt = content.find(b">", attrs)
    if gt < 0:
        return (), len(content)
    if content[gt - 1] == 0x2F:  # "/>"
        return (_cell_groups(content, content[attrs:gt - 1], gt, gt),), gt + 1
    if last <= gt:
        return _self_closing_cells(content, gt + 1), len(content)
    close = content.find(b"</c>", gt + 1)
    return (_cell_groups(content, content[attrs:gt], gt + 1, close),), close + 4


def _self_closing_cells(content: bytes, start: int):
    """The cells from `start` on where no `</c>` follows: the openers whose
    first `>` has a `/` before it."""
    for m in start_tags(_CELL_TAG_RE, content, start):
        attrs = m.group(1)
        if attrs.endswith(b"/"):
            yield _cell_groups(content, attrs[:-1], m.end() - 1, m.end() - 1)


def _cell_groups(content: bytes, attr_bytes: bytes, start: int, end: int) -> tuple:
    """The groups of `_CELL_RE` for a cell with these attributes and body."""
    attrs = dict(ATTR_RE.findall(attr_bytes))
    ref = _CELL_REF_RE.match(attrs.get(b"r", b""))
    column, number = ref.groups() if ref else (None, None)
    kind = attrs.get(b"t")
    text = _text_runs(content, start, end) if kind == b"inlineStr" else None
    value = next((content[s:e] for s, e in element_spans(content, b"<v", b"</v>", start, end)), None)
    return column, number, kind, value, text, b">"


def _read_row(content: bytes, start: int, last: int):
    r"""The row that `<row\b([^>]*)>` matches at `start`."""
    attrs = start + 4
    if last < attrs:
        return (), len(content)
    gt = content.find(b">", attrs)
    ref = _ROW_REF_RE.fullmatch(dict(ATTR_RE.findall(content[attrs:gt])).get(b"r", b""))
    return ((ref and ref.group(1), b">"),), gt + 1


def _read_si(content: bytes, start: int, last: int):
    """The shared string that `<si>(.*?)</si>` matches at `start`."""
    body = start + 4
    if last < body:
        return (), len(content)
    close = content.find(b"</si>", body)
    return ((_text_runs(content, body, close), b">"),), close + 5


def _shared_strings(content: bytes) -> list[str]:
    return [text.decode("utf-8", errors="replace") if text else ""
            for text, _ in _elements(_SI_RE, content, b"</si>", _read_si)]


def _index(digits: bytes) -> int | None:
    """A shared-string index, which is ASCII digits alone. int() would also
    take a sign, `_` between digits and whitespace around them, so `-1`
    would index from the end and `1_0` read as 10."""
    if not digits.isdigit():  # bytes.isdigit is ASCII-only
        return None
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        return None


def _scan_cells(content: bytes, shared: list[str], strings: list[str]) -> dict:
    # a row or cell with no reference within the sheet limits counts by its
    # position among the part's rows or cells. A row's cells share its
    # number, so int() runs once per run of cells with the same number, and
    # `_col_number` once per distinct column, of which there are at most
    # 16,384.
    max_row = max_col = 0
    for position, (number, _) in enumerate(_elements(_ROW_RE, content, b">", _read_row), 1):
        max_row = max(max_row, position if number is None else int(number))
    columns = set()
    row = None
    numeric = populated = 0
    for position, (column, number, kind, value, text, _) in enumerate(
            _elements(_CELL_RE, content, b"</c>", _read_cell), 1):
        if column is None:
            max_col = position
        else:
            columns.add(column)
            if number != row:
                row = number
                max_row = max(max_row, int(number))
        if kind not in _STRING_KINDS:
            # a cell of any other type counts when it has a value, and as
            # numeric when float() reads that value
            if value is not None:
                populated += 1
                if value.isdigit():  # ASCII digits, which float() reads
                    numeric += 1
                else:
                    try:
                        float(value)
                        if b"_" not in value:  # float() takes "1_0"
                            numeric += 1
                    except ValueError:
                        pass
        elif kind == b"inlineStr":
            populated += 1
            strings.append(text.decode("utf-8", errors="replace") if text else "")
        elif value is not None:
            populated += 1
            if kind == b"s":
                index = _index(value)
                strings.append(shared[index] if index is not None and index < len(shared) else "")
            else:
                strings.append(value.decode("utf-8", errors="replace"))
    max_col = max(max_col, max(map(_col_number, columns), default=0))
    return {"numeric": numeric, "populated": populated, "max_row": max_row, "max_col": max_col}


def _col_number(letters: bytes) -> int:
    n = 0
    for ch in letters:
        n = n * 26 + (ch - ord("A") + 1)
    return n


def _scan_relationships(parts, values) -> None:
    for rel in parse_relationships(parts):
        rel_type = rel.get("Type", "")
        target = rel.get("Target", "").lower()
        external = rel.get("TargetMode", "") == "External"
        if rel_type.endswith("/attachedTemplate"):
            values["remote_template_present"] = 1.0
        elif (
            external
            and (target.startswith("http://") or target.startswith("https://"))
            and not rel_type.endswith("/hyperlink")
            and rel.get("_part", "").startswith("xl/")
        ):
            values["remote_template_present"] = 1.0


def _scan_media(archive, values) -> None:
    media = [e for e in archive.entries if e.name.startswith("xl/media/") and not e.name.endswith("/")]
    values["media_entry_count"] = float(len(media))
    extensions = set()
    largest = 0
    images = 0
    for e in media:
        tail = e.name.rsplit("/", 1)[-1]
        ext = tail.rsplit(".", 1)[-1].lower() if "." in tail else ""
        extensions.add(ext)
        largest = max(largest, e.uncompressed_size)
        if ext in _IMAGE_EXTENSIONS:
            images += 1
    values["embedded_image_count"] = float(images)
    values["largest_image_bytes"] = float(largest)
    values["image_type_count"] = float(len(extensions))
    values["drawing_part_count"] = float(
        sum(1 for e in archive.entries if e.name.startswith("xl/drawings/") and e.name.endswith(".xml"))
    )
