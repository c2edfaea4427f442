"""Excel workbook analyzer: 48 features over cell content, VBA macro code
metrics, behavioral indicators, sheet properties and embedded media, plus the
top-10 projection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from ..config import Config, default_config
from ..core import AnalysisReport, FeatureSchema, FeatureVector, count_pattern, shannon_entropy
from ..containers import ContainerError
from .ooxml import ATTR_RE, extract_vba_sources, open_archive, parse_relationships, read_xml_parts

SCHEMA_VERSION = 1

@dataclass
class MacroMetrics:
    """Lexical metrics over VBA source text.

    Tokens are maximal runs of [A-Za-z0-9_.$] plus single-character operator
    tokens; no grammar is involved. All counts are zero for empty source.
    """

    # structure
    line_count: int = 0
    token_count: int = 0
    vocab_size: int = 0
    sub_count: int = 0
    function_count: int = 0
    max_line_length: int = 0
    if_count: int = 0
    loop_count: int = 0
    comment_count: int = 0
    string_literal_count: int = 0
    declare_count: int = 0
    # advanced
    chr_count: int = 0
    arithmetic_operator_count: int = 0
    concat_count: int = 0
    hex_literal_count: int = 0
    long_line_count: int = 0
    max_string_length: int = 0
    numeric_literal_count: int = 0


MACRO_METRIC_NAMES = tuple(f.name for f in fields(MacroMetrics))

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

_TOKEN_RE = re.compile(r"[A-Za-z0-9_.$]+|[^\sA-Za-z0-9_.$]")
_CHR_RE = re.compile(r"(?<![A-Za-z0-9_])chr(?:w|\$)?\s*\(", re.IGNORECASE)
_STRING_RE = re.compile(r'"[^"\n]*"')
_SUB_RE = re.compile(r"^\s*(?:public\s+|private\s+|friend\s+)?sub\s+\w", re.IGNORECASE | re.MULTILINE)
_FUNC_RE = re.compile(r"^\s*(?:public\s+|private\s+|friend\s+)?function\s+\w", re.IGNORECASE | re.MULTILINE)
_IF_RE = re.compile(r"(?<![A-Za-z0-9_])if(?![A-Za-z0-9_])", re.IGNORECASE)
_LOOP_RE = re.compile(r"(?<![A-Za-z0-9_])(?:for|while|do)(?![A-Za-z0-9_])", re.IGNORECASE)
_DECLARE_RE = re.compile(r"(?<![A-Za-z0-9_])declare(?![A-Za-z0-9_])", re.IGNORECASE)
_MOD_RE = re.compile(r"(?<![A-Za-z0-9_])mod(?![A-Za-z0-9_])", re.IGNORECASE)
_HEX_RE = re.compile(r"&H[0-9A-Fa-f]+", re.IGNORECASE)
_NUM_RE = re.compile(r"(?<![A-Za-z0-9_.$])\d+(?:\.\d+)?(?![A-Za-z0-9_.$])")
_ARITH_CHARS = set("+-*/\\^")

LONG_LINE_THRESHOLD = 200


def compute_macro_metrics(source: str) -> MacroMetrics:
    """Lexical complexity/obfuscation metrics for one VBA source text."""
    if not source:
        return MacroMetrics()
    lines = source.split("\n")
    tokens = _TOKEN_RE.findall(source)
    masked = _STRING_RE.sub(lambda m: '"' + " " * (len(m.group()) - 2) + '"', source)
    strings = [m.group()[1:-1] for m in _STRING_RE.finditer(source)]
    arithmetic = sum(1 for ch in masked if ch in _ARITH_CHARS) + len(_MOD_RE.findall(masked))
    return MacroMetrics(
        line_count=len(lines),
        token_count=len(tokens),
        vocab_size=len(set(tokens)),
        sub_count=len(_SUB_RE.findall(source)),
        function_count=len(_FUNC_RE.findall(source)),
        max_line_length=max(len(line) for line in lines),
        if_count=len(_IF_RE.findall(masked)),
        loop_count=len(_LOOP_RE.findall(masked)),
        comment_count=sum(1 for line in lines
                          if line.lstrip().startswith("'") or line.lstrip().lower().startswith("rem ")),
        string_literal_count=len(strings),
        declare_count=len(_DECLARE_RE.findall(masked)),
        chr_count=len(_CHR_RE.findall(source)),
        arithmetic_operator_count=arithmetic,
        concat_count=masked.count("&") - len(_HEX_RE.findall(masked)),
        hex_literal_count=len(_HEX_RE.findall(source)),
        long_line_count=sum(1 for line in lines if len(line.rstrip()) > LONG_LINE_THRESHOLD),
        max_string_length=max((len(s) for s in strings), default=0),
        numeric_literal_count=len(_NUM_RE.findall(masked)),
    )


_SHEET_RE = re.compile(rb"<sheet\b([^>]*)>")
_ROW_RE = re.compile(rb"<row\b([^>]*)>")
_CELL_RE = re.compile(rb"<c\b([^>]*?)(?:/>|>(.*?)</c>)", re.DOTALL)
_V_RE = re.compile(rb"<v[^>]*>(.*?)</v>", re.DOTALL)
_IS_T_RE = re.compile(rb"<t[^>]*>(.*?)</t>", re.DOTALL)
_SI_RE = re.compile(rb"<si>(.*?)</si>", re.DOTALL)
_F_RE = re.compile(rb"<f[\s/>]")
_HYPERLINK_RE = re.compile(rb"<hyperlink[\s/>]")
_SHEETPROT_RE = re.compile(rb"<sheetProtection[\s/>]")
_EXTREF_RE = re.compile(rb"<externalReference[\s/>]")
_DEFINED_NAME_RE = re.compile(rb"<definedName\b([^>]*)>")
_CELL_REF_RE = re.compile(rb"([A-Z]+)(\d+)")
_WORKSHEET_PART_RE = re.compile(r"^xl/worksheets/[^/]+\.xml$")
_IMAGE_EXTENSIONS = {"png", "jpg", "jpeg", "gif", "bmp", "tif", "tiff", "emf", "wmf", "svg"}
_BASE64_CELL_RE = re.compile(r"^[A-Za-z0-9+/]{24,}={0,2}$")


def analyze_xlsx(data: bytes, source_path: str = "<bytes>", config: Config | None = None) -> AnalysisReport:
    """Extract the full 48-column Excel feature vector from raw .xlsx/.xlsm bytes."""
    config = config or default_config()
    warnings: list[str] = []
    values = dict.fromkeys(XLSX_COLUMNS, 0.0)
    values["file_size"] = float(len(data))
    values["entropy_of_file"] = shannon_entropy(data)

    archive = open_archive(data, warnings)
    if archive is not None:
        try:
            _extract_from_archive(archive, values, warnings, config)
        except ContainerError as exc:
            warnings.append(f"workbook: {exc}")

    vector = FeatureVector(SCHEMA, [values[c] for c in XLSX_COLUMNS])
    return AnalysisReport(source_path, "xlsx", vector, warnings, archive is None)


def _extract_from_archive(archive, values, warnings, config: Config) -> None:
    parts = read_xml_parts(archive, warnings)
    workbook = parts.get("xl/workbook.xml", b"")

    sheet_states = []
    for m in _SHEET_RE.finditer(workbook):
        attrs = dict(ATTR_RE.findall(m.group(1)))
        sheet_states.append(attrs.get(b"state", b"visible"))
    values["sheet_count"] = float(len(sheet_states))
    values["hidden_sheet_count"] = float(sum(1 for s in sheet_states if s == b"hidden"))
    values["very_hidden_sheet_count"] = float(sum(1 for s in sheet_states if s == b"veryHidden"))

    defined_names = [dict(ATTR_RE.findall(m.group(1))) for m in _DEFINED_NAME_RE.finditer(workbook)]
    values["defined_name_count"] = float(len(defined_names))
    suspicious_names = 0
    for attrs in defined_names:
        name = attrs.get(b"name", b"").decode("utf-8", "replace").lower()
        if name in config.auto_exec_names or name.startswith("auto_"):
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
            sum(1 for s in strings if "http://" in s.lower() or "https://" in s.lower())
        )

    values["chart_sheet_count"] = float(
        sum(1 for e in archive.entries if e.name.startswith("xl/chartsheets/") and e.name.endswith(".xml"))
    )

    # VBA macro metrics over the concatenated module sources.
    sources = extract_vba_sources(archive, warnings)
    combined = "\n".join(sources)
    metrics = compute_macro_metrics(combined)
    for field_name in MACRO_METRIC_NAMES:
        values["macro_" + field_name] = float(getattr(metrics, field_name))

    api_hits = 0
    raw_combined = combined.encode("utf-8", errors="replace")
    for keyword in config.xlsx_api_keywords:
        api_hits += count_pattern(raw_combined, keyword.encode(), case_insensitive=True) if combined else 0
    values["api_keyword_count"] = float(api_hits)

    auto_exec = re.compile(
        r"(?i)\b(?:sub|function)\s+(" + "|".join(re.escape(n) for n in config.auto_exec_names) + r")\b"
    )
    if (combined and auto_exec.search(combined)) or suspicious_names:
        values["auto_exec_name_present"] = 1.0

    _scan_relationships(parts, values)
    _scan_media(archive, values)


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
        try:
            row_idx = int(attrs.get(b"r", row_ordinal))
        except ValueError:
            row_idx = row_ordinal
        max_row = max(max_row, row_idx)
    col_ordinal = 0
    for m in _CELL_RE.finditer(content):
        col_ordinal += 1
        attrs = dict(ATTR_RE.findall(m.group(1)))
        body = m.group(2) or b""
        ref = attrs.get(b"r", b"")
        ref_m = _CELL_REF_RE.match(ref)
        if ref_m:
            max_col = max(max_col, _col_number(ref_m.group(1)))
            max_row = max(max_row, int(ref_m.group(2)))
        else:
            max_col = max(max_col, col_ordinal)
        ctype = attrs.get(b"t", b"")
        vm = _V_RE.search(body)
        if ctype == b"s":
            if vm is not None:
                populated += 1
                try:
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
                float(vm.group(1))
                numeric += 1
            except ValueError:
                pass
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
