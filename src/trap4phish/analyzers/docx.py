"""Word document analyzer: 43 features over macro, DDE, OLE and XML-structure
signals, plus the top-10 projection used by the detectors.
"""

from __future__ import annotations

import re

from ..config import Config, default_config
from ..core import AnalysisReport, FeatureSchema, FeatureVector, count_pattern, shannon_entropy
from .ooxml import (
    ATTR_RE, extract_vba_sources, open_archive, parse_relationships, read_xml_parts, resolve_target,
)

SCHEMA_VERSION = 1

# XML attribute names counted across all XML parts (attribute position only,
# i.e. preceded by whitespace and followed by '=').
STRUCT_ATTRIBUTES = (
    "ContentType", "PartName", "Extension", "Default", "Override",
    "Target", "TargetMode", "Id", "Type", "name",
    "val", "pos", "id", "w", "h",
    "r:id", "r:embed", "xmlns", "standalone", "encoding",
)

# Element start tags counted across all XML parts.
STRUCT_ELEMENTS = (
    "w:p", "w:r", "w:t", "w:tbl", "w:tr", "w:tc",
    "w:hyperlink", "w:drawing", "w:object", "w:fldSimple",
    "w:instrText", "w:sectPr", "w:pict", "w:binData",
    "Relationship", "Types",
)


def _struct_column(name: str) -> str:
    return "struct_" + name.replace(":", "_")

STRUCT_COLUMNS = tuple(_struct_column(n) for n in STRUCT_ATTRIBUTES + STRUCT_ELEMENTS)

DOCX_COLUMNS = (
    "file_size",
    "entropy",
    "macro_present",
    "vba_keywords_count",
    "dde_present",
    "ole_object_count",
    "ole_object_type_count",
) + STRUCT_COLUMNS

SCHEMA = FeatureSchema("docx", DOCX_COLUMNS, SCHEMA_VERSION)
SELECTED = SCHEMA.project((
    "ole_object_count",
    "ole_object_type_count",
    "macro_present",
    "dde_present",
    "vba_keywords_count",
    "entropy",
    "struct_ContentType",
    "struct_PartName",
    "file_size",
    "struct_pos",
))

_ATTR_PATTERNS = {
    _struct_column(name): re.compile(rb"\s" + re.escape(name.encode()) + rb"\s*=")
    for name in STRUCT_ATTRIBUTES
}
_ELEMENT_PATTERNS = {
    _struct_column(name): re.compile(rb"<" + re.escape(name.encode()) + rb"(?=[\s/>])")
    for name in STRUCT_ELEMENTS
}

_INSTR_TEXT_RE = re.compile(rb"<w:instrText\b[^>]*>(.*?)</w:instrText>", re.DOTALL)
_DDE_TOKEN_RE = re.compile(rb"DDEAUTO|(?<![A-Za-z])DDE(?![A-Za-z])")
_OLE_ELEMENT_RE = re.compile(rb"<(?:o:OLEObject|oleObject)\b([^>]*)>")


def analyze_docx(data: bytes, source_path: str = "<bytes>", config: Config | None = None) -> AnalysisReport:
    """Extract the full 43-column Word feature vector from raw .docx bytes.

    Non-ZIP input still yields a report (parse_failed=True) with file_size
    and entropy populated.
    """
    config = config or default_config()
    warnings: list[str] = []
    values = dict.fromkeys(DOCX_COLUMNS, 0.0)
    values["file_size"] = float(len(data))
    values["entropy"] = shannon_entropy(data)

    archive = open_archive(data, warnings)
    if archive is not None:
        _extract_from_archive(archive, values, warnings, config)

    vector = FeatureVector(SCHEMA, [values[c] for c in DOCX_COLUMNS])
    return AnalysisReport(source_path, "docx", vector, warnings, archive is None)


def _extract_from_archive(archive, values, warnings, config: Config) -> None:
    names = archive.names()

    # Macros and suspicious VBA keywords.
    if any(n.lower().endswith("vbaproject.bin") for n in names):
        values["macro_present"] = 1.0
        total = 0
        for source in extract_vba_sources(archive, warnings):
            raw = source.encode("utf-8", errors="replace")
            for keyword in config.vba_suspicious_keywords:
                total += count_pattern(raw, keyword.encode(), case_insensitive=True)
        values["vba_keywords_count"] = float(total)

    parts = read_xml_parts(archive, warnings)

    # Structural counters over every XML part.
    for content in parts.values():
        for column, pattern in _ATTR_PATTERNS.items():
            values[column] += len(pattern.findall(content))
        for column, pattern in _ELEMENT_PATTERNS.items():
            values[column] += len(pattern.findall(content))

    # DDE: raw XML text plus concatenated field-instruction runs (attackers
    # split DDEAUTO across w:instrText runs).
    for content in parts.values():
        if _DDE_TOKEN_RE.search(content):
            values["dde_present"] = 1.0
            break
        joined = b"".join(m.group(1) for m in _INSTR_TEXT_RE.finditer(content))
        if joined and _DDE_TOKEN_RE.search(joined):
            values["dde_present"] = 1.0
            break

    _count_ole_objects(archive, parts, values)


def _count_ole_objects(archive, parts: dict[str, bytes], values) -> None:
    embedded = {
        e.name for e in archive.entries
        if e.name.startswith("word/embeddings/") and not e.name.endswith("/")
    }
    rel_targets = {}
    for rel in parse_relationships(parts):
        rel_id = rel.get("Id")
        if rel_id:
            rel_targets[rel_id] = resolve_target(rel)

    elements = []
    for content in parts.values():
        for m in _OLE_ELEMENT_RE.finditer(content):
            attrs = {
                k.decode("ascii", "replace"): v.decode("utf-8", "replace")
                for k, v in ATTR_RE.findall(m.group(1))
            }
            elements.append(attrs)

    # Objects = embedded entries, plus elements not resolving to one of those
    # entries (deduplicated by relationship id).
    count = len(embedded)
    type_keys: dict[str, str] = {}  # counted object -> type key
    for name in embedded:
        ext = name.rsplit(".", 1)[-1].lower() if "." in name.rsplit("/", 1)[-1] else ""
        type_keys[name] = "ext:" + ext

    seen_ids = set()
    extra_idx = 0
    for attrs in elements:
        rel_id = attrs.get("r:id") or attrs.get("r:embed") or attrs.get("id")
        progid = attrs.get("ProgID") or attrs.get("progId")
        target = rel_targets.get(rel_id) if rel_id else None
        if target in embedded:
            if progid:
                type_keys[target] = "progid:" + progid.lower()
            continue
        if rel_id:
            if rel_id in seen_ids:
                continue
            seen_ids.add(rel_id)
            key = rel_id
        else:
            key = f"_anon{extra_idx}"
            extra_idx += 1
        count += 1
        if progid:
            type_keys[key] = "progid:" + progid.lower()
        elif target and "." in target.rsplit("/", 1)[-1]:
            type_keys[key] = "ext:" + target.rsplit(".", 1)[-1].lower()
        else:
            type_keys[key] = "ext:"

    values["ole_object_count"] = float(count)
    values["ole_object_type_count"] = float(len(set(type_keys.values()))) if count else 0.0
