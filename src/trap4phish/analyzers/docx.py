"""Word document analyzer: 43 features over macro, DDE, OLE and XML-structure
signals, plus the top-10 projection used by the detectors.

The 36 structure counters come from two regex passes per XML part, one for
element names and one for attribute names. Both run over the same windows of
about 64 KiB, so that a part inflating to megabytes never holds more than one
window's matches at a time.
"""

from __future__ import annotations

import re
from collections import Counter

from ..config import VBA_SUSPICIOUS_KEYWORDS
from ..core import AnalysisReport, FeatureSchema, analysis_report, shannon_entropy
from .ooxml import (
    count_keywords, element_spans, extract_vba_sources, open_archive, parse_relationships,
    read_xml_parts, resolve_target, tag_attributes,
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

# Two passes count the 36 names, one per name set. In either pattern no two
# matches overlap and at most one name fits at any offset, so each count
# equals that of the name's own pattern:
# - An element match is "<" and a name, and no name holds a "<", so no match
#   starts inside another. The name must be followed by whitespace, "/" or
#   ">", which no name holds.
# - An attribute match is a whitespace byte, a name, whitespace and its first
#   "=": `\s(names)\s*=`. It holds one "=", at its end, and its name is the
#   whole token between the whitespace and `\s*=`, so each "=" ends at most
#   one match. The pattern reads a reversed window from each "=" instead:
#   `=\s*(reversed names)\s`, whose matches are those matches reversed.
# Each pattern starts with a literal, so `re` skips ahead to each "<" or "="
# instead of trying a match at every offset.
_ELEMENT_RE = re.compile(
    rb"<(" + b"|".join(re.escape(n.encode()) for n in STRUCT_ELEMENTS) + rb")(?=[\s/>])")
_ATTRIBUTE_RE = re.compile(
    rb"=\s*(" + b"|".join(re.escape(n.encode()[::-1]) for n in STRUCT_ATTRIBUTES) + rb")\s")
# an element name or a reversed attribute name names its column; no reversed
# attribute name is an element name
_STRUCT_COLUMN_OF = {**{n.encode(): _struct_column(n) for n in STRUCT_ELEMENTS},
                     **{n.encode()[::-1]: _struct_column(n) for n in STRUCT_ATTRIBUTES}}
# A part is searched in windows. Each ends just before a "<" or just after a
# "=", whichever comes first at least _WINDOW bytes past its start; no match
# crosses either point. Every match holds a "<" or a "=", so a window holds
# at most about _WINDOW matches however far it runs past that point.
_WINDOW = 1 << 16
_WINDOW_CUT_RE = re.compile(rb"[<=]")

_VBA_KEYWORDS = tuple(keyword.encode() for keyword in VBA_SUSPICIOUS_KEYWORDS)

# DDEAUTO, or DDE with no letter on either side; the literal start lets the
# search skip to each "DDE"
_DDE_TOKEN_RE = re.compile(rb"DDE(?:AUTO|(?<![A-Za-z]DDE)(?![A-Za-z]))")
_OLE_ELEMENT_RE = re.compile(rb"<(?:o:OLEObject|oleObject)\b([^>]*)>")


def analyze_docx(data: bytes, source_path: str = "<bytes>") -> AnalysisReport:
    """Extract the full 43-column Word feature vector from raw .docx bytes.

    Non-ZIP input still yields a report (parse_failed=True) with file_size
    and entropy populated.
    """
    return analysis_report(SCHEMA, data, source_path, _extract)


def _extract(data: bytes, values: dict, warnings: list[str]) -> bool:
    values["entropy"] = shannon_entropy(data)
    archive = open_archive(data, warnings)
    if archive is None:
        return True

    # Macros and suspicious VBA keywords.
    if any(e.name.lower().endswith("vbaproject.bin") for e in archive.entries):
        values["macro_present"] = 1.0
        # no keyword holds "\n", so the joined sources count as each alone
        sources = "\n".join(extract_vba_sources(archive, warnings))
        values["vba_keywords_count"] = float(count_keywords(sources, _VBA_KEYWORDS))

    parts = read_xml_parts(archive, warnings)

    # Structural counters over every XML part.
    for column, count in _struct_counts(parts.values()).items():
        values[column] = float(count)

    # DDE: raw XML text plus concatenated field-instruction runs (attackers
    # split DDEAUTO across w:instrText runs).
    for content in parts.values():
        if _DDE_TOKEN_RE.search(content):
            values["dde_present"] = 1.0
            break
        joined = _instr_text(content)
        if joined and _DDE_TOKEN_RE.search(joined):
            values["dde_present"] = 1.0
            break

    _count_ole_objects(archive, parts, values)
    return False


def _struct_counts(parts) -> dict[str, int]:
    """The struct_* columns' counts over the XML parts, where nonzero. Each
    part is searched one window of about `_WINDOW` bytes at a time."""
    tally: Counter = Counter()  # name -> matches
    for content in parts:
        start = 0
        while start < len(content):
            cut = _WINDOW_CUT_RE.search(content, start + _WINDOW)
            if cut is None:
                end = len(content)
            else:  # before "<", after "="
                end = cut.start() if content[cut.start()] == 0x3C else cut.end()
            tally.update(_ELEMENT_RE.findall(content, start, end))
            tally.update(_ATTRIBUTE_RE.findall(content[start:end][::-1]))
            start = end
    return {_STRUCT_COLUMN_OF[name]: n for name, n in tally.items()}


def _instr_text(content: bytes) -> bytes:
    """The field-instruction text of every closed w:instrText run, joined."""
    spans = element_spans(content, b"<w:instrText", b"</w:instrText>", boundary=True)
    return b"".join(content[start:end] for start, end in spans)


def _count_ole_objects(archive, parts: dict[str, bytes], values) -> None:
    embedded = {
        e.name for e in archive.entries
        if e.name.startswith("word/embeddings/") and not e.name.endswith("/")
    }
    rel_targets = {rel["Id"]: resolve_target(rel) for rel in parse_relationships(parts) if rel.get("Id")}

    elements = [attrs for content in parts.values() for attrs in tag_attributes(_OLE_ELEMENT_RE, content)]

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
