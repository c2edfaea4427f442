"""Helpers shared by the OOXML analyzers (docx, xlsx)."""

from __future__ import annotations

import posixpath
import re

from ..containers import ContainerError, cfb_open, vba_extract
from ..containers.ziparc import ZipArchive, zip_open

# one name="value" attribute pair inside a start tag
ATTR_RE = re.compile(rb'([A-Za-z:_][\w:.-]*)\s*=\s*"([^"]*)"')


def open_archive(data: bytes, warnings: list[str]) -> ZipArchive | None:
    """The ZIP archive in `data`, or None with a warning when it does not parse."""
    try:
        return zip_open(data)
    except ContainerError as exc:
        warnings.append(f"zip: {exc}")
    except Exception as exc:  # pragma: no cover - defensive
        warnings.append(f"zip: unexpected: {exc}")
    return None


def read_xml_parts(archive: ZipArchive, warnings: list[str]) -> dict[str, bytes]:
    """All XML parts (``.xml`` / ``.rels``) by entry name; unreadable parts
    are skipped with a warning."""
    parts: dict[str, bytes] = {}
    for entry in archive.entries:
        if entry.name.lower().endswith((".xml", ".rels")):
            try:
                parts[entry.name] = archive.read_entry(entry)
            except ContainerError as exc:
                warnings.append(f"part {entry.name!r}: {exc}")
    return parts


_REL_RE = re.compile(rb"<Relationship\b([^>]*)>")


def parse_relationships(parts: dict[str, bytes]) -> list[dict[str, str]]:
    """Flat list of relationship records from every .rels part."""
    rels = []
    for name, content in parts.items():
        if not name.lower().endswith(".rels"):
            continue
        base = posixpath.dirname(posixpath.dirname(name))  # word/_rels/x.rels -> word
        for m in _REL_RE.finditer(content):
            attrs = {
                k.decode("ascii", "replace"): v.decode("utf-8", "replace")
                for k, v in ATTR_RE.findall(m.group(1))
            }
            attrs["_part"] = name
            attrs["_base"] = base
            rels.append(attrs)
    return rels


def resolve_target(rel: dict[str, str]) -> str:
    """Archive-relative path for an internal relationship target."""
    target = rel.get("Target", "")
    if "://" in target or target.startswith("/"):
        return target.lstrip("/")
    return posixpath.normpath(posixpath.join(rel.get("_base", ""), target))


def extract_vba_sources(archive: ZipArchive, warnings: list[str]) -> list[str]:
    """Decompressed VBA module sources from every vbaProject.bin entry."""
    sources: list[str] = []
    for entry in archive.entries:
        if not entry.name.lower().endswith("vbaproject.bin"):
            continue
        try:
            project = cfb_open(archive.read_entry(entry))
        except ContainerError as exc:
            warnings.append(f"vba project {entry.name!r}: {exc}")
            continue
        for module in vba_extract(project, warnings):
            sources.append(module.source)
    return sources
