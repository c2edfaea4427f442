"""Helpers shared by the OOXML analyzers (docx, xlsx)."""

from __future__ import annotations

import posixpath
import re

from ..containers import ContainerError, cfb_open, vba_extract, ziparc
from ..containers.ziparc import ZipArchive, ZipEntry, zip_open

# one name="value" attribute pair inside a start tag. A name runs to the end
# of its run of [\w:.-] bytes and starts at the run's first [A-Za-z:_] byte;
# a match is tried only where such a run begins (after its leading digits,
# dots and dashes), not again at every later byte of a run that failed, so
# a long run with no `=` after it costs linear time, not quadratic.
ATTR_RE = re.compile(rb'(?<![\w:.-])[0-9.-]*([A-Za-z:_][\w:.-]*)\s*=\s*"([^"]*)"')

WORD_BYTES = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def element_spans(data: bytes, opener: bytes, closer: bytes, start: int = 0, end: int | None = None,
                  *, boundary: bool = False, tag: bool = True):
    r"""(start, end) of the group of each match that `re.finditer` finds in
    data[start:end] for the DOTALL pattern
        opener \b [^>]*> (.*?) closer
    where `boundary` keeps the `\b` and `tag` keeps the `[^>]*>`.

    One forward pass: the next `>` and the next closer are carried from
    opener to opener instead of searched for again, so a run of unclosed
    openers costs linear time, not a rescan to the end per opener.
    """
    end = len(data) if end is None else end
    gt = close = start - 1
    pos = start
    while (o := data.find(opener, pos, end)) >= 0:
        body = o + len(opener)
        if boundary and body < end and data[body] in WORD_BYTES:
            pos = o + 1
            continue
        if tag:
            if gt < body:
                gt = data.find(b">", body, end)
                if gt < 0:
                    return
            body = gt + 1
        if close < body:
            close = data.find(closer, body, end)
            if close < 0:
                return
        yield body, close
        pos = close + len(closer)


def open_archive(data: bytes, warnings: list[str]) -> ZipArchive | None:
    """The ZIP archive in `data`, or None with a warning when it does not parse."""
    try:
        return zip_open(data)
    except ContainerError as exc:
        warnings.append(f"zip: {exc}")
    except Exception as exc:  # pragma: no cover - defensive
        warnings.append(f"zip: unexpected: {exc}")
    return None


def _within_budget(archive: ZipArchive, entry: ZipEntry, warnings: list[str]) -> bool:
    """Whether reading `entry` keeps the archive's inflated bytes within
    MAX_UNCOMPRESSED_SIZE. The first refusal adds a `limit.inflated_bytes`
    warning; it depends on declared sizes only, so it is deterministic."""
    if archive.inflated + entry.uncompressed_size <= ziparc.MAX_UNCOMPRESSED_SIZE:
        return True
    if not any(w.startswith("limit.inflated_bytes") for w in warnings):
        warnings.append(f"limit.inflated_bytes: stopped at {entry.name!r}, {archive.inflated} bytes "
                        f"inflated, limit {ziparc.MAX_UNCOMPRESSED_SIZE}")
    return False


def read_xml_parts(archive: ZipArchive, warnings: list[str]) -> dict[str, bytes]:
    """All XML parts (``.xml`` / ``.rels``) by entry name; unreadable parts
    are skipped with a warning. Reading stops at the archive's inflate budget."""
    parts: dict[str, bytes] = {}
    for entry in archive.entries:
        if entry.name.lower().endswith((".xml", ".rels")):
            if not _within_budget(archive, entry, warnings):
                break
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
    """Decompressed VBA module sources from every vbaProject.bin entry,
    up to the archive's inflate budget."""
    sources: list[str] = []
    for entry in archive.entries:
        if not entry.name.lower().endswith("vbaproject.bin"):
            continue
        if not _within_budget(archive, entry, warnings):
            break
        try:
            project = cfb_open(archive.read_entry(entry))
        except ContainerError as exc:
            warnings.append(f"vba project {entry.name!r}: {exc}")
            continue
        for module in vba_extract(project, warnings):
            sources.append(module.source)
    return sources
