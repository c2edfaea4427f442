"""PDF analyzer: 40 structural/behavioral features from byte-level scanning
plus FlateDecode stream decoding for text operators, and the top-10 projection.

No object graph is reconstructed: counters are keyword- and token-based in
the pdfid tradition, which keeps the scan total on malformed input.

Every scan takes time linear in the file size, also on hostile input:
- A stream region runs from its `stream` keyword to the first `endstream`
  after it, found by bisection in the `endstream` offsets. Regions are
  offsets into the file, not copies. Regions with no `endstream` of their
  own share the next one and are nested suffixes of each other, so their
  histograms are built once, right to left (`_suffix_entropies`).
- An object body runs to the first `endobj` after its header. Whether a
  risky name occurs in a body is decided from the name's offsets in the
  file, with no copy of the body.
- A string literal ends at the first `)` preceded by an even run of
  backslashes, whichever `(` a scan starts from. `_Literals` finds those
  ends once per buffer and memoizes the text-operand totals, so the scans
  from every nested region share one pass.

Every whole-file pattern begins with a literal, and any lookbehind comes
after it (`stream(?<![A-Za-z]stream)`, not `(?<![A-Za-z])stream`). `re`
skips ahead to each occurrence of that literal and tries a match only
there. A pattern that opens with a class, a branch, a repeat or a
lookbehind gets no such skip, so a match is tried at every byte: 9-12 ns a
byte against under 1 ns for a literal on a 2-vCPU Xeon host. So object
headers are read backwards from their `obj` in a reversed copy, and xref
entries are counted from their `n` or `f`, with the digits before them in
a lookbehind.
"""

from __future__ import annotations

import math
import re
import zlib
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from heapq import heappop, heappush
from itertools import groupby
from typing import NamedTuple

from ..core import AnalysisReport, FeatureSchema, analysis_report, shannon_entropy, sum_in_order

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
# `(?<![0-9])\d{1,10}\s+\d{1,5}\s+obj(?![A-Za-z0-9])` read backwards from
# each `obj`, on the reversed file; see _object_header_ends
_OBJ_HEADER_RE = re.compile(rb"jbo(?<![A-Za-z0-9]jbo)\s+\d{1,5}\s+\d{1,10}(?![0-9])")
_STREAM_RE = re.compile(rb"stream(?<![A-Za-z]stream)(?![A-Za-z])")
_ENDSTREAM_RE = re.compile(rb"endstream")
_ENDOBJ_RE = re.compile(rb"endobj")
_OBJ_KEYWORD_RE = re.compile(rb"obj")
_XREF_RE = re.compile(rb"xref(?<![A-Za-z]xref)(?![A-Za-z])")
_STARTXREF_RE = re.compile(rb"startxref")
# `\d{10}\s\d{5}\s[nf]` as one pass per letter, each from its `n` or `f`: a
# match is 18 bytes and ends at its only letter, so the two counts add up
_XREF_ENTRY_RES = tuple(re.compile(letter + rb"(?<=\d{10}\s\d{5}\s" + letter + rb")") for letter in (b"n", b"f"))
_TRAILER_RE = re.compile(rb"trailer")
_NAME_OBFUSCATION_RE = re.compile(rb"/[#A-Za-z0-9.+_-]*#[0-9A-Fa-f]{2}[#A-Za-z0-9.+_-]*")
_FILTER_OPEN_RE = re.compile(rb"/Filter\s*")
_FILTER_NAME_RE = re.compile(rb"/[A-Za-z0-9#]+")
_TITLE_OPEN_RE = re.compile(rb"/Title\s*\(")
_TITLE_HEX_RE = re.compile(rb"/Title\s*<([0-9A-Fa-f\s]*)>")
_URI_OPEN_RE = re.compile(rb"/URI\s*\(")
_PORT_RE = re.compile(rb"^[a-zA-Z][a-zA-Z0-9+.-]*://[^/:?#]+:(\d{1,5})")
_EMBEDDED_FILE_SUBTYPE_RE = re.compile(rb"/EmbeddedFile(?![A-Za-z])")
# the two dict markers without their (?![A-Za-z]), which _Matches applies
_METADATA_TYPE_RE = re.compile(rb"/Type\s*/Metadata")
_EMBEDDED_FILE_RE = re.compile(rb"/EmbeddedFile")
_LETTERS = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

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

# co-occurrence names; no two can match at one offset, as they differ in their first letter
_RISKY_NAME_RE = re.compile(rb"/(JavaScript|Launch|OpenAction|AA|SubmitForm|EmbeddedFile)")
_NAME_BYTES = _LETTERS | frozenset(b"#0123456789")

# A string literal `(...)` or array `[...]` ends at the first `)` or `]`
# preceded by an even run of backslashes (_PAREN_END_RE matches at the run's
# start). In a content stream a backslash-newline pair breaks the operand,
# because the escape `\\.` does not take a newline there; Title and URI
# take one.
_PAREN_END_RE = re.compile(rb"(?<!\\)(?:\\\\)*\)")
_BACKSLASHES_RE = re.compile(rb"\\\\*")
_OPEN_PAREN_RE = re.compile(rb"\(")
_OPEN_BRACKET_RE = re.compile(rb"\[")
_CLOSE_PAREN_RE = re.compile(rb"\)")
_CLOSE_BRACKET_RE = re.compile(rb"\]")
# Tj / ' / " take one literal string; TJ takes an array of strings and numbers.
_TJ_TAIL_RE = re.compile(rb"\s*(?:Tj|'|\")")
_TJ_ARRAY_TAIL_RE = re.compile(rb"\s*TJ")
# an octal escape is 1-3 octal digits; `\8` stands for `8`
_ESCAPE_RE = re.compile(rb"\\(?:([0-7]{1,3})|(.))")


def analyze_pdf(data: bytes, source_path: str = "<bytes>") -> AnalysisReport:
    """Extract the full 40-column PDF feature vector from raw bytes.

    Never fails: non-PDF input yields zero counters and a warning.
    """
    return analysis_report(SCHEMA, data, source_path, _extract)


def _extract(data: bytes, values: dict, warnings: list[str]) -> bool:
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
    values["xref_entry_count"] = float(sum(len(pattern.findall(data)) for pattern in _XREF_ENTRY_RES))

    values["embedded_file_count"] = float(len(_EMBEDDED_FILE_SUBTYPE_RE.findall(data)))

    filters = _FilterEntries(data)
    total_filters = 0
    nested = 0
    for value in filters.values_in_file():
        names = _FILTER_NAME_RE.findall(value)
        total_filters += len(names)
        if value.startswith(b"[") and len(names) >= 2:
            nested += 1
    values["total_filters"] = float(total_filters)
    values["nested_filter_count"] = float(nested)

    title = next(_literals(data, _TITLE_OPEN_RE), None)
    if title is not None:
        values["title_chars"] = float(len(_unescape_string(title)))
    else:
        hex_title = _TITLE_HEX_RE.search(data)
        if hex_title is not None:
            digits = re.sub(rb"\s+", b"", hex_title.group(1))
            values["title_chars"] = float((len(digits) + 1) // 2)

    values["nonstandard_port_flag"] = 0.0
    for raw in _literals(data, _URI_OPEN_RE):
        uri = _unescape_string(raw)
        port_m = _PORT_RE.match(uri)
        if port_m and int(port_m.group(1)) not in (80, 443):
            values["nonstandard_port_flag"] = 1.0
            break

    endstreams = [m.start() for m in _ENDSTREAM_RE.finditer(data)]
    streams = _stream_regions(data, endstreams, warnings)
    values["stream_count"] = float(len(_STREAM_RE.findall(data)))
    values["endstream_count"] = float(len(endstreams))
    if streams:
        sizes = [r.end - r.start for r in streams]
        values["avg_stream_size"] = sum(sizes) / len(sizes)
        entropies = []
        for end, group in _by_end(streams):
            if len(group) == 1:
                entropies.append(shannon_entropy(data[group[0].start:end]))
            else:
                entropies += _suffix_entropies(data, [r.start for r in group], end)
        values["entropy_of_streams"] = sum_in_order(entropies) / len(streams)

    _object_statistics(data, values, streams, filters, warnings)
    return parse_failed


def _literals(data: bytes, opener: re.Pattern):
    r"""Contents of the DOTALL literals `opener ((?:\\.|[^\\)])*)\)` that
    `re.finditer` finds. A backslash takes any next byte, so an opener whose
    literal never closes means no later opener's does either."""
    pos = 0
    while (m := opener.search(data, pos)) is not None:
        close = _PAREN_END_RE.search(data, m.end())
        if close is None:
            return
        yield data[m.end():close.end() - 1]
        pos = close.end()


class _Region(NamedTuple):
    keyword: int  # offset of the `stream` keyword; the dict slice ends here
    dict_start: int
    start: int
    end: int  # before the EOL that precedes `endstream`


def _stream_regions(data: bytes, endstreams: list[int], warnings: list[str]) -> list[_Region]:
    """Each `stream` keyword's data up to the first `endstream` after it."""
    regions = []
    objs = None
    for m in _STREAM_RE.finditer(data):
        start = m.end()
        if data[start:start + 2] == b"\r\n":
            start += 2
        elif data[start:start + 1] in (b"\n", b"\r"):
            start += 1
        i = bisect_left(endstreams, start)
        if i == len(endstreams):
            warnings.append("stream keyword without matching endstream")
            break
        end = endstreams[i]
        if end - start >= 2 and data[end - 2:end] == b"\r\n":
            end -= 2
        elif end > start and data[end - 1] in b"\r\n":
            end -= 1
        # Dict slice between the owning object header and the keyword, used
        # for filter decisions; bounded so binary blobs cannot blow it up.
        # This is data.rfind(b"obj", lo, keyword) by bisection.
        if objs is None:
            objs = [o.start() for o in _OBJ_KEYWORD_RE.finditer(data)]
        keyword = m.start()
        lo = max(0, keyword - 65536)
        j = bisect_right(objs, keyword - 3) - 1
        dict_start = objs[j] if j >= 0 and objs[j] >= lo else max(0, keyword - 1024)
        regions.append(_Region(keyword, dict_start, start, end))
    return regions


def _by_end(regions: list[_Region]):
    """(end, regions) per run of regions that share an end, in file order;
    the regions of one run are nested suffixes of one another."""
    for end, group in groupby(regions, key=lambda r: r.end):
        yield end, list(group)


def _suffix_entropies(data: bytes, starts: list[int], end: int) -> list[float]:
    """shannon_entropy(data[s:end]) for each of the increasing `starts`.

    The histogram grows right to left, one segment between starts at a time.
    Each sum runs over the bytes in first-occurrence order, as `Counter`
    iterates, so every value equals shannon_entropy's to the bit.
    """
    counts = [0] * 256
    order: list[int] = []  # distinct bytes of data[start:end] by first occurrence
    out = []
    seg_end = end
    for start in reversed(starts):
        seg = Counter(data[start:seg_end])
        if seg:
            for byte, count in seg.items():
                counts[byte] += count
            order = [*seg, *(b for b in order if b not in seg)]
        total = end - start
        entropy = 0.0
        for byte in order:
            p = counts[byte] / total
            entropy -= p * math.log2(p)
        out.append(entropy)
        seg_end = start
    out.reverse()
    return out


class _Matches:
    """The matches of a pattern that ends in a negative lookahead, found once
    without the lookahead, to ask whether the pattern matches inside
    data[start:end] without slicing. The lookahead passes at the slice's end,
    so a match that a `stops` byte follows counts when it ends there."""

    def __init__(self, data: bytes, matches, stops: frozenset):
        self.starts: list[int] = []  # matches no stop byte follows
        self.ends: list[int] = []
        self.cut: dict[int, int] = {}  # end -> start of the others
        for m in matches:
            if m.end() < len(data) and data[m.end()] in stops:
                self.cut[m.end()] = m.start()
            else:
                self.starts.append(m.start())
                self.ends.append(m.end())

    def within(self, start: int, end: int) -> bool:
        i = bisect_left(self.starts, start)
        return (i < len(self.starts) and self.ends[i] <= end) or self.cut.get(end, -1) >= start


def _risky_names(data: bytes) -> list[_Matches]:
    """_name_token(name) of each co-occurrence name that occurs in `data`."""
    by_name = defaultdict(list)
    for m in _RISKY_NAME_RE.finditer(data):
        by_name[m.group(1)].append(m)
    return [_Matches(data, matches, _NAME_BYTES) for matches in by_name.values()]


class _FilterEntries:
    r"""Every match `/Filter\s*(\[[^\]]*\]|/[A-Za-z0-9#]+)` can have, found once.

    An array value ends at the first `]` after its `[` and a name at the end
    of its run of name bytes. So whether the pattern matches at one `/Filter`
    with an endpos depends only on whether the endpos reaches `ready`: past
    the `]`, or past the name's first byte, which is all that gets cut.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.starts: list[int] = []  # the `/Filter`
        self.values: list[int] = []  # its `[` or `/`
        self.ends: list[int] = []  # the end of its value with no endpos
        self.ready: list[int] = []
        close = -1  # the first `]` at or after the last array value
        for m in _FILTER_OPEN_RE.finditer(data):
            value = m.end()
            if data[value:value + 1] == b"[":
                if close < value:
                    close = data.find(b"]", value)
                    if close < 0:
                        close = len(data)
                if close == len(data):
                    continue
                end = ready = close + 1
            else:
                name = _FILTER_NAME_RE.match(data, value)
                if name is None:
                    continue
                end, ready = name.end(), value + 2
            self.starts.append(m.start())
            self.values.append(value)
            self.ends.append(end)
            self.ready.append(ready)

    def values_in_file(self):
        """group(1) of each match that re.finditer(pattern, data) finds."""
        pos = 0
        for start, value, end in zip(self.starts, self.values, self.ends):
            if start >= pos:
                pos = end
                yield self.data[value:end]

    def first_values(self, windows: list[tuple[int, int]]) -> list[bytes | None]:
        """group(1) of pattern.search(data, start, end), or None, for each
        window (start, end). Neither the starts nor the ends of the windows may
        decrease: entries join a heap as the ends reach them and leave it for
        good as the starts pass them."""
        by_ready = sorted(range(len(self.starts)), key=self.ready.__getitem__)
        heap: list[int] = []
        joined = 0
        out = []
        for start, end in windows:
            while joined < len(by_ready) and self.ready[by_ready[joined]] <= end:
                heappush(heap, by_ready[joined])
                joined += 1
            while heap and self.starts[heap[0]] < start:
                heappop(heap)
            if heap:
                i = heap[0]
                out.append(self.data[self.values[i]:min(self.ends[i], end)])
            else:
                out.append(None)
        return out


def _object_statistics(data: bytes, values: dict, streams: list[_Region], filters: _FilterEntries,
                       warnings: list[str]) -> None:
    endobjs = [m.start() for m in _ENDOBJ_RE.finditer(data)]
    bodies = []
    for start in _object_header_ends(data):
        i = bisect_left(endobjs, start)
        bodies.append((start, endobjs[i] if i < len(endobjs) else len(data)))
    values["object_count"] = float(len(bodies))

    risky = 0
    names = _risky_names(data) if bodies else []
    if len(names) >= 2:
        for start, end in bodies:
            if sum(1 for name in names if name.within(start, end)) >= 2:
                risky += 1
    values["risky_cooccurrence_count"] = float(risky)

    # Metadata stream size: streams whose dict marks /Type /Metadata.
    meta_bytes = 0
    embedded_sizes = []
    text_total = 0
    if streams:
        # the dict slices data[dict_start:keyword] as windows of data; later
        # keywords own the same or a later `obj`, so no window moves back
        filter_values = iter(filters.first_values([(r.dict_start, r.keyword) for r in streams]))
        metadata = _Matches(data, _METADATA_TYPE_RE.finditer(data), _LETTERS)
        embedded = _Matches(data, _EMBEDDED_FILE_RE.finditer(data), _LETTERS)
    for end, group in _by_end(streams):
        shared = None  # text operands of the unfiltered regions of this group
        for region in group:
            size = region.end - region.start
            if metadata.within(region.dict_start, region.keyword):
                meta_bytes += size
            if embedded.within(region.dict_start, region.keyword):
                embedded_sizes.append(size)
            content = _stream_content(data, region, next(filter_values), warnings)
            if content is None:
                continue
            if content is data:
                if shared is None:
                    shared = _Literals(data[group[0].start:end])
                text_total += shared.text_bytes(region.start - group[0].start)
            else:
                text_total += _Literals(content).text_bytes(0)
    values["metadata_size"] = float(meta_bytes)
    if embedded_sizes:
        values["avg_embedded_file_size"] = sum(embedded_sizes) / len(embedded_sizes)
    values["text_length"] = float(text_total)


def _object_header_ends(data: bytes) -> list[int]:
    """The end of each object header `N G obj` in file order. The headers are
    found backwards from each `obj` in a reversed copy of `data`, which is
    dropped on return. Both numbers are whole digit runs and no header holds
    a second `obj`, so these are the headers that a forward search finds."""
    backwards = data[::-1]
    ends = [len(data) - m.start() for m in _OBJ_HEADER_RE.finditer(backwards)]
    ends.reverse()
    return ends


def _stream_content(data: bytes, region: _Region, filter_value: bytes | None,
                    warnings: list[str]) -> bytes | None:
    """`data` itself for a stream without a filter, the inflated bytes for a
    FlateDecode-alone stream, None for every other stream: only those two
    are searched for text operands."""
    if filter_value is None:
        return data
    if _FILTER_NAME_RE.findall(filter_value) != [b"/FlateDecode"]:
        return None
    try:
        return zlib.decompress(data[region.start:region.end])
    except zlib.error:
        warnings.append("stream: FlateDecode failed")
        return None


_STRING, _ARRAY, _ARRAY_STRING = range(3)


class _Literals:
    r"""Bytes of Tj/TJ/'/" string operands in the suffixes of one buffer.

    Counts what these regexes find from a start to the end of the buffer:
        \((?:\\.|[^\\)])*\)\s*(?:Tj|'|")    one string operand
        \[(?:\\.|[^\]\\])*\]\s*TJ           one array operand, whose strings
        \((?:\\.|[^\\)])*\)                 are counted inside the array
    Each opener's match is decided by bisection in the even-backslash ends
    and the escaped newlines found once. The total from each opener is
    memoized, so scans from many starts stop where they meet an earlier
    scan, which they do within one match.
    """

    def __init__(self, buf: bytes):
        self.size = len(buf)
        self.buf = buf
        self.parens = [m.start() for m in _OPEN_PAREN_RE.finditer(buf)]
        self.brackets = [m.start() for m in _OPEN_BRACKET_RE.finditer(buf)]
        if not self.parens:
            self.brackets = []  # an array without strings adds nothing
            return
        # the byte after an odd run of backslashes is escaped
        escaped = {m.end() for m in _BACKSLASHES_RE.finditer(buf) if (m.end() - m.start()) % 2}
        self.paren_ends = [m.start() for m in _CLOSE_PAREN_RE.finditer(buf) if m.start() not in escaped]
        self.bracket_ends = [m.start() for m in _CLOSE_BRACKET_RE.finditer(buf) if m.start() not in escaped]
        self.broken = sorted(p for p in escaped if buf[p:p + 1] == b"\n")
        # escapes by start, and bytes saved by unescaping before each one
        self.escapes = []
        self.saved = [0]
        for m in _ESCAPE_RE.finditer(buf):
            self.escapes.append(m.start())
            self.saved.append(self.saved[-1] + m.end() - m.start() - 1)
        self.memo: dict[tuple, int] = {}

    def text_bytes(self, start: int) -> int:
        return (self._chain(_STRING, self.parens, start, self.size)
                + self._chain(_ARRAY, self.brackets, start, self.size))

    def _chain(self, kind: int, openers: list[int], start: int, end: int) -> int:
        """Total over the matches that `finditer(buf, start, end)` finds."""
        path = []
        total = 0
        i = bisect_left(openers, start)
        while i < len(openers) and openers[i] < end:
            key = (kind, end, openers[i])
            known = self.memo.get(key)
            if known is not None:
                total = known
                break
            found = self._match(kind, openers[i], end)
            if found is None:
                path.append((key, 0))
                i += 1
            else:
                value, resume = found
                path.append((key, value))
                i = bisect_left(openers, resume, i + 1)
        for key, value in reversed(path):
            total += value
            self.memo[key] = total
        return total

    def _match(self, kind: int, opener: int, end: int) -> tuple[int, int] | None:
        """(value, end of match) of the match at `opener`, or None."""
        ends = self.bracket_ends if kind == _ARRAY else self.paren_ends
        i = bisect_right(ends, opener)
        if i == len(ends) or ends[i] >= end:
            return None
        close = ends[i]
        j = bisect_right(self.broken, opener)
        if j < len(self.broken) and self.broken[j] < close:
            return None
        if kind == _ARRAY_STRING:
            return self._unescaped_length(opener + 1, close), close + 1
        resume = self._tail(kind, close, end)
        if resume is None:
            return None
        if kind == _STRING:
            return self._unescaped_length(opener + 1, close), resume
        return self._chain(_ARRAY_STRING, self.parens, opener + 1, close), resume

    def _tail(self, kind: int, close: int, end: int) -> int | None:
        key = (-1 - kind, end, close)
        if key not in self.memo:
            tail = (_TJ_ARRAY_TAIL_RE if kind == _ARRAY else _TJ_TAIL_RE).match(self.buf, close + 1, end)
            self.memo[key] = None if tail is None else tail.end()
        return self.memo[key]

    def _unescaped_length(self, start: int, end: int) -> int:
        """len(_unescape_string(buf[start:end])) for a literal's contents."""
        saved = self.saved[bisect_left(self.escapes, end)] - self.saved[bisect_left(self.escapes, start)]
        return end - start - saved


def _unescape_string(raw: bytes) -> bytes:
    def repl(m: re.Match) -> bytes:
        octal, token = m.groups()
        if octal:
            return bytes([int(octal, 8) & 0xFF])
        mapping = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\x0c"}
        return mapping.get(token, token)

    return _ESCAPE_RE.sub(repl, raw)
