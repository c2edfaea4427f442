"""HTML analyzer: 40 features from a forgiving tag/text/script tokenizer,
plus the top-13 projection.

The tokenizer is a regular-grammar scanner (tags, attributes, text, comments,
script/style raw text), not a tree builder; it recovers from any malformed
input and never raises. It reads the document in one `finditer` pass of
`_TOKEN_RE`, which finds every comment, declaration, end tag and start tag
at its `<`; what lies between them is the visible text. A tag ends at the
first `>` after its name, and reading stops at a tag with no `>` after it.
The pass breaks off only after a script or style start tag, to skip the
body to its `</script` or `</style` in any ASCII case, and goes on there.

Attributes are parsed only for start tags whose attribute text can hold one
that a feature reads (`_ATTR_HINT`, `_TAG_ATTR_HINTS`): an `on*` handler,
`href`, `src`, `action`, `formaction` or `style` on any tag, `width` or
`height` on an iframe, `http-equiv` on a meta tag. Every other start tag
is an event and nothing more. Base64 runs, words and the spaces of ASCII
text are counted over the whole document with byte translations.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from ..config import BASE64_MIN_LENGTH, HTML_SUSPICIOUS_KEYWORDS, URL_SHORTENER_HOSTS
from ..core import AnalysisReport, FeatureSchema, FeatureVector, shannon_entropy, sum_in_order
from ..urls import host_only, is_ipv4_like, split_url, subdomain_count

SCHEMA_VERSION = 1

HTML_COLUMNS = (
    # basic metadata
    "file_size", "line_count", "entropy", "whitespace_ratio", "html_whitespace_ratio",
    # tag structure
    "tag_count", "unique_tag_count", "max_nesting_depth", "comment_count",
    "noscript_count", "object_tag_count",
    # javascript
    "script_block_count", "embedded_js_count", "external_script_count",
    "total_script_characters", "script_entropy", "eval_count", "location_redirect_count",
    # forms
    "form_count",
    # iframes
    "iframe_count", "hidden_iframe_count",
    # redirection
    "meta_refresh_count",
    # obfuscation
    "base64_occurrence_count", "hex_escape_count", "js_escape_count",
    # suspicious keywords
    "suspicious_keyword_count", "keyword_text_ratio",
    # urls and links
    "url_count", "internal_link_count", "external_link_count",
    "min_link_length", "max_link_length", "avg_link_length",
    "url_digit_count", "url_punct_char_count", "avg_subdomain_count",
    "ip_url_count", "shortener_url_count",
    # images
    "img_tag_count",
    # events
    "event_handler_count",
)

SCHEMA = FeatureSchema("html", HTML_COLUMNS, SCHEMA_VERSION)
SELECTED = SCHEMA.project((
    "url_punct_char_count",
    "tag_count",
    "whitespace_ratio",
    "entropy",
    "form_count",
    "embedded_js_count",
    "html_whitespace_ratio",
    "script_entropy",
    "min_link_length",
    "external_link_count",
    "total_script_characters",
    "internal_link_count",
    "url_digit_count",
))

_VOID_ELEMENTS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

_URL_ATTRS = ("href", "src", "action", "formaction")
_URL_PUNCT = "/-=?&:._"

_ATTR_RE = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)(?:\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?"
)
# One piece of markup at a `<`: a comment (group 1) to its `-->` or the end;
# a declaration or processing instruction to its `>` or the end; an end tag
# (name 2, `>` 3); a start tag (name 4, attribute text 5, `>` 6). A tag with
# no `>` after it runs to the end with an empty last group, and reading stops
# there. A `<` that starts none of these is text.
_TOKEN_RE = re.compile(
    r"<(?:(!--)(?:.*?-->|.*)"
    r"|[!?][^>]*>?"
    r"|/([a-zA-Z][-a-zA-Z0-9:]*)?[^>]*(>?)"
    r"|([a-zA-Z][-a-zA-Z0-9:]*)([^>]*)(>?))",
    re.DOTALL,
)
# where a script or style body ends: `</` and its name in any ASCII case
_RAW_TEXT_END = {name: re.compile(f"</{name}", re.ASCII | re.IGNORECASE) for name in ("script", "style")}


def _attr_hint(*names: str) -> re.Pattern:
    return re.compile("|".join(("on[a-z]", "href", "src", "action", "style") + names),
                      re.ASCII | re.IGNORECASE)


# attribute text that can hold an attribute a feature reads: `on*` and the
# URL and style attributes on every tag, an iframe's size, a meta tag's
# `http-equiv`
_ATTR_HINT = _attr_hint()
_TAG_ATTR_HINTS = {"iframe": _attr_hint("width", "height"), "meta": _attr_hint("http-equiv")}
_EVENT_ATTR_RE = re.compile(r"^on[a-z]+$")
_URL_OPEN_RE = re.compile(r"url\(", re.IGNORECASE)
_URL_END_RE = re.compile(r"[)'\"]")
_SPACES_RE = re.compile(r"\s*")
_HEX_ESCAPE_RE = re.compile(r"\\x[0-9A-Fa-f]{2}")
# `\\u[0-9A-Fa-f]{4}|%u[0-9A-Fa-f]{4}` as one pass per branch: the two start
# with different bytes and neither match holds the other's first byte, so
# the two counts add up
_JS_ESCAPE_RES = (re.compile(r"\\u[0-9A-Fa-f]{4}"), re.compile(r"%u[0-9A-Fa-f]{4}"))


def _marks(members: bytes) -> bytes:
    """A `bytes.translate` table that maps `members` to `a`, all else to a space."""
    return bytes(ord("a") if b in members else ord(" ") for b in range(256))


_ALNUM = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
_WORD_MARKS = _marks(_ALNUM)
_BASE64_MARKS = _marks(_ALNUM + b"+/")
_HTML_SPACES = b" \t\r\n\x0b\x0c"
_ASCII_SPACES = _HTML_SPACES + b"\x1c\x1d\x1e\x1f"  # what str.isspace() accepts below 128


def _runs(data: bytes, marks: bytes, length: int = 1) -> int:
    """The number of maximal runs of at least `length` bytes that `marks`
    maps to `a`: each one starts either the data or a space followed by
    `length` marks."""
    marked = data.translate(marks)
    run = b"a" * length
    return marked.count(b" " + run) + marked.startswith(run)


def _count_bytes(data: bytes, members: bytes) -> int:
    return len(data) - len(data.translate(None, members))


@dataclass
class _Tag:
    name: str
    attrs: dict[str, str]


@dataclass
class _TokenStream:
    events: list[tuple[str, str, bool]] = field(default_factory=list)  # (kind, name, self_closing)
    tags: list[_Tag] = field(default_factory=list)  # start tags whose attributes were parsed
    text_chunks: list[str] = field(default_factory=list)
    comments: int = 0
    scripts: list[tuple[bool, str]] = field(default_factory=list)  # (has src, body)
    styles: list[str] = field(default_factory=list)


def _attributes(inner: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for key, raw in _ATTR_RE.findall(inner):
        if raw[:1] in ("'", '"'):
            raw = raw[1:-1] if raw[-1:] == raw[:1] else raw[1:]
        attrs.setdefault(key.lower(), raw)
    return attrs


def _tokenize(text: str) -> _TokenStream:
    out = _TokenStream()
    events, chunks = out.events, out.text_chunks
    n = len(text)
    # lower() lengthens only U+0130 ("İ"); where it occurs, a body ends
    # where a search of the lowered text finds its end tag, that index
    # applied to `text`, as the reader always did
    lowered = text.lower() if "\u0130" in text else None
    pos = 0
    while pos < n:
        for m in _TOKEN_RE.finditer(text, pos):
            start, end = m.span()
            if start != pos:
                chunks.append(text[pos:start])
            pos = end
            comment, end_name, end_close, name, inner, close = m.groups()
            if name is not None:
                if not close:
                    return out
                name = name.lower()
                self_closing = inner.rstrip().endswith("/")
                events.append(("start", name, self_closing))
                src = False
                if inner and _TAG_ATTR_HINTS.get(name, _ATTR_HINT).search(inner):
                    attrs = _attributes(inner)
                    out.tags.append(_Tag(name, attrs))
                    src = "src" in attrs
                if name in _RAW_TEXT_END and not self_closing:
                    if lowered is None:
                        hit = _RAW_TEXT_END[name].search(text, pos)
                        body_end = hit.start() if hit else n
                    else:
                        body_end = lowered.find(f"</{name}", pos)
                        body_end = n if body_end < 0 else body_end
                    if name == "script":
                        out.scripts.append((src, text[pos:body_end]))
                    else:
                        out.styles.append(text[pos:body_end])
                    pos = body_end
                    break  # read on from the body's end
            elif end_close is not None:
                if not end_close:
                    return out
                if end_name:
                    events.append(("end", end_name.lower(), False))
            elif comment:
                out.comments += 1
        else:
            if pos < n:
                chunks.append(text[pos:])
            return out
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
        values["html_whitespace_ratio"] = _count_bytes(data, _HTML_SPACES) / len(data)

    stream = _tokenize(text)

    # tag structure
    counts: Counter[str] = Counter()
    for (kind, name, _self_closing), count in Counter(stream.events).items():
        if kind == "start":
            counts[name] += count
    values["tag_count"] = float(counts.total())
    values["unique_tag_count"] = float(len(counts))
    values["max_nesting_depth"] = float(_max_depth(stream))
    values["comment_count"] = float(stream.comments)
    values["noscript_count"] = float(counts["noscript"])
    values["object_tag_count"] = float(counts["object"])
    values["form_count"] = float(counts["form"])
    values["img_tag_count"] = float(counts["img"])
    values["event_handler_count"] = float(
        sum(1 for t in stream.tags for a in t.attrs if _EVENT_ATTR_RE.match(a))
    )

    # iframes
    values["iframe_count"] = float(counts["iframe"])
    values["hidden_iframe_count"] = float(
        sum(1 for t in stream.tags if t.name == "iframe" and _iframe_hidden(t))
    )

    # scripts
    external = sum(1 for t in stream.tags if t.name == "script" and "src" in t.attrs)
    embedded = [body for src, body in stream.scripts if not src]
    values["script_block_count"] = float(counts["script"])
    values["external_script_count"] = float(external)
    values["embedded_js_count"] = float(counts["script"] - external)
    values["total_script_characters"] = float(sum(len(b) for b in embedded))
    if embedded:
        values["script_entropy"] = sum_in_order(
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
    values["base64_occurrence_count"] = float(_runs(data, _BASE64_MARKS, BASE64_MIN_LENGTH))
    values["hex_escape_count"] = float(len(_HEX_ESCAPE_RE.findall(text)))
    values["js_escape_count"] = float(sum(len(pattern.findall(text)) for pattern in _JS_ESCAPE_RES))

    # visible text and suspicious keywords
    visible = "".join(stream.text_chunks)
    encoded = visible.encode()
    if visible:
        if visible.isascii():
            spaces = _count_bytes(encoded, _ASCII_SPACES)
        else:
            # str.split() splits at exactly the characters str.isspace() accepts
            spaces = len(visible) - sum(map(len, visible.split()))
        values["whitespace_ratio"] = spaces / len(visible)
    lowered = visible.lower()
    keyword_hits = sum(lowered.count(k) for k in HTML_SUSPICIOUS_KEYWORDS)
    values["suspicious_keyword_count"] = float(keyword_hits)
    # a word is a run of ASCII letters and digits; every other character,
    # each byte of a non-ASCII one included, separates words
    words = _runs(encoded, _WORD_MARKS)
    values["keyword_text_ratio"] = keyword_hits / words if words else 0.0

    _url_features(stream, values, page_host)

    vector = FeatureVector(SCHEMA, [values[c] for c in HTML_COLUMNS])
    return AnalysisReport(source_path, "html", vector, warnings, False)


def _max_depth(stream: _TokenStream) -> int:
    # Replay tag events against a stack; implied closes for <p>/<li> only,
    # void and self-closing elements do not nest. `open_count` answers
    # "is this name on the stack" without a scan of the stack per end tag.
    depth = 0
    stack: list[str] = []
    open_count: Counter[str] = Counter()
    for kind, name, self_closing in stream.events:
        if kind == "start":
            if name in ("p", "li") and stack and stack[-1] == name:
                open_count[stack.pop()] -= 1
            if name in _VOID_ELEMENTS or self_closing:
                depth = max(depth, len(stack) + 1)
                continue
            stack.append(name)
            open_count[name] += 1
            depth = max(depth, len(stack))
        elif open_count[name]:
            while stack[-1] != name:
                open_count[stack.pop()] -= 1
            open_count[stack.pop()] -= 1
    return depth


def _iframe_hidden(tag: _Tag) -> bool:
    for attr in ("width", "height"):
        raw = tag.attrs.get(attr, "").strip().rstrip("px").strip()
        try:
            if raw != "" and float(raw) <= 2:
                return True
        except ValueError:
            pass
    style = tag.attrs.get("style", "").lower().replace(" ", "")
    return "display:none" in style or "visibility:hidden" in style


def _style_urls(css: str) -> list[str]:
    """The target of every `url(...)` in a style body or attribute: group 1
    of each match of `url\\(\\s*['"]?([^)'"]+)['"]?\\s*\\)` (case-insensitive)
    that `finditer` would report, in one forward pass.

    A target starts after `url(`, its spaces and an optional quote, and runs
    to the first `)`, `'` or `"` after its start, its end; the match needs
    `)` at the end, or a quote there followed by spaces and `)`. When that
    fails, the regex also tries the target that starts one space earlier,
    which takes its end from the same place. Ends are found left to right
    and remembered, so an end far away is searched for once, not once per
    `url(` before it.
    """
    urls = []
    end = -1  # the last end found; it serves every start up to it
    closers: dict[int, int] = {}  # quote end -> index after its spaces and `)`, or -1
    pos = 0
    while (m := _URL_OPEN_RE.search(css, pos)):
        pos = m.start() + 1
        open_end = m.end()
        first = _SPACES_RE.match(css, open_end).end()
        quoted = first < len(css) and css[first] in "'\""
        start = first + quoted
        if start > end:
            hit = _URL_END_RE.search(css, start)
            end = hit.start() if hit else len(css)
        # the space before `first` starts a target whose end is the quote at
        # `first`, or the same end as the target at `first`
        for target, target_end in ((start, end), (first - 1, first if quoted else end)):
            if target < open_end or target_end <= target or target_end == len(css):
                continue
            if css[target_end] == ")":
                stop = target_end + 1
            else:
                if target_end not in closers:
                    after = _SPACES_RE.match(css, target_end + 1).end()
                    closers[target_end] = after + 1 if css[after:after + 1] == ")" else -1
                stop = closers[target_end]
            if stop > 0:
                urls.append(css[target:target_end])
                pos = stop
                break
    return urls


def _url_features(stream: _TokenStream, values: dict, page_host: str | None) -> None:
    link_urls: list[str] = []
    other_urls: list[str] = []
    base_href: str | None = None
    for tag in stream.tags:
        for attr in _URL_ATTRS:
            if attr not in tag.attrs:
                continue
            url = tag.attrs[attr].strip()
            if not url:
                continue
            if tag.name == "base" and attr == "href":
                if base_href is None:
                    base_href = url
                continue
            if tag.name == "script" and attr == "src":
                other_urls.append(url)
            else:
                link_urls.append(url)
        other_urls += _style_urls(tag.attrs.get("style", ""))
    for body in stream.styles:
        other_urls += _style_urls(body)

    all_urls = link_urls + other_urls
    values["url_count"] = float(len(all_urls))
    if all_urls:
        lengths = [len(u) for u in all_urls]
        values["min_link_length"] = float(min(lengths))
        values["max_link_length"] = float(max(lengths))
        values["avg_link_length"] = sum(lengths) / len(lengths)
        joined = "".join(all_urls)
        values["url_digit_count"] = float(sum(map(str.isdigit, joined)))
        values["url_punct_char_count"] = float(sum(map(joined.count, _URL_PUNCT)))

    # one split per absolute URL; link_urls is the head of all_urls
    url_hosts = [host_only(split_url(url)[1]).lower() if "://" in url else "" for url in all_urls]
    hosts = [host for host in url_hosts if host]
    if hosts:
        values["avg_subdomain_count"] = sum(subdomain_count(h) for h in hosts) / len(hosts)
        values["ip_url_count"] = float(sum(1 for h in hosts if is_ipv4_like(h)))
        values["shortener_url_count"] = float(
            sum(1 for h in hosts if h in URL_SHORTENER_HOSTS)
        )

    effective_host = page_host
    if effective_host is None and base_href and "://" in base_href:
        _, bh, _, _ = split_url(base_href)
        effective_host = host_only(bh) or None
    if effective_host is not None:
        effective_host = effective_host.lower()

    internal = sum("://" not in url or host == effective_host
                   for url, host in zip(link_urls, url_hosts))
    values["internal_link_count"] = float(internal)
    values["external_link_count"] = float(len(link_urls) - internal)
