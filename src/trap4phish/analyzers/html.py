"""HTML analyzer: 40 features from a forgiving tag/text/script tokenizer,
plus the top-13 projection.

The tokenizer is a regular-grammar scanner (tags, attributes, text, comments,
script/style raw text), not a tree builder; it recovers from any malformed
input and never raises.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from ..config import BASE64_MIN_LENGTH, HTML_SUSPICIOUS_KEYWORDS, URL_SHORTENER_HOSTS
from ..core import AnalysisReport, FeatureSchema, FeatureVector, shannon_entropy
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
_URL_PUNCT = set("/-=?&:._")

_ATTR_RE = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)(?:\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?"
)
_TAG_NAME_RE = re.compile(r"[a-zA-Z][-a-zA-Z0-9:]*")
_EVENT_ATTR_RE = re.compile(r"^on[a-z]+$")
_URL_OPEN_RE = re.compile(r"url\(", re.IGNORECASE)
_URL_END_RE = re.compile(r"[)'\"]")
_SPACES_RE = re.compile(r"\s*")
_HEX_ESCAPE_RE = re.compile(r"\\x[0-9A-Fa-f]{2}")
_JS_ESCAPE_RE = re.compile(r"\\u[0-9A-Fa-f]{4}|%u[0-9A-Fa-f]{4}")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")
_BASE64_RE = re.compile(rb"[A-Za-z0-9+/]{%d,}={0,2}" % BASE64_MIN_LENGTH)
_WS_BYTES = tuple(bytes([b]) for b in b" \t\r\n\x0b\x0c")


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
    # lowered once, at the first script or style; its indices are used on
    # `text` even where lower() changes the length (as for "İ")
    lowered = None
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
            if lowered is None:
                lowered = text.lower()
            close = lowered.find(f"</{name}", i)
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
        ws = sum(data.count(b) for b in _WS_BYTES)
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
        # str.split() splits at exactly the characters str.isspace() accepts
        spaces = len(visible) - sum(map(len, visible.split()))
        values["whitespace_ratio"] = spaces / len(visible)
    lowered = visible.lower()
    keyword_hits = sum(lowered.count(k) for k in HTML_SUSPICIOUS_KEYWORDS)
    values["suspicious_keyword_count"] = float(keyword_hits)
    words = len(_WORD_RE.findall(visible))
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
        values["url_digit_count"] = float(sum(ch.isdigit() for u in all_urls for ch in u))
        values["url_punct_char_count"] = float(
            sum(ch in _URL_PUNCT for u in all_urls for ch in u)
        )

    hosts = []
    for url in all_urls:
        _, raw_host, _, _ = split_url(url)
        host = host_only(raw_host).lower() if "://" in url else ""
        if host:
            hosts.append(host)
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

    internal = 0
    external = 0
    for url in link_urls:
        if "://" in url:
            _, raw_host, _, _ = split_url(url)
            host = host_only(raw_host).lower()
            if effective_host is not None and host == effective_host:
                internal += 1
            else:
                external += 1
        else:
            internal += 1
    values["internal_link_count"] = float(internal)
    values["external_link_count"] = float(external)
