"""Differential tests: each single-pass analyzer against the rescanning
scanners it replaced (tests/analyzer_ref.py), on inputs drawn from the
tokens those scanners react to. Feature vectors must be equal with `==`,
floats included: the rewrite changed how the file is scanned, not what
any feature means."""

import random
import zlib
from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given, reject, settings, strategies as st

import analyzer_ref as ref
from trap4phish.analyzers import (
    analyze_docx, analyze_html, analyze_pdf, analyze_xlsx, docx, html, ooxml, pdf, xlsx,
)
from trap4phish.core import shannon_entropy

from conftest import make_docx, make_xlsx

_SETTINGS = settings(max_examples=300, deadline=None)


def _join(tokens):
    return st.lists(st.sampled_from(tokens), max_size=60).map(lambda parts: type(tokens[0])().join(parts))


# --- pdf ---------------------------------------------------------------------

# outside streams: keywords, names and literals
_PDF_TOKENS = [
    b"stream", b"stream\n", b"endstream", b"\r\nendstream", b"1 0 obj\n", b"2 0 obj", b"endobj", b"obj",
    b"<<", b">>", b"(", b")", b"\\", b"\\101", b"\\\n", b"\n", b"\r", b" ", b"a",
    b"/Title", b"/Title <4142>", b"/URI", b"http://h.test:8080/", b"/Type /Metadata", b"/EmbeddedFile",
    b"/AA", b"/AAB", b"/JavaScript", b"/Launch", b"/OpenAction", b"/AAendobj", b"/Launchendobj",
    b"4 0 obj /S /JavaScript /AAendobj", b"/Filter [", b"/Filter /A1", b"/Filter /FlateDecode", b"]",
]
# inside content streams: operands and the bytes that end or break them
_CONTENT_TOKENS = [
    b"(", b")", b"(a)", b"[", b"]", b"Tj", b"TJ", b"'", b'"', b" ", b"a", b"7",
    b"\\", b"\\\\", b"\\101", b"\\n", b"\\\n", b"\r\n", b"\r", b"\n",
    b"stream\n", b"stream\r\n", b"stream", b"endstream", b"endobj",
    b"(a\\\nb) Tj", b"[(a) 1 (\\\n)] TJ", b"(\\)) Tj", b"(a\\\\) Tj", b"[(a) \\] (b)] TJ",
]
_DICT_ENTRIES = [b"", b"/Filter /FlateDecode", b"/Filter [/FlateDecode /LZWDecode]", b"/Filter /DCTDecode",
                 b"/Filter [/FlateDecode", b"/Filter /FlateDecode /Filter /A1", b"/Filter /", b"/Type /Metadata",
                 b"/Type /EmbeddedFile", b"/AA /JavaScript"]


@st.composite
def _stream_object(draw):
    entry = draw(st.sampled_from(_DICT_ENTRIES))
    content = draw(_join(_CONTENT_TOKENS))
    if entry.startswith(b"/Filter /Flate") and draw(st.booleans()):
        content = zlib.compress(content)  # a real zlib body
    eol = draw(st.sampled_from([b"\n", b"\r\n", b"\r", b""]))
    tail = draw(st.sampled_from([b"endstream\nendobj\n", b"endstream", b""]))
    close = draw(st.sampled_from([b" >>\n", b" ", b""]))  # b"" lets a name run into the keyword
    return b"3 0 obj\n<< " + entry + close + b"stream" + eol + content + eol + tail


@st.composite
def pdf_inputs(draw):
    pieces = draw(st.lists(st.one_of(st.sampled_from(_PDF_TOKENS), _stream_object()), max_size=30))
    return b"%PDF-1.4\n" + b"".join(pieces)


# with no `obj` before it, a stream's dict slice starts 1024 bytes before
# its keyword: here one byte after a /Filter entry, which it must not see
_FILTER_BEFORE_DICT = b"%PDF-1.4\n/Filter /DCTDecode".ljust(1034) + b"stream\n(abc) Tj\nendstream\n"


@_SETTINGS
@given(pdf_inputs())
@example(_FILTER_BEFORE_DICT)
@example(b"%PDF-1.4\n1 0 obj << /Filter /stream\n(abc) Tj\nendstream")  # a name cut to "/"
def test_pdf_matches_rescanning_analyzer(data):
    try:
        old = ref.analyze_pdf(data)
    except ValueError:
        reject()  # the old `\8` crash; see analyzer_ref
    new = analyze_pdf(data)
    assert new.features.values == old.features.values
    assert new.warnings == old.warnings


@_SETTINGS
@given(pdf_inputs())
def test_dict_windows_never_move_back(data):
    # _FilterEntries.first_values relies on it
    regions = pdf._stream_regions(data, [m.start() for m in pdf._ENDSTREAM_RE.finditer(data)], [])
    for before, after in zip(regions, regions[1:]):
        assert before.dict_start <= after.dict_start and before.keyword < after.keyword


def test_octal_escape_with_digit_8_no_longer_raises():
    data = b"%PDF-1.4\n1 0 obj\n<< >>\nstream\nBT (a\\8) Tj ET\nendstream\nendobj\n/URI (http://x\\9)"
    d = analyze_pdf(data).features.as_dict()
    assert d["text_length"] == 2  # "a8"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300), st.lists(st.integers(0, 300), max_size=12))
def test_suffix_entropies_equal_shannon_entropy(data, starts):
    starts = sorted({min(s, len(data)) for s in starts})
    got = pdf._suffix_entropies(data, starts, len(data))
    assert got == [shannon_entropy(data[s:]) for s in starts]


# --- docx --------------------------------------------------------------------

_DOCX_TOKENS = [
    "<w:instrText>", '<w:instrText xml:space="preserve">', "<w:instrTextX>", "<w:instrText",
    "</w:instrText>", "<w:r>", "</w:r>", "DD", "E", "AUTO", "DDEAUTO", " ", ">", "<", "/", "\n", "x",
]


@contextmanager
def _patched(owner, **functions):
    with mock.patch.multiple(owner, **functions):
        yield


@_SETTINGS
@given(_join(_DOCX_TOKENS))
def test_docx_matches_rescanning_analyzer(body):
    content = body.encode()
    assert docx._instr_text(content) == ref._instr_text(content)
    data = make_docx(document_xml="<w:document><w:body><w:p>" + body + "</w:p></w:body></w:document>")
    with _patched(docx, _instr_text=ref._instr_text):
        old = analyze_docx(data)
    assert analyze_docx(data).features.values == old.features.values


# --- ooxml attributes ----------------------------------------------------------

# name bytes, the run bytes a name cannot start with, and what ends a name
_ATTR_TOKENS = [b"a", b"Zq", b"_", b":", b"1", b"9a", b".", b"-", b"=", b'"', b" ", b"\t",
                b"\xc3\xa9", b"/", b">", b'x="v"', b"<c "]


@_SETTINGS
@given(_join(_ATTR_TOKENS))
@example(b'9.-ab="1" 12="2" c.d ="3"')  # a name after digits, a run with no name
def test_attr_pairs_match_backtracking_pattern(tag):
    assert ooxml.ATTR_RE.findall(tag) == ref.ATTR_RE.findall(tag)


# --- xlsx --------------------------------------------------------------------

_XLSX_TOKENS = [
    "<c", "<c ", '<c r="A1"', '<c r="C7" t="s"', '<c t="str"', '<c t="inlineStr"', "<col>", "<c/>",
    "/>", ">", "/", "</c>", "<v>", "<v x>", "</v>", "<t>", '<t xml:space="preserve">', "</t>", "<t",
    "<is>", "</is>", "<si>", "</si>", "0", "1", "2.5", "abc", "<row>", '<row r="3">', "</row>",
    " ", "\n", "QUJDREVGR0hJSktMTU5PUFFSU1RVVldY",
    '<c r="B1"><v>1</v></c>', '<c t="s"><v>0</v></c>', '<c t="str"><v>abc</v></c>',
    '<c t="inlineStr"><is><t>x</t></is></c>', "<si><t>a</t></si>",
]


@_SETTINGS
@given(_join(_XLSX_TOKENS), _join(_XLSX_TOKENS))
def test_xlsx_matches_rescanning_analyzer(sheet, shared_xml):
    content, shared_bytes = sheet.encode(), shared_xml.encode()
    assert xlsx._shared_strings(shared_bytes) == ref._shared_strings(shared_bytes)
    shared = ref._shared_strings(shared_bytes)
    old_strings, new_strings = [], []
    assert xlsx._scan_cells(content, shared, new_strings) == ref._scan_cells(content, shared, old_strings)
    assert new_strings == old_strings

    data = make_xlsx(sheet, extra_entries={"xl/sharedStrings.xml": shared_xml})
    with _patched(xlsx, _shared_strings=ref._shared_strings, _scan_cells=ref._scan_cells):
        old = analyze_xlsx(data)
    assert analyze_xlsx(data).features.values == old.features.values


# --- html --------------------------------------------------------------------

_HTML_TOKENS = [
    "<script>", "</script>", "<SCRIPT>", "</SCRIPT >", "<script src='x.js'>", "<style>", "</style>",
    "İ", "<", ">", "/", "a", "login", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
    "\u2028", "\u3000", "<p>", "</p>", "<li>", "</li>", "<div>", "</div>", "</span>", "<!--", "-->",
    "<!x>", "<br/>", "<b>", "</b>", "<div><b>", "</div></b>",
    "<a href='http://x.test/1'>", "</a>", "url(http://y.test/)", "=", '"',
]


@st.composite
def html_inputs(draw):
    parts = draw(st.lists(st.sampled_from(_HTML_TOKENS), max_size=60))
    data = "".join(parts).encode()
    raw = draw(st.lists(st.sampled_from([b"\xff", b"\x85", b"\xc4"]), max_size=3))
    for byte in raw:  # bytes that do not decode as UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + byte + data[at:]
    return data


@_SETTINGS
@given(html_inputs())
@example(b"<div><p>x</div></p><b>")  # an end tag closes what it skipped over
@example(b"<p>a<p>b</p></p><li><li></li></li>")  # implied closes
def test_html_matches_rescanning_analyzer(data):
    text = data.decode("utf-8", errors="replace")
    stream = ref._tokenize(text)
    assert html._tokenize(text) == stream
    assert html._max_depth(stream) == ref._max_depth(stream)
    new, old = analyze_html(data), ref.analyze_html(data)
    assert new.features.values == old.features.values


def test_html_whitespace_counts_match_on_every_code_point():
    rng = random.Random(0)
    text = "".join(chr(c) for c in range(0x3100) if not 0xD800 <= c < 0xE000)
    chars = list(text)
    rng.shuffle(chars)
    data = "".join(chars).encode("utf-8", "surrogatepass") + bytes(range(256))
    assert analyze_html(data).features.values == ref.analyze_html(data).features.values


_STYLE_TOKENS = ["url(", "URL(", "uRl(", "u", "rl(", "(", ")", "'", '"', " ", "\t", "\u00a0",
                 "a", "b.png", "x y"]


@_SETTINGS
@given(_join(_STYLE_TOKENS))
@example("url(  ')")  # the target is the space before the quote
@example("url(x url(  'a')")  # the first fails, the second inside it matches
def test_style_urls_match_backtracking_pattern(css):
    assert html._style_urls(css) == [m.group(1) for m in ref.STYLE_URL_RE.finditer(css)]
