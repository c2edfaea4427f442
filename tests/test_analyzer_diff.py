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
    analyze_docx, analyze_html, analyze_pdf, analyze_xlsx, compute_macro_metrics, docx, html, ooxml, pdf,
    xlsx,
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
    assert new.features == old.features
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
    d = analyze_pdf(data).features
    assert d["text_length"] == 2  # "a8"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300), st.lists(st.integers(0, 300), max_size=12))
def test_suffix_entropies_equal_shannon_entropy(data, starts):
    starts = sorted({min(s, len(data)) for s in starts})
    got = pdf._suffix_entropies(data, starts, len(data))
    assert got == [shannon_entropy(data[s:]) for s in starts]


def _matches(pattern, text, pos=0):
    return [(m.span(), m.groups()) for m in pattern.finditer(text, pos)]


# the keywords, digit runs and the bytes that end them or sit beside them
_PDF_PATTERN_TOKENS = [
    b"stream", b"xref", b"obj", b"endstream", b"startxref", b"xrefs", b"objx", b"0", b"1", b"9", b"12",
    b"0000000000", b"00000", b"12345678901", b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"a", b"Z",
    b"n", b"f", b"$", b".", b"_", b"(", b"&", b"Zxref", b"astream", b"9 0 obj", b"0000000000 65535 f",
    b"0000000017 00000 n\r\n",
]
# (old, new): the new ones start with their literal
_PDF_PATTERN_PAIRS = [(ref._STREAM_RE, pdf._STREAM_RE), (ref._XREF_RE, pdf._XREF_RE)]


@_SETTINGS
@given(_join(_PDF_PATTERN_TOKENS), st.integers(0, 12))
@example(b"stream", 0)  # a lookbehind with no byte before the match
@example(b"12345678901 0 obj 1234567890 0 obj", 0)
@example(b"Zxref Zstream 00000000017 00000 n", 0)
def test_pdf_patterns_match_lookbehind_first_ones(data, pos):
    for old, new in _PDF_PATTERN_PAIRS:
        assert _matches(new, data, pos) == _matches(old, data, pos), old.pattern
    # the readers that start at the last byte of a match see no bytes before
    # the buffer, so they read the suffix from pos, as the old patterns do
    tail = data[pos:]
    assert pdf._object_header_ends(tail) == [m.end() for m in ref._OBJ_RE.finditer(tail)]
    entry_ends = sorted(m.end() for pattern in pdf._XREF_ENTRY_RES for m in pattern.finditer(tail))
    assert entry_ends == [m.end() for m in ref._XREF_ENTRY_RE.finditer(tail)]


@_SETTINGS
@given(_join(_CONTENT_TOKENS), st.integers(0, 12))
@example(b"\\\\\\(\\", 1)
def test_backslash_runs_match_the_repeat_first_pattern(data, pos):
    assert _matches(pdf._BACKSLASHES_RE, data, pos) == _matches(ref.BACKSLASHES_RE, data, pos)


# --- docx --------------------------------------------------------------------

_DOCX_TOKENS = [
    "<w:instrText>", '<w:instrText xml:space="preserve">', "<w:instrTextX>", "<w:instrText",
    "</w:instrText>", "<w:r>", "</w:r>", "DD", "E", "AUTO", "DDEAUTO", " ", ">", "<", "/", "\n", "x",
]


@contextmanager
def _patched(owner, **functions):
    with mock.patch.multiple(owner, **functions):
        yield


# the six \s bytes, names that are prefixes of others or end in another
# (w:t/w:tbl, Type/Types, id/r:id, Target/TargetMode, w/w:p), and the bytes
# that end a name, a window or a match
_STRUCT_TOKENS = [
    b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"<", b"=", b"/", b">", b'"x"', b"a", b":",
    b"w", b"w:", b"w:t", b"w:tbl", b"w:tblPr", b"w:p", b"w:pict", b"w:r", b"w:rPr", b"w:instrText",
    b"Type", b"Types", b"id", b"Id", b"r:id", b"r:idx", b"r:embed", b"val", b"pos", b"h", b"name",
    b"Target", b"TargetMode", b"xmlns", b"xmlns:w", b"ContentType", b"Relationship",
    b' name =', b" w\t=", b"<w:tbl>", b"<w:t/>", b'<Types xmlns="x">', b' r:id="1"', b"<w:p w=",
    b"DDE", b"DDEAUTO", b"DD", b"E", b"AUTO", b"xDDE", b"DDEx", b"1DDE",
]


@_SETTINGS
@given(_join(_STRUCT_TOKENS), st.integers(1, 40))
@example(b"<w:p w=", 3)  # a window ends just before the "=", then just after it
def test_struct_counts_match_one_pattern_per_name(content, window):
    expected = {column: n for column, n in ref._struct_counts([content]).items() if n}
    assert docx._struct_counts([content]) == expected
    # windows this short cut through most tags
    with mock.patch.object(docx, "_WINDOW", window):
        assert docx._struct_counts([content, content]) == {c: 2 * n for c, n in expected.items()}
    assert bool(docx._DDE_TOKEN_RE.search(content)) == bool(ref.DDE_TOKEN_RE.search(content))


def test_struct_counts_match_across_full_size_windows():
    rng = random.Random(3)
    content = b"".join(rng.choice(_STRUCT_TOKENS) for _ in range(120_000))  # about 7 windows
    expected = {column: n for column, n in ref._struct_counts([content]).items() if n}
    assert docx._struct_counts([content]) == expected


@_SETTINGS
@given(_join(_STRUCT_TOKENS), st.integers(0, 20), st.integers(0, 400))
@example(b" w=<w:p>", 0, 8)
def test_split_struct_patterns_find_the_joined_matches(content, start, end):
    # windows search with pos and endpos, so these do too; the attribute
    # pattern reads the window reversed, and its matches are turned forward
    old = [(m.span(), m.group(1) or m.group(2)) for m in ref.STRUCT_RE.finditer(content, start, end)]
    elements = [(m.span(), m.group(1)) for m in docx._ELEMENT_RE.finditer(content, start, end)]
    window = content[start:end]
    attributes = [((start + len(window) - m.end(), start + len(window) - m.start()), m.group(1)[::-1])
                  for m in docx._ATTRIBUTE_RE.finditer(window[::-1])]
    assert sorted(elements + attributes) == old


@_SETTINGS
@given(_join(_DOCX_TOKENS), _join(_STRUCT_TOKENS).map(bytes.decode))
def test_docx_matches_rescanning_analyzer(body, attributes):
    content = body.encode()
    assert docx._instr_text(content) == ref._instr_text(content)
    data = make_docx(document_xml="<w:document " + attributes + "><w:body><w:p>" + body
                     + "</w:p></w:body></w:document>")
    with _patched(docx, _instr_text=ref._instr_text, _struct_counts=ref._struct_counts,
                  _DDE_TOKEN_RE=ref.DDE_TOKEN_RE):
        old = analyze_docx(data)
    assert analyze_docx(data).features == old.features


# --- ooxml attributes ----------------------------------------------------------

# name bytes, the run bytes a name cannot start with, and what ends a name
_ATTR_TOKENS = [b"a", b"Zq", b"_", b":", b"1", b"9a", b".", b"-", b"=", b'"', b" ", b"\t",
                b"\xc3\xa9", b"/", b">", b'x="v"', b"<c "]


@_SETTINGS
@given(_join(_ATTR_TOKENS))
@example(b'9.-ab="1" 12="2" c.d ="3"')  # a name after digits, a run with no name
def test_attr_pairs_match_backtracking_pattern(tag):
    assert ooxml.ATTR_RE.findall(tag) == ref.ATTR_RE.findall(tag)


# (old, new): the live patterns run through `ooxml.start_tags`
_START_TAG_PAIRS = [
    (ref.SHEET_RE, xlsx._SHEET_RE), (ref.DEFINED_NAME_RE, xlsx._DEFINED_NAME_RE),
    (ref.CELL_TAG_RE, xlsx._CELL_TAG_RE), (ref.REL_RE, ooxml._REL_RE), (ref.OLE_ELEMENT_RE, docx._OLE_ELEMENT_RE),
]
# openers with and without `>` after them, near-miss names, and attributes:
# repeated, with non-ASCII or invalid UTF-8 values, across tabs and newlines
_START_TAG_TOKENS = [
    b"<sheet", b"<sheet ", b"<sheets", b"<sheetView", b"<definedName", b"<definedName ", b"<definedNames",
    b"<Relationship", b"<Relationship ", b"<Relationships", b"<oleObject", b"<oleObject ", b"<oleObjects",
    b"<o:OLEObject", b"<o:OLEObject ", b"<o:OLEObjectX", b"<c", b"<c ", b"<col", b"<", b">", b"/>", b"/",
    b" ", b"\t", b"\n", b"\r\n", b"=", b'"', b"x", b'state="hidden"', b' state="veryHidden"', b' state="visible"',
    b' state="hidd\xc3\xa9n"', b' state="hidden\xff"', b'name="auto_open"', b' name="Auto_Open"',
    b' name="\xe2\x84\xaauto_x"', b' Id="rId1"', b' Id="rId2" Id="rId3"', b' r:id="r1"', b' v="\xc3\xa9"',
    b' v="\xff\xfe"', b' ProgID="Word.Document"', b' Target="a/b.bin"', b'\tstate\n=\t"hidden"', b' \xc3\xa9d="1"',
]


def _old_attributes(pattern, data):
    return [dict(ooxml.ATTR_RE.findall(m.group(1))) for m in pattern.finditer(data)]


@_SETTINGS
@given(_join(_START_TAG_TOKENS), st.integers(0, 40))
@example(b'<sheet state="hidden"<sheet >', 0)
@example(b'<definedName name="x" name="auto_open"/><definedNames>', 0)
@example(b'<sheet \t state="hidd\xc3\xa9n">', 0)
def test_start_tags_match_unbounded_search(data, start):
    for old, new in _START_TAG_PAIRS:
        found = [(m.span(), m.groups()) for m in ooxml.start_tags(new, data, start)]
        assert found == _matches(old, data, start), old.pattern
        assert ooxml.tag_attributes(new, data) == [
            {k.decode("ascii", "replace"): v.decode("utf-8", "replace") for k, v in attrs.items()}
            for attrs in _old_attributes(old, data)
        ], old.pattern
    # the workbook reads that compared bytes
    states = [a.get("state", "visible") for a in ooxml.tag_attributes(xlsx._SHEET_RE, data)]
    old_states = [a.get(b"state", b"visible") for a in _old_attributes(ref.SHEET_RE, data)]
    assert ([(s == "hidden", s == "veryHidden") for s in states]
            == [(s == b"hidden", s == b"veryHidden") for s in old_states])
    names = [a.get("name", "").lower() for a in ooxml.tag_attributes(xlsx._DEFINED_NAME_RE, data)]
    assert names == [a.get(b"name", b"").decode("utf-8", "replace").lower()
                     for a in _old_attributes(ref.DEFINED_NAME_RE, data)]


# --- xlsx --------------------------------------------------------------------

# The shapes the fast cell, row and shared-string patterns read, pieces of
# them, and the shapes they hand to the forward scanners: attributes in any
# order, duplicated, single-quoted or with spaces around `=`; references
# past Excel's sheet limits or not in upper case; <f> before <v>, values
# that float() reads or not; and openers that are not a cell
_XLSX_TOKENS = [
    "<c", "<c ", '<c r="A1"', '<c r="C7" t="s"', '<c t="str"', '<c t="inlineStr"', "<col>", "<c/>",
    "/>", ">", "/", "</c>", "<v>", "<v x>", "</v>", "<t>", '<t xml:space="preserve">', "</t>", "<t",
    "<is>", "</is>", "<si>", "</si>", "0", "1", "2.5", "abc", "<row>", '<row r="3">', "</row>",
    " ", "\n", "QUJDREVGR0hJSktMTU5PUFFSU1RVVldY",
    '<c r="B1"><v>1</v></c>', '<c t="s"><v>0</v></c>', '<c t="str"><v>abc</v></c>',
    '<c t="inlineStr"><is><t>x</t></is></c>', "<si><t>a</t></si>",
    # attributes
    '<c t="s" r="B2"', ' r="D4"', ' t="s"', ' t="str"', ' s="3"', " r='A1'", " t='s'", ' r = "E5"',
    ' t ="s"', '<c r="A1" r="B2"', '<c t="s" t="n"', '<c s="3" r="A2" t="s"', ' rr="A1"', ' r:x="1"',
    '<row r="2" spans="1:3"', ' r="7"', '<row r="7" r="x"',
    # references
    ' r="A1x"', ' r="a1"', ' r="A01"', ' r="A0"', ' r="XFD1048576"', ' r="XFE1"', ' r="AAAA1"',
    ' r="A1048577"', ' r="A' + "9" * 12 + '"', '<row r="1048576">', '<row r="1048577">', '<row r="007">',
    '<row r="0">',
    # types
    ' t="n"', ' t="b"', ' t="e"', ' t=""',
    # bodies
    "<f>SUM(A1:A2)</f>", '<f t="shared" ref="A1:A2" si="0"/>', "<f>", "</f>", "<v/>", "<v> 1 </v>",
    "<v>nan</v>", "<v>1e5</v>", "<v>1_0</v>", "<v>\u0661</v>", "<v>-1</v>", "<v></v>",
    '<c r="A3"><f>1+1</f><v>2</v></c>', "<is><t>a</t><t>b</t></is>", "<r><t>c</t></r>", "<rPh><t>d</t></rPh>",
    # openers that are no cell
    "<cols>", "<cfRule", "<c\t", "<c\n", "<c\t/>",
]


@_SETTINGS
@given(_join(_XLSX_TOKENS), _join(_XLSX_TOKENS))
# numbers past the sheet limits that once raised out of the analyzer
@example('<row r="' + "9" * 400 + '"><c r="A1"><v>1</v></c></row>', "")
@example('<c r="A' + "1" * 5000 + '"><v>1</v></c>', "")
@example('<c r="' + "A" * 20000 + '1"><v>1</v></c>', "")
# where the fast shapes end: a repeated r whose last is no reference, an
# unclosed cell followed only by self-closing ones, row 0, and t followed
# by other attributes
@example('<c r="C1" r="a1"/><row r="5" r="x"/>', "")
@example('<c r="A1"><v>1</v><c r="C1"/>', "")
@example('<row r="0"/><c r="C0"/>', "")
@example('<c t="s" s="3"><v>0</v></c><c t="str" r="B1"><v>x</v></c>', "<si><t>a</t></si>")
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
    assert analyze_xlsx(data).features == old.features


# the VBA keywords in several cases, number shapes, the characters that end
# a word or a number, and characters that IGNORECASE folds into ASCII
# letters: the Kelvin sign, long s, dotted capital I and dotless i
_VBA_TOKENS = [
    "chr", "Chr", "ChrW", "chrw", "chr$", "CHR$", "if", "If", "IF", "for", "For", "while", "WHILE", "do", "Do",
    "declare", "Declare", "mod", "MOD", "0", "7", "12", "3.5", "1.", "\u0661", "x1", "a", "Z", "w", "$", ".",
    "_", "(", ")", "&", "&H1F", '"', "'", "+", "*", " ", "\t", "\n", "\u00a0", "\u212a", "\u017f", "\u0130",
    "\u0131", "Sub ", "Function ", "rem ", "Zif", "1chr(", "_mod", "Kdo", "9declare", "$1", "x.5",
]


@_SETTINGS
@given(_join(_VBA_TOKENS), st.integers(0, 8))
@example("if", 0)  # a lookbehind with no character before the match
@example("\u0130f \u0131f K\u212amod \u017fif 1\u0661 \u0661", 0)
@example("Zif 1chr( Zchr( _mod Kdo 9declare $1 x.5", 0)
def test_vba_patterns_match_lookbehind_first_ones(source, pos):
    for name, old in ref.VBA_PATTERNS.items():
        assert _matches(getattr(xlsx, name), source, pos) == _matches(old, source, pos), name


@_SETTINGS
@given(_join(_VBA_TOKENS))
def test_macro_metrics_match_lookbehind_first_patterns(source):
    with _patched(xlsx, **ref.VBA_PATTERNS):
        old = compute_macro_metrics(source)
    assert compute_macro_metrics(source) == old


# --- html --------------------------------------------------------------------

_HTML_TOKENS = [
    "<script>", "</script>", "<SCRIPT>", "</SCRIPT >", "<script src='x.js'>", "<style>", "</style>",
    "İ", "İ</script", "<", ">", "/", "a", "login", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
    "\xa0", "\u2028", "\u3000", "<p>", "</p>", "<li>", "</li>", "<div>", "</div>", "</span>", "<!--", "-->",
    "<!x>", "<br/>", "<b>", "</b>", "<div><b>", "</div></b>", "<a href='http://x.test/1'>", "</a>",
    "url(http://y.test/)", "=", '"',
    # attributes that decide whether a tag's attributes are read
    "<b onclick=", "ONLOAD=x", " on=", " onx1=", "<iframe width=1 ", ' style="display:none"',
    "<meta http-equiv=refresh>", "<base href=", "<form action=", " formaction=", "<script src=",
    "<a href=x href='y'>",
    # escapes and a base64 run
    "\\x41", "\\u0041", "%u0041", "QUJDREVGR0hJSktMTU5PUFFS==",
    # openers with no `>` after them
    "<?", "<!", "</",
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


# attributes a feature reads: on every tag, and on iframe and meta tags
_READ_ATTRIBUTES = {"href", "src", "action", "formaction", "style"}
_TAG_READ_ATTRIBUTES = {"iframe": {"width", "height"}, "meta": {"http-equiv"}}


def _projection(stream, scripts):
    """What the two readers' streams both hold: tag events, comments, bodies,
    visible text, and the attributes a feature reads, per start tag that
    has any."""
    read = []
    for tag in stream.tags:
        keys = _READ_ATTRIBUTES | _TAG_READ_ATTRIBUTES.get(tag.name, set())
        attrs = {k: v for k, v in tag.attrs.items() if k in keys or html._EVENT_ATTR_RE.match(k)}
        if attrs:
            read.append((tag.name, attrs))
    return stream.events, stream.comments, scripts, stream.styles, "".join(stream.text_chunks), read


@_SETTINGS
@given(html_inputs())
@example(b"<div><p>x</div></p><b>")  # an end tag closes what it skipped over
@example(b"<p>a<p>b</p></p><li><li></li></li>")  # implied closes
@example(b"<a onclick=x ONLOAD=y on=z onx1=w href=u href='v' style=\"url(q)\">")
@example(b"<iframe width=1 ></iframe><iframe style=\"display:none\"><meta http-equiv=Refresh>")
@example("İ<script>a</script>b<style>İ</style>c</script>".encode())  # lower() shifts indices
@example("<script>a</ſcript>b</SCRIPT>".encode())  # "ſ" matches "s" only case-folded
@example(b"QUJDREVGR0hJSktMTU5PUFFS== QUJDREVGR0hJSktMTU5PUFFSU==QUJDREVGR0hJSktMTU5PUFF")
@example(b"x<1 <= <<a href='x' ")  # stray `<` as text, then a start tag with no `>`
@example(b"<?x <!y </z")
def test_html_matches_rescanning_analyzer(data):
    text = data.decode("utf-8", errors="replace")
    new, old = html._tokenize(text), ref._tokenize(text)
    old_scripts = [("src" in tag.attrs, body) for tag, body in old.scripts]
    assert _projection(new, new.scripts) == _projection(old, old_scripts)
    assert html._max_depth(new) == ref._max_depth(old)
    assert analyze_html(data).features == ref.analyze_html(data).features


def test_html_whitespace_counts_match_on_every_code_point():
    rng = random.Random(0)
    text = "".join(chr(c) for c in range(0x3100) if not 0xD800 <= c < 0xE000)
    chars = list(text)
    rng.shuffle(chars)
    data = "".join(chars).encode("utf-8", "surrogatepass") + bytes(range(256))
    assert analyze_html(data).features == ref.analyze_html(data).features


# the two escape openers, their bytes alone, and hex digits and near misses
_JS_ESCAPE_TOKENS = ["\\u", "%u", "\\", "%", "u", "U", "0", "9", "a", "F", "g", "\\x", "\\u00", "%u0", " "]


@_SETTINGS
@given(_join(_JS_ESCAPE_TOKENS))
@example("\\u%u0041\\u004")  # a `%u` escape inside a `\u` near miss
def test_js_escape_passes_count_the_branch_pattern(text):
    assert sum(len(pattern.findall(text)) for pattern in html._JS_ESCAPE_RES) == len(ref._JS_ESCAPE_RE.findall(text))


_STYLE_TOKENS = ["url(", "URL(", "uRl(", "u", "rl(", "(", ")", "'", '"', " ", "\t", "\u00a0",
                 "a", "b.png", "x y"]


@_SETTINGS
@given(_join(_STYLE_TOKENS))
@example("url(  ')")  # the target is the space before the quote
@example("url(x url(  'a')")  # the first fails, the second inside it matches
def test_style_urls_match_backtracking_pattern(css):
    assert html._style_urls(css) == [m.group(1) for m in ref.STYLE_URL_RE.finditer(css)]
