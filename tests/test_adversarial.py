"""Hostile inputs: every analyzer must take time linear in the input.

Each family repeats one pattern that the rescanning scanners handled in
quadratic time: an opener whose closer never comes, so every later opener
rescanned to the end of the file. The first five are the shapes of the
benchmark's hostile workload; the rest are the other lazy patterns the
analyzers had, two backtracking regexes (an attribute-name run with no
`=`, and `url(` openers that never close), digit runs for the PDF
patterns that started with a digit class, start-tag openers with no `>`
after them, and HTML `<` that start no tag. The last four put near misses
at the bytes where the whole-buffer passes begin: an attribute's `=`, the
PDF `obj`, the xref letters `n` and `f`, and a JS escape's `\\u` or `%u`.
Timing is process CPU time, with the n and 4n inputs run back to back in
pairs and the median pair ratio deciding, so a slow spell of a shared
machine does not. Linear is 4 and quadratic 16.
"""

import importlib
import pkgutil
import random
import re
import statistics
import time

try:
    from re import _constants as sre_constants, _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_constants
    import sre_parse

import pytest

from trap4phish import analyzers
from trap4phish.analyzers import analyze_docx, analyze_html, analyze_pdf, analyze_xlsx, docx, html, ooxml, pdf, xlsx

from conftest import make_docx, make_xlsx


def _hex(rng: random.Random, n_bytes: int) -> str:
    return rng.randbytes(n_bytes).hex()


def _pdf_streams(n):
    # `stream` openers with no `endstream` until the very end of the file
    rng = random.Random(1)
    body = "".join(f"stream\n{_hex(rng, 24)}\n" for _ in range(n))
    return analyze_pdf, ("%PDF-1.4\n" + body + "endstream\n%%EOF\n").encode()


def _pdf_objects(n):
    # object headers with no `endobj` anywhere
    rng = random.Random(2)
    body = "".join(f"{i + 1} 0 obj\n<< /F {_hex(rng, 6)} >>\n" for i in range(n))
    return analyze_pdf, ("%PDF-1.4\n" + body + "trailer\n<< >>\n%%EOF\n").encode()


def _docx_instrtext(n):
    rng = random.Random(3)
    runs = "".join(f"<w:r><w:instrText>HYPERLINK {_hex(rng, 4)}</w:r>" for _ in range(n))
    return analyze_docx, make_docx(document_xml=f"<w:document><w:body><w:p>{runs}</w:p></w:body></w:document>")


def _xlsx_cells(n):
    cells = "".join(f'<c r="A{i + 1}"><v>{i * 7919 % 10**6}</v>' for i in range(n))
    return analyze_xlsx, make_xlsx(f'<worksheet><sheetData><row r="1">{cells}</row></sheetData></worksheet>')


def _html_scripts(n):
    rng = random.Random(5)
    scripts = "".join(f"<script>var v{_hex(rng, 3)}='{_hex(rng, 150)}';</script>\n" for _ in range(n))
    return analyze_html, f"<!DOCTYPE html>\n<html><body>\n{scripts}</body></html>\n".encode()


def _pdf_filters(n):
    # array filter values that never close
    return analyze_pdf, b"%PDF-1.4\n" + b"/Filter [/A " * n


def _pdf_filter_dicts(n):
    # the same inside the dict slice of every stream, all reaching back to one `obj`
    return analyze_pdf, b"%PDF-1.4\n1 0 obj\n" + b"/Filter [ stream\n" * n + b"endstream\n"


def _html_nesting(n):
    # end tags that close nothing, under a deep stack of open elements
    return analyze_html, b"<div>" * n + b"</span>" * n


def _xlsx_si(n):
    shared = "<sst>" + "<si><t>word</t>" * n + "</sst>"
    return analyze_xlsx, make_xlsx('<worksheet><sheetData><row r="1"><c r="A1" t="s"><v>0</v></c>'
                                   "</row></sheetData></worksheet>",
                                   extra_entries={"xl/sharedStrings.xml": shared})


def _xlsx_v(n):
    return analyze_xlsx, make_xlsx('<worksheet><sheetData><row r="1"><c r="A1">' + "<v>1" * n
                                   + "</c></row></sheetData></worksheet>")


def _xlsx_t(n):
    return analyze_xlsx, make_xlsx('<worksheet><sheetData><row r="1"><c r="A1" t="inlineStr"><is>'
                                   + "<t>x" * n + "</is></c></row></sheetData></worksheet>")


def _xlsx_mixed_cells(n):
    # well-formed cells with an odd-shaped one every third cell: single-quoted,
    # with a `<` among its attributes, or never closed
    odd = ("<c r='C{0}'><v>{0}</v></c>", '<c r="C{0}" x=<><v>{0}</v></c>', '<c r="C{0}"><v>{0}</v>')
    cells = "".join(f'<c r="A{i + 1}"><v>{i}</v></c><c r="B{i + 1}" t="s"><v>0</v></c>' + odd[i % 3].format(i + 1)
                    for i in range(n))
    return analyze_xlsx, make_xlsx(f'<worksheet><sheetData><row r="1">{cells}</row></sheetData></worksheet>',
                                   shared=["x"])


def _xlsx_tail_openers(n):
    # a cell never closed, then cell openers with no `>` after them
    return analyze_xlsx, make_xlsx('<worksheet><sheetData><row r="1"><c r="A1">' + "<c " * n)


def _xlsx_sheet_openers(n):
    # start tags that the workbook reads whole, with no `>` after them
    return analyze_xlsx, make_xlsx("<worksheet/>", workbook_xml="<workbook><sheets>" + '<sheet state="hidden" ' * n)


def _xlsx_defined_name_openers(n):
    return analyze_xlsx, make_xlsx("<worksheet/>", workbook_xml="<workbook><definedNames>" + "<definedName " * n)


def _rels_openers(n):
    return analyze_docx, make_docx({"word/_rels/document.xml.rels": "<Relationships>" + '<Relationship Id="r" ' * n})


def _docx_ole_openers(n):
    return analyze_docx, make_docx(document_xml="<w:document><w:body><w:p>" + "<o:OLEObject <oleObject " * (n // 2))


def _pdf_uri(n):
    return analyze_pdf, b"%PDF-1.4\n" + b"<< /URI (http >>\n" * n


def _pdf_title(n):
    return analyze_pdf, b"%PDF-1.4\n" + b"<< /Title (t >>\n" * n


def _pdf_parens(n):
    # a run of `(` that never closes inside one content stream
    return analyze_pdf, b"%PDF-1.4\n1 0 obj\n<< >>\nstream\nBT " + b"(a " * n + b"ET\nendstream\nendobj\n"


def _xlsx_attr_run(n):
    # one long attribute-name run with no `=` inside a start tag
    return analyze_xlsx, make_xlsx('<worksheet><sheetData><row r="1"><c ' + "a" * n
                                   + "/></row></sheetData></worksheet>")


def _html_style_urls(n):
    # `url(` openers that never close inside one style body
    return analyze_html, b"<html><head><style>" + b"url(" * n + b"</style></head><body></body></html>"


def _html_unclosed_openers(n):
    # start tags with no `>` after them: reading stops at the first one
    return analyze_html, b"<html><body>" + b'<a href="x" ' * n


def _html_stray_lt(n):
    # `<` that starts no tag, each one text
    return analyze_html, b"<html><body>" + b"<1 " * n + b"</body></html>"


def _pdf_digit_runs(n):
    # digit runs of 11 or more, and digits between long whitespace runs: the
    # object-header and xref-entry patterns that started with a digit class
    # were tried at every digit, and the first backtracked over the
    # whitespace after each run. Both now start at an `obj`, `n` or `f`,
    # which the pdf_obj_keywords and pdf_xref_letters families put in place.
    rng = random.Random(6)
    pad = " \n\t" * 20
    body = "".join(f"{rng.randrange(10**10, 10**16)}{pad}{i % 10}{pad}{i % 7}{pad}{i:010d} {i % 99999:05d} x\n"
                   for i in range(n))
    return analyze_pdf, ("%PDF-1.4\n" + body + "%%EOF\n").encode()


def _docx_attr_equals(n):
    # `=` after long whitespace runs, each run after a near-miss name: a name
    # with a byte more or less than a counted one, or one of another case
    names = ("Targetx", "xId", "r:idx", "Types", "nam", "ID", "w:val", "xmlnsx")
    pad = " \t\n\r" * 10
    attrs = "".join(f" {names[i % len(names)]}{pad}={pad}" for i in range(n))
    return analyze_docx, make_docx(document_xml=f"<w:document><w:body><w:p{attrs}/></w:body></w:document>")


def _pdf_obj_keywords(n):
    # `obj` and `objx` after long whitespace runs and digit runs too long for
    # an object or generation number
    rng = random.Random(7)
    pad = " \n\t\r" * 10
    body = "".join(f"{rng.randrange(10**10, 10**14)}{pad}{rng.randrange(10**5, 10**8)}{pad}obj\n"
                   f"{i}{pad}{i % 9}{pad}objx\n" for i in range(n))
    return analyze_pdf, ("%PDF-1.4\n" + body + "%%EOF\n").encode()


def _pdf_xref_letters(n):
    # xref-entry letters `n` and `f` after entries one digit short: a 9-digit
    # offset, or a 4-digit generation
    body = "".join(f"{i % 10**9:09d} {i % 10**5:05d} n\r\n{i % 10**10:010d} {i % 10**4:04d} f\r\n" for i in range(n))
    return analyze_pdf, ("%PDF-1.4\nxref\n0 1\n" + body + "trailer\n%%EOF\n").encode()


def _html_js_escapes(n):
    # `\u` and `%u` followed by 3 hex digits, one short of an escape
    rng = random.Random(8)
    escapes = "".join(f"\\u{_hex(rng, 2)[:3]}x%u{_hex(rng, 2)[:3]}g" for _ in range(n))
    return analyze_html, f"<html><body><script>var s='{escapes}';</script><p>{escapes}</p></body></html>".encode()


FAMILIES = {
    "pdf_streams": (_pdf_streams, 1000),
    "pdf_objects": (_pdf_objects, 2000),
    "docx_instrtext": (_docx_instrtext, 4000),
    "xlsx_cells": (_xlsx_cells, 4000),
    "html_scripts": (_html_scripts, 500),
    "pdf_filters": (_pdf_filters, 4000),
    "pdf_filter_dicts": (_pdf_filter_dicts, 1000),
    "html_nesting": (_html_nesting, 4000),
    "xlsx_si": (_xlsx_si, 32000),
    "xlsx_v": (_xlsx_v, 32000),
    "xlsx_t": (_xlsx_t, 32000),
    "xlsx_mixed_cells": (_xlsx_mixed_cells, 2000),
    "xlsx_tail_openers": (_xlsx_tail_openers, 8000),
    "xlsx_sheet_openers": (_xlsx_sheet_openers, 2000),
    "xlsx_defined_name_openers": (_xlsx_defined_name_openers, 2000),
    "rels_openers": (_rels_openers, 2000),
    "docx_ole_openers": (_docx_ole_openers, 2000),
    "pdf_uri": (_pdf_uri, 4000),
    "pdf_title": (_pdf_title, 4000),
    "pdf_parens": (_pdf_parens, 8000),
    "xlsx_attr_run": (_xlsx_attr_run, 10000),
    "html_style_urls": (_html_style_urls, 2000),
    "html_unclosed_openers": (_html_unclosed_openers, 8000),
    "html_stray_lt": (_html_stray_lt, 16000),
    "pdf_digit_runs": (_pdf_digit_runs, 2000),
    "docx_attr_equals": (_docx_attr_equals, 2000),
    "pdf_obj_keywords": (_pdf_obj_keywords, 2000),
    "pdf_xref_letters": (_pdf_xref_letters, 4000),
    "html_js_escapes": (_html_js_escapes, 16000),
}


def _cpu_time(analyze, data) -> float:
    start = time.process_time()
    analyze(data)
    return time.process_time() - start


@pytest.mark.parametrize("family", FAMILIES)
def test_time_grows_linearly(family):
    build, n = FAMILIES[family]
    small, large = build(n), build(4 * n)
    pairs = [(_cpu_time(*small), _cpu_time(*large)) for _ in range(9)]
    assert statistics.median(t_4n / max(t_n, 1e-4) for t_n, t_4n in pairs) <= 6.0, pairs


# The single-file worst cases of the rescanning scanners: 482 s, 26 s,
# 112 s, 82 s and 3.5 s.
WORST_CASES = {
    "pdf_streams": 16000,
    "pdf_objects": 16000,
    "docx_instrtext": 32000,
    "xlsx_cells": 32000,
    "html_scripts": 16000,
}


@pytest.mark.parametrize("family", WORST_CASES)
def test_worst_case_takes_under_3_s(family):
    build, _n = FAMILIES[family]
    assert _cpu_time(*build(WORST_CASES[family])) < 3.0


# Patterns that may start with a lookbehind, because neither runs over a
# whole buffer.
_LOOKBEHIND_FIRST = {
    pdf._PAREN_END_RE: "searched from one string opener to the first closing parenthesis",
    ooxml.ATTR_RE: "runs over the attribute text of one start tag",
}


def test_whole_buffer_patterns_do_not_start_with_a_lookbehind():
    # `re` skips ahead to a pattern's literal or first class; with a
    # lookbehind first it tries a full match at every offset
    found = []
    for info in pkgutil.iter_modules(analyzers.__path__):
        module = importlib.import_module(f"{analyzers.__name__}.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, re.Pattern) and value.pattern[:3] in ("(?<", b"(?<")
                    and value not in _LOOKBEHIND_FIRST):
                found.append(f"{info.name}.{name}")
    assert found == []


# Patterns that may start with something other than a literal, because none
# runs over a whole part or file.
_NOT_LITERAL_FIRST = {
    docx._WINDOW_CUT_RE: "searched from a window's nominal end to the first `<` or `=`",
    html._ATTR_HINT: "runs over the attribute text of one start tag",
    **dict.fromkeys(html._TAG_ATTR_HINTS.values(), "runs over the attribute text of one start tag"),
    html._ATTR_RE: "runs over the attribute text of one start tag",
    html._EVENT_ATTR_RE: "matched against one attribute name",
    html._SPACES_RE: "matched at a single offset",
    html._URL_OPEN_RE: "runs over one style body or style attribute",
    html._URL_END_RE: "searched from one `url(` target to its first closer",
    ooxml.ATTR_RE: "runs over the attribute text of one start tag",
    pdf._PAREN_END_RE: "searched from one string opener to the first closing parenthesis",
    pdf._PORT_RE: "matched at the start of one URI",
    pdf._TJ_TAIL_RE: "matched at a single offset",
    pdf._TJ_ARRAY_TAIL_RE: "matched at a single offset",
    xlsx._CELL_REF_RE: "matched against one cell's r",
    xlsx._ROW_REF_RE: "matched against one row's r",
    xlsx._WORKSHEET_PART_RE: "matched against one part name",
    xlsx._BASE64_CELL_RE: "matched against one cell string",
    xlsx._AUTO_EXEC_RE: "runs over the VBA source and defined names, not over a part",
    # the VBA metric patterns, case-insensitive or led by a class
    **dict.fromkeys((xlsx._TOKEN_RE, xlsx._CHR_RE, xlsx._SUB_RE, xlsx._FUNC_RE, xlsx._IF_RE, xlsx._LOOP_RE,
                     xlsx._DECLARE_RE, xlsx._MOD_RE, xlsx._NUM_RE), "runs over VBA module source, not over a part"),
}


def _patterns(value):
    if isinstance(value, re.Pattern):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _patterns(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _patterns(item)


def _starts_with_uncased_literal(pattern: re.Pattern) -> bool:
    ops = sre_parse.parse(pattern.pattern, pattern.flags)
    if not len(ops.data) or ops[0][0] is not sre_constants.LITERAL:
        return False
    char = chr(ops[0][1])
    return not pattern.flags & re.IGNORECASE or char.lower() == char.upper()


def test_whole_buffer_patterns_start_with_a_literal():
    # `re` finds a literal first byte with a fast skip; a class, branch or
    # repeat first is tried at every byte, 8-10 times slower
    found = []
    for module in (docx, ooxml, pdf, xlsx, html):
        for name, value in vars(module).items():
            for pattern in _patterns(value):
                if not _starts_with_uncased_literal(pattern) and pattern not in _NOT_LITERAL_FIRST:
                    found.append(f"{module.__name__.rsplit('.', 1)[1]}.{name}")
    assert found == []
