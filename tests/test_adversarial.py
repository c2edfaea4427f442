"""Hostile inputs: every analyzer must take time linear in the input.

Each family repeats one pattern that the rescanning scanners handled in
quadratic time: an opener whose closer never comes, so every later opener
rescanned to the end of the file. The first five are the shapes of the
benchmark's hostile workload; the rest are the other lazy patterns the
analyzers had, and two backtracking regexes: an attribute-name run with no
`=`, and `url(` openers that never close. Timing is process CPU time, with
the n and 4n inputs run back to back in pairs and the median pair ratio
deciding, so a slow spell of a shared machine does not. Linear is 4 and
quadratic 16.
"""

import random
import statistics
import time

import pytest

from trap4phish.analyzers import analyze_docx, analyze_html, analyze_pdf, analyze_xlsx

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
    "pdf_uri": (_pdf_uri, 4000),
    "pdf_title": (_pdf_title, 4000),
    "pdf_parens": (_pdf_parens, 8000),
    "xlsx_attr_run": (_xlsx_attr_run, 10000),
    "html_style_urls": (_html_style_urls, 2000),
}


def _cpu_time(analyze, data) -> float:
    start = time.process_time()
    analyze(data)
    return time.process_time() - start


@pytest.mark.parametrize("family", FAMILIES)
def test_time_grows_linearly(family):
    build, n = FAMILIES[family]
    small, large = build(n), build(4 * n)
    pairs = [(_cpu_time(*small), _cpu_time(*large)) for _ in range(5)]
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
