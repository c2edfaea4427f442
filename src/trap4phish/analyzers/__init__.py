"""Per-format static feature extractors. Each analyzer is a pure function of
the input bytes and always returns a full-length report, downgrading parse
problems to warnings.

`FORMATS` is the one table of supported formats, keyed by format name (the
schema's `format_kind`). Each `FormatSpec` holds the format's full feature
schema, the compact subset the detectors use (top-10 by importance, top-13
for HTML) and the analyzer that fills the full schema. Every module builds
its `SCHEMA` and `SELECTED` once at import, so a column name in a ranked
subset that the full schema lacks fails there.
"""

from typing import Callable, NamedTuple

from ..core import AnalysisReport, FeatureSchema
from . import docx, html, pdf, xlsx
from .docx import analyze_docx
from .xlsx import analyze_xlsx, compute_macro_metrics
from .pdf import analyze_pdf
from .html import analyze_html


class FormatSpec(NamedTuple):
    schema: FeatureSchema
    selected: FeatureSchema
    analyze: Callable[..., AnalysisReport]


FORMATS: dict[str, FormatSpec] = {
    spec.schema.format_kind: spec
    for spec in (
        FormatSpec(docx.SCHEMA, docx.SELECTED, analyze_docx),
        FormatSpec(xlsx.SCHEMA, xlsx.SELECTED, analyze_xlsx),
        FormatSpec(pdf.SCHEMA, pdf.SELECTED, analyze_pdf),
        FormatSpec(html.SCHEMA, html.SELECTED, analyze_html),
    )
}

__all__ = [
    "FORMATS",
    "FormatSpec",
    "analyze_docx",
    "analyze_xlsx",
    "compute_macro_metrics",
    "analyze_pdf",
    "analyze_html",
]
