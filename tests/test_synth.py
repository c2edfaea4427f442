import pytest

from trap4phish.analyzers import FORMATS, analyze_docx, analyze_html, analyze_pdf, analyze_xlsx
from trap4phish.core import FileKind, sniff_file_kind
from trap4phish.synth import SynthConfig, synthesize, write_corpus


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_determinism_byte_identical(fmt, tmp_path):
    config = SynthConfig(fmt, count=5, seed=7)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    write_corpus(config, dir_a)
    write_corpus(config, dir_b)
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_different_seeds_differ(fmt):
    a = synthesize(SynthConfig(fmt, count=2, seed=1))
    b = synthesize(SynthConfig(fmt, count=2, seed=2))
    assert any(x[1] != y[1] for x, y in zip(a, b))


@pytest.mark.parametrize("fmt,expected_kind", [
    ("docx", FileKind.DOCX), ("xlsx", FileKind.XLSX),
    ("pdf", FileKind.PDF), ("html", FileKind.HTML),
])
def test_generated_files_sniff_correctly(fmt, expected_kind):
    for _name, data, _label in synthesize(SynthConfig(fmt, count=3, seed=7)):
        assert sniff_file_kind(data) is expected_kind


def test_all_parse_clean():
    for fmt, spec in FORMATS.items():
        for name, data, _label in synthesize(SynthConfig(fmt, count=5, seed=7)):
            report = spec.analyze(data)
            assert not report.parse_failed, (fmt, name, report.warnings)


def test_docx_indicators():
    for _name, data, label in synthesize(SynthConfig("docx", count=10, seed=7)):
        d = analyze_docx(data).features.as_dict()
        if label == 1:
            assert d["macro_present"] == 1
            assert d["vba_keywords_count"] >= 1
        else:
            assert d["macro_present"] == 0
            assert d["dde_present"] == 0
            assert d["ole_object_count"] == 0


def test_pdf_malicious_always_has_openaction():
    for _name, data, label in synthesize(SynthConfig("pdf", count=10, seed=7)):
        d = analyze_pdf(data).features.as_dict()
        if label == 1:
            assert d["openaction_count"] >= 1
        else:
            assert d["openaction_count"] == 0
            assert d["javascript_count"] == 0


def test_html_benign_keyword_free():
    for _name, data, label in synthesize(SynthConfig("html", count=10, seed=7)):
        d = analyze_html(data).features.as_dict()
        if label == 0:
            assert d["suspicious_keyword_count"] == 0
            assert d["hidden_iframe_count"] == 0
            assert d["eval_count"] == 0
        else:
            assert d["suspicious_keyword_count"] >= 3
            assert d["form_count"] >= 1
            assert d["hidden_iframe_count"] >= 1


def test_xlsx_indicators():
    for _name, data, label in synthesize(SynthConfig("xlsx", count=10, seed=7)):
        d = analyze_xlsx(data).features.as_dict()
        if label == 1:
            assert d["macro_token_count"] > 0
            assert d["macro_chr_count"] >= 10
        else:
            assert d["macro_token_count"] == 0
            assert d["remote_template_present"] == 0


def test_toggles_disable_indicators():
    files = synthesize(SynthConfig("docx", count=5, seed=7, macros=False, ole=False))
    for _name, data, label in files:
        if label == 1:
            d = analyze_docx(data).features.as_dict()
            assert d["macro_present"] == 0
            assert d["dde_present"] == 1  # the remaining enabled indicator


def test_no_indicators_at_all_rejected():
    with pytest.raises(ValueError):
        synthesize(SynthConfig("docx", count=1, seed=7, macros=False, dde=False, ole=False))


def test_labels_csv(tmp_path):
    labels_path = write_corpus(SynthConfig("html", count=3, seed=7), tmp_path)
    lines = labels_path.read_text().strip().splitlines()
    assert lines[0] == "path,label"
    assert len(lines) == 7
    assert sum(1 for line in lines[1:] if line.endswith(",1")) == 3
