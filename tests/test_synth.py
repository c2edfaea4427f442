import hashlib

import pytest

from trap4phish.analyzers import FORMATS, analyze_docx, analyze_html, analyze_pdf, analyze_xlsx
from trap4phish.core import FileKind, sniff_file_kind
from trap4phish.containers import cfb_open
from trap4phish.synth import CfbWriter, SynthConfig, build_vba_project, synthesize, write_corpus
from trap4phish.synth.cfbwrite import MINI_CUTOFF


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


# --- byte pins -------------------------------------------------------------
# The goldens hash feature CSVs of default-toggle corpora only, and every
# corpus VBA stream is small enough for the mini stream. These digests pin the
# bytes of toggled corpora and of the CFB writer's FAT path, so a refactor of
# `synth` that moves a byte fails here.

_TOGGLES = ("macros", "dde", "ole", "js_actions", "hidden_iframes", "remote_templates")

CORPUS_DIGESTS = {
    "docx": "dce0797dc6ae471454aad8e63e1cce74edb7202ac8196b10a35dcc0e5b8727d8",
    "xlsx": "0d77646495a38482563f3b1c76ea79aa2832f74b286d8e5c3cdb58afb7b95246",
    "pdf": "bb622c5b1c5c37ae618bd3b8e4bf201c630064853a646763f5af4416c2cfcb0f",
    "html": "1525d7aed471c84a151a5c46c52253fda286ec7955df3457613d3cad4ca7e5f6",
}


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_corpus_bytes_pinned_under_every_toggle(fmt):
    """Seeds 1 and 11, under the defaults and then each toggle off alone."""
    chunks = []
    for seed in (1, 11):
        for off in (None,) + _TOGGLES:
            config = SynthConfig(fmt, count=6, seed=seed, **({off: False} if off else {}))
            for name, data, label in synthesize(config):
                chunks += [f"{seed} {off} {name} {label}".encode(), data]
    assert _sha256(*chunks) == CORPUS_DIGESTS[fmt]


def test_vba_project_bytes_pinned():
    project = build_vba_project([
        ("Module1", "Sub AutoOpen()\n    Shell \"calc.exe\"\nEnd Sub\n"),
        ("ThisDocument", "Sub Document_Open()\n    AutoOpen\nEnd Sub\n"),
    ])
    assert _sha256(project) == "2e4ddf900d688893b146576752af58f2bc42301873dc672bee9d721f61263b2b"


def test_cfb_writer_fat_path_bytes_pinned():
    """Nested storages, siblings of different name lengths, an empty stream
    and streams at, above and below the 4,096-byte mini-stream cutoff."""
    big = bytes(range(256)) * 40  # 10,240 bytes: a FAT chain of 20 sectors
    streams = {
        "PROJECT": b"ID=\"{0}\"\r\n",
        "PROJECTwm": b"",
        "VBA/dir": b"\x01" * 700,
        "VBA/_VBA_PROJECT": b"\xcc\x61\xff\xff\x00\x00\x00",
        "VBA/Module1": big,
        "VBA/Forms/Frame/f": b"\x02" * MINI_CUTOFF,
        "VBA/Forms/Frame/o": b"\x03" * (MINI_CUTOFF - 1),
        "Macros/A": b"a",
        "Macros/BB": b"bb" * 3000,
    }
    writer = CfbWriter()
    for path, data in streams.items():
        writer.add_stream(path, data)
    blob = writer.tobytes()
    cfb = cfb_open(blob)
    for path, data in streams.items():
        assert cfb.read_entry(cfb.find_stream(path)) == data, path
    assert _sha256(blob) == "879b2e7480660400c00928fb6e21a46d8a91a7bf18d43f594f4f45c8f4b8c9c2"
