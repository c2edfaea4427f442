import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import trap4phish
from trap4phish.analyzers import FORMATS
from trap4phish.analyzers.xlsx import XLSX_COLUMNS
from trap4phish import cli
from trap4phish.cli import main
from trap4phish.core import LabeledDataset, write_dataset_csv, write_features_csv
from trap4phish.qr import from_pgm, qr_decode

from conftest import make_xlsx


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def docx_corpus(tmp_path):
    out = tmp_path / "corpus"
    assert run(["synth", "--format", "docx", "--count", "8", "--seed", "7", "--out", out]) == 0
    return out


class TestScan:
    def test_no_inputs_exit_2(self, tmp_path, capsys):
        assert run(["scan", str(tmp_path / "nothing*"), "--out", tmp_path / "x.csv"]) == 2

    def test_explicit_format_scan(self, docx_corpus, tmp_path):
        out = tmp_path / "features.csv"
        code = run(["scan", docx_corpus / "benign_00000.docx",
                    "--format", "docx", "--out", out])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert len(rows[0]) == 43
        assert "label" not in rows[0]

    def test_selected_features_header(self, docx_corpus, tmp_path):
        out = tmp_path / "sel.csv"
        run(["scan", docx_corpus / "benign_00000.docx", "--format", "docx",
             "--features", "selected", "--out", out])
        with open(out) as fh:
            header = next(csv.reader(fh))
        assert header == [
            "ole_object_count", "ole_object_type_count", "macro_present",
            "dde_present", "vba_keywords_count", "entropy", "struct_ContentType",
            "struct_PartName", "file_size", "struct_pos",
        ]

    def test_auto_fanout(self, tmp_path):
        run(["synth", "--format", "pdf", "--count", "2", "--seed", "1", "--out", tmp_path / "c1"])
        run(["synth", "--format", "html", "--count", "2", "--seed", "1", "--out", tmp_path / "c2"])
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for src in (tmp_path / "c1", tmp_path / "c2"):
            for p in src.iterdir():
                if p.suffix in (".pdf", ".html"):
                    (mixed / p.name).write_bytes(p.read_bytes())
        out = tmp_path / "scans"
        assert run(["scan", mixed, "--format", "auto", "--out", out]) == 0
        assert (out / "pdf.csv").exists()
        assert (out / "html.csv").exists()

    def test_labeled_scan_and_reports(self, docx_corpus, tmp_path):
        out = tmp_path / "labeled.csv"
        reports = tmp_path / "reports"
        code = run(["scan", docx_corpus / "*.docx", "--format", "docx", "--out", out,
                    "--labels", docx_corpus / "labels.csv", "--report-dir", reports])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "label"
        assert len(rows) == 17  # header + 16 files
        report_files = list(reports.glob("*.json"))
        assert len(report_files) == 16
        payload = json.loads(report_files[0].read_text())
        assert set(payload) == {"source_path", "format", "features", "warnings", "parse_failed"}

    def test_labels_file_inside_scanned_dir_is_not_a_sample(self, docx_corpus, tmp_path, capsys):
        out = tmp_path / "labeled.csv"
        code = run(["scan", docx_corpus, "--format", "docx", "--out", out,
                    "--labels", docx_corpus / "labels.csv"])
        assert code == 0
        captured = capsys.readouterr()
        assert "scanned 16 file(s); parse_failed 0; skipped 0; io_failures 0" in captured.out
        assert "warning" not in captured.err
        with open(out) as fh:
            assert len(list(csv.reader(fh))) == 17

    @pytest.mark.parametrize("keyed_by_name", [["--labels", "labels.csv"], ["--report-dir", "rep"]])
    def test_duplicate_file_names_rejected_before_analysis(self, tmp_path, capsys, keyed_by_name):
        for name, seed in (("a", 1), ("b", 2)):
            run(["synth", "--format", "docx", "--count", "1", "--seed", seed, "--out", tmp_path / name])
        (tmp_path / "labels.csv").write_text("path,label\nbenign_00000.docx,0\n")
        capsys.readouterr()
        option, value = keyed_by_name
        code = run(["scan", tmp_path / "a", tmp_path / "b", "--format", "docx",
                    "--out", tmp_path / "out.csv", option, tmp_path / value])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "a" / "benign_00000.docx") in err
        assert str(tmp_path / "b" / "benign_00000.docx") in err
        assert not (tmp_path / "out.csv").exists() and not (tmp_path / "rep").exists()

    def test_explicit_format_directory_walk_skips_other_extensions(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        run(["synth", "--format", "docx", "--count", "1", "--seed", "1", "--out", corpus])
        capsys.readouterr()
        assert run(["scan", corpus, "--format", "docx", "--out", tmp_path / "x.csv"]) == 0
        assert "scanned 2 file(s); parse_failed 0" in capsys.readouterr().out

    def test_explicit_format_suffix_is_case_insensitive_and_named_files_stay(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        run(["synth", "--format", "docx", "--count", "1", "--seed", "1", "--out", corpus])
        (corpus / "benign_00000.docx").rename(corpus / "BENIGN.DOCX")
        capsys.readouterr()
        assert run(["scan", corpus, corpus / "labels.csv", "--format", "docx",
                    "--out", tmp_path / "x.csv"]) == 0
        # both documents from the walk, plus labels.csv because it is named
        assert "scanned 3 file(s); parse_failed 1" in capsys.readouterr().out

    def test_references_past_the_sheet_limits_scan_to_full_rows(self, tmp_path):
        sheets = {
            "long_row": '<row r="' + "9" * 400 + '"><c r="A1"><v>1</v></c></row>',
            "long_row_number": '<row r="1"><c r="A' + "1" * 5000 + '"><v>1</v></c></row>',
            "long_column": '<row r="1"><c r="' + "A" * 20000 + '1"><v>1</v></c></row>',
        }
        inputs = tmp_path / "in"
        inputs.mkdir()
        for name, sheet in sheets.items():
            (inputs / f"{name}.xlsx").write_bytes(
                make_xlsx(f"<worksheet><sheetData>{sheet}</sheetData></worksheet>"))
        out = tmp_path / "x.csv"
        assert run(["scan", inputs, "--format", "xlsx", "--out", out]) == 0
        with open(out) as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == len(sheets)
        assert set(XLSX_COLUMNS) <= set(header)
        assert all(len(row) == len(header) for row in rows)

    def test_keyword_lists_ignore_environment(self, tmp_path, monkeypatch):
        corpus = tmp_path / "c"
        run(["synth", "--format", "docx", "--count", "1", "--seed", "1", "--out", corpus])
        sample = corpus / "malicious_00000.docx"
        assert run(["scan", sample, "--format", "docx", "--out", tmp_path / "plain.csv"]) == 0
        keywords = tmp_path / "keywords.cfg"
        keywords.write_text("vba_suspicious_keywords = sub\n")
        monkeypatch.setenv("TRAP4PHISH_CONFIG", str(keywords))
        assert run(["scan", sample, "--format", "docx", "--out", tmp_path / "env.csv"]) == 0
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_config_option_is_gone(self, tmp_path):
        keywords = tmp_path / "keywords.cfg"
        keywords.write_text("vba_suspicious_keywords = sub\n")
        with pytest.raises(SystemExit) as exc:
            run(["scan", tmp_path, "--format", "docx", "--out", tmp_path / "x.csv",
                 "--config", keywords])
        assert exc.value.code == 2

    def test_order_stable_with_jobs(self, docx_corpus, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["scan", docx_corpus, "--format", "docx", "--out", a, "--jobs", "1"])
        run(["scan", docx_corpus, "--format", "docx", "--out", b, "--jobs", "4"])
        assert a.read_bytes() == b.read_bytes()


def _walk_tree(root: Path) -> Path:
    """A tree of what a directory walk meets: nesting, a hidden file, links
    to a file and a directory, a broken link, a FIFO, an upper-case suffix."""
    (root / "a" / "b").mkdir(parents=True)
    (root / "outside").mkdir()
    for rel in ("top.docx", "a/.hidden.docx", "a/b/deep.docx", "a/b/UPPER.DOCX", "a/notes.txt",
                ".docx", "outside/far.docx"):
        (root / rel).write_bytes(b"x")
    (root / "a" / "file_link.docx").symlink_to(root / "top.docx")
    (root / "a" / "dir_link").symlink_to(root / "outside", target_is_directory=True)
    (root / "a" / "broken.docx").symlink_to(root / "missing.docx")
    os.mkfifo(root / "a" / "pipe.docx")
    return root


def _rglob_files(root: Path, suffix: str | None) -> list[Path]:
    # the expression the walk replaced, kept as its oracle
    return sorted(q for q in root.rglob("*") if q.is_file() and (suffix is None or q.suffix.lower() == suffix))


class TestExpandInputs:
    @pytest.mark.parametrize("suffix", [None, ".docx"])
    def test_walk_equals_rglob(self, tmp_path, suffix):
        root = _walk_tree(tmp_path / "tree")
        walked = cli._expand_inputs([str(root / "a"), str(root)], suffix)
        assert walked == _rglob_files(root, suffix)
        names = {p.name for p in walked}
        assert {".hidden.docx", "UPPER.DOCX", "file_link.docx"} <= names
        assert not names & {"broken.docx", "pipe.docx", "dir_link"}
        assert (root / "a" / "dir_link" / "far.docx") not in walked

    def test_unlistable_directory_is_skipped(self, tmp_path, monkeypatch):
        root = _walk_tree(tmp_path / "tree")
        scandir = os.scandir

        def refuse_b(path):
            if os.fspath(path) == str(root / "a" / "b"):
                raise PermissionError(13, "Permission denied", os.fspath(path))
            return scandir(path)

        expected = [p for p in _rglob_files(root, None) if root / "a" / "b" not in p.parents]
        monkeypatch.setattr(os, "scandir", refuse_b)
        walked = cli._expand_inputs([str(root)])
        assert walked == expected
        assert root / "top.docx" in walked and root / "a" / "b" / "deep.docx" not in walked

    def test_other_listing_errors_propagate(self, tmp_path, monkeypatch):
        root = _walk_tree(tmp_path / "tree")
        scandir = os.scandir

        def fail_b(path):
            if os.fspath(path) == str(root / "a" / "b"):
                raise OSError(5, "Input/output error", os.fspath(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", fail_b)
        with pytest.raises(OSError, match="Input/output error"):
            cli._expand_inputs([str(root)])


class TestScanLoop:
    """`scan` writes each file's outputs as soon as it is analyzed."""

    def test_memory_does_not_grow_with_file_count(self, tmp_path):
        peaks = {}
        for count in (20, 80):  # 80 and 320 files, docx and html
            root = tmp_path / str(count)
            for fmt in ("docx", "html"):
                run(["synth", "--format", fmt, "--count", count, "--seed", "3", "--out", root / fmt])
            args = ["scan", root / "docx", root / "html", "--out", tmp_path / f"out{count}"]
            assert run(args) == 0
            tracemalloc.start()
            try:
                assert run(args) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # keeping every report until the end costs about 2 KB a file; what
        # is left when each is dropped (the sorted path list) about 0.4 KB
        assert (peaks[80] - peaks[20]) / 240 < 1024

    def test_malformed_labels_fail_before_any_output(self, docx_corpus, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("path,label\nbenign_00000.docx,2\n")
        code = run(["scan", docx_corpus, "--format", "docx", "--out", tmp_path / "x.csv",
                    "--labels", labels, "--report-dir", tmp_path / "reports"])
        assert code == 4
        assert "bad labels row" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists() and not (tmp_path / "x.csv").exists()

    def test_labels_with_a_byte_order_mark(self, docx_corpus, tmp_path, capsys):
        # spreadsheet programs save "CSV UTF-8" with EF BB BF in front
        marked = tmp_path / "labels.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (docx_corpus / "labels.csv").read_bytes())
        outputs = []
        for labels in (docx_corpus / "labels.csv", marked):
            out = tmp_path / f"{len(outputs)}.csv"
            assert run(["scan", docx_corpus, "--format", "docx", "--out", out, "--labels", labels]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert "no label" not in capsys.readouterr().err

    def test_labels_naming_one_file_twice_fail_before_any_output(self, docx_corpus, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("path,label\nbenign_00000.docx,0\nother/benign_00000.docx,1\n")
        code = run(["scan", docx_corpus, "--format", "docx", "--out", tmp_path / "x.csv", "--labels", labels])
        assert code == 4
        err = capsys.readouterr().err
        assert "['benign_00000.docx', '0']" in err and "['other/benign_00000.docx', '1']" in err, err
        assert not (tmp_path / "x.csv").exists()

    def test_auto_mode_over_only_unsupported_files_writes_no_csv(self, tmp_path, capsys):
        inputs = tmp_path / "in"
        inputs.mkdir()
        (inputs / "notes.txt").write_text("plain text")
        out = tmp_path / "out"
        assert run(["scan", inputs, "--out", out]) == 0
        assert out.is_dir() and list(out.iterdir()) == []
        captured = capsys.readouterr()
        assert "scanned 0 file(s); parse_failed 0; skipped 1; io_failures 0" in captured.out
        assert f"{inputs / 'notes.txt'}: unsupported kind unknown" in captured.err

    def test_auto_mode_reads_html_after_a_byte_order_mark_or_comment(self, tmp_path, capsys):
        inputs = tmp_path / "in"
        inputs.mkdir()
        page = b"<!DOCTYPE html><html><body><a href='https://example.test/'>x</a></body></html>"
        (inputs / "marked.html").write_bytes(b"\xef\xbb\xbf" + page)
        (inputs / "saved.htm").write_bytes(b"<!-- saved from url=(0014)about:internet -->\r\n" + page)
        out = tmp_path / "out"
        assert run(["scan", inputs, "--out", out]) == 0
        assert "scanned 2 file(s); parse_failed 0; skipped 0; io_failures 0" in capsys.readouterr().out
        assert len((out / "html.csv").read_bytes().splitlines()) == 3

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_is_an_io_failure(self, docx_corpus, tmp_path, monkeypatch, capsys, kind):
        real = docx_corpus / "benign_00000.docx"
        gone = tmp_path / "gone.docx"
        if kind == "directory":
            gone.mkdir()
        # the file vanishes between the walk and the read
        monkeypatch.setattr(cli, "_expand_inputs", lambda patterns, suffix=None: [gone, real])
        out = tmp_path / "x.csv"
        assert run(["scan", "ignored", "--format", "docx", "--out", out]) == 2
        captured = capsys.readouterr()
        error = ("[Errno 2] No such file or directory" if kind == "missing"
                 else "[Errno 21] Is a directory")
        assert f"warning: {gone}: read failed: {error}: '{gone}'\n" in captured.err
        assert "scanned 1 file(s); parse_failed 0; skipped 0; io_failures 1" in captured.out
        assert len(out.read_bytes().splitlines()) == 2

    @pytest.mark.parametrize("labeled", [False, True])
    def test_auto_mode_bytes_equal_core_writers_at_any_jobs(self, tmp_path, capsys, labeled):
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        labels = {}
        for fmt in ("html", "pdf", "xlsx"):
            run(["synth", "--format", fmt, "--count", "2", "--seed", "4", "--out", tmp_path / fmt])
            for line in (tmp_path / fmt / "labels.csv").read_text().splitlines()[1:]:
                name, label = line.split(",")
                (mixed / name).write_bytes((tmp_path / fmt / name).read_bytes())
                labels[name] = int(label)
        (mixed / "notes.txt").write_text("plain text")
        unlabeled = sorted(labels)[3]
        del labels[unlabeled]
        (tmp_path / "labels.csv").write_text(
            "path,label\n" + "".join(f"{name},{label}\n" for name, label in labels.items()))
        label_args = ["--labels", tmp_path / "labels.csv"] if labeled else []

        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            assert run(["scan", mixed, "--out", out, "--jobs", jobs, *label_args]) == 0
            err = capsys.readouterr().err
            assert "notes.txt: unsupported kind unknown" in err
            assert (f"no label for {mixed / unlabeled}" in err) is labeled
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

        expected = {}
        for fmt in ("html", "pdf", "xlsx"):
            spec = FORMATS[fmt]
            paths = sorted(p for p in mixed.iterdir() if p.suffix == f".{fmt}")
            rows = [(p, list(spec.analyze(p.read_bytes(), source_path=str(p)).features.values()))
                    for p in paths]
            dest = tmp_path / f"expected.{fmt}.csv"
            if labeled:
                kept = [(row, labels[p.name]) for p, row in rows if p.name in labels]
                write_dataset_csv(LabeledDataset(spec.schema, [row for row, _ in kept],
                                                 [label for _, label in kept]), dest)
            else:
                write_features_csv(spec.schema, [row for _p, row in rows], dest)
            expected[f"{fmt}.csv"] = dest.read_bytes()
        assert outputs[0] == expected


class TestTrainEvaluateRank:
    def test_full_pipeline(self, docx_corpus, tmp_path):
        data = tmp_path / "docx.csv"
        run(["scan", docx_corpus, "--format", "docx", "--out", data,
             "--labels", docx_corpus / "labels.csv"])
        models = tmp_path / "models"
        assert run(["train", "--in", data, "--format", "docx",
                    "--out-dir", models, "--seed", "7", "--trees", "9"]) == 0
        assert (models / "decision_tree.json").exists()
        assert (models / "random_forest.json").exists()
        metrics = json.loads((models / "metrics.json").read_text())
        assert set(metrics) == {"DT", "RF"}
        assert run(["evaluate", "--model", models / "random_forest.json",
                    "--in", data, "--format", "docx"]) == 0

    def test_evaluate_schema_mismatch_exit_3(self, docx_corpus, tmp_path):
        data = tmp_path / "docx.csv"
        run(["scan", docx_corpus, "--format", "docx", "--out", data,
             "--labels", docx_corpus / "labels.csv"])
        models = tmp_path / "models"
        run(["train", "--in", data, "--format", "docx", "--out-dir", models,
             "--seed", "7", "--trees", "3"])
        # build an html-schema CSV and feed it to the docx model
        html_corpus = tmp_path / "hc"
        run(["synth", "--format", "html", "--count", "2", "--seed", "3", "--out", html_corpus])
        html_csv = tmp_path / "html.csv"
        run(["scan", html_corpus, "--format", "html", "--out", html_csv,
             "--labels", html_corpus / "labels.csv"])
        code = run(["evaluate", "--model", models / "random_forest.json",
                    "--in", html_csv, "--format", "html"])
        assert code == 3

    def test_evaluate_malformed_model_exit_3(self, docx_corpus, tmp_path, capsys):
        data = tmp_path / "docx.csv"
        run(["scan", docx_corpus, "--format", "docx", "--out", data,
             "--labels", docx_corpus / "labels.csv"])
        models = tmp_path / "models"
        run(["train", "--in", data, "--format", "docx", "--out-dir", models,
             "--seed", "7", "--trees", "3"])
        tree = json.loads((models / "decision_tree.json").read_text())
        forest = json.loads((models / "random_forest.json").read_text())
        assert tree["nodes"][0]["kind"] == "split"

        self_child = json.loads(json.dumps(tree))
        self_child["nodes"][0]["left"] = 0
        no_label = json.loads(json.dumps(forest))
        leaf = next(n for n in no_label["trees"][0] if n["kind"] == "leaf")
        del leaf["label"]
        bad_params = json.loads(json.dumps(tree))
        bad_params["params"] = [1, 2]
        no_version = {k: v for k, v in forest.items() if k != "format_version"}
        cases = [
            (json.dumps(self_child), "ValueError: tree nodes do not form a tree at node 0"),
            (json.dumps(no_label), "KeyError: 'label'"),
            (json.dumps(bad_params), "TypeError"),
            ('{"model_type": "decision_tree", ', "JSONDecodeError"),
            ("[1, 2]", "unknown model_type None"),
            (json.dumps(no_version), "ValueError: format_version None is not 1"),
            *((json.dumps({**tree, "format_version": version}),
               f"ValueError: format_version {version!r} is not 1") for version in (2, "1", True)),
        ]
        for text, message in cases:
            model = tmp_path / "bad.json"
            model.write_text(text)
            code = run(["evaluate", "--model", model, "--in", data, "--format", "docx"])
            err = capsys.readouterr().err
            assert code == 3, text
            assert message in err and "Traceback" not in err, err

    @pytest.mark.parametrize("command", ["evaluate", "rank"])
    def test_header_only_csv_exit_3(self, tmp_path, capsys, command):
        data = tmp_path / "docx.csv"
        write_dataset_csv(LabeledDataset(FORMATS["docx"].schema, [], []), data)
        extra = (["--model", Path(__file__).parent / "data" / "model_v1_decision_tree.json"] if command == "evaluate"
                 else ["--out", tmp_path / "ranking.csv"])
        assert run([command, "--in", data, "--format", "docx", *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot") and "empty dataset" in err, err

    def test_rank_outputs(self, docx_corpus, tmp_path):
        data = tmp_path / "docx.csv"
        run(["scan", docx_corpus, "--format", "docx", "--out", data,
             "--labels", docx_corpus / "labels.csv"])
        ranking = tmp_path / "ranking.csv"
        assert run(["rank", "--in", data, "--format", "docx", "--out", ranking,
                    "--seed", "7", "--trees", "9"]) == 0
        with open(ranking) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "gini_score", "permutation_score"]
        assert len(rows) == 44
        topk = json.loads(ranking.with_suffix(".topk.json").read_text())
        assert len(topk["columns"]) == 10
        # injected signal should top the impurity ranking
        top3 = [r[0] for r in rows[1:4]]
        assert any(name in top3 for name in ("macro_present", "vba_keywords_count", "dde_present"))

    def test_rank_k_past_the_schema_fails_before_any_output(self, docx_corpus, tmp_path, capsys):
        data = tmp_path / "docx.csv"
        run(["scan", docx_corpus, "--format", "docx", "--out", data,
             "--labels", docx_corpus / "labels.csv"])
        capsys.readouterr()
        ranking = tmp_path / "r.csv"
        assert run(["rank", "--in", data, "--format", "docx", "--out", ranking, "--k", "44", "--trees", "3"]) == 3
        assert capsys.readouterr().err == "error: --k 44 exceeds the 43 columns of the docx schema\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "docx.csv"]

    def test_rank_single_class_csv_fails_before_any_output(self, tmp_path, capsys):
        schema = FORMATS["docx"].schema
        data = tmp_path / "docx.csv"
        rows = [[float((i * 7 + j) % 5) for j in range(len(schema))] for i in range(8)]
        write_dataset_csv(LabeledDataset(schema, rows, [0] * 8), data)
        assert run(["rank", "--in", data, "--format", "docx", "--out", tmp_path / "r.csv", "--trees", "3"]) == 3
        assert capsys.readouterr().err == "error: training needs both classes, got labels [0]\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["docx.csv"]

    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--trees", "0"),
        ("train", "--trees", "-3"),
        ("rank", "--trees", "0"),
        ("rank", "--repeats", "0"),
        ("rank", "--k", "0"),
        ("rank", "--k", "-2"),
    ])
    def test_nonpositive_counts_are_usage_errors(self, tmp_path, capsys, command, flag, value):
        out = ["--out-dir", tmp_path / "m"] if command == "train" else ["--out", tmp_path / "r.csv"]
        with pytest.raises(SystemExit) as exc:
            run([command, "--in", tmp_path / "x.csv", "--format", "docx", *out, flag, value])
        assert exc.value.code == 2
        assert f"{flag}: must be >= 1" in capsys.readouterr().err


class TestQrCli:
    def test_encode_decode_roundtrip(self, tmp_path):
        urls = ["https://a.test/1", "http://b.test/2?x=3", "https://c.test/p/q"]
        url_file = tmp_path / "urls.txt"
        url_file.write_text("\n".join(urls) + "\n")
        out_dir = tmp_path / "qrs"
        assert run(["qr", "encode", "--in", url_file, "--out-dir", out_dir]) == 0
        manifest = (out_dir / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "index,url,version,ec_level"
        assert len(manifest) == 4
        for i, url in enumerate(urls):
            bitmap = from_pgm((out_dir / f"{i:05d}.pgm").read_bytes())
            assert qr_decode(bitmap).decode() == url

    def test_decode_non_qr_exit_4(self, tmp_path):
        pgm = tmp_path / "blank.pgm"
        pgm.write_bytes(b"P5\n32 32\n255\n" + b"\xff" * 1024)
        assert run(["qr", "decode", "--in", pgm]) == 4

    def test_decode_over_pixel_budget_exit_4(self, tmp_path, capsys):
        pgm = tmp_path / "huge.pgm"
        pgm.write_bytes(b"P5\n2049 2048\n255\n" + b"\xff" * (2049 * 2048))
        assert run(["qr", "decode", "--in", pgm]) == 4
        assert "pixel budget" in capsys.readouterr().err

    def test_encode_past_the_pixel_budget_exit_4(self, tmp_path, capsys):
        # version 1 at quiet zone 4: 71 px a module is a 2059 px bitmap
        url_file = tmp_path / "u.txt"
        url_file.write_text("http://a.test\n")
        out_dir = tmp_path / "q"
        assert run(["qr", "encode", "--in", url_file, "--out-dir", out_dir, "--module-px", "71"]) == 4
        assert capsys.readouterr().err == "error: line 1: 2059x2059 bitmap exceeds the 4194304-pixel budget\n"
        assert list(out_dir.iterdir()) == []

    def test_decode_prints_payload(self, tmp_path, capsys):
        url_file = tmp_path / "u.txt"
        url_file.write_text("https://print.test/ok\n")
        out_dir = tmp_path / "q"
        run(["qr", "encode", "--in", url_file, "--out-dir", out_dir])
        capsys.readouterr()
        assert run(["qr", "decode", "--in", out_dir / "00000.pgm"]) == 0
        assert capsys.readouterr().out.strip() == "https://print.test/ok"


class TestUrlCli:
    def test_features_csv(self, tmp_path):
        url_file = tmp_path / "urls.txt"
        url_file.write_text("https://a.example/x\nhttp://1.2.3.4/y?q=1\n")
        out = tmp_path / "features.csv"
        assert run(["url", "features", "--in", url_file, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "url"
        assert len(rows) == 3

    def test_effects_sign_convention(self, tmp_path):
        benign = tmp_path / "benign.txt"
        malicious = tmp_path / "malicious.txt"
        benign.write_text(
            "https://site.example/about\nhttps://blog.example/read1\nhttps://docs.example/intro\n"
        )
        malicious.write_text(
            "http://10.0.0.1/x91182/a7\nhttp://9.8.7.6/z55233/b4444133\nhttps://bad.test/90\n"
        )
        out = tmp_path / "effects.csv"
        assert run(["url", "effects", "--benign", benign, "--malicious", malicious,
                    "--out", out]) == 0
        with open(out) as fh:
            rows = {r["feature"]: r for r in csv.DictReader(fh)}
        assert float(rows["digit_ratio"]["cohens_d"]) > 0
        assert float(rows["https_start"]["cohens_d"]) < 0


@pytest.mark.parametrize("args,message", [
    (["qr", "encode", "--in", "u.txt", "--out-dir", "q", "--module-px", "0"], "--module-px: must be >= 1"),
    (["qr", "encode", "--in", "u.txt", "--out-dir", "q", "--quiet-zone", "-1"], "--quiet-zone: must be >= 0"),
    (["synth", "--format", "docx", "--count", "0", "--out", "c"], "--count: must be >= 1"),
    (["scan", "in", "--out", "x.csv", "--jobs", "0"], "--jobs: must be >= 1"),
])
def test_out_of_range_options_are_usage_errors(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["qr", "encode", "--in", "bad.txt", "--out-dir", "q"],
    ["url", "features", "--in", "bad.txt", "--out", "o.csv"],
    ["url", "effects", "--benign", "good.txt", "--malicious", "bad.txt", "--out", "o.csv"],
    ["scan", "good.txt", "--format", "html", "--labels", "bad.txt", "--out", "o.csv"],
    ["train", "--in", "bad.txt", "--format", "docx", "--out-dir", "m"],
    ["evaluate", "--model", Path(__file__).parent / "data" / "model_v1_decision_tree.json",
     "--in", "bad.txt", "--format", "docx"],
    ["rank", "--in", "bad.txt", "--format", "docx", "--out", "r.csv"],
], ids=["qr encode", "url features", "url effects", "scan --labels", "train", "evaluate", "rank"])
def test_input_that_is_not_utf8_exits_4(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.txt").write_text("https://a.test/\n")
    (tmp_path / "bad.txt").write_bytes(b"https://b.test/\n\xff\n")
    assert run(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: bad.txt is not UTF-8 text") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "good.txt"]


def test_encode_without_quiet_zone(tmp_path):
    url_file = tmp_path / "u.txt"
    url_file.write_text("https://zone.test/0\n")
    for zone in (0, 4):
        assert run(["qr", "encode", "--in", url_file, "--out-dir", tmp_path / str(zone), "--quiet-zone", zone]) == 0
    widths = [from_pgm((tmp_path / zone / "00000.pgm").read_bytes()).shape[1] for zone in ("0", "4")]
    assert widths[0] == widths[1] - 2 * 4 * 8


def test_commands_in_one_process_act_as_in_their_own(tmp_path, monkeypatch):
    # the parser is built once per process; a usage error, a scan and a
    # train run one after another must exit and write as each does alone
    corpus = tmp_path / "corpus"
    assert run(["synth", "--format", "docx", "--count", "4", "--seed", "3", "--out", corpus]) == 0
    commands = [
        ["scan", "in", "--out", "x.csv", "--jobs", "0"],
        ["scan", corpus, "--format", "docx", "--out", "docx.csv", "--labels", corpus / "labels.csv"],
        ["train", "--in", "docx.csv", "--format", "docx", "--out-dir", "models", "--trees", "5"],
    ]

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    together = tmp_path / "together"
    together.mkdir()
    monkeypatch.chdir(together)
    codes = []
    for args in commands:
        try:
            codes.append(run(args))
        except SystemExit as exc:
            codes.append(exc.code)

    alone = tmp_path / "alone"
    alone.mkdir()
    src = Path(trap4phish.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    alone_codes = [
        subprocess.run([sys.executable, "-m", "trap4phish.cli", *map(str, args)], cwd=alone, env=env,
                       capture_output=True).returncode
        for args in commands
    ]
    assert codes == alone_codes == [2, 0, 0]
    assert files(together) == files(alone)
    assert {str(p) for p in files(alone)} == {
        "docx.csv", "models/decision_tree.json", "models/random_forest.json", "models/metrics.json"}
