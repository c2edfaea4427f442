import csv
import json

import pytest

from trap4phish.cli import main
from trap4phish.qr import from_pgm, qr_decode


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

    def test_order_stable_with_jobs(self, docx_corpus, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["scan", docx_corpus, "--format", "docx", "--out", a, "--jobs", "1"])
        run(["scan", docx_corpus, "--format", "docx", "--out", b, "--jobs", "4"])
        assert a.read_bytes() == b.read_bytes()


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
        cases = [
            (json.dumps(self_child), "ValueError: tree nodes do not form a tree at node 0"),
            (json.dumps(no_label), "KeyError: 'label'"),
            (json.dumps(bad_params), "TypeError"),
            ('{"model_type": "decision_tree", ', "JSONDecodeError"),
            ("[1, 2]", "unknown model_type None"),
        ]
        for text, message in cases:
            model = tmp_path / "bad.json"
            model.write_text(text)
            code = run(["evaluate", "--model", model, "--in", data, "--format", "docx"])
            err = capsys.readouterr().err
            assert code == 3, text
            assert message in err and "Traceback" not in err, err

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
