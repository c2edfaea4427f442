"""Golden output of the whole pipeline, format by format.

For each format a fixed-seed synthetic corpus goes through `synth`, `scan`
(full and selected features), `train` on the selected CSV and `rank` on the
full CSV, all through `cli.main`. The sha256 of every file they write must
stay as recorded here: a refactor that changes one feature value, one CSV
byte or one model byte fails this test. Regenerate the table only with a
deliberate schema or model version bump.

The `--report-dir` JSON of a scan of the same corpora is pinned the same
way, one sha256 over every report file in name order.
"""

import hashlib

import pytest

from trap4phish.cli import main

SEED = 11
COUNT = 8
TREES = 10

GOLDEN = {
    "docx": {
        "full.csv":
            "9af2424aaf6e2baa4f9aa634ee72f32ce43a19c384086ec13b3216c02b25ba32",
        "models/decision_tree.json":
            "e755497a694e7f86588534ecc9dd76fe5cd4c20c05293f0b790db4a01ba3d048",
        "models/metrics.json":
            "aa5cccec2fab322f44c44023525ed4bfd357a4cbee1f6c455483f65e26dd06a9",
        "models/random_forest.json":
            "5c061bff7d5d55e7e227f6634c08c915973a11c6e4a84c88b5d8a85fd1a87e4c",
        "rank.csv":
            "03d84a00a3fd1235c1384311d5aebe1718c2e385c113a84c18bd9d87f6429142",
        "rank.topk.json":
            "4e81a4cfb0fd343ace159e7c434928d3ab49f90ba1541935701da60d5d99732b",
        "selected.csv":
            "0c5e833dc7384f927310d26675007aad631bd42b31fb074046025ea61667a2cb",
    },
    "xlsx": {
        "full.csv":
            "699d9c79f9391e9a67aa99ec3b9ec5e85f89b2e14ffcdd65440c06e5f50330bc",
        "models/decision_tree.json":
            "deac039b065eae49264c9048125dedb0349edbba312ba6762339013c2b3c7bdc",
        "models/metrics.json":
            "a818e87e281bd8f4774dcebac250df0ff000674103f9f13724abcd4507948c6e",
        "models/random_forest.json":
            "264598ac198cd275b388e062291a0af98bf3ac2235db69696aea0e129529001a",
        "rank.csv":
            "f4028cb5c67c626ab139ed7b5a2e50951890136a3271f6f17000d0dd0667d0ad",
        "rank.topk.json":
            "5b364e80e42e19eff4b6b068e715bf411d66f4e3f4caf57f6107ca2e7312d706",
        "selected.csv":
            "44d028522f44822fa0e6d89a0c466049613338982c0cbbfb3e8d884b93382473",
    },
    "pdf": {
        "full.csv":
            "22de3c7ef5778120e5642241c6b58484ea9d541e97a6546a2e05107a96c37b52",
        "models/decision_tree.json":
            "b62e493f157eec9decb9b9adac66fbd9ec6b4ff2c1678f36bb243c6cd2646432",
        "models/metrics.json":
            "aa5cccec2fab322f44c44023525ed4bfd357a4cbee1f6c455483f65e26dd06a9",
        "models/random_forest.json":
            "ed2d918b8943482c66be110df96bcd94d9dc35a07452c3edc43c7ba4c65ad481",
        "rank.csv":
            "2b060f44815516d572b0cc706a65d7d58d856fee7730b429e3a391e045e39a52",
        "rank.topk.json":
            "b4a43ceecae2241d1a070c96760a5c64a7ddabfb2747cb770a29a8f1598d2ade",
        "selected.csv":
            "13a1a1d386e7831ea3e08dace98d2a75081f5cd427fbbedffa1c49e1bbc45bc7",
    },
    "html": {
        "full.csv":
            "df49b8f59186b54587604303903bee4d3b7fa7a9a0a494f706cbfdfdaac67fea",
        "models/decision_tree.json":
            "d198daee33cfa08d133228ceac43dab08b1a9c3533d4e52178afff7513c22346",
        "models/metrics.json":
            "aa5cccec2fab322f44c44023525ed4bfd357a4cbee1f6c455483f65e26dd06a9",
        "models/random_forest.json":
            "08fed0bd4f9a38db8df9d51b00030a822ea883d74b13f1ef14cbdd29686c9025",
        "rank.csv":
            "6e9984b8168e4cac89ddd6756856169ecf72a93138b8435db6a4462e172d1b3c",
        "rank.topk.json":
            "f2ff4059777283ba8c976ad4c935083dd068662d659c492447c3fe67114c595f",
        "selected.csv":
            "fb18e2dc7d403e5f99acbcf9c96fc86334c347159627e16a6d3c1acf00526df9",
    },
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(fmt: str, root) -> dict[str, str]:
    """Run the pipeline for one format under `root`; sha256 of every output."""
    corpus = root / "corpus"
    out = root / "out"

    def run(*args) -> None:
        assert main([str(a) for a in args]) == 0, args

    run("synth", "--format", fmt, "--count", COUNT, "--seed", SEED, "--out", corpus)
    labels = corpus / "labels.csv"
    out.mkdir()
    for features in ("full", "selected"):
        run("scan", corpus, "--format", fmt, "--features", features,
            "--labels", labels, "--out", out / f"{features}.csv")
    run("train", "--in", out / "selected.csv", "--format", fmt, "--features", "selected",
        "--trees", TREES, "--seed", SEED, "--out-dir", out / "models")
    run("rank", "--in", out / "full.csv", "--format", fmt, "--trees", TREES,
        "--seed", SEED, "--out", out / "rank.csv")
    return {p.relative_to(out).as_posix(): _digest(p)
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("fmt", list(GOLDEN))
def test_pipeline_output_is_golden(fmt, tmp_path, capsys):
    assert run_pipeline(fmt, tmp_path) == GOLDEN[fmt]


REPORTS_GOLDEN = {
    "docx": "8fcac4ae0120a5c116901f80765bf7a07df50eba5f1b9fd782e087d08728950c",
    "xlsx": "b939b7bf69a604323f0373a5515bf2dd6d90fdd8e3b37aab64139a12754c1733",
    "pdf": "63558c57868710ffbc721c931a5411958a9f4868ea22ca999d6c6de127f1bc71",
    "html": "6a0a3e8cb9694e777c51aba491462e660c0a3ad07cbf22afb830226a168d6ad9",
}


@pytest.mark.parametrize("fmt", list(REPORTS_GOLDEN))
def test_report_json_is_golden(fmt, tmp_path, monkeypatch, capsys):
    # a relative corpus path, so each report's source_path is the same on every run
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--format", fmt, "--count", str(COUNT), "--seed", str(SEED),
                 "--out", "corpus"]) == 0
    assert main(["scan", "corpus", "--format", fmt, "--out", "full.csv",
                 "--report-dir", "reports"]) == 0
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "reports").glob("*.json")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == REPORTS_GOLDEN[fmt]
