"""Golden output of the ML commands on a noisy, class-imbalanced dataset.

`test_golden.py` trains on synthetic corpora that a tree separates
perfectly, so its metrics read 1.0 for most formats and `evaluate` is not
run at all. Here a seeded labeled CSV in the pdf schema, with 30% malicious
rows and a tenth of all labels flipped, goes through `train`, `evaluate
--out` (once per model) and `rank`, all through `cli.main`. The sha256 of
every file they write must stay as recorded: a refactor that changes one
model, metrics or ranking byte fails this test.
"""

import hashlib
import random

from trap4phish.analyzers import FORMATS
from trap4phish.cli import main

FORMAT = "pdf"
SEED = 5
ROWS = 120
NOISE = 0.1
TREES = 12

GOLDEN = {
    "eval_dt.json":
        "bcd5fbd880c0087f1ba5fc98abb032ba3a2a303e7f2eb659441e559824a5b502",
    "eval_rf.json":
        "03abee4b13e18b611d438ef1bb2d528c8bac9a2b495fb0a5d193405caccaab24",
    "models/decision_tree.json":
        "f436c656d07c47dc50ba5b3d5dc15dcce345a9d094cdfdeae3bf7dad06edd4b6",
    "models/metrics.json":
        "5c360422a2f774f01af2f22ff62ecfced62ad12cf2076462e55d1f916046a2b5",
    "models/random_forest.json":
        "bdf70b71154520099c701b6e5125ce0c21c2a2a991b013f82d23ac246cb442f2",
    "rank.csv":
        "1e8eb51910086ca93228e1c5acc5728d6e2fcd605d4cd18588f0f21019d168b0",
    "rank.topk.json":
        "c812e0d10228b74c3ec2c478692c4a8cca33e59426035d78d21ab5bec45713a6",
}


def noisy_csv(columns: tuple[str, ...]) -> str:
    """A labeled CSV over `columns` drawn from `random.Random(SEED)`: rows
    whose index ends in 2, 5 or 8 are malicious and run higher in the
    count and ratio columns, then a share NOISE of labels is flipped."""
    rng = random.Random(SEED)
    lines = [",".join(columns + ("label",))]
    for i in range(ROWS):
        label = int(i % 10 in (2, 5, 8))
        cells = []
        for j in range(len(columns)):
            kind = j % 4
            if kind == 0:  # a small count
                cells.append(str(int(rng.random() * (4 + 2 * label))))
            elif kind == 1:  # a ratio with six significant digits
                cells.append(f"{rng.random() + 0.25 * label:.6g}")
            elif kind == 2:  # mostly zero, whatever the class
                cells.append("0" if rng.random() < 0.8 else str(1 + int(rng.random() * 9)))
            else:  # constant: no split can use it
                cells.append("1")
        if rng.random() < NOISE:
            label = 1 - label
        lines.append(",".join(cells + [str(label)]))
    return "\n".join(lines) + "\n"


def run_ml(root) -> dict[str, str]:
    """Train, evaluate and rank on the noisy CSV under `root`; sha256 of every output."""
    data = root / "data.csv"
    data.write_text(noisy_csv(FORMATS[FORMAT].schema.columns), encoding="utf-8")
    out = root / "out"
    out.mkdir()

    def run(*args) -> None:
        assert main([str(a) for a in args]) == 0, args

    run("train", "--in", data, "--format", FORMAT, "--trees", TREES, "--seed", SEED,
        "--out-dir", out / "models")
    for name, model in (("dt", "decision_tree.json"), ("rf", "random_forest.json")):
        run("evaluate", "--model", out / "models" / model, "--in", data, "--format", FORMAT,
            "--out", out / f"eval_{name}.json")
    run("rank", "--in", data, "--format", FORMAT, "--trees", TREES, "--seed", SEED,
        "--repeats", 3, "--out", out / "rank.csv")
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_ml_output_on_noisy_data_is_golden(tmp_path, capsys):
    assert run_ml(tmp_path) == GOLDEN
