"""The benchmark's four workloads.

Each workload builds its inputs from the seed in `setup`, checks them against
an outside oracle in `oracle` (outside the timed phase), and runs the program
once over all of them in `run_pass`, which returns the sha256 of every output.
A pass is a series of short operations, each timed by a `clock.Clock` in
reference seconds. Every check counts one attempted operation in a `Tally`;
a check that does not hold counts one failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import shutil
import statistics
import zipfile
from collections import Counter
from pathlib import Path

from trap4phish import cli, qr, urls
from trap4phish.containers import ContainerError, zip_open

import gen
from clock import Clock

SIZES = {
    "full": {
        "corpus_per_class": 300,
        # chosen so each 2n hostile file takes roughly 0.3-0.7 s at the seed
        # commit, and a whole pass a few seconds
        "hostile_n": {"pdf_streams": 250, "pdf_objects": 1000, "docx_instrtext": 500,
                      "xlsx_cells": 650, "html_scripts": 800},
        "inflate_mb": 4,
        "large_bytes": 1 << 20,
        "fit_per_class": 40,
        "label_flip_share": 0.1,
        "urls": 60,
        "flip_share": 0.5,
        "flips_per_symbol": 3,
    },
    "tiny": {
        "corpus_per_class": 2,
        "hostile_n": dict.fromkeys(gen.HOSTILE_FAMILIES, 8),
        "inflate_mb": 1,
        "large_bytes": 64 << 10,
        "fit_per_class": 10,
        "label_flip_share": 0.1,
        "urls": 4,
        "flip_share": 0.5,
        "flips_per_symbol": 3,
    },
}


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_cli(argv: list) -> tuple[int, str]:
    """Run `trap4phish` in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


_SUMMARY_RE = re.compile(r"scanned (\d+) file\(s\); parse_failed (\d+); skipped (\d+); io_failures (\d+)")


def check_scan(code: int, text: str, expected: int, well_formed: bool, tally: Tally, what: str) -> None:
    """One operation per file: a skipped or unread file fails, and so does
    parse_failed on well-formed input; a nonzero exit fails every file."""
    m = _SUMMARY_RE.search(text)
    if code != 0 or m is None:
        tally.add(expected, expected, f"{what}: exit {code}")
        return
    scanned, parse_failed, skipped, io_failures = map(int, m.groups())
    bad = skipped + io_failures + max(0, expected - scanned - skipped - io_failures)
    if well_formed:
        bad += parse_failed
    tally.add(expected, min(bad, expected), f"{what}: {m.group(0)}")


def zip_oracle(paths: list[Path], tally: Tally) -> None:
    """Read each archive with stdlib zipfile and with trap4phish's reader;
    every entry must agree on name and bytes."""
    for path in paths:
        data = path.read_bytes()
        try:
            ours = zip_open(data)
            our_entries = list(ours.entries)
        except ContainerError as exc:
            tally.add(1, 1, f"{path.name}: zip_open: {exc}")
            continue
        with zipfile.ZipFile(io.BytesIO(data)) as ref:
            infos = ref.infolist()
            for i in range(max(len(infos), len(our_entries))):
                if i >= len(infos) or i >= len(our_entries):
                    tally.add(1, 1, f"{path.name}: entry count {len(our_entries)} != {len(infos)}")
                    continue
                try:
                    same = (our_entries[i].name == infos[i].filename
                            and ours.read_entry(our_entries[i]) == ref.read(infos[i]))
                except ContainerError:
                    same = False
                tally.check(same, f"{path.name}: entry {infos[i].filename!r} differs")


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.sizes = SIZES[size]
        self.work = work
        self.tracer = None  # set by the runner for traced passes
        self.clock = Clock()
        self.items = 0  # units of work in one pass
        self.bytes = 0  # input bytes in one pass
        # (kind, reference seconds per operation, wall seconds per operation);
        # kind is "warmup", "untraced" or "traced"
        self.passes: list[tuple[str, dict[str, float], dict[str, float]]] = []
        self.hostile: dict[str, tuple[str, int]] = {}  # hostile input file name -> (family, repeat)

    def run(self, tally: Tally, kind: str) -> tuple[dict[str, str], float, float]:
        """One pass of the given kind; returns the sha256 of every output and
        the pass's time in reference and in wall seconds, the sums over its
        operations."""
        self._ops: dict[str, float] = {}
        self._walls: dict[str, float] = {}
        digests = self.run_pass(tally)
        self.passes.append((kind, self._ops, self._walls))
        return digests, sum(self._ops.values()), sum(self._walls.values())

    def _timed(self, op: str, span: str, fn, *args, file_id: str | None = None):
        """Call fn(*args), timing it as operation `op` of this pass and, in a
        traced pass, inside a span named `span`."""
        if self.tracer is None:
            result, wall, ref = self.clock.time(fn, *args)
        else:
            result, wall, ref = self.clock.time(self.tracer.call, span, fn, args, None, file_id)
        self._ops[op] = ref
        self._walls[op] = wall
        return result

    def median_s(self, prefix: str) -> float:
        """Median over the untraced passes of the reference seconds spent in
        the operations whose name starts with `prefix`."""
        return statistics.median(sum(t for op, t in ops.items() if op.startswith(prefix))
                                 for kind, ops, _walls in self.passes if kind == "untraced")

    def setup(self, tally: Tally) -> None:
        raise NotImplementedError

    def oracle(self, tally: Tally) -> None:
        """Checks of the generated inputs that run outside the timed phase."""

    def run_pass(self, tally: Tally) -> dict[str, str]:
        raise NotImplementedError

    def report(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures for a pass taking `wall_s`."""
        return {}

    def sizes_used(self) -> dict:
        return {}


class _Scan(Workload):
    def report(self, wall_s):
        return {"files_per_s": (self.items / wall_s, "1/s"),
                "mb_per_s": (self.bytes / wall_s / 1e6, "MB/s")}


class CorpusScan(_Scan):
    """Thousands of 1-3 KB synth documents of all four formats, half carrying
    macros, DDE, OLE, JavaScript or iframes, scanned in one `scan` call. Like
    every scan here it runs one worker: with a `--jobs` thread pool on two
    vCPUs the wall time swung with the host (see README.md)."""

    name = "corpus-scan"

    def setup(self, tally):
        self.root = fresh_dir(self.work / "corpus")
        files = gen.corpus(self.seed, self.sizes["corpus_per_class"])
        for rel, data, _label in files:
            path = self.root / rel
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(data)
        self.counts = Counter(rel.split("/", 1)[0] for rel, _d, _l in files)
        self.archives = [self.root / rel for rel, _d, _l in files if rel.endswith((".docx", ".xlsx"))]
        self.items = len(files)
        self.bytes = sum(len(d) for _r, d, _l in files)

    def oracle(self, tally):
        zip_oracle(self.archives, tally)

    def run_pass(self, tally):
        out = fresh_dir(self.work / "out")
        code, text = self._timed("scan", "cli.scan", run_cli, ["scan", "--format", "auto", self.root, "--out", out])
        check_scan(code, text, self.items, True, tally, "scan")
        digests = {}
        for fmt in gen.FORMATS:
            data = (out / f"{fmt}.csv").read_bytes() if (out / f"{fmt}.csv").is_file() else b""
            tally.check(data.count(b"\n") == self.counts[fmt] + 1, f"{fmt}.csv row count")
            digests[f"{fmt}.csv"] = sha256(data)
        return digests

    def sizes_used(self):
        return {"files": self.items, "bytes": self.bytes, "per_format": dict(self.counts)}


class HostileScan(_Scan):
    """Worst-case and per-byte inputs, one `scan` call per file: every item-1
    family at n and 2n, one inflate-heavy docx, one well-formed large file per
    format. One call per file keeps each file's time its own."""

    name = "hostile-scan"

    def setup(self, tally):
        root = fresh_dir(self.work / "hostile")
        self.inputs: list[tuple[Path, str | None, int, bool]] = []  # path, family, repeat, well-formed

        def add(name: str, data: bytes, family: str | None, repeat: int, well_formed: bool):
            path = root / name
            path.write_bytes(data)
            self.inputs.append((path, family, repeat, well_formed))

        for family in gen.HOSTILE_FAMILIES:
            for repeat in (1, 2):
                name, data = gen.hostile_file(family, self.sizes["hostile_n"][family], self.seed, repeat)
                add(name, data, family, repeat, False)
        add("docx_inflate.docx", gen.docx_inflate(self.seed, self.sizes["inflate_mb"]), None, 1, True)
        for fmt, make in gen.LARGE_MAKERS.items():
            add(f"large.{fmt}", make(self.seed, self.sizes["large_bytes"]), None, 1, True)
        self.hostile = {p.name: (family, repeat) for p, family, repeat, _wf in self.inputs if family}
        self.input_bytes = {p.name: p.stat().st_size for p, *_ in self.inputs}
        self.items = len(self.inputs)
        self.bytes = sum(self.input_bytes.values())

    def oracle(self, tally):
        zip_oracle([p for p, *_ in self.inputs if p.suffix in (".docx", ".xlsx")], tally)

    def run_pass(self, tally):
        out_root = fresh_dir(self.work / "out")
        digests = {}
        for path, _family, _repeat, well_formed in self.inputs:
            out = out_root / path.name
            code, text = self._timed(path.name, "cli.scan", run_cli, ["scan", "--format", "auto", path,
                                                                      "--out", out],
                                     file_id=str(path))
            check_scan(code, text, 1, well_formed, tally, path.name)
            csv_path = out / f"{path.suffix[1:]}.csv"
            digests[f"{path.name}.csv"] = sha256(csv_path.read_bytes() if csv_path.is_file() else b"")
        return digests

    def worst_case_table(self) -> list[dict]:
        """Median untraced scan-call seconds per input."""
        return [{"file": path.name, "family": family, "repeat": repeat,
                 "bytes": self.input_bytes[path.name], "scan_s": self.median_s(path.name)}
                for path, family, repeat, _wf in self.inputs]

    def sizes_used(self):
        return {"files": self.items, "bytes": self.bytes, "hostile_n": self.sizes["hostile_n"],
                "inflate_mb": self.sizes["inflate_mb"], "large_bytes": self.sizes["large_bytes"]}


class ModelFit(Workload):
    """`train` then `rank` per format, CLI defaults, on labeled CSVs scanned
    in set-up with a seeded share of labels flipped so trees do not stay tiny."""

    name = "model-fit"

    def setup(self, tally):
        root = fresh_dir(self.work / "fit")
        self.csvs: dict[str, Path] = {}
        self.rows = 0
        for i, fmt in enumerate(gen.FORMATS):
            files = gen.corpus(self.seed, self.sizes["fit_per_class"], formats=(fmt,))
            (root / fmt).mkdir()
            paths = []
            for rel, data, _label in files:
                paths.append(root / rel)
                paths[-1].write_bytes(data)
            labels = root / f"{fmt}-labels.csv"
            labels.write_text("path,label\n" + "".join(f"{Path(rel).name},{label}\n"
                                                       for rel, _d, label in files))
            csv_path = root / f"{fmt}.csv"
            # single-threaded, like the rest of set-up, so the probe can steady setup_s
            code, text = run_cli(["scan", "--format", fmt, "--labels", labels, "--out", csv_path, *paths])
            check_scan(code, text, len(files), True, tally, f"scan {fmt}")
            self.rows += flip_labels(csv_path, gen.rng_for(self.seed, 5, i), self.sizes["label_flip_share"])
            self.csvs[fmt] = csv_path
        self.items = self.rows
        self.bytes = sum(p.stat().st_size for p in self.csvs.values())

    def run_pass(self, tally):
        out_root = fresh_dir(self.work / "models")
        digests = {}
        f1 = []
        for fmt, csv_path in self.csvs.items():
            out = out_root / fmt
            code, _ = self._timed(f"train {fmt}", "cli.train", run_cli,
                                  ["train", "--in", csv_path, "--format", fmt, "--out-dir", out])
            tally.check(code == 0, f"train {fmt}: exit {code}")
            code, _ = self._timed(f"rank {fmt}", "cli.rank", run_cli,
                                  ["rank", "--in", csv_path, "--format", fmt, "--out", out / "rank.csv"])
            tally.check(code == 0, f"rank {fmt}: exit {code}")
            for name in ("decision_tree.json", "random_forest.json", "metrics.json", "rank.csv", "rank.topk.json"):
                path = out / name
                digests[f"{fmt}/{name}"] = sha256(path.read_bytes() if path.is_file() else b"")
            if (out / "metrics.json").is_file():
                f1.append(json.loads((out / "metrics.json").read_text())["RF"]["f1_macro"])
        self.f1 = statistics.fmean(f1) if f1 else 0.0
        return digests

    def report(self, wall_s):
        return {"fit_s": (self.median_s("train "), "s"), "rank_s": (self.median_s("rank "), "s"),
                "rf_f1_macro": (self.f1, "ratio")}

    def sizes_used(self):
        return {"rows": self.rows, "csv_bytes": self.bytes, "per_class_per_format": self.sizes["fit_per_class"],
                "label_flip_share": self.sizes["label_flip_share"]}


def flip_labels(csv_path: Path, rng, share: float) -> int:
    """Flip the label of round(share * rows) seeded rows in place; returns the row count."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    for i in rng.choice(len(rows), size=round(share * len(rows)), replace=False):
        features, label = rows[i].rsplit(",", 1)
        rows[i] = f"{features},{1 - int(label)}"
    csv_path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return len(rows)


class QrRoundtrip(Workload):
    """Phishing-style URLs through encode, render, PGM, decode and URL
    features; a seeded share of symbols carries module flips well inside the
    Reed-Solomon capacity."""

    name = "qr-roundtrip"

    def setup(self, tally):
        self.urls = gen.phishing_urls(self.seed, self.sizes["urls"])
        rng = gen.rng_for(self.seed, 6)
        k = self.sizes["flips_per_symbol"]
        # flip positions as fractions of the symbol's inner area, mapped onto
        # the actual symbol size when it is encoded
        flipped = set(rng.permutation(len(self.urls))[:round(self.sizes["flip_share"] * len(self.urls))])
        self.flips = [rng.random((k, 2)) if i in flipped else None for i in range(len(self.urls))]
        self.items = len(self.urls)
        self.bytes = sum(len(u) for u in self.urls)

    def run_pass(self, tally):
        payloads = []
        rows = []
        for i, (url, flips) in enumerate(zip(self.urls, self.flips)):
            try:
                payload, features = self._timed(f"symbol {i}", "bench.roundtrip", roundtrip, url, flips)
            except qr.QrError as exc:
                tally.add(1, 1, f"{url}: {exc}")
                payloads.append(b"")
                continue
            tally.check(payload == url.encode(), f"{url}: decoded {payload!r}")
            payloads.append(payload)
            rows.append(",".join([url] + [f"{v:.9g}" for v in features.as_dict().values()]))
        return {"payloads.txt": sha256(b"\n".join(payloads)),
                "url_features.csv": sha256("\n".join(rows).encode())}

    def report(self, wall_s):
        return {"symbols_per_s": (self.items / wall_s, "1/s")}

    def sizes_used(self):
        return {"symbols": self.items, "flipped": sum(f is not None for f in self.flips),
                "flips_per_symbol": self.sizes["flips_per_symbol"]}


def roundtrip(url: str, flips):
    """URL -> QR symbol (with module flips) -> PGM -> decoded payload -> URL features."""
    matrix = qr.qr_encode(url.encode())
    if flips is not None:
        matrix = flip_modules(matrix, flips)
    payload = qr.qr_decode(qr.from_pgm(qr.to_pgm(qr.qr_render(matrix))))
    return payload, urls.url_features(payload.decode("utf-8", "replace"))


def flip_modules(matrix, flips):
    """Invert one module per (u, v) pair inside the area that excludes the
    finder patterns, separators, timing and format modules; each flip damages
    at most one codeword."""
    lo, hi = 9, matrix.size - 9
    modules = matrix.modules.copy()
    for u, v in flips:
        r, c = lo + int(u * (hi - lo)), lo + int(v * (hi - lo))
        modules[r, c] = not modules[r, c]
    return dataclasses.replace(matrix, modules=modules)


WORKLOADS = {w.name: w for w in (CorpusScan, HostileScan, ModelFit, QrRoundtrip)}
