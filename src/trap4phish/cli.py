"""Command-line front door: scan files to feature CSVs, synthesize corpora,
train/evaluate/rank detectors, and run the QR / URL tools.

Exit codes: 0 success, 2 input/I-O problems, 3 schema/model problems,
4 decode/parse domain errors.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import functools
import glob
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analyzers import FORMATS as _FORMATS
# scan calls neither write_*_csv; they stay names here for bench/tracing.py
from .core import (
    CsvRowWriter, FeatureSchema, FileKind, LabeledDataset, SchemaError, DatasetError,
    read_dataset_csv, sniff_file_kind, write_dataset_csv, write_features_csv,
)
from .ml import (
    ForestParams, MlError, TreeParams, evaluate, load_model, metrics_table, rank_features_gini,
    rank_features_permutation, select_top_k, stratified_split,
    train_decision_tree, train_random_forest,
)
from .qr import (
    DEFAULT_MODULE_PX, DEFAULT_QUIET_ZONE, QrError, from_pgm, qr_decode, qr_encode,
    qr_render, to_pgm,
)
from .synth import SynthConfig, write_corpus
from .urls import InsufficientData, UrlError, URL_FEATURE_NAMES, effect_size_report, url_features

EXIT_OK = 0
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_DOMAIN = 4


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, MlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DatasetError, QrError, UrlError, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


_positive_int, _non_negative_int = _int_at_least(1), _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trap4phish",
        description="Execution-free static analysis of phishing attachments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="extract feature CSVs from files",
                       description="Write each file's feature CSV row as soon as it is analyzed.")
    p.add_argument("inputs", nargs="+", help="files, directories or globs")
    p.add_argument("--format", choices=["auto"] + list(_FORMATS), default="auto",
                   help="with a format other than auto, a directory contributes only "
                        "its files named *.<format> (any case); named files and glob "
                        "matches are scanned as given")
    p.add_argument("--features", choices=["full", "selected"], default="full")
    p.add_argument("--out", required=True,
                   help="output CSV (explicit format) or directory (auto)")
    p.add_argument("--host", help="page host for HTML internal/external links")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    p.add_argument("--report-dir", help="write one AnalysisReport JSON per input")
    p.add_argument("--labels", help="labels CSV (path,label) to emit labeled datasets")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--format", choices=list(_FORMATS), required=True)
    p.add_argument("--count", type=_positive_int, required=True, help="files per class")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="output directory")
    for toggle in ("macros", "dde", "ole", "js-actions", "hidden-iframes", "remote-templates"):
        p.add_argument(f"--no-{toggle}", action="store_true",
                       help=f"disable the {toggle.replace('-', ' ')} indicator")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="70/30 split, train DT and RF, report metrics")
    p.add_argument("--in", dest="input", required=True, help="labeled feature CSV")
    p.add_argument("--format", choices=list(_FORMATS), required=True)
    p.add_argument("--features", choices=["full", "selected"], default="full",
                   help="which schema the CSV uses")
    p.add_argument("--out-dir", required=True, help="directory for model/metric files")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trees", type=_positive_int, default=50)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model file on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=list(_FORMATS), required=True)
    p.add_argument("--features", choices=["full", "selected"], default="full")
    p.add_argument("--out", help="metrics JSON path (default: stdout only)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="gini + permutation importance and top-k schema")
    p.add_argument("--in", dest="input", required=True, help="labeled feature CSV")
    p.add_argument("--format", choices=list(_FORMATS), required=True)
    p.add_argument("--k", type=_positive_int, default=None,
                   help="selection size (default: size of the format's selected subset)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trees", type=_positive_int, default=50)
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--out", required=True, help="ranking CSV path")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("qr", help="QR code tools")
    qr_sub = p.add_subparsers(dest="qr_command", required=True)
    q = qr_sub.add_parser("encode", help="encode a URL list to PGM images")
    q.add_argument("--in", dest="input", required=True, help="one URL per line")
    q.add_argument("--out-dir", required=True)
    q.add_argument("--ec-level", choices=["L", "M", "Q", "H"], default="M")
    q.add_argument("--module-px", type=_positive_int, default=DEFAULT_MODULE_PX)
    q.add_argument("--quiet-zone", type=_non_negative_int, default=DEFAULT_QUIET_ZONE)
    q.set_defaults(func=cmd_qr_encode)
    q = qr_sub.add_parser("decode", help="decode one PGM image")
    q.add_argument("--in", dest="input", required=True)
    q.set_defaults(func=cmd_qr_decode)

    p = sub.add_parser("url", help="URL lexical tools")
    url_sub = p.add_subparsers(dest="url_command", required=True)
    u = url_sub.add_parser("features", help="lexical features for a URL list")
    u.add_argument("--in", dest="input", required=True)
    u.add_argument("--out", required=True)
    u.set_defaults(func=cmd_url_features)
    u = url_sub.add_parser("effects", help="benign vs malicious effect sizes")
    u.add_argument("--benign", required=True)
    u.add_argument("--malicious", required=True)
    u.add_argument("--out", required=True)
    u.set_defaults(func=cmd_url_effects)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: building costs more than thirty parses
    return build_parser()


def _expand_inputs(patterns: list[str], suffix: str | None = None) -> list[Path]:
    """Files named by `patterns`; a directory walk keeps only files ending in
    `suffix` (compared case-insensitively) when one is given.

    A walk yields what `rglob("*")` filtered by `is_file()` yields: hidden
    files count, a symlink to a file counts, a symlink to a directory is not
    entered, and broken links, FIFOs and sockets are left out. A directory
    that cannot be listed is skipped on PermissionError; other OSErrors
    propagate."""
    paths: set[Path] = set()
    for pattern in patterns:
        p = Path(pattern)
        if p.is_dir():
            _walk_files(p, suffix, paths)
        elif p.is_file():
            paths.add(p)
        else:
            paths.update(Path(m) for m in glob.glob(pattern, recursive=True) if Path(m).is_file())
    return sorted(paths)


def _walk_files(root: Path, suffix: str | None, found: set[Path]) -> None:
    # one scandir per directory: a DirEntry knows its type from the listing,
    # so only symlinks cost a stat
    pending = [root]
    while pending:
        directory = pending.pop()
        try:
            with os.scandir(directory) as listing:
                entries = list(listing)
        except PermissionError:
            continue
        for entry in entries:
            name = entry.name
            if entry.is_dir(follow_symlinks=False):
                pending.append(directory / name)
                continue
            if suffix is not None:
                dot = name.rfind(".")  # where Path.suffix starts
                if dot <= 0 or name[dot:].lower() != suffix:
                    continue
            if entry.is_file():
                found.add(directory / name)


def cmd_scan(args) -> int:
    """Analyze the inputs one at a time in sorted path order, writing each
    file's CSV row and report JSON as soon as it is analyzed, so memory does
    not grow with the file count. A malformed labels file fails before any
    output; an interrupted scan leaves the rows already written."""
    inputs = _expand_inputs(args.inputs, None if args.format == "auto" else f".{args.format}")
    if args.labels:
        # the labels CSV often sits in the scanned directory; it is no sample
        labels_path = Path(args.labels).resolve()
        inputs = [p for p in inputs if p.name != labels_path.name or p.resolve() != labels_path]
    if not inputs:
        print("error: no inputs", file=sys.stderr)
        return EXIT_IO
    if args.labels or args.report_dir:
        first_with_name: dict[str, Path] = {}
        for path in inputs:
            first = first_with_name.setdefault(path.name, path)
            if first is not path:
                print(f"error: {first} and {path} have the same file name; "
                      "--labels and --report-dir key files by name", file=sys.stderr)
                return EXIT_IO
    labels = _read_labels(args.labels) if args.labels else None
    if args.report_dir:
        Path(args.report_dir).mkdir(parents=True, exist_ok=True)

    def analyze_one(path: Path):
        try:
            # unbuffered: one read of the whole file, no isatty probe
            with open(path, "rb", buffering=0) as fh:
                data = fh.readall()
        except OSError as exc:
            return path, None, f"read failed: {exc}"
        kind = args.format
        if kind == "auto":
            sniffed = sniff_file_kind(data)
            if sniffed is FileKind.UNKNOWN or sniffed is FileKind.QR_IMAGE:
                return path, None, f"unsupported kind {sniffed.value}"
            kind = sniffed.value
        analyze = _FORMATS[kind][-1]
        extra = {"page_host": args.host} if kind == "html" else {}
        return path, analyze(data, source_path=str(path), **extra), None

    selected = args.features == "selected"
    scanned = parse_failed = skipped = io_failures = 0
    with contextlib.ExitStack() as stack:
        writers: dict[str, CsvRowWriter] = {}

        def writer_for(kind: str) -> CsvRowWriter:
            if kind not in writers:
                out_path = Path(args.out) / f"{kind}.csv" if args.format == "auto" else args.out
                writers[kind] = CsvRowWriter(_schema(kind, selected), stack.enter_context(
                    open(out_path, "wb")), labeled=labels is not None)
            return writers[kind]

        if args.format == "auto":
            Path(args.out).mkdir(parents=True, exist_ok=True)
        else:
            writer_for(args.format)  # written even when no file is read
        mapper = map if args.jobs == 1 else stack.enter_context(
            concurrent.futures.ThreadPoolExecutor(args.jobs)).map
        for path, report, problem in mapper(analyze_one, inputs):
            if report is None:
                if problem.startswith("read failed"):
                    io_failures += 1
                else:
                    skipped += 1
                print(f"warning: {path}: {problem}", file=sys.stderr)
                continue
            scanned += 1
            parse_failed += report.parse_failed
            if args.report_dir:
                (Path(args.report_dir) / f"{path.name}.json").write_text(
                    report.to_json(indent=2), encoding="utf-8")
            writer = writer_for(report.format_kind)
            row = [report.features[c] for c in writer.schema.columns]
            if labels is None:
                writer.add(row)
            elif path.name in labels:
                writer.add(row, labels[path.name])
            else:
                print(f"warning: no label for {report.source_path}, skipped", file=sys.stderr)

    print(f"scanned {scanned} file(s); parse_failed {parse_failed}; "
          f"skipped {skipped}; io_failures {io_failures}")
    return EXIT_IO if io_failures else EXIT_OK


@contextlib.contextmanager
def _utf8_text(path: str):
    """Report a file that is not UTF-8 text as malformed content."""
    try:
        yield
    except UnicodeDecodeError:
        raise DatasetError(f"{path} is not UTF-8 text") from None


def _read_labels(path: str) -> dict[str, int]:
    """Labels keyed by file name, from a path,label CSV that may start with
    a byte-order mark; two rows naming one file name are refused."""
    rows: dict[str, list[str]] = {}
    with _utf8_text(path), open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["path", "label"]:
            raise SchemaError(f"labels file must have header path,label, got {header}")
        for row in reader:
            if len(row) != 2 or row[1] not in ("0", "1"):
                raise DatasetError(f"bad labels row {row!r}")
            first = rows.setdefault(Path(row[0]).name, row)
            if first is not row:
                raise DatasetError(f"labels rows {first!r} and {row!r} name one file name")
    return {name: int(row[1]) for name, row in rows.items()}


def _schema(kind: str, selected: bool) -> FeatureSchema:
    # unpacked, not read by attribute: bench/tracing.py swaps in plain tuples
    full_schema, selected_schema, _analyze = _FORMATS[kind]
    return selected_schema if selected else full_schema


def cmd_synth(args) -> int:
    print(f"# synth format={args.format} count={args.count} seed={args.seed}")
    config = SynthConfig(
        format=args.format,
        count=args.count,
        seed=args.seed,
        macros=not args.no_macros,
        dde=not args.no_dde,
        ole=not args.no_ole,
        js_actions=not args.no_js_actions,
        hidden_iframes=not args.no_hidden_iframes,
        remote_templates=not args.no_remote_templates,
    )
    labels_path = write_corpus(config, args.out)
    print(f"wrote corpus to {args.out} (labels: {labels_path})")
    return EXIT_OK


def _require_both_classes(ds: LabeledDataset) -> None:
    labels = set(ds.y.tolist())
    if labels != {0, 1}:
        raise SchemaError(f"training needs both classes, got labels {sorted(labels)}")


def cmd_train(args) -> int:
    print(f"# train format={args.format} seed={args.seed} trees={args.trees}")
    ds = read_dataset_csv(args.input, _schema(args.format, args.features == "selected"))
    _require_both_classes(ds)
    train_ds, test_ds = stratified_split(ds, 0.3, seed=args.seed)
    dt = train_decision_tree(train_ds, TreeParams())
    rf = train_random_forest(train_ds, ForestParams(n_trees=args.trees, seed=args.seed))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "decision_tree.json").write_text(dt.to_json(), encoding="utf-8")
    (out_dir / "random_forest.json").write_text(rf.to_json(), encoding="utf-8")
    rows = [("DT", evaluate(dt, test_ds)), ("RF", evaluate(rf, test_ds))]
    print(metrics_table(rows))
    metrics_payload = {name: json.loads(m.to_json()) for name, m in rows}
    (out_dir / "metrics.json").write_text(json.dumps(metrics_payload, indent=2), encoding="utf-8")
    return EXIT_OK


def _load_model(path: str):
    try:
        return load_model(Path(path).read_text(encoding="utf-8"))
    except (ValueError, KeyError, TypeError) as exc:
        # invalid JSON, missing fields, wrong field types, nodes that do not form a tree
        raise SchemaError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from None


def cmd_evaluate(args) -> int:
    model = _load_model(args.model)
    ds = read_dataset_csv(args.input, _schema(args.format, args.features == "selected"))
    metrics = evaluate(model, ds)
    print(metrics_table([(type(model).__name__, metrics)]))
    if args.out:
        Path(args.out).write_text(metrics.to_json(indent=2), encoding="utf-8")
    return EXIT_OK


def cmd_rank(args) -> int:
    print(f"# rank format={args.format} seed={args.seed}")
    k = args.k if args.k is not None else len(_schema(args.format, selected=True))
    columns = len(_schema(args.format, selected=False))
    if k > columns:
        raise SchemaError(f"--k {k} exceeds the {columns} columns of the {args.format} schema")
    ds = read_dataset_csv(args.input, _schema(args.format, selected=False))
    if len(ds):  # an empty dataset gets the trainer's own message
        _require_both_classes(ds)
    rf = train_random_forest(ds, ForestParams(n_trees=args.trees, seed=args.seed))
    gini = rank_features_gini(rf)
    perm_scores = dict(rank_features_permutation(rf, ds, seed=args.seed, n_repeats=args.repeats))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "gini_score", "permutation_score"])
        for name, score in gini:
            writer.writerow([name, f"{score:.9g}", f"{perm_scores[name]:.9g}"])
    projected = select_top_k(gini, k, ds.schema)
    schema_path = Path(args.out).with_suffix(".topk.json")
    schema_path.write_text(json.dumps({
        "format_kind": projected.format_kind,
        "columns": list(projected.columns),
        "version": projected.version,
        "method": "gini",
        "k": k,
    }, indent=2), encoding="utf-8")
    print(f"wrote ranking to {args.out} and top-{k} schema to {schema_path}")
    return EXIT_OK


def _read_url_lines(path: str) -> list[str]:
    with _utf8_text(path), open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def cmd_qr_encode(args) -> int:
    urls = _read_url_lines(args.input)
    if not urls:
        print("error: no URLs in input", file=sys.stderr)
        return EXIT_IO
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    for idx, url in enumerate(urls):
        try:
            m = qr_encode(url.encode("utf-8"), args.ec_level)
            bmp = qr_render(m, args.module_px, args.quiet_zone)
        except QrError as exc:  # a payload too long, or a bitmap too large
            print(f"error: line {idx + 1}: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        name = f"{idx:05d}.pgm"
        (out_dir / name).write_bytes(to_pgm(bmp))
        manifest_rows.append([idx, url, m.version, m.ec_level])
    with open(out_dir / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "url", "version", "ec_level"])
        writer.writerows(manifest_rows)
    print(f"encoded {len(urls)} URL(s) into {out_dir}")
    return EXIT_OK


def cmd_qr_decode(args) -> int:
    data = Path(args.input).read_bytes()
    try:
        bitmap = from_pgm(data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    payload = qr_decode(bitmap)
    sys.stdout.write(payload.decode("utf-8", errors="replace") + "\n")
    return EXIT_OK


def cmd_url_features(args) -> int:
    urls = _read_url_lines(args.input)
    if not urls:
        print("error: no URLs in input", file=sys.stderr)
        return EXIT_IO
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["url"] + list(URL_FEATURE_NAMES))
        for url in urls:
            feats = url_features(url)
            writer.writerow([url] + [f"{v:.9g}" for v in feats.as_dict().values()])
    print(f"wrote features for {len(urls)} URL(s) to {args.out}")
    return EXIT_OK


def cmd_url_effects(args) -> int:
    benign = _read_url_lines(args.benign)
    malicious = _read_url_lines(args.malicious)
    report = effect_size_report(benign, malicious)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "cohens_d", "mean_malicious", "mean_benign",
                         "pooled_sd", "n_malicious", "n_benign", "note"])
        for name in URL_FEATURE_NAMES:
            effect = report[name]
            if effect is None:
                writer.writerow([name, "", "", "", "", len(malicious), len(benign),
                                 "degenerate: zero pooled sd"])
            else:
                writer.writerow([
                    name, f"{effect.cohens_d:.9g}", f"{effect.mean_a:.9g}",
                    f"{effect.mean_b:.9g}", f"{effect.pooled_sd:.9g}",
                    effect.n_a, effect.n_b, "",
                ])
    print(f"wrote effect sizes to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
