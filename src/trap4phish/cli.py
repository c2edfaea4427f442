"""Command-line front door: scan files to feature CSVs, synthesize corpora,
train/evaluate/rank detectors, and run the QR / URL tools.

Exit codes: 0 success, 2 input/I-O problems, 3 schema/model problems,
4 decode/parse domain errors.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import glob
import json
import sys
from pathlib import Path

from . import __version__
from .analyzers import FORMATS as _FORMATS
from .config import load_config
from .core import (
    FeatureSchema, FileKind, LabeledDataset, SchemaError, DatasetError,
    read_dataset_csv, sniff_file_kind, write_dataset_csv, write_features_csv,
)
from .ml import (
    ForestParams, TreeParams, RandomForestModel, DecisionTreeModel,
    SchemaMismatchError, evaluate, metrics_table, rank_features_gini,
    rank_features_permutation, select_top_k, stratified_split,
    train_decision_tree, train_random_forest,
)
from .qr import (
    PayloadTooLong, QrError, from_pgm, qr_decode, qr_encode, qr_render, to_pgm,
)
from .synth import SynthConfig, write_corpus
from .urls import InsufficientData, UrlError, URL_FEATURE_NAMES, effect_size_report, url_features

EXIT_OK = 0
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_DOMAIN = 4


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, SchemaMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DatasetError, QrError, UrlError, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trap4phish",
        description="Execution-free static analysis of phishing attachments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="extract feature CSVs from files")
    p.add_argument("inputs", nargs="+", help="files or globs")
    p.add_argument("--format", choices=["auto"] + list(_FORMATS), default="auto")
    p.add_argument("--features", choices=["full", "selected"], default="full")
    p.add_argument("--out", required=True,
                   help="output CSV (explicit format) or directory (auto)")
    p.add_argument("--host", help="page host for HTML internal/external links")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--report-dir", help="write one AnalysisReport JSON per input")
    p.add_argument("--config", help="keyword config file (else TRAP4PHISH_CONFIG)")
    p.add_argument("--labels", help="labels CSV (path,label) to emit labeled datasets")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--format", choices=list(_FORMATS), required=True)
    p.add_argument("--count", type=int, required=True, help="files per class")
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
    q.add_argument("--module-px", type=int, default=8)
    q.add_argument("--quiet-zone", type=int, default=4)
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


def _expand_inputs(patterns: list[str]) -> list[Path]:
    paths: set[Path] = set()
    for pattern in patterns:
        p = Path(pattern)
        if p.is_dir():
            paths.update(q for q in p.rglob("*") if q.is_file())
        elif p.is_file():
            paths.add(p)
        else:
            paths.update(Path(m) for m in glob.glob(pattern, recursive=True) if Path(m).is_file())
    return sorted(paths)


def cmd_scan(args) -> int:
    config = load_config(args.config)
    inputs = _expand_inputs(args.inputs)
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

    def analyze_one(path: Path):
        try:
            data = path.read_bytes()
        except OSError as exc:
            return path, None, f"read failed: {exc}"
        kind = args.format
        if kind == "auto":
            sniffed = sniff_file_kind(data)
            if sniffed is FileKind.UNKNOWN or sniffed is FileKind.QR_IMAGE:
                return path, None, f"unsupported kind {sniffed.value}"
            kind = sniffed.value
        _schema, _sel, analyze = _FORMATS[kind]
        if kind == "html":
            report = analyze(data, page_host=args.host, source_path=str(path), config=config)
        else:
            report = analyze(data, source_path=str(path), config=config)
        return path, report, None

    if args.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(analyze_one, inputs))
    else:
        results = [analyze_one(p) for p in inputs]

    io_failures = 0
    skipped = 0
    by_kind: dict[str, list] = {}
    for path, report, problem in results:
        if report is None:
            if problem.startswith("read failed"):
                io_failures += 1
            else:
                skipped += 1
            print(f"warning: {path}: {problem}", file=sys.stderr)
            continue
        by_kind.setdefault(report.format_kind, []).append(report)

    if args.report_dir:
        report_dir = Path(args.report_dir)
        report_dir.mkdir(parents=True, exist_ok=True)
        for reports in by_kind.values():
            for report in reports:
                name = Path(report.source_path).name + ".json"
                (report_dir / name).write_text(report.to_json(indent=2), encoding="utf-8")

    labels = _read_labels(args.labels) if args.labels else None
    selected = args.features == "selected"
    if args.format == "auto":
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for kind, reports in sorted(by_kind.items()):
            _write_scan_csv(kind, reports, out_dir / f"{kind}.csv", selected, labels)
    else:
        reports = by_kind.get(args.format, [])
        _write_scan_csv(args.format, reports, Path(args.out), selected, labels)

    parse_failed = sum(1 for reports in by_kind.values() for r in reports if r.parse_failed)
    total = sum(len(r) for r in by_kind.values())
    print(f"scanned {total} file(s); parse_failed {parse_failed}; "
          f"skipped {skipped}; io_failures {io_failures}")
    return EXIT_IO if io_failures else EXIT_OK


def _read_labels(path: str) -> dict[str, int]:
    labels: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["path", "label"]:
            raise SchemaError(f"labels file must have header path,label, got {header}")
        for row in reader:
            if len(row) != 2 or row[1] not in ("0", "1"):
                raise DatasetError(f"bad labels row {row!r}")
            labels[Path(row[0]).name] = int(row[1])
    return labels


def _schema(kind: str, selected: bool) -> FeatureSchema:
    # unpacked, not read by attribute: bench/tracing.py swaps in plain tuples
    full_schema, selected_schema, _analyze = _FORMATS[kind]
    return selected_schema if selected else full_schema


def _write_scan_csv(kind: str, reports: list, out_path: Path, selected: bool,
                    labels: dict[str, int] | None = None) -> None:
    schema = _schema(kind, selected)
    vectors = [r.features.project(schema) if selected else r.features for r in reports]
    if labels is None:
        write_features_csv(schema, vectors, out_path)
        return
    rows = []
    for report, vec in zip(reports, vectors):
        label = labels.get(Path(report.source_path).name)
        if label is None:
            print(f"warning: no label for {report.source_path}, skipped", file=sys.stderr)
            continue
        rows.append((vec, label))
    write_dataset_csv(LabeledDataset(schema, rows), out_path)


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


def _load_labeled(path: str, fmt: str, selected: bool) -> LabeledDataset:
    return read_dataset_csv(path, _schema(fmt, selected))


def cmd_train(args) -> int:
    print(f"# train format={args.format} seed={args.seed} trees={args.trees}")
    ds = _load_labeled(args.input, args.format, args.features == "selected")
    labels = set(ds.labels)
    if labels != {0, 1}:
        print(f"error: training needs both classes, got labels {sorted(labels)}", file=sys.stderr)
        return EXIT_SCHEMA
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
        text = Path(path).read_text(encoding="utf-8")
        payload = json.loads(text)
        kind = payload.get("model_type") if isinstance(payload, dict) else None
        if kind == "decision_tree":
            return DecisionTreeModel.from_json(text)
        if kind == "random_forest":
            return RandomForestModel.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        # invalid JSON, missing fields, wrong field types, nodes that do not form a tree
        raise SchemaError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from None
    raise SchemaError(f"unknown model_type {kind!r} in {path}")


def cmd_evaluate(args) -> int:
    model = _load_model(args.model)
    ds = _load_labeled(args.input, args.format, args.features == "selected")
    metrics = evaluate(model, ds)
    print(metrics_table([(type(model).__name__, metrics)]))
    if args.out:
        Path(args.out).write_text(metrics.to_json(indent=2), encoding="utf-8")
    return EXIT_OK


def cmd_rank(args) -> int:
    print(f"# rank format={args.format} seed={args.seed}")
    ds = _load_labeled(args.input, args.format, selected=False)
    k = args.k if args.k is not None else len(_schema(args.format, selected=True))
    rf = train_random_forest(ds, ForestParams(n_trees=args.trees, seed=args.seed))
    gini = rank_features_gini(rf)
    permutation = rank_features_permutation(rf, ds, seed=args.seed, n_repeats=args.repeats)
    gini_scores = dict(gini.entries)
    perm_scores = dict(permutation.entries)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "gini_score", "permutation_score"])
        for name, _score in gini.entries:
            writer.writerow([name, f"{gini_scores[name]:.9g}", f"{perm_scores[name]:.9g}"])
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
    with open(path, "r", encoding="utf-8") as fh:
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
        except PayloadTooLong as exc:
            print(f"error: line {idx + 1}: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        bmp = qr_render(m, args.module_px, args.quiet_zone)
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
