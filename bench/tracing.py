"""In-memory span tracing installed from outside the package.

A `Tracer` replaces public functions of trap4phish with timing wrappers at
the place each caller looks them up (a module global, a class attribute or
an entry of `cli._FORMATS`), and puts every original back on `uninstall`.
Spans are (id, name, start, end, parent, file id, thread, count) tuples kept
in a list; span stacks are thread-local because `scan --jobs N` analyzes
files on a thread pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

from trap4phish import cli, qr as qr_pkg, synth as synth_pkg, urls as urls_mod
from trap4phish.analyzers import docx, html, ooxml, pdf, xlsx
from trap4phish.containers.ziparc import ZipArchive
from trap4phish.ml import DecisionTreeModel, RandomForestModel
from trap4phish.qr import decode as qr_decode_mod

from gen import HOSTILE_FAMILIES


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    file_id: str | None
    thread: int
    count: float


def _len_arg0(args, kwargs, result):
    return len(args[0])


def _len_result(args, kwargs, result):
    return len(result)


def _rows(args, kwargs, result):
    return len(args[1])  # args[0] is the model


def _forest_nodes(args, kwargs, result):
    return sum(len(tree.nodes) for tree in result.trees)


def _analyzer_file(args, kwargs):
    return kwargs.get("source_path")


# (owner, attribute, span name, count function); owners are modules or classes.
_PATCH_POINTS = [
    *((mod, "shannon_entropy", "core.entropy", _len_arg0) for mod in (docx, xlsx, pdf, html)),
    (cli, "sniff_file_kind", "core.sniff", None),
    (cli, "write_features_csv", "core.csv_write", None),
    (cli, "write_dataset_csv", "core.csv_write", None),
    (cli, "read_dataset_csv", "core.csv_read", None),
    (ZipArchive, "read_entry", "containers.zip.read_entry", _len_result),
    (ooxml, "cfb_open", "containers.cfb.open", None),
    (ooxml, "vba_extract", "containers.vba.extract", _len_result),
    (docx, "read_xml_parts", "analyzers.ooxml.read_xml_parts", None),
    (xlsx, "read_xml_parts", "analyzers.ooxml.read_xml_parts", None),
    (cli, "train_decision_tree", "ml.fit_dt", None),
    (cli, "train_random_forest", "ml.fit_rf", _forest_nodes),
    (cli, "rank_features_gini", "ml.rank_gini", None),
    (cli, "rank_features_permutation", "ml.rank_permutation", None),
    (RandomForestModel, "predict_many", "ml.predict_many", _rows),
    (DecisionTreeModel, "predict_many", "ml.predict_many", _rows),
    (qr_pkg, "qr_encode", "qr.encode", None),
    (qr_pkg, "qr_render", "qr.render", None),
    (qr_pkg, "qr_decode", "qr.decode", None),
    (qr_decode_mod, "rs_decode", "qr.rs_decode", None),
    (urls_mod, "url_features", "urls.features", None),
    (synth_pkg, "synthesize", "synth.synthesize", None),
]


def patch_targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer replaces, `cli._FORMATS` included."""
    return [(owner, attr) for owner, attr, _n, _c in _PATCH_POINTS] + [
        (cli._FORMATS, kind) for kind in cli._FORMATS
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._top: int | None = None  # latest top-level span of the main thread
        self._saved: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             file_id: str | None = None, count: Callable | None = None):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        kwargs = kwargs or {}
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            parent, inherited = stack[-1]
            file_id = file_id or inherited
        else:
            # a pool thread's first span hangs under the call that started the pool
            parent = None if thread == self._main else self._top
        span_id = next(self._ids)
        if parent is None:
            self._top = span_id
        stack.append((span_id, file_id))
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            n = count(args, kwargs, result) if count and result is not None else 0
            self.spans.append(Span(span_id, name, start, end, parent, file_id, thread, n))

    def _wrapper(self, fn: Callable, name: str, count=None, file_of=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            file_id = file_of(args, kwargs) if file_of else None
            return tracer.call(name, fn, args, kwargs, file_id, count)

        return traced

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in _PATCH_POINTS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, count))
        for kind, entry in list(cli._FORMATS.items()):
            self._saved.append((cli._FORMATS, kind, entry))
            schema, selected, analyze = entry
            cli._FORMATS[kind] = (schema, selected,
                                  self._wrapper(analyze, f"analyzers.{kind}", file_of=_analyzer_file))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(spans: list[Span], passes: int,
                  hostile: dict[str, tuple[str, int]]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of `passes` traced passes. Totals are
    per pass; a layer the workload never reaches reads 0.

    `hostile` maps a hostile input's file name to (family, repeat).
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def durs(name: str) -> list[float]:
        return [s.end - s.start for s in by_name[name]]

    def per_pass(name: str) -> float:
        return sum(durs(name)) / passes

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    def counted(name: str) -> float:
        return sum(s.count for s in by_name[name])

    m: dict[str, tuple[float, str]] = {}
    entropy_s = sum(durs("core.entropy"))
    m["core.entropy.mb_per_s"] = (counted("core.entropy") / entropy_s / 1e6 if entropy_s else 0.0, "MB/s")
    m["core.sniff.ms_per_file"] = (mean(durs("core.sniff")) * 1e3, "ms")
    m["core.csv_write.s"] = (per_pass("core.csv_write"), "s")
    m["core.csv_read.s"] = (per_pass("core.csv_read"), "s")
    m["containers.zip.read_entry.s"] = (per_pass("containers.zip.read_entry"), "s")
    m["containers.zip.entries_read"] = (len(by_name["containers.zip.read_entry"]) / passes, "count")
    m["containers.zip.inflated_mb"] = (counted("containers.zip.read_entry") / passes / 1e6, "MB")
    m["containers.vba.s"] = (per_pass("containers.cfb.open") + per_pass("containers.vba.extract"), "s")
    m["containers.vba.modules"] = (counted("containers.vba.extract") / passes, "count")

    analyzer_s = 0.0
    for kind in cli._FORMATS:
        own = by_name[f"analyzers.{kind}"]
        total = [s.end - s.start for s in own]
        analyzer_s += sum(total)
        m[f"analyzers.{kind}.self_ms_per_file"] = (
            mean([s.end - s.start - child_time[s.id] for s in own]) * 1e3, "ms")
        m[f"analyzers.{kind}.p50_ms"] = (_percentile(total, 50) * 1e3, "ms")
        m[f"analyzers.{kind}.p99_ms"] = (_percentile(total, 99) * 1e3, "ms")
    m["analyzers.ooxml.read_xml_parts.s"] = (per_pass("analyzers.ooxml.read_xml_parts"), "s")

    by_input: dict[tuple[str, int], list[float]] = defaultdict(list)
    for kind in cli._FORMATS:
        for s in by_name[f"analyzers.{kind}"]:
            key = hostile.get(Path(s.file_id or "").name)
            if key is not None:
                by_input[key].append(s.end - s.start)
    for family in HOSTILE_FAMILIES:
        t1, t2 = mean(by_input[(family, 1)]), mean(by_input[(family, 2)])
        m[f"analyzers.hostile.{family}.s"] = (t2, "s")
        m[f"analyzers.hostile.{family}.growth"] = (t2 / t1 if t1 else 0.0, "ratio")

    scan_s = sum(durs("cli.scan"))
    # the benchmark's scans run one worker, so this is the analyzers' share of the scan call
    m["cli.scan.busy_ratio"] = (analyzer_s / scan_s if scan_s else 0.0, "ratio")

    m["ml.fit_dt.s"] = (per_pass("ml.fit_dt"), "s")
    m["ml.fit_rf.s"] = (per_pass("ml.fit_rf"), "s")
    m["ml.rf.nodes"] = (counted("ml.fit_rf") / passes, "count")
    predict_ids = {s.id for s in by_name["ml.predict_many"]}
    outer = [s for s in by_name["ml.predict_many"] if s.parent not in predict_ids]
    m["ml.predict_many.calls"] = (len(outer) / passes, "count")
    m["ml.predict_many.rows"] = (sum(s.count for s in outer) / passes, "count")
    m["ml.predict_many.s"] = (sum(s.end - s.start for s in outer) / passes, "s")
    m["ml.rank_permutation.s"] = (per_pass("ml.rank_permutation"), "s")
    m["ml.rank_gini.s"] = (per_pass("ml.rank_gini"), "s")

    for step in ("encode", "render", "decode"):
        m[f"qr.{step}.ms"] = (mean(durs(f"qr.{step}")) * 1e3, "ms")
    m["qr.rs_decode.calls"] = (len(by_name["qr.rs_decode"]) / passes, "count")
    m["qr.rs_decode.ms"] = (mean(durs("qr.rs_decode")) * 1e3, "ms")
    m["urls.features.us"] = (mean(durs("urls.features")) * 1e6, "us")
    return m
