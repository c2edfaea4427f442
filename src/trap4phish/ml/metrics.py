"""Confusion-matrix metrics with malicious (label 1) as the positive class,
plus macro-averaged variants and the stratified train/test split."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..core import LabeledDataset
from .errors import EmptyDatasetError, SchemaMismatchError


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class EvalMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    precision_macro: float
    recall_macro: float
    f1_macro: float

    @classmethod
    def from_confusion(cls, tp: int, fp: int, fn: int, tn: int) -> "EvalMetrics":
        accuracy = _safe_div(tp + tn, tp + tn + fp + fn)
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        # per-class values for the benign (0) class
        precision0 = _safe_div(tn, tn + fn)
        recall0 = _safe_div(tn, tn + fp)
        return cls(
            tp=tp, fp=fp, fn=fn, tn=tn,
            accuracy=accuracy,
            precision=precision,
            recall=recall,
            f1=f1_score(precision, recall),
            precision_macro=(precision + precision0) / 2.0,
            recall_macro=(recall + recall0) / 2.0,
            f1_macro=(f1_score(precision, recall) + f1_score(precision0, recall0)) / 2.0,
        )

    @property
    def confusion(self) -> dict[str, int]:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "confusion": self.confusion,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "precision_macro": self.precision_macro,
            "recall_macro": self.recall_macro,
            "f1_macro": self.f1_macro,
        }
        return json.dumps(payload, indent=indent)


def evaluate(model, ds: LabeledDataset) -> EvalMetrics:
    """Confusion counts and metrics of `model` on `ds`."""
    if len(ds) == 0:
        raise EmptyDatasetError("cannot evaluate on an empty dataset")
    if ds.schema.columns != model.schema.columns:
        raise SchemaMismatchError("dataset schema differs from model schema")
    pred, y = model.predict_many(ds.x), ds.y
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    return EvalMetrics.from_confusion(tp, fp, fn, tn)


def metrics_table(rows: list[tuple[str, EvalMetrics]]) -> str:
    """Aligned text table (classifier, precision, recall, F1; macro values)."""
    header = f"{'Classifier':<16}{'Precision':>12}{'Recall':>12}{'F1':>12}"
    lines = [header, "-" * len(header)]
    for name, m in rows:
        lines.append(
            f"{name:<16}{m.precision_macro:>12.4f}{m.recall_macro:>12.4f}{m.f1_macro:>12.4f}"
        )
    return "\n".join(lines)


def stratified_split(
    ds: LabeledDataset, test_fraction: float = 0.3, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded per-class shuffle and split into (train, test); each part
    holds class 0's rows, then class 1's."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in (0, 1):
        idx = np.flatnonzero(ds.y == label)
        idx = idx[rng.permutation(len(idx))]  # no draw for fewer than two rows
        n_test = min(max(round(len(idx) * test_fraction), 1), len(idx) - 1) if len(idx) > 1 else 0
        test.append(idx[:n_test])
        train.append(idx[n_test:])
    train, test = np.concatenate(train), np.concatenate(test)
    return (LabeledDataset(ds.schema, ds.x[train], ds.y[train]),
            LabeledDataset(ds.schema, ds.x[test], ds.y[test]))
