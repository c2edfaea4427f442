"""Feature-importance rankings realizing the two-step selection: impurity
(Gini) importance from the forest plus model-agnostic permutation importance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import FeatureSchema, LabeledDataset
from .errors import EmptyDatasetError
from .forest import RandomForestModel
from .metrics import evaluate
from .tree import dataset_matrix


@dataclass
class ImportanceRanking:
    """Entries sorted by descending score; ties keep schema column order."""

    entries: list[tuple[str, float]]
    method: str  # "gini" or "permutation"
    columns: tuple[str, ...]  # full schema order, for tie-breaking reference

    def names(self) -> list[str]:
        return [name for name, _ in self.entries]


def _ranked(scores: np.ndarray, columns: tuple[str, ...], method: str) -> ImportanceRanking:
    order = sorted(range(len(columns)), key=lambda j: (-scores[j], j))
    entries = [(columns[j], float(scores[j])) for j in order]
    return ImportanceRanking(entries, method, columns)


def rank_features_gini(model: RandomForestModel) -> ImportanceRanking:
    """Impurity-decrease importance: per-feature sum of Gini decrease weighted
    by node sample fraction, averaged over trees, normalized to sum 1."""
    d = len(model.columns)
    total = np.zeros(d, dtype=np.float64)
    for tree in model.trees:
        scores = np.zeros(d, dtype=np.float64)
        nodes = tree.nodes
        if not nodes:
            continue
        root_samples = nodes[0]["samples"] or 1
        for node in nodes:
            if node["kind"] != "split":
                continue
            left = nodes[node["left"]]
            right = nodes[node["right"]]
            decrease = (
                node["samples"] * node["impurity"]
                - left["samples"] * left["impurity"]
                - right["samples"] * right["impurity"]
            ) / root_samples
            scores[node["feature"]] += decrease
        total += scores
    total /= len(model.trees)
    s = total.sum()
    if s > 0:
        total = total / s
    return _ranked(total, model.columns, "gini")


def rank_features_permutation(
    model, ds: LabeledDataset, seed: int = 0, n_repeats: int = 5
) -> ImportanceRanking:
    """Permutation importance: mean accuracy drop when one column is shuffled;
    negative means are clipped to 0."""
    if len(ds) == 0:
        raise EmptyDatasetError("cannot rank on an empty dataset")
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    x, y = dataset_matrix(ds)
    baseline = float((model.predict_many(x) == y).mean())
    rng = np.random.default_rng(seed)
    d = x.shape[1]
    scores = np.zeros(d, dtype=np.float64)
    shuffled = x.copy()
    for j in range(d):
        drops = []
        for _ in range(n_repeats):
            perm = rng.permutation(len(y))
            shuffled[:, j] = x[perm, j]
            acc = float((model.predict_many(shuffled) == y).mean())
            drops.append(baseline - acc)
        shuffled[:, j] = x[:, j]
        scores[j] = max(0.0, float(np.mean(drops)))
    return _ranked(scores, tuple(model.columns), "permutation")


def select_top_k(ranking: ImportanceRanking, k: int, schema: FeatureSchema | None = None) -> FeatureSchema:
    """Schema projection of the top-k ranked features (in rank order), usable
    directly by the analyzers' projection helpers."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(ranking.entries):
        raise ValueError(f"k={k} exceeds ranking length {len(ranking.entries)}")
    names = [name for name, _ in ranking.entries[:k]]
    if schema is None:
        schema = FeatureSchema("", ranking.columns, 1)
    return schema.project(names)
