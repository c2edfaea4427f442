"""Feature-importance rankings realizing the two-step selection: impurity
(Gini) importance from the forest plus model-agnostic permutation importance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import FeatureSchema, LabeledDataset
from .errors import EmptyDatasetError
from .forest import RandomForestModel
from .tree import dataset_matrix, leaf_labels


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
    negative means are clipped to 0.

    Reads `model.packed` (a forest or a single tree). Each tree's leaf label
    for every row is computed once. For each column, only the trees that
    split on it walk the `n_repeats` shuffled copies, all in one walk, and
    their changed labels update the integer vote counts, so every
    prediction, and every score, is exactly that of predicting each shuffled
    copy whole. The permutations are drawn column by column from one
    generator seeded with `seed`, for columns no tree reads too.
    """
    if len(ds) == 0:
        raise EmptyDatasetError("cannot rank on an empty dataset")
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    x, y = dataset_matrix(ds)
    packed = model.packed
    n_trees = len(packed.roots)
    labels = leaf_labels(packed, x)
    votes = labels.sum(axis=0)
    baseline = float(((votes * 2 > n_trees) == y).mean())
    n, d = x.shape
    tree_of_node = np.repeat(np.arange(n_trees), np.diff(packed.roots, append=len(packed.feature)))
    splits = packed.feature >= 0
    reads = np.zeros((n_trees, d), dtype=bool)
    reads[tree_of_node[splits], packed.feature[splits]] = True
    rng = np.random.default_rng(seed)
    scores = np.zeros(d, dtype=np.float64)
    shuffled = np.tile(x, (n_repeats, 1))
    for j in range(d):
        perms = np.concatenate([rng.permutation(n) for _ in range(n_repeats)])
        trees = np.flatnonzero(reads[:, j])
        if not len(trees):
            continue  # every shuffle keeps the baseline accuracy: score 0
        shuffled[:, j] = x[perms, j]
        changed = leaf_labels(packed, shuffled, trees).sum(axis=0).reshape(n_repeats, n)
        shuffled[:, j] = np.tile(x[:, j], n_repeats)
        shuffled_votes = votes - labels[trees].sum(axis=0) + changed
        accuracy = ((shuffled_votes * 2 > n_trees) == y).mean(axis=1)
        drops = [baseline - float(acc) for acc in accuracy]
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
