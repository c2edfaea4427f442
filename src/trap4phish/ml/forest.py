"""Seeded random forest over the CART trees.

Per-tree generators derive from (seed, tree_index) via SeedSequence, so a
parallel per-tree implementation would reproduce the sequential result
bit-for-bit. Construction packs every tree into one `PackedTrees`, and
prediction walks all trees over all rows in one pass of `predict_packed`,
then takes the majority vote with ties toward label 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..core import FeatureVector, LabeledDataset
from .errors import EmptyDatasetError, SchemaMismatchError
from .tree import (
    MODEL_FORMAT_VERSION, DecisionTreeModel, PackedTrees, TreeParams, dataset_matrix, grow_tree,
    pack_trees, predict_packed,
)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 50
    max_features: int | str | None = "sqrt"  # count, "sqrt", or None for all
    bootstrap: bool = True
    seed: int = 0
    max_depth: int | None = None
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if isinstance(self.max_features, str) and self.max_features != "sqrt":
            raise ValueError("max_features must be a count, 'sqrt', or None")

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        return max(1, min(int(self.max_features), n_features))


@dataclass
class RandomForestModel:
    trees: list[DecisionTreeModel]
    params: ForestParams
    columns: tuple[str, ...]
    format_kind: str = ""
    schema_version: int = 1
    warnings: list[str] = field(default_factory=list)
    # bootstrap row indices per tree; kept in memory for OOB checks only,
    # reproducible from the seed, not serialized
    bootstrap_indices: list[np.ndarray] = field(default_factory=list, repr=False)
    packed: PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.packed = pack_trees([tree.nodes for tree in self.trees])

    def predict_many(self, x: np.ndarray) -> np.ndarray:
        return predict_packed(self.packed, x)

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "model_type": "random_forest",
            "params": {
                "n_trees": self.params.n_trees,
                "max_features": self.params.max_features,
                "bootstrap": self.params.bootstrap,
                "seed": self.params.seed,
                "max_depth": self.params.max_depth,
                "min_samples_leaf": self.params.min_samples_leaf,
            },
            "schema": {
                "format_kind": self.format_kind,
                "columns": list(self.columns),
                "version": self.schema_version,
            },
            "trees": [tree.nodes for tree in self.trees],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RandomForestModel":
        payload = json.loads(text)
        if payload.get("model_type") != "random_forest":
            raise ValueError("not a random_forest model file")
        params = ForestParams(**payload["params"])
        schema = payload["schema"]
        tree_params = TreeParams(max_depth=params.max_depth,
                                 min_samples_leaf=params.min_samples_leaf)
        trees = [
            DecisionTreeModel(nodes, tree_params, tuple(schema["columns"]),
                              schema["format_kind"], schema["version"])
            for nodes in payload["trees"]
        ]
        return cls(trees, params, tuple(schema["columns"]),
                   schema["format_kind"], schema["version"])


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tree_index]))


def train_random_forest(ds: LabeledDataset, params: ForestParams | None = None) -> RandomForestModel:
    """Fit a seeded forest; same (dataset, params) always yields a
    byte-identical serialized model."""
    if len(ds) == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    params = params or ForestParams()
    x, y = dataset_matrix(ds)
    n, d = x.shape
    max_features = params.resolve_max_features(d)
    tree_params = TreeParams(max_depth=params.max_depth,
                             min_samples_leaf=params.min_samples_leaf)
    warnings = []
    if len(np.unique(y)) < 2:
        warnings.append("single-class dataset: degenerate forest")
    trees = []
    indices_per_tree = []
    for t in range(params.n_trees):
        rng = _tree_rng(params.seed, t)
        if params.bootstrap:
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        indices_per_tree.append(rows)
        subset_rng = rng if max_features < d else None
        nodes = grow_tree(x[rows], y[rows], tree_params, rng=subset_rng,
                          max_features=max_features)
        trees.append(DecisionTreeModel(nodes, tree_params, ds.schema.columns,
                                       ds.schema.format_kind, ds.schema.version))
    return RandomForestModel(trees, params, ds.schema.columns,
                             ds.schema.format_kind, ds.schema.version,
                             warnings, indices_per_tree)


def predict_forest(model: RandomForestModel, vec: FeatureVector) -> int:
    """Majority-vote prediction for one feature vector (schema-checked)."""
    if tuple(vec.schema.columns) != tuple(model.columns):
        raise SchemaMismatchError("vector schema differs from model schema")
    return int(model.predict_many(np.array([vec.values]))[0])


def oob_accuracy(model: RandomForestModel, ds: LabeledDataset) -> float:
    """Out-of-bag accuracy on the training dataset the model was fit to.

    Requires in-memory bootstrap indices (present right after training).
    Rows that appear in every bootstrap sample are skipped.
    """
    if not model.bootstrap_indices:
        raise ValueError("model has no bootstrap indices (deserialized model?)")
    x, y = dataset_matrix(ds)
    n = len(y)
    votes = np.zeros((n, 2), dtype=np.int64)
    for tree, rows in zip(model.trees, model.bootstrap_indices):
        in_bag = np.zeros(n, dtype=bool)
        in_bag[rows] = True
        oob = ~in_bag
        if not oob.any():
            continue
        pred = tree.predict_many(x[oob])
        votes[np.nonzero(oob)[0], pred] += 1
    considered = votes.sum(axis=1) > 0
    if not considered.any():
        raise ValueError("no out-of-bag rows; was bootstrap enabled?")
    # ties toward label 0: label 1 requires strictly more votes
    predicted = (votes[:, 1] > votes[:, 0]).astype(np.int64)
    return float((predicted[considered] == y[considered]).mean())
