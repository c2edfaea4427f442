"""Seeded random forest over the CART trees.

Per-tree generators derive from (seed, tree_index) via SeedSequence. Each
tree draws its bootstrap sample from its generator, then `grow_trees` grows
all trees in lock-step with one batched split search per step. A tree still
takes its feature-subset draws from its own generator in its own
depth-first order, so the forest is the one grown tree by tree. Each tree
packs its nodes once, the forest joins those arrays into one `PackedTrees`,
and prediction walks all trees over all rows in one pass of
`predict_packed`, then takes the majority vote with ties toward label 0.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ..core import FeatureSchema, LabeledDataset, SchemaError
from .errors import EmptyDatasetError
from .tree import (
    MODEL_FORMAT_VERSION, DecisionTreeModel, PackedTrees, TreeParams, grow_trees,
    join_packed, model_json, predict_packed,
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

    def tree_params(self) -> TreeParams:
        return TreeParams(max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf)


@dataclass
class RandomForestModel:
    trees: list[DecisionTreeModel]
    params: ForestParams
    schema: FeatureSchema
    warnings: list[str] = field(default_factory=list)
    packed: PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # each tree packed (and checked) its own nodes; join those, do not repack
        self.packed = join_packed([tree.packed for tree in self.trees])

    def predict_many(self, x: np.ndarray) -> np.ndarray:
        return predict_packed(self.packed, x)

    def to_json(self) -> str:
        return model_json(self, "random_forest", trees=[tree.nodes for tree in self.trees])


def load_model(text: str) -> DecisionTreeModel | RandomForestModel:
    """The DT or RF model in the model file `text` that `model_json` wrote.
    Raises ValueError on invalid JSON, an unknown model type, a format version
    other than MODEL_FORMAT_VERSION, a node field that no `train` writes (see
    `_check_node_fields`), nodes that do not form a tree (see `pack_trees`)
    an RF whose tree count is not its `n_trees` and a schema that repeats a
    column name, and KeyError or
    TypeError on missing fields or containers of the wrong type."""
    payload = json.loads(text)
    kind = payload.get("model_type") if isinstance(payload, dict) else None
    if kind not in ("decision_tree", "random_forest"):
        raise ValueError(f"unknown model_type {kind!r}")
    version = payload.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"format_version {version!r} is not {MODEL_FORMAT_VERSION}")
    try:
        schema = FeatureSchema(**payload["schema"])
    except SchemaError as exc:
        raise ValueError(f"model schema: {exc}") from None
    trees = [payload["nodes"]] if kind == "decision_tree" else payload["trees"]
    for nodes in trees:
        _check_node_fields(nodes, len(schema))
    if kind == "decision_tree":
        return DecisionTreeModel(payload["nodes"], TreeParams(**payload["params"]), schema)
    params = ForestParams(**payload["params"])
    if len(trees) != params.n_trees:
        raise ValueError(f"{len(trees)} trees, but n_trees is {params.n_trees}")
    tree_params = params.tree_params()
    return RandomForestModel([DecisionTreeModel(nodes, tree_params, schema) for nodes in trees], params, schema)


def _check_node_fields(nodes: list[dict], n_columns: int) -> None:
    """Raise ValueError on a node field that no `train` writes: a label,
    column or child index that is not an int (JSON true and false are not),
    a threshold that is not a finite int or float, a split on a column
    outside the schema or a child index outside the node list. A column of
    0.5 would read column 0, and a column, child or threshold past what
    int64 or float64 holds would raise OverflowError in `pack_trees`."""
    for i, node in enumerate(nodes):
        leaf = node["kind"] == "leaf"
        for key in ("label",) if leaf else ("feature", "left", "right"):
            if type(node[key]) is not int:
                raise ValueError(f"node {i}: {key} {node[key]!r} is not an integer")
        if leaf:
            continue
        threshold = node["threshold"]
        if type(threshold) not in (int, float) or not abs(threshold) <= sys.float_info.max:
            raise ValueError(f"node {i}: split threshold {threshold!r} is not finite")
        if not 0 <= node["feature"] < n_columns:
            raise ValueError(f"a split reads column {node['feature']} of {n_columns}")
        if not (0 <= node["left"] < len(nodes) and 0 <= node["right"] < len(nodes)):
            raise ValueError(f"node {i}: a child is outside its {len(nodes)} nodes")


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tree_index]))


def train_random_forest(ds: LabeledDataset, params: ForestParams | None = None) -> RandomForestModel:
    """Fit a seeded forest; same (dataset, params) always yields a
    byte-identical serialized model."""
    if len(ds) == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    params = params or ForestParams()
    x, y = ds.x, ds.y
    n, d = x.shape
    max_features = params.resolve_max_features(d)
    tree_params = params.tree_params()
    warnings = []
    if len(np.unique(y)) < 2:
        warnings.append("single-class dataset: degenerate forest")
    rngs = [_tree_rng(params.seed, t) for t in range(params.n_trees)]
    if params.bootstrap:
        samples = [rng.integers(0, n, size=n) for rng in rngs]
    else:
        samples = [np.arange(n)] * params.n_trees
    trees = [DecisionTreeModel(nodes, tree_params, ds.schema)
             for nodes in grow_trees(x, y, samples, tree_params, max_features, rngs)]
    return RandomForestModel(trees, params, ds.schema, warnings)

