"""CART decision tree with Gini impurity.

Candidate thresholds are midpoints between consecutive distinct sorted values
of each feature; the comparison rule is `go left iff value <= threshold`.
Argmax ties always break toward label 0 (benign). Growth is iterative, so
deep trees cannot hit the interpreter recursion limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..core import FeatureVector, LabeledDataset
from .errors import EmptyDatasetError, SchemaMismatchError

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_leaf: int = 1
    criterion: str = "gini"

    def __post_init__(self):
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.criterion != "gini":
            raise ValueError("only the gini criterion is supported")


@dataclass(frozen=True)
class PackedTrees:
    """Parallel node arrays of one or more trees, the form `predict_packed`
    walks.

    Node i splits on column `feature[i]` at `threshold[i]` and moves to
    `left[i]` (value <= threshold) or `right[i]` (otherwise, NaN included).
    A leaf has feature -1, points to itself on both sides and predicts
    `label[i]`. `roots[t]` is tree t's root, `depth` the longest root-to-leaf
    path of any tree and `width` the number of columns the splits read.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    roots: np.ndarray
    depth: int
    width: int


def pack_trees(trees: list[list[dict]]) -> PackedTrees:
    """Pack the dict node lists of `trees` into one `PackedTrees`.

    Raises ValueError when a node list is empty, a reachable split reads a
    negative column, or the nodes reachable from a root do not form a tree
    (a child index out of range, or a node reached twice).
    """
    feature, threshold, left, right, label, roots = [], [], [], [], [], []
    depth = 0
    for nodes in trees:
        if not nodes:
            raise ValueError("a tree needs at least one node")
        base = len(feature)
        roots.append(base)
        for i, node in enumerate(nodes, base):
            if node["kind"] == "leaf":
                feature.append(-1)
                threshold.append(0.0)
                left.append(i)
                right.append(i)
                label.append(node["label"])
            else:
                feature.append(node["feature"])
                threshold.append(node["threshold"])
                left.append(base + node["left"])
                right.append(base + node["right"])
                label.append(0)
        seen = set()
        pending = [(0, 0)]
        while pending:
            i, level = pending.pop()
            if not 0 <= i < len(nodes) or i in seen:
                raise ValueError(f"tree nodes do not form a tree at node {i}")
            seen.add(i)
            node = nodes[i]
            if node["kind"] == "leaf":
                depth = max(depth, level)
                continue
            if node["feature"] < 0:
                raise ValueError(f"split node {i} reads negative column {node['feature']}")
            pending.append((node["left"], level + 1))
            pending.append((node["right"], level + 1))
    return PackedTrees(
        np.array(feature, dtype=np.int64), np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
        np.array(label, dtype=np.int64), np.array(roots, dtype=np.int64),
        depth, max(feature, default=-1) + 1,
    )


def predict_packed(packed: PackedTrees, x: np.ndarray) -> np.ndarray:
    """Majority vote of the packed trees on each row of `x`; ties go to 0.

    Every tree walks every row at once: a (trees x rows) matrix of node
    indices advances one level per step, `depth` steps in all, after which
    each entry sits on a leaf. A single tree's vote is its leaf label.
    """
    x = np.asarray(x, dtype=np.float64)
    n_rows = len(x)
    if packed.width > x.shape[1]:
        raise SchemaMismatchError(
            f"model reads {packed.width} column(s), input has {x.shape[1]}")
    n_trees = len(packed.roots)
    node = np.repeat(packed.roots, n_rows)
    row_start = np.tile(np.arange(n_rows) * x.shape[1], n_trees)
    flat = x.ravel()
    for _ in range(packed.depth):
        # a leaf's feature -1 reads some in-bounds cell; it moves nowhere anyway
        value = flat[row_start + packed.feature[node]]
        node = np.where(value <= packed.threshold[node], packed.left[node], packed.right[node])
    votes = packed.label[node].reshape(n_trees, n_rows).sum(axis=0)
    return (votes * 2 > n_trees).astype(np.int64)


@dataclass
class DecisionTreeModel:
    """CART tree as a list of dict nodes, the serialized source of truth.

    Split nodes: {"kind": "split", "feature", "threshold", "left", "right",
    "samples", "impurity"}; leaves: {"kind": "leaf", "class_counts", "label",
    "samples", "impurity"}. `left`/`right` index the list and node 0 is the
    root. Construction also packs the nodes into `PackedTrees`, which
    `predict_many` walks.
    """

    nodes: list[dict]
    params: TreeParams
    columns: tuple[str, ...]
    format_kind: str = ""
    schema_version: int = 1
    warnings: list[str] = field(default_factory=list)
    packed: PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.packed = pack_trees([self.nodes])

    def predict_many(self, x: np.ndarray) -> np.ndarray:
        return predict_packed(self.packed, x)

    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "model_type": "decision_tree",
            "params": {
                "max_depth": self.params.max_depth,
                "min_samples_leaf": self.params.min_samples_leaf,
                "criterion": self.params.criterion,
            },
            "schema": {
                "format_kind": self.format_kind,
                "columns": list(self.columns),
                "version": self.schema_version,
            },
            "nodes": self.nodes,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "DecisionTreeModel":
        payload = json.loads(text)
        if payload.get("model_type") != "decision_tree":
            raise ValueError("not a decision_tree model file")
        params = TreeParams(**payload["params"])
        schema = payload["schema"]
        return cls(payload["nodes"], params, tuple(schema["columns"]),
                   schema["format_kind"], schema["version"])


def dataset_matrix(ds: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([vec.values for vec, _ in ds.rows], dtype=np.float64)
    y = np.array([label for _, label in ds.rows], dtype=np.int64)
    return x, y


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _majority_label(counts: np.ndarray) -> int:
    # tie breaks toward label 0
    return int(np.argmax(counts))


def _best_split(x: np.ndarray, y: np.ndarray, feature_ids: np.ndarray,
                min_samples_leaf: int) -> tuple[int, float] | None:
    """Best (feature, threshold) by weighted Gini; ties resolve to the lowest
    feature index, then the lowest threshold."""
    n = len(y)
    best = None
    best_score = np.inf
    for j in feature_ids:
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        # positions where the sorted value changes
        change = np.nonzero(xs[1:] != xs[:-1])[0] + 1
        if not len(change):
            continue
        ones = np.cumsum(ys == 1)
        left_n = change
        left_ones = ones[change - 1]
        left_zeros = left_n - left_ones
        right_n = n - left_n
        right_ones = ones[-1] - left_ones
        right_zeros = right_n - right_ones
        valid = (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
        if not valid.any():
            continue
        gini_l = 1.0 - ((left_ones / left_n) ** 2 + (left_zeros / left_n) ** 2)
        gini_r = 1.0 - ((right_ones / right_n) ** 2 + (right_zeros / right_n) ** 2)
        score = (left_n * gini_l + right_n * gini_r) / n
        score[~valid] = np.inf
        k = int(np.argmin(score))  # first (lowest threshold) among equal scores
        if score[k] < best_score:
            best_score = float(score[k])
            pos = change[k]
            threshold = (xs[pos - 1] + xs[pos]) / 2.0
            best = (int(j), float(threshold))
    return best


def grow_tree(x: np.ndarray, y: np.ndarray, params: TreeParams,
              rng: np.random.Generator | None = None,
              max_features: int | None = None) -> list[dict]:
    """Grow the node array for (x, y). When `max_features` is smaller than
    the feature count, each split draws a feature subset from `rng`."""
    n_features = x.shape[1]
    nodes: list[dict] = []
    # each pending item: (node slot, row indices, depth)
    root_rows = np.arange(len(y))
    nodes.append({})
    pending = [(0, root_rows, 0)]
    while pending:
        slot, rows, depth = pending.pop()
        sub_y = y[rows]
        counts = np.bincount(sub_y, minlength=2)[:2]
        impurity = _gini(counts)
        stop = (
            impurity == 0.0
            or (params.max_depth is not None and depth >= params.max_depth)
            or len(rows) < 2 * params.min_samples_leaf
        )
        split = None
        if not stop:
            if max_features is not None and max_features < n_features and rng is not None:
                feature_ids = np.sort(rng.choice(n_features, size=max_features, replace=False))
            else:
                feature_ids = np.arange(n_features)
            split = _best_split(x[rows], sub_y, feature_ids, params.min_samples_leaf)
        if split is None:
            nodes[slot] = {
                "kind": "leaf",
                "class_counts": [int(counts[0]), int(counts[1])],
                "label": _majority_label(counts),
                "samples": int(len(rows)),
                "impurity": impurity,
            }
            continue
        feature, threshold = split
        mask = x[rows, feature] <= threshold
        left_slot = len(nodes)
        nodes.append({})
        right_slot = len(nodes)
        nodes.append({})
        nodes[slot] = {
            "kind": "split",
            "feature": feature,
            "threshold": threshold,
            "left": left_slot,
            "right": right_slot,
            "samples": int(len(rows)),
            "impurity": impurity,
        }
        # push right first so the left branch is grown first (stable order)
        pending.append((right_slot, rows[~mask], depth + 1))
        pending.append((left_slot, rows[mask], depth + 1))
    return nodes


def train_decision_tree(ds: LabeledDataset, params: TreeParams | None = None) -> DecisionTreeModel:
    """Fit a CART tree on a labeled dataset.

    A single-class dataset yields a degenerate one-leaf model with a warning;
    an empty dataset is an error.
    """
    if len(ds) == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    params = params or TreeParams()
    x, y = dataset_matrix(ds)
    warnings = []
    if len(np.unique(y)) < 2:
        warnings.append("single-class dataset: degenerate single-leaf model")
    nodes = grow_tree(x, y, params)
    schema = ds.schema
    return DecisionTreeModel(nodes, params, schema.columns, schema.format_kind,
                             schema.version, warnings)


def predict(model: DecisionTreeModel, vec: FeatureVector) -> int:
    """Predict the label for one feature vector (schema-checked)."""
    if tuple(vec.schema.columns) != tuple(model.columns):
        raise SchemaMismatchError("vector schema differs from model schema")
    return int(model.predict_many(np.array([vec.values]))[0])
