"""CART decision tree with Gini impurity.

Candidate thresholds are midpoints between consecutive distinct sorted values
of each feature; the comparison rule is `go left iff value <= threshold`.
Argmax ties always break toward label 0 (benign). Growth is iterative, so
deep trees cannot hit the interpreter recursion limit. `grow_trees` grows
every tree of a forest at once (a decision tree is a forest of one) and
scores the candidate splits of all the nodes it takes up in one batched
search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..core import LabeledDataset
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
    """Parallel node arrays of one or more trees, the form `leaf_labels`
    walks.

    Node i splits on column `feature[i]` at `threshold[i]` and moves to
    `left[i]` (value <= threshold) or `right[i]` (otherwise, NaN included).
    A leaf has feature -1, points to itself on both sides and predicts
    `label[i]`. Tree t's nodes start at `roots[t]`, its root, and run up to
    the next tree's root; `depths[t]` is its longest root-to-leaf path and
    `width` the number of columns the splits read.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray
    roots: np.ndarray
    depths: np.ndarray
    width: int


def pack_trees(trees: list[list[dict]]) -> PackedTrees:
    """Pack the dict node lists of `trees` into one `PackedTrees`.

    Raises ValueError when a node list is empty, a reachable split reads a
    negative column, or the nodes reachable from a root do not form a tree
    (a child index out of range, or a node reached twice).
    """
    feature, threshold, left, right, label, roots, depths = [], [], [], [], [], [], []
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
        depth = 0
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
        depths.append(depth)
    return PackedTrees(
        np.array(feature, dtype=np.int64), np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
        np.array(label, dtype=np.int64), np.array(roots, dtype=np.int64),
        np.array(depths, dtype=np.int64), max(feature, default=-1) + 1,
    )


def join_packed(parts: list[PackedTrees]) -> PackedTrees:
    """One `PackedTrees` holding the trees of every part, in order."""
    sizes = [len(part.feature) for part in parts]
    starts = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    shift = np.repeat(starts, sizes)

    def cat(name: str) -> np.ndarray:
        return np.concatenate([getattr(part, name) for part in parts])

    return PackedTrees(
        cat("feature"), cat("threshold"), cat("left") + shift, cat("right") + shift, cat("label"),
        np.concatenate([part.roots + start for part, start in zip(parts, starts)]),
        cat("depths"), max(part.width for part in parts),
    )


def leaf_labels(packed: PackedTrees, x: np.ndarray, trees: np.ndarray | None = None) -> np.ndarray:
    """Label of the leaf each packed tree reaches from each row of `x`, as a
    (trees x rows) matrix; `trees` selects tree indices, all by default.

    Every tree walks every row at once: a (trees x rows) matrix of node
    indices advances one level per step, as many steps as the deepest
    selected tree has levels, after which each entry sits on a leaf.
    """
    x = np.asarray(x, dtype=np.float64)
    n_rows = len(x)
    if packed.width > x.shape[1]:
        raise SchemaMismatchError(
            f"model reads {packed.width} column(s), input has {x.shape[1]}")
    roots, depths = packed.roots, packed.depths
    if trees is not None:
        roots, depths = roots[trees], depths[trees]
    node = np.repeat(roots, n_rows)
    row_start = np.tile(np.arange(n_rows) * x.shape[1], len(roots))
    flat = x.ravel()
    for _ in range(depths.max(initial=0)):
        # a leaf's feature -1 reads some in-bounds cell; it moves nowhere anyway
        value = flat[row_start + packed.feature[node]]
        node = np.where(value <= packed.threshold[node], packed.left[node], packed.right[node])
    return packed.label[node].reshape(len(roots), n_rows)


def predict_packed(packed: PackedTrees, x: np.ndarray) -> np.ndarray:
    """Majority vote of the packed trees on each row of `x`; ties go to 0.
    A single tree's vote is its leaf label."""
    votes = leaf_labels(packed, x).sum(axis=0)
    return (votes * 2 > len(packed.roots)).astype(np.int64)


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


def _weighted_gini(ones: np.ndarray, n: np.ndarray) -> np.ndarray:
    """n * gini for counts of `ones` among `n` rows, computed in place as
    n * (1.0 - ((ones / n) ** 2 + (zeros / n) ** 2)), operation by
    operation, so the floats are those of that expression."""
    gini = ones / n
    share = (n - ones) / n
    np.square(gini, out=gini)
    np.square(share, out=share)
    gini += share
    np.subtract(1.0, gini, out=gini)
    gini *= n
    return gini


def _best_splits(x: np.ndarray, y: np.ndarray, idx: np.ndarray, n_rows: np.ndarray,
                 features: np.ndarray, min_samples_leaf: int) -> list[tuple[int, float] | None]:
    """Best (feature, threshold) by weighted Gini for each node of a batch, or
    None where no split is allowed; ties resolve to the lowest feature index,
    then the lowest threshold.

    Node b holds rows `idx[b, :n_rows[b]]` of `x`/`y`; the rest of its
    `idx` row points at a last, all-NaN row of `x` with label 0, which the
    stable sort keeps after every real value, NaN included. `features[b]`
    are its candidate columns in ascending order. Thresholds are midpoints
    of consecutive distinct sorted values.
    """
    k, m = idx.shape
    # (node, candidate, position) arrays, sorted along the positions
    values = x[idx[:, None, :], features[:, :, None]]
    order = values.argsort(axis=2, kind="stable")
    xs = np.take_along_axis(values, order, axis=2)
    del values
    ones = np.take_along_axis(y[idx][:, None, :], order, axis=2)
    del order
    ones.cumsum(axis=2, out=ones)
    # a split before sorted position p = 1..m-1 sends the first p rows left
    left_n = np.arange(1, m, dtype=ones.dtype)
    right_n = n_rows[:, None, None] - left_n
    valid = xs[:, :, 1:] != xs[:, :, :-1]
    valid &= left_n >= min_samples_leaf
    valid &= right_n >= min_samples_leaf
    with np.errstate(divide="ignore", invalid="ignore"):  # padding positions, masked below
        # the sum of the two sides is the same either way round
        score = _weighted_gini(ones[:, :, -1:] - ones[:, :, :-1], right_n)
        score += _weighted_gini(ones[:, :, :-1], left_n)
        del ones
        score /= n_rows[:, None, None]
    score[~valid] = np.inf
    # feature-major, so the first minimum has the lowest feature, then threshold
    flat = score.reshape(k, -1)
    best = flat.argmin(axis=1)
    nodes = np.arange(k)
    column, pos = np.divmod(best, m - 1)
    with np.errstate(invalid="ignore"):  # -inf + inf, as in a split between them
        threshold = (xs[nodes, column, pos] + xs[nodes, column, pos + 1]) / 2.0
    return [
        None if flat[b, best[b]] == np.inf else (int(features[b, column[b]]), float(threshold[b]))
        for b in range(k)
    ]


def grow_trees(x: np.ndarray, y: np.ndarray, samples: list[np.ndarray], params: TreeParams,
               max_features: int | None = None,
               rngs: list[np.random.Generator] | None = None) -> list[list[dict]]:
    """Grow one node list per entry of `samples`, the rows of (x, y) that
    tree trains on (repeats allowed). When `max_features` is smaller than the
    feature count, each split of tree t draws a feature subset from
    `rngs[t]`.

    The trees advance in lock-step. Each step pops the next pending node of
    every unfinished tree, depth-first and left child first, so a tree's
    node numbering and its generator draws are those of growing it alone;
    one `_best_splits` call then searches all popped nodes at once.
    """
    n, n_features = x.shape
    draw = max_features is not None and max_features < n_features
    padded_x = np.vstack([x, np.full((1, n_features), np.nan)])
    padded_y = np.append(y, 0).astype(np.int32)  # counts; small, to keep temporaries small
    trees: list[list[dict]] = [[{}] for _ in samples]
    # each pending item: (node slot, row indices, depth)
    pending = [[(0, np.asarray(rows), 0)] for rows in samples]
    growing = list(range(len(samples)))
    while growing:
        popped = [(t, *pending[t].pop()) for t in growing]
        n_rows = np.array([len(rows) for _t, _slot, rows, _depth in popped], dtype=np.int32)
        idx = np.full((len(popped), n_rows.max()), n)
        idx[np.arange(idx.shape[1]) < n_rows[:, None]] = np.concatenate(
            [rows for _t, _slot, rows, _depth in popped])
        ones = padded_y[idx].sum(axis=1)
        zeros = n_rows - ones
        with np.errstate(invalid="ignore"):  # empty nodes, whose impurity is 0
            p0, p1 = zeros / n_rows, ones / n_rows
            impurity = np.where(n_rows > 0, 1.0 - (p0 * p0 + p1 * p1), 0.0)
        stop = (impurity == 0.0) | (n_rows < 2 * params.min_samples_leaf)
        if params.max_depth is not None:
            stop |= np.array([depth for *_rest, depth in popped]) >= params.max_depth
        search = np.flatnonzero(~stop)
        splits: list[tuple[int, float] | None] = [None] * len(popped)
        if len(search):
            if draw:
                features = np.array([
                    np.sort(rngs[popped[b][0]].choice(n_features, size=max_features, replace=False))
                    for b in search])
            else:
                features = np.broadcast_to(np.arange(n_features), (len(search), n_features))
            search_idx = idx[search, :n_rows[search].max()]
            for b, split in zip(search, _best_splits(padded_x, padded_y, search_idx, n_rows[search],
                                                     features, params.min_samples_leaf)):
                splits[b] = split
        for b, (t, slot, rows, depth) in enumerate(popped):
            nodes = trees[t]
            counts = (int(zeros[b]), int(ones[b]))
            if splits[b] is None:
                nodes[slot] = {
                    "kind": "leaf",
                    "class_counts": list(counts),
                    "label": int(counts[1] > counts[0]),  # ties break toward label 0
                    "samples": len(rows),
                    "impurity": float(impurity[b]),
                }
                continue
            feature, threshold = splits[b]
            mask = x[rows, feature] <= threshold
            left_slot = len(nodes)
            right_slot = left_slot + 1
            nodes += [{}, {}]
            nodes[slot] = {
                "kind": "split",
                "feature": feature,
                "threshold": threshold,
                "left": left_slot,
                "right": right_slot,
                "samples": len(rows),
                "impurity": float(impurity[b]),
            }
            # push right first so the left branch is grown first (stable order)
            pending[t].append((right_slot, rows[~mask], depth + 1))
            pending[t].append((left_slot, rows[mask], depth + 1))
        growing = [t for t in growing if pending[t]]
    return trees


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
    [nodes] = grow_trees(x, y, [np.arange(len(y))], params)
    schema = ds.schema
    return DecisionTreeModel(nodes, params, schema.columns, schema.format_kind,
                             schema.version, warnings)
