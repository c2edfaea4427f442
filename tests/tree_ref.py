"""Tree oracles for the tests: a dict-node walker, the per-node CART grower
and the full-predict permutation importance.

The walker goes through each tree's serialized node list directly, one
subtree of rows at a time, with the model's rules written out again: go left
iff value <= threshold (so NaN goes right), and label 1 needs a strict
majority of the trees. It shares no code with the packed-array predictor.

`grow_tree` is the grower as it was before the trees of a forest grew in
lock-step: one node at a time, with `_best_split` looping over the candidate
features. `forest_nodes` grows a forest with it, tree by tree, and
`permutation_scores` shuffles one column at a time and predicts every row
again with the walker. Each is slow; run it on small inputs only.
"""

import numpy as np


def tree_predict(nodes: list[dict], x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    labels = np.zeros(len(x), dtype=np.int64)
    stack = [(0, np.arange(len(x)))]
    while stack:
        node_idx, rows = stack.pop()
        if not len(rows):
            continue
        node = nodes[node_idx]
        if node["kind"] == "leaf":
            labels[rows] = node["label"]
            continue
        mask = x[rows, node["feature"]] <= node["threshold"]
        stack.append((node["left"], rows[mask]))
        stack.append((node["right"], rows[~mask]))
    return labels


def forest_predict(trees: list[list[dict]], x: np.ndarray) -> np.ndarray:
    votes = np.zeros(len(x), dtype=np.int64)
    for nodes in trees:
        votes += tree_predict(nodes, x)
    return (votes * 2 > len(trees)).astype(np.int64)


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


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
        # positions where the sorted value changes, not after a NaN (NaN != NaN)
        change = np.nonzero((xs[1:] != xs[:-1]) & ~np.isnan(xs[:-1]))[0] + 1
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
            lo, hi = float(xs[pos - 1]), float(xs[pos])
            threshold = (lo + hi) / 2.0
            # a midpoint outside [lo, hi) would not split the rows as scored
            best = (int(j), threshold if lo <= threshold < hi else lo)
    return best


def grow_tree(x: np.ndarray, y: np.ndarray, max_depth: int | None, min_samples_leaf: int,
              rng: np.random.Generator | None = None,
              max_features: int | None = None) -> list[dict]:
    """Grow the node array for (x, y). When `max_features` is smaller than
    the feature count, each split draws a feature subset from `rng`."""
    n_features = x.shape[1]
    nodes: list[dict] = [{}]
    # each pending item: (node slot, row indices, depth)
    pending = [(0, np.arange(len(y)), 0)]
    while pending:
        slot, rows, depth = pending.pop()
        sub_y = y[rows]
        counts = np.bincount(sub_y, minlength=2)[:2]
        impurity = _gini(counts)
        stop = (
            impurity == 0.0
            or (max_depth is not None and depth >= max_depth)
            or len(rows) < 2 * min_samples_leaf
        )
        split = None
        if not stop:
            if max_features is not None and max_features < n_features and rng is not None:
                feature_ids = np.sort(rng.choice(n_features, size=max_features, replace=False))
            else:
                feature_ids = np.arange(n_features)
            split = _best_split(x[rows], sub_y, feature_ids, min_samples_leaf)
        if split is None:
            nodes[slot] = {
                "kind": "leaf",
                "class_counts": [int(counts[0]), int(counts[1])],
                "label": int(np.argmax(counts)),  # tie breaks toward label 0
                "samples": int(len(rows)),
                "impurity": impurity,
            }
            continue
        feature, threshold = split
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
            "samples": int(len(rows)),
            "impurity": impurity,
        }
        # push right first so the left branch is grown first (stable order)
        pending.append((right_slot, rows[~mask], depth + 1))
        pending.append((left_slot, rows[mask], depth + 1))
    return nodes


def forest_nodes(x: np.ndarray, y: np.ndarray, n_trees: int, max_features: int, bootstrap: bool,
                 seed: int, max_depth: int | None, min_samples_leaf: int) -> list[list[dict]]:
    """The node lists of a seeded forest, grown one tree after another.
    `max_features` is already resolved to a count."""
    n, d = x.shape
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(grow_tree(x[rows], y[rows], max_depth, min_samples_leaf,
                               rng if max_features < d else None, max_features))
    return trees


def permutation_scores(trees: list[list[dict]], x: np.ndarray, y: np.ndarray, seed: int,
                       n_repeats: int) -> list[float]:
    """Mean accuracy drop per column when that column alone is shuffled,
    clipped at 0; every shuffled copy is predicted whole."""
    baseline = float((forest_predict(trees, x) == y).mean())
    rng = np.random.default_rng(seed)
    scores = []
    shuffled = x.copy()
    for j in range(x.shape[1]):
        drops = []
        for _ in range(n_repeats):
            perm = rng.permutation(len(y))
            shuffled[:, j] = x[perm, j]
            acc = float((forest_predict(trees, shuffled) == y).mean())
            drops.append(baseline - acc)
        shuffled[:, j] = x[:, j]
        scores.append(max(0.0, float(np.mean(drops))))
    return scores
