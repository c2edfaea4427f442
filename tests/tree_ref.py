"""Dict-node tree walker used only as a test oracle.

Walks each tree's serialized node list directly, one subtree of rows at a
time, with the model's rules written out again: go left iff value <=
threshold (so NaN goes right), and label 1 needs a strict majority of the
trees. Shares no code with the packed-array predictor.
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
