"""Differential tests: the packed-array predictor against the dict-node
walker in `tree_ref.py`, on generated trees and inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_ref
from trap4phish.core import FeatureSchema
from trap4phish.ml import (
    DecisionTreeModel,
    ForestParams,
    RandomForestModel,
    SchemaMismatchError,
    TreeParams,
    load_model,
)
from trap4phish.ml.tree import pack_trees

N_FEATURES = 3
SCHEMA = FeatureSchema("test", tuple(f"f{i}" for i in range(N_FEATURES)))
# thresholds and inputs share one small value set, so inputs often sit
# exactly on a threshold
VALUES = [-1.0, 0.0, 0.5, 1.0, 2.5]


def leaf(label):
    return {"kind": "leaf", "class_counts": [1 - label, label], "label": label,
            "samples": 1, "impurity": 0.0}


def split(feature, threshold, left, right):
    return {"kind": "split", "feature": feature, "threshold": threshold,
            "left": left, "right": right, "samples": 2, "impurity": 0.5}


def dt(nodes):
    return DecisionTreeModel(nodes, TreeParams(), SCHEMA)


def rf(trees):
    return RandomForestModel([dt(nodes) for nodes in trees],
                             ForestParams(n_trees=len(trees)), SCHEMA)


@st.composite
def tree_nodes(draw, max_splits=12):
    """A node list grown by splitting randomly chosen leaves (so shapes are
    often unbalanced), then renumbered with the root kept at 0."""
    nodes = [leaf(draw(st.integers(0, 1)))]
    for _ in range(draw(st.integers(0, max_splits))):
        leaves = [i for i, node in enumerate(nodes) if node["kind"] == "leaf"]
        i = draw(st.sampled_from(leaves))
        nodes[i] = split(draw(st.integers(0, N_FEATURES - 1)), draw(st.sampled_from(VALUES)),
                         len(nodes), len(nodes) + 1)
        nodes += [leaf(draw(st.integers(0, 1))), leaf(draw(st.integers(0, 1)))]
    order = [0] + draw(st.permutations(range(1, len(nodes))))
    slot = {old: new for new, old in enumerate(order)}
    renumbered = [None] * len(nodes)
    for old, node in enumerate(nodes):
        node = dict(node)
        if node["kind"] == "split":
            node["left"], node["right"] = slot[node["left"]], slot[node["right"]]
        renumbered[slot[old]] = node
    return renumbered


cells = st.one_of(st.sampled_from(VALUES + [float("nan")]),
                  st.floats(allow_nan=True, allow_infinity=True))
inputs = st.integers(0, 12).flatmap(
    lambda n: st.lists(st.lists(cells, min_size=N_FEATURES, max_size=N_FEATURES),
                       min_size=n, max_size=n)
).map(lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), N_FEATURES))


@settings(deadline=None)
@given(tree_nodes(), inputs)
def test_tree_matches_reference(nodes, x):
    model = dt(nodes)
    expected = tree_ref.tree_predict(nodes, x)
    assert model.predict_many(x).tolist() == expected.tolist()
    again = load_model(model.to_json())
    assert isinstance(again, DecisionTreeModel)
    assert again.predict_many(x).tolist() == expected.tolist()


@settings(deadline=None)
@given(st.lists(tree_nodes(), min_size=1, max_size=6), inputs)
def test_forest_matches_reference(trees, x):
    model = rf(trees)
    expected = tree_ref.forest_predict(trees, x)
    assert model.predict_many(x).tolist() == expected.tolist()
    again = load_model(model.to_json())
    assert isinstance(again, RandomForestModel)
    assert again.predict_many(x).tolist() == expected.tolist()


@settings(deadline=None)
@given(st.lists(tree_nodes(), min_size=1, max_size=6))
def test_forest_joins_the_arrays_its_trees_packed(trees):
    joined, packed = rf(trees).packed, pack_trees(trees)
    for name in ("feature", "threshold", "left", "right", "label", "roots", "depths"):
        assert getattr(joined, name).tolist() == getattr(packed, name).tolist(), name
    assert joined.width == packed.width


def test_threshold_goes_left_and_nan_goes_right():
    model = dt([split(1, 0.5, 1, 2), leaf(0), leaf(1)])
    x = np.array([[9.0, 0.5], [9.0, np.nextafter(0.5, 1.0)], [9.0, np.nan], [9.0, -np.inf]])
    assert model.predict_many(x).tolist() == [0, 1, 1, 0]


def test_zero_rows():
    x = np.zeros((0, N_FEATURES))
    nodes = [split(0, 0.5, 1, 2), leaf(0), leaf(1)]
    assert dt(nodes).predict_many(x).shape == (0,)
    assert rf([nodes, [leaf(1)]]).predict_many(x).shape == (0,)


def test_single_leaf_trees_ignore_inputs():
    x = np.array([[np.nan, 1.0, 2.0], [0.0, 0.0, 0.0]])
    assert dt([leaf(1)]).predict_many(x).tolist() == [1, 1]
    assert dt([leaf(0)]).predict_many(x).tolist() == [0, 0]
    # a leaf-only tree needs no columns at all
    assert dt([leaf(1)]).predict_many(np.zeros((2, 0))).tolist() == [1, 1]


@pytest.mark.parametrize("side", ["left", "right"])
def test_deep_unbalanced_chain(side):
    # a 300-level chain: every split sends one side to a leaf, the other deeper
    depth = 300
    nodes = []
    for level in range(depth):
        here = len(nodes)
        deeper, stop = here + 2, here + 1
        left, right = (deeper, stop) if side == "left" else (stop, deeper)
        nodes.append(split(level % N_FEATURES, float(level), left, right))
        nodes.append(leaf(level % 2))
    nodes.append(leaf(1))
    model = dt(nodes)
    assert model.packed.depths.tolist() == [depth]
    rng = np.random.default_rng(0)
    x = rng.uniform(-10, depth + 10, size=(64, N_FEATURES)).round()
    assert model.predict_many(x).tolist() == tree_ref.tree_predict(nodes, x).tolist()


@pytest.mark.parametrize("labels,expected", [
    ([1, 1, 0, 0], 0), ([0, 1, 0, 1, 1, 0], 0), ([1, 1, 1, 0], 1),
])
def test_even_forest_tie_goes_to_zero(labels, expected):
    model = rf([[leaf(label)] for label in labels])
    assert model.predict_many(np.zeros((3, N_FEATURES))).tolist() == [expected] * 3


@pytest.mark.parametrize("nodes", [
    [],
    [split(0, 0.5, 1, 5), leaf(0), leaf(1)],          # child out of range
    [split(0, 0.5, 1, 2), split(1, 0.0, 0, 2), leaf(1)],  # cycle back to the root
    [split(0, 0.5, 1, 1), leaf(0)],                   # one node reached twice
    [split(-2, 0.5, 1, 2), leaf(0), leaf(1)],         # negative column
])
def test_malformed_node_lists_rejected(nodes):
    with pytest.raises(ValueError):
        dt(nodes)


def test_too_few_columns_rejected():
    model = dt([split(2, 0.5, 1, 2), leaf(0), leaf(1)])
    with pytest.raises(SchemaMismatchError):
        model.predict_many(np.zeros((4, 2)))
