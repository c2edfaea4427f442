"""Differential tests: the lock-step forest grower and the re-walking
permutation importance against the per-node grower and the full-predict
permutation loop in `tree_ref.py`. Whole node lists and whole rankings must
be equal, floats included (compared through JSON, so NaN thresholds and the
sign of zero count too)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_ref
from trap4phish.core import FeatureSchema, FeatureVector, LabeledDataset
from trap4phish.ml import (
    ForestParams,
    TreeParams,
    rank_features_permutation,
    train_decision_tree,
    train_random_forest,
)
from trap4phish.ml.tree import grow_trees

_SETTINGS = settings(max_examples=150, deadline=None)

# a small value set, so columns tie, repeat and are often constant
FINITE = [-2.0, -0.0, 0.0, 0.5, 1.0, 3.0]
SPECIAL = [math.nan, math.inf, -math.inf]


@st.composite
def matrices(draw, values, max_rows=24, max_cols=5):
    """(x, y): rows drawn from `values`, some of them copies of earlier rows,
    with 0/1 labels."""
    n_cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(st.sampled_from(values), min_size=n_cols, max_size=n_cols)))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


tree_settings = st.fixed_dictionaries({
    "max_depth": st.one_of(st.none(), st.integers(0, 4)),
    "min_samples_leaf": st.integers(1, 3),
})
forest_settings = st.fixed_dictionaries({
    "n_trees": st.integers(1, 6),
    "max_features": st.one_of(st.none(), st.just("sqrt"), st.integers(1, 5)),
    "bootstrap": st.booleans(),
    "seed": st.integers(0, 3),
})


def _json(trees) -> str:
    return json.dumps(trees, sort_keys=True)


def _dataset(x, y) -> LabeledDataset:
    schema = FeatureSchema("test", tuple(f"f{i}" for i in range(x.shape[1])))
    return LabeledDataset(schema, [(FeatureVector(schema, row.tolist()), int(label))
                                   for row, label in zip(x, y)])


def _ref_forest(x, y, tree, forest):
    max_features = ForestParams(**forest).resolve_max_features(x.shape[1])
    return tree_ref.forest_nodes(x, y, forest["n_trees"], max_features, forest["bootstrap"],
                                 forest["seed"], tree["max_depth"], tree["min_samples_leaf"])


# A split between a finite value and NaN or +inf has threshold NaN or +inf
# and sends every row to one child, which splits the same way again, in both
# growers; so these trees get a depth limit.
bounded_tree_settings = st.fixed_dictionaries({
    "max_depth": st.integers(0, 6),
    "min_samples_leaf": st.integers(1, 3),
})


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # -inf + inf in the oracle
@_SETTINGS
@given(matrices(FINITE + SPECIAL), bounded_tree_settings, forest_settings)
def test_grow_trees_matches_per_node_grower(data, tree, forest):
    # NaN and +-inf cannot enter through a dataset, so the grower is fed directly
    x, y = data
    n, d = x.shape
    params = ForestParams(**forest)
    max_features = params.resolve_max_features(d)
    rngs = [np.random.default_rng(np.random.SeedSequence([params.seed, t]))
            for t in range(params.n_trees)]
    samples = [rng.integers(0, n, size=n) if params.bootstrap else np.arange(n) for rng in rngs]
    grown = grow_trees(x, y, samples, TreeParams(**tree), max_features, rngs)
    assert _json(grown) == _json(_ref_forest(x, y, tree, forest))


@_SETTINGS
@given(matrices(FINITE), tree_settings)
def test_decision_tree_matches_per_node_grower(data, tree):
    x, y = data
    model = train_decision_tree(_dataset(x, y), TreeParams(**tree))
    expected = tree_ref.grow_tree(x, y, tree["max_depth"], tree["min_samples_leaf"])
    assert _json(model.nodes) == _json(expected)


@_SETTINGS
@given(matrices(FINITE), tree_settings, forest_settings,
       st.integers(0, 5), st.integers(1, 4))
def test_forest_and_permutation_ranking_match_references(data, tree, forest, rank_seed, repeats):
    x, y = data
    ds = _dataset(x, y)
    model = train_random_forest(ds, ForestParams(**forest, **tree))
    trees = [t.nodes for t in model.trees]
    assert _json(trees) == _json(_ref_forest(x, y, tree, forest))

    ranking = rank_features_permutation(model, ds, seed=rank_seed, n_repeats=repeats)
    scores = tree_ref.permutation_scores(trees, x, y, rank_seed, repeats)
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    assert ranking.entries == [(f"f{j}", scores[j]) for j in order]


@_SETTINGS
@given(matrices(FINITE), tree_settings, st.integers(0, 5), st.integers(1, 4))
def test_single_tree_permutation_ranking_matches_reference(data, tree, rank_seed, repeats):
    x, y = data
    ds = _dataset(x, y)
    model = train_decision_tree(ds, TreeParams(**tree))
    ranking = rank_features_permutation(model, ds, seed=rank_seed, n_repeats=repeats)
    scores = tree_ref.permutation_scores([model.nodes], x, y, rank_seed, repeats)
    assert dict(ranking.entries) == {f"f{j}": score for j, score in enumerate(scores)}
