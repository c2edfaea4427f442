import numpy as np
import pytest

from trap4phish.core import FeatureSchema, LabeledDataset
from trap4phish.ml import (
    ForestParams,
    rank_features_gini,
    rank_features_permutation,
    select_top_k,
    train_random_forest,
)


def make_ds(rows, labels):
    schema = FeatureSchema("test", tuple(f"f{i}" for i in range(len(rows[0]))))
    return LabeledDataset(schema, rows, labels)


def label_copy_dataset(seed: int, n=200, noise_features=9):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(int)
    x = np.hstack([labels.reshape(-1, 1).astype(float),
                   rng.normal(size=(n, noise_features))])
    return make_ds(x.tolist(), labels.tolist())


class TestGiniRanking:
    def test_single_split_concentrates_score(self):
        ds = make_ds([[0, 5], [1, 5]], [0, 1])
        forest = train_random_forest(ds, ForestParams(n_trees=3, bootstrap=False, max_features=None))
        ranking = rank_features_gini(forest)
        assert ranking[0] == ("f0", 1.0)
        assert ranking[1][1] == 0.0

    def test_scores_sum_to_one(self):
        ds = label_copy_dataset(1)
        forest = train_random_forest(ds, ForestParams(n_trees=11, seed=2))
        ranking = rank_features_gini(forest)
        assert sum(score for _n, score in ranking) == pytest.approx(1.0, abs=1e-9)

    def test_constant_feature_scores_zero(self):
        rng = np.random.default_rng(3)
        labels = (rng.random(100) < 0.5).astype(int)
        x = np.hstack([labels.reshape(-1, 1).astype(float), np.full((100, 1), 7.0)])
        ds = make_ds(x.tolist(), labels.tolist())
        forest = train_random_forest(ds, ForestParams(n_trees=9, seed=4))
        scores = dict(rank_features_gini(forest))
        assert scores["f1"] == 0.0

    def test_descending_with_schema_tiebreak(self):
        ds = label_copy_dataset(5)
        forest = train_random_forest(ds, ForestParams(n_trees=7, seed=5))
        ranking = rank_features_gini(forest)
        scores = [s for _n, s in ranking]
        assert scores == sorted(scores, reverse=True)


class TestPermutationRanking:
    def test_label_copy_scores_half(self):
        # permuting a balanced label-copy column drops accuracy to ~0.5
        drops = []
        for seed in range(20):
            ds = label_copy_dataset(seed + 100)
            forest = train_random_forest(ds, ForestParams(n_trees=9, seed=seed))
            ranking = rank_features_permutation(forest, ds, seed=seed, n_repeats=3)
            drops.append(dict(ranking)["f0"])
        assert abs(float(np.mean(drops)) - 0.5) < 0.1

    def test_noise_features_near_zero(self):
        noise_scores = []
        for seed in range(20):
            ds = label_copy_dataset(seed + 300)
            forest = train_random_forest(ds, ForestParams(n_trees=9, seed=seed))
            scores = dict(rank_features_permutation(forest, ds, seed=seed, n_repeats=3))
            noise_scores.extend(scores[f"f{i}"] for i in range(1, 10))
        assert float(np.median(noise_scores)) <= 0.01

    def test_copy_feature_ranks_first(self):
        wins = 0
        for seed in range(20):
            ds = label_copy_dataset(seed + 500)
            forest = train_random_forest(ds, ForestParams(n_trees=9, seed=seed))
            gini_first = rank_features_gini(forest)[0][0]
            perm_first = rank_features_permutation(forest, ds, seed=seed, n_repeats=3)[0][0]
            if gini_first == "f0" and perm_first == "f0":
                wins += 1
        assert wins >= 19  # >= 95% of 20 runs

    def test_repeats_never_flip_strong_signal(self):
        ds = label_copy_dataset(7)
        forest = train_random_forest(ds, ForestParams(n_trees=9, seed=7))
        for repeats in (1, 3, 7):
            scores = dict(rank_features_permutation(forest, ds, seed=1, n_repeats=repeats))
            assert scores["f0"] > 0

    def test_scores_clipped_nonnegative(self):
        ds = label_copy_dataset(11)
        forest = train_random_forest(ds, ForestParams(n_trees=5, seed=11))
        for _name, score in rank_features_permutation(forest, ds, seed=2, n_repeats=2):
            assert score >= 0


class TestSelectTopK:
    def _ranking(self):
        ds = label_copy_dataset(13)
        forest = train_random_forest(ds, ForestParams(n_trees=7, seed=13))
        return rank_features_gini(forest), ds.schema

    def test_full_length_is_score_permutation(self):
        ranking, schema = self._ranking()
        projected = select_top_k(ranking, len(schema.columns), schema)
        assert sorted(projected.columns) == sorted(schema.columns)
        assert projected.columns == tuple(name for name, _ in ranking)

    def test_k_zero_rejected(self):
        ranking, schema = self._ranking()
        for k in (0, -1):
            with pytest.raises(ValueError):
                select_top_k(ranking, k, schema)

    def test_k_too_large_rejected(self):
        ranking, schema = self._ranking()
        with pytest.raises(ValueError):
            select_top_k(ranking, 99, schema)

    def test_tie_breaks_to_schema_order(self):
        from trap4phish.ml.importance import _ranked
        scores = np.array([0.25, 0.5, 0.25])
        ranking = _ranked(scores, ("a", "b", "c"))
        assert [name for name, _ in ranking] == ["b", "a", "c"]

    def test_selection_invariant_under_score_rescale(self):
        ranking, schema = self._ranking()
        scaled = [(n, s * 42.0) for n, s in ranking]
        assert select_top_k(ranking, 5, schema).columns == select_top_k(scaled, 5, schema).columns

    def test_projected_schema_usable_by_analyzers(self):
        from trap4phish.analyzers import analyze_html
        from trap4phish.analyzers.html import SCHEMA as schema
        report = analyze_html(b"<html><body><p>x</p></body></html>")
        fake_scores = np.arange(len(schema.columns), dtype=float)[::-1]
        from trap4phish.ml.importance import _ranked
        ranking = _ranked(fake_scores, schema.columns)
        projected_schema = select_top_k(ranking, 13, schema)
        projected = report.features.project(projected_schema)
        assert len(projected.values) == 13
