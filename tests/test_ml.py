import json

import numpy as np
import pytest

from trap4phish.core import FeatureSchema, FeatureVector, LabeledDataset
from trap4phish.ml import (
    DecisionTreeModel,
    EmptyDatasetError,
    ForestParams,
    RandomForestModel,
    SchemaMismatchError,
    TreeParams,
    evaluate,
    f1_score,
    metrics_table,
    oob_accuracy,
    stratified_split,
    train_decision_tree,
    train_random_forest,
)
from trap4phish.ml.metrics import EvalMetrics


def make_ds(rows, labels, kind="test"):
    schema = FeatureSchema(kind, tuple(f"f{i}" for i in range(len(rows[0]))))
    return LabeledDataset(
        schema, [(FeatureVector(schema, [float(v) for v in row]), int(l))
                 for row, l in zip(rows, labels)]
    )


class TestDecisionTree:
    def test_one_dimensional_split(self):
        ds = make_ds([[0], [1]], [0, 1])
        model = train_decision_tree(ds)
        root = model.nodes[0]
        assert root["kind"] == "split"
        assert root["threshold"] == 0.5
        assert model.predict_many(np.array([ds.rows[0][0].values]))[0] == 0
        assert model.predict_many(np.array([ds.rows[1][0].values]))[0] == 1

    def test_xor_depth_two(self):
        ds = make_ds([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
        model = train_decision_tree(ds, TreeParams(max_depth=2))
        assert [model.predict_many(np.array([v.values]))[0] for v, _ in ds.rows] == [0, 1, 1, 0]

    def test_identical_rows_tie_to_zero(self):
        ds = make_ds([[5.0], [5.0]], [0, 1])
        model = train_decision_tree(ds)
        assert model.nodes[0]["kind"] == "leaf"
        assert model.nodes[0]["label"] == 0

    def test_single_class_degenerate_with_warning(self):
        ds = make_ds([[1], [2], [3]], [1, 1, 1])
        model = train_decision_tree(ds)
        assert model.nodes[0]["kind"] == "leaf"
        assert model.warnings

    def test_empty_dataset_error(self):
        schema = FeatureSchema("t", ("a",))
        with pytest.raises(EmptyDatasetError):
            train_decision_tree(LabeledDataset(schema, []))

    def test_min_samples_leaf(self):
        ds = make_ds([[i] for i in range(10)], [0] * 5 + [1] * 5)
        model = train_decision_tree(ds, TreeParams(min_samples_leaf=5))
        for node in model.nodes:
            if node["kind"] == "leaf":
                assert node["samples"] >= 5

    def test_serialization_roundtrip(self):
        ds = make_ds([[0, 3], [1, 2], [2, 1], [3, 0]], [0, 0, 1, 1])
        model = train_decision_tree(ds, TreeParams(max_depth=3))
        again = DecisionTreeModel.from_json(model.to_json())
        assert again.to_json() == model.to_json()
        x = np.array([[0.5, 2.5], [2.5, 0.5]])
        assert (again.predict_many(x) == model.predict_many(x)).all()


class TestRandomForest:
    def _blob_ds(self, n=100, seed=1):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(0, 1, (n, 4))
        x1 = rng.normal(3, 1, (n, 4))
        return make_ds(np.vstack([x0, x1]).tolist(), [0] * n + [1] * n)

    def test_same_seed_byte_identical(self):
        ds = self._blob_ds()
        a = train_random_forest(ds, ForestParams(n_trees=9, seed=21))
        b = train_random_forest(ds, ForestParams(n_trees=9, seed=21))
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        ds = self._blob_ds()
        a = train_random_forest(ds, ForestParams(n_trees=9, seed=21))
        b = train_random_forest(ds, ForestParams(n_trees=9, seed=22))
        assert a.to_json() != b.to_json()

    def test_each_tree_is_packed_once(self, monkeypatch):
        from trap4phish.ml import tree as tree_module
        packed = []
        real = tree_module.pack_trees
        monkeypatch.setattr(tree_module, "pack_trees", lambda trees: packed.append(len(trees)) or real(trees))
        forest = train_random_forest(self._blob_ds(n=30), ForestParams(n_trees=7, seed=3))
        assert packed == [1] * 7
        RandomForestModel.from_json(forest.to_json())
        assert packed == [1] * 14

    def test_forest_of_one_reduction(self):
        ds = self._blob_ds(n=40)
        forest = train_random_forest(
            ds, ForestParams(n_trees=1, bootstrap=False, max_features=None, seed=5)
        )
        tree = train_decision_tree(ds, TreeParams())
        assert forest.trees[0].nodes == tree.nodes
        x = np.array([[0.1, 0.2, 0.3, 0.4], [2.9, 3.1, 2.8, 3.3], [1.5, 1.5, 1.5, 1.5]])
        assert (forest.predict_many(x) == tree.predict_many(x)).all()

    def test_majority_vote_tie_to_zero(self):
        # leaves voting {1, 1, 0} -> 1; tie {1, 0} -> 0
        schema = FeatureSchema("t", ("a",))
        leaf = lambda label: [{"kind": "leaf", "class_counts": [1 - label, label],
                               "label": label, "samples": 1, "impurity": 0.0}]
        params = TreeParams()
        trees = [DecisionTreeModel(leaf(1), params, schema.columns),
                 DecisionTreeModel(leaf(1), params, schema.columns),
                 DecisionTreeModel(leaf(0), params, schema.columns)]
        forest = RandomForestModel(trees, ForestParams(n_trees=3), schema.columns)
        assert forest.predict_many(np.array([[0.0]]))[0] == 1
        forest2 = RandomForestModel(trees[1:], ForestParams(n_trees=2), schema.columns)
        assert forest2.predict_many(np.array([[0.0]]))[0] == 0

    def test_oob_accuracy_separable_blobs(self):
        ds = self._blob_ds(n=100, seed=3)
        # brute-force single-feature threshold oracle: blobs with means 3
        # sigma apart give ~0.93 on one axis, confirming separable structure
        xs = sorted(v.values[0] for v, _ in ds.rows)
        best = 0.0
        for a, b in zip(xs, xs[1:]):
            threshold = (a + b) / 2
            acc = np.mean([
                (v.values[0] > threshold) == bool(label) for v, label in ds.rows
            ])
            best = max(best, acc, 1 - acc)
        assert best >= 0.9
        forest = train_random_forest(ds, ForestParams(n_trees=25, seed=4))
        assert oob_accuracy(forest, ds) >= 0.95

    def test_scaling_invariance(self):
        # multiplying any single column by a positive constant in train and
        # eval leaves predictions unchanged (order statistics only)
        ds = make_ds([[0, 7], [1, 5], [2, 3], [3, 1], [4, 0], [5, 2]],
                     [0, 0, 0, 1, 1, 1])
        eval_rows = np.array([[0.5, 6.0], [4.5, 0.5], [2.2, 2.0]])
        for column, factor in [(0, 4.0), (1, 0.5), (0, 3.0)]:
            scaled_rows = [list(v.values) for v, _ in ds.rows]
            for row in scaled_rows:
                row[column] *= factor
            ds_scaled = make_ds(scaled_rows, ds.labels)
            scaled_eval = eval_rows.copy()
            scaled_eval[:, column] *= factor
            for params in (ForestParams(n_trees=7, seed=2),
                           ForestParams(n_trees=1, bootstrap=False, max_features=None, seed=2)):
                base = train_random_forest(ds, params).predict_many(eval_rows)
                scaled = train_random_forest(ds_scaled, params).predict_many(scaled_eval)
                assert (base == scaled).all()

    def test_serialization_roundtrip(self):
        ds = self._blob_ds(n=30)
        model = train_random_forest(ds, ForestParams(n_trees=5, seed=1))
        again = RandomForestModel.from_json(model.to_json())
        assert again.to_json() == model.to_json()


class TestMetrics:
    def test_confusion_substitution(self):
        m = EvalMetrics.from_confusion(tp=3, fp=1, fn=1, tn=5)
        assert m.accuracy == 0.8
        assert m.precision == 0.75
        assert m.recall == 0.75
        assert m.f1 == 0.75

    @pytest.mark.parametrize("precision,recall,expected", [
        (0.9301, 0.8401, 0.8828),
        (0.9856, 0.9860, 0.9858),
        (0.9917, 0.9924, 0.9920),
        (0.9939, 0.9922, 0.9930),
        (0.9606, 0.9611, 0.9609),
    ])
    def test_f1_reference_rows(self, precision, recall, expected):
        assert f1_score(precision, recall) == pytest.approx(expected, abs=1e-4)

    def test_f1_zero_when_both_zero(self):
        assert f1_score(0.0, 0.0) == 0.0

    def test_evaluate_end_to_end(self):
        ds = make_ds([[0], [1], [2], [3]], [0, 0, 1, 1])
        model = train_decision_tree(ds)
        m = evaluate(model, ds)
        assert m.accuracy == 1.0
        assert m.tp + m.fp + m.fn + m.tn == 4
        assert 0 <= m.f1_macro <= 1

    def test_evaluate_schema_mismatch(self):
        ds = make_ds([[0], [1]], [0, 1])
        model = train_decision_tree(ds)
        other = make_ds([[0, 1], [1, 0]], [0, 1])
        with pytest.raises(SchemaMismatchError):
            evaluate(model, other)

    def test_evaluate_empty(self):
        ds = make_ds([[0], [1]], [0, 1])
        model = train_decision_tree(ds)
        with pytest.raises(EmptyDatasetError):
            evaluate(model, LabeledDataset(ds.schema, []))

    def test_metrics_identities(self):
        rng = np.random.default_rng(17)
        ds = make_ds(rng.normal(size=(60, 3)).tolist(), (rng.random(60) < 0.5).astype(int).tolist())
        model = train_random_forest(ds, ForestParams(n_trees=5, seed=0, max_depth=3))
        m = evaluate(model, ds)
        n = m.tp + m.fp + m.fn + m.tn
        assert n == len(ds)
        assert m.accuracy == pytest.approx((m.tp + m.tn) / n)
        if m.precision + m.recall > 0:
            assert m.f1 == pytest.approx(2 * m.precision * m.recall / (m.precision + m.recall))
        for value in (m.accuracy, m.precision, m.recall, m.f1,
                      m.precision_macro, m.recall_macro, m.f1_macro):
            assert 0.0 <= value <= 1.0

    def test_metrics_table_format(self):
        m = EvalMetrics.from_confusion(3, 1, 1, 5)
        table = metrics_table([("DT", m)])
        assert "Precision" in table and "Recall" in table and "F1" in table
        assert "DT" in table


class TestStratifiedSplit:
    def test_ratio_and_determinism(self):
        rng = np.random.default_rng(2)
        ds = make_ds(rng.normal(size=(200, 2)).tolist(), [0] * 120 + [1] * 80)
        a_train, a_test = stratified_split(ds, 0.3, seed=5)
        b_train, b_test = stratified_split(ds, 0.3, seed=5)
        assert len(a_test) == len(b_test) == 60  # 36 + 24
        assert a_test.labels == b_test.labels
        assert a_test.labels.count(1) == 24
        assert len(a_train) + len(a_test) == 200
