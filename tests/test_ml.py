import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trap4phish.cli import _load_model
from trap4phish.core import FeatureSchema, LabeledDataset, SchemaError
from trap4phish.ml import (
    DecisionTreeModel,
    EmptyDatasetError,
    ForestParams,
    RandomForestModel,
    SchemaMismatchError,
    TreeParams,
    evaluate,
    f1_score,
    load_model,
    metrics_table,
    stratified_split,
    train_decision_tree,
    train_random_forest,
)
from trap4phish.ml.metrics import EvalMetrics


def make_ds(rows, labels, kind="test"):
    schema = FeatureSchema(kind, tuple(f"f{i}" for i in range(len(rows[0]))))
    return LabeledDataset(schema, rows, labels)


class TestDecisionTree:
    def test_one_dimensional_split(self):
        ds = make_ds([[0], [1]], [0, 1])
        model = train_decision_tree(ds)
        root = model.nodes[0]
        assert root["kind"] == "split"
        assert root["threshold"] == 0.5
        assert model.predict_many(ds.x[:1])[0] == 0
        assert model.predict_many(ds.x[1:2])[0] == 1

    def test_xor_depth_two(self):
        ds = make_ds([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
        model = train_decision_tree(ds, TreeParams(max_depth=2))
        assert [model.predict_many(row[None])[0] for row in ds.x] == [0, 1, 1, 0]

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
            train_decision_tree(LabeledDataset(schema, [], []))

    def test_min_samples_leaf(self):
        ds = make_ds([[i] for i in range(10)], [0] * 5 + [1] * 5)
        model = train_decision_tree(ds, TreeParams(min_samples_leaf=5))
        for node in model.nodes:
            if node["kind"] == "leaf":
                assert node["samples"] >= 5

    def test_serialization_roundtrip(self):
        ds = make_ds([[0, 3], [1, 2], [2, 1], [3, 0]], [0, 0, 1, 1])
        model = train_decision_tree(ds, TreeParams(max_depth=3))
        again = load_model(model.to_json())
        assert isinstance(again, DecisionTreeModel)
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
        assert isinstance(load_model(forest.to_json()), RandomForestModel)
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
        trees = [DecisionTreeModel(leaf(1), params, schema),
                 DecisionTreeModel(leaf(1), params, schema),
                 DecisionTreeModel(leaf(0), params, schema)]
        forest = RandomForestModel(trees, ForestParams(n_trees=3), schema)
        assert forest.predict_many(np.array([[0.0]]))[0] == 1
        forest2 = RandomForestModel(trees[1:], ForestParams(n_trees=2), schema)
        assert forest2.predict_many(np.array([[0.0]]))[0] == 0

    def test_scaling_invariance(self):
        # multiplying any single column by a positive constant in train and
        # eval leaves predictions unchanged (order statistics only)
        ds = make_ds([[0, 7], [1, 5], [2, 3], [3, 1], [4, 0], [5, 2]],
                     [0, 0, 0, 1, 1, 1])
        eval_rows = np.array([[0.5, 6.0], [4.5, 0.5], [2.2, 2.0]])
        for column, factor in [(0, 4.0), (1, 0.5), (0, 3.0)]:
            scaled_rows = ds.x.copy()
            scaled_rows[:, column] *= factor
            ds_scaled = make_ds(scaled_rows, ds.y)
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
        again = load_model(model.to_json())
        assert isinstance(again, RandomForestModel)
        assert again.to_json() == model.to_json()


class TestModelFilesV1:
    """Model files written by format version 1 must keep loading, unchanged,
    once the format moves on. The DT was trained with
    TreeParams(max_depth=4, min_samples_leaf=2) and the RF with
    ForestParams(n_trees=3, max_features=2, seed=11, max_depth=3), both on
    24 noisy rows of the three columns a, b and c."""

    # rows on either side of the splits, a NaN, and the DT root's two thresholds
    ROWS = np.array([[-0.36, 1.2, 1.4], [0.32, 0.41, -0.49], [-0.91, -0.9, -1.0],
                     [0.93, -0.06, 0.13], [1.23, -1.22, 0.04], [float("nan"), 0.0, 0.0],
                     [0.79, 0.8049999999999999, 0.0]])

    @pytest.mark.parametrize("name, kind, labels", [
        ("model_v1_decision_tree.json", DecisionTreeModel, [1, 0, 0, 1, 0, 0, 0]),
        ("model_v1_random_forest.json", RandomForestModel, [0, 1, 0, 1, 1, 0, 0]),
    ])
    def test_loads_reserializes_and_predicts(self, name, kind, labels):
        path = Path(__file__).parent / "data" / name
        model = _load_model(str(path))
        assert isinstance(model, kind)
        assert model.schema.columns == ("a", "b", "c")
        assert model.to_json().encode("utf-8") == path.read_bytes()
        assert model.predict_many(self.ROWS).tolist() == labels



class TestModelFileChecks:
    """A model file that no `train` could have written is refused on load,
    where the parent loaded each of these and took its contents on trust."""

    @staticmethod
    def mutated(name: str, edit) -> str:
        payload = json.loads((Path(__file__).parent / "data" / name).read_text(encoding="utf-8"))
        edit(payload)
        return json.dumps(payload)

    @staticmethod
    def every_node(payload):
        trees = payload["trees"] if "trees" in payload else [payload["nodes"]]
        return [node for nodes in trees for node in nodes]

    def test_leaf_label_other_than_0_or_1(self):
        def edit(payload):
            for node in self.every_node(payload):
                if node["kind"] == "leaf":
                    node["label"] = 7
        with pytest.raises(ValueError, match="label 7"):
            load_model(self.mutated("model_v1_decision_tree.json", edit))

    def test_tree_count_other_than_n_trees(self):
        def edit(payload):
            payload["params"]["n_trees"] = 50
        with pytest.raises(ValueError, match="3 trees, but n_trees is 50"):
            load_model(self.mutated("model_v1_random_forest.json", edit))

    @pytest.mark.parametrize("name", ["model_v1_decision_tree.json", "model_v1_random_forest.json"])
    def test_split_on_a_column_outside_the_schema(self, name):
        def edit(payload):
            next(n for n in self.every_node(payload) if n["kind"] == "split")["feature"] = 999
        with pytest.raises(ValueError, match="column 999 of 3"):
            load_model(self.mutated(name, edit))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_threshold_that_is_not_finite(self, threshold):
        def edit(payload):
            next(n for n in self.every_node(payload) if n["kind"] == "split")["threshold"] = threshold
        with pytest.raises(ValueError, match="not finite"):
            load_model(self.mutated("model_v1_decision_tree.json", edit))

    @pytest.mark.parametrize("name", ["model_v1_decision_tree.json", "model_v1_random_forest.json"])
    def test_schema_that_repeats_a_column(self, name, tmp_path):
        # FeatureSchema refuses the repeat; a model file is outside input, so ValueError
        def edit(payload):
            payload["schema"]["columns"][1] = "a"
        text = self.mutated(name, edit)
        with pytest.raises(ValueError, match=r"duplicate column names: \['a'\]"):
            load_model(text)
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError):
            _load_model(str(path))

    @pytest.mark.parametrize("kind, key, value", [
        ("split", "feature", 1e308), ("split", "feature", float("inf")), ("split", "feature", 10**30),
        ("split", "threshold", 10**400), ("split", "feature", 0.5), ("split", "feature", True),
        ("leaf", "label", True), ("split", "threshold", True),
    ], ids=["feature-1e308", "feature-inf", "feature-10e30", "threshold-10e400", "feature-0.5", "feature-true",
            "label-true", "threshold-true"])
    def test_mistyped_or_oversized_node_field(self, kind, key, value, tmp_path):
        # each of these loaded, or raised OverflowError past the CLI
        def edit(payload):
            next(n for n in self.every_node(payload) if n["kind"] == kind)[key] = value
        text = self.mutated("model_v1_decision_tree.json", edit)
        with pytest.raises(ValueError, match=f"{key}|column"):
            load_model(text)
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError):
            _load_model(str(path))


def _json_paths(value, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, path + (key,))


_V1_PAYLOADS = {name: json.loads((Path(__file__).parent / "data" / name).read_text(encoding="utf-8"))
                for name in ("model_v1_decision_tree.json", "model_v1_random_forest.json")}
_DELETE = object()
# values of every JSON type, and numbers at and past what int64 and float64 hold
_FIELD_VALUES = st.one_of(
    st.sampled_from([_DELETE, None, True, False, 0, 1, 2, -1, 3, 999, 2**63, 10**30, -10**30, 10**400,
                     0.5, -0.0, 1e308, -1e308, float("inf"), float("-inf"), float("nan"), "", "a", "leaf",
                     "split", [], [0], {}, {"kind": "leaf"}]),
    st.integers(), st.floats(),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(_V1_PAYLOADS)), st.data())
def test_single_field_mutations_load_or_raise_value_key_or_type_error(name, data):
    payload = json.loads(json.dumps(_V1_PAYLOADS[name]))
    paths = list(_json_paths(payload))
    path = data.draw(st.sampled_from(paths))
    value = data.draw(_FIELD_VALUES)
    if not path:
        payload = None if value is _DELETE else value
    else:
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    try:
        model = load_model(json.dumps(payload))
    except (ValueError, KeyError, TypeError):
        return
    rows = np.zeros((len(TestModelFilesV1.ROWS), len(model.schema)))
    width = min(3, len(model.schema))
    rows[:, :width] = TestModelFilesV1.ROWS[:, :width]
    assert set(model.predict_many(rows).tolist()) <= {0, 1}


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
            evaluate(model, LabeledDataset(ds.schema, [], []))

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
        assert a_test.y.tolist() == b_test.y.tolist()
        assert a_test.y.tolist().count(1) == 24
        assert len(a_train) + len(a_test) == 200
