"""Tree-based detectors: CART decision trees, seeded random forests,
confusion-matrix metrics, and the two-step feature-importance rankings."""

from .tree import DecisionTreeModel, TreeParams, train_decision_tree
from .forest import ForestParams, RandomForestModel, load_model, train_random_forest
from .metrics import EvalMetrics, evaluate, f1_score, metrics_table, stratified_split
from .importance import rank_features_gini, rank_features_permutation, select_top_k
from .errors import EmptyDatasetError, MlError, SchemaMismatchError

__all__ = [
    "DecisionTreeModel",
    "TreeParams",
    "train_decision_tree",
    "RandomForestModel",
    "ForestParams",
    "train_random_forest",
    "load_model",
    "EvalMetrics",
    "evaluate",
    "f1_score",
    "metrics_table",
    "stratified_split",
    "rank_features_gini",
    "rank_features_permutation",
    "select_top_k",
    "MlError",
    "SchemaMismatchError",
    "EmptyDatasetError",
]
