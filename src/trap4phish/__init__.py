"""Execution-free static analysis of phishing attachments: per-format feature
extraction (Word, Excel, PDF, HTML), QR code generation/decoding, URL lexical
analysis, and lightweight tree-ensemble detectors."""

__version__ = "0.1.0"

from .core import (
    AnalysisReport,
    DatasetError,
    FeatureSchema,
    FeatureVector,
    FileKind,
    LabeledDataset,
    SchemaError,
    read_dataset_csv,
    shannon_entropy,
    sniff_file_kind,
    write_dataset_csv,
    write_features_csv,
)

__all__ = [
    "__version__",
    "AnalysisReport",
    "FeatureSchema",
    "FeatureVector",
    "FileKind",
    "LabeledDataset",
    "DatasetError",
    "SchemaError",
    "shannon_entropy",
    "sniff_file_kind",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_features_csv",
]
