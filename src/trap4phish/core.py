"""Shared primitives: feature schemas and vectors, byte-level statistics,
file-type sniffing, and the labeled CSV dataset format used across the toolkit.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence, Union


class FileKind(Enum):
    DOCX = "docx"
    XLSX = "xlsx"
    PDF = "pdf"
    HTML = "html"
    QR_IMAGE = "qr_image"
    UNKNOWN = "unknown"


class DatasetError(Exception):
    """Raised for malformed datasets or CSV files."""


class SchemaError(DatasetError):
    """Raised when a header or vector does not match the expected schema."""


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered, named numeric feature columns for one file format.

    The column order is part of the contract: CSV files, feature vectors and
    trained models all refer to features by position within one schema version.
    """

    format_kind: str
    columns: tuple[str, ...]
    version: int = 1

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            dupes = [c for c, n in Counter(self.columns).items() if n > 1]
            raise SchemaError(f"duplicate column names: {dupes}")
        object.__setattr__(self, "columns", tuple(self.columns))

    def __len__(self) -> int:
        return len(self.columns)

    def index_of(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise SchemaError(f"unknown column {column!r} in {self.format_kind} schema") from None

    def project(self, columns: Sequence[str]) -> "FeatureSchema":
        """Schema restricted to the given columns, in the given order."""
        for c in columns:
            self.index_of(c)
        return FeatureSchema(self.format_kind, tuple(columns), self.version)


@dataclass
class FeatureVector:
    schema: FeatureSchema
    values: list[float]

    def __post_init__(self):
        if len(self.values) != len(self.schema.columns):
            raise SchemaError(
                f"vector length {len(self.values)} != schema length {len(self.schema.columns)}"
            )
        self.values = [float(v) for v in self.values]
        for name, v in zip(self.schema.columns, self.values):
            if not math.isfinite(v):
                raise ValueError(f"non-finite value for feature {name!r}: {v}")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.schema.columns, self.values))

    def __getitem__(self, column: str) -> float:
        return self.values[self.schema.index_of(column)]

    def project(self, schema: FeatureSchema) -> "FeatureVector":
        """Re-express this vector under a projected (sub)schema."""
        return FeatureVector(schema, [self[c] for c in schema.columns])


@dataclass
class AnalysisReport:
    """Outcome of analyzing one input. Always carries a full-length vector,
    even when parsing failed (unknown features are zero)."""

    source_path: str
    format_kind: str
    features: FeatureVector
    warnings: list[str] = field(default_factory=list)
    parse_failed: bool = False

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "source_path": self.source_path,
            "format": self.format_kind,
            "features": self.features.as_dict(),
            "warnings": list(self.warnings),
            "parse_failed": self.parse_failed,
        }
        return json.dumps(payload, indent=indent)


@dataclass
class LabeledDataset:
    schema: FeatureSchema
    rows: list[tuple[FeatureVector, int]]

    def __post_init__(self):
        for vec, label in self.rows:
            if vec.schema.columns != self.schema.columns:
                raise SchemaError("dataset row schema mismatch")
            if label not in (0, 1):
                raise DatasetError(f"label must be 0 or 1, got {label!r}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def labels(self) -> list[int]:
        return [label for _, label in self.rows]


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy in bits per byte over the byte histogram of `data`.

    Empty input yields 0.0. Result is always within [0, 8].
    """
    if not data:
        return 0.0
    counts = Counter(data)
    total = len(data)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def count_pattern(data: bytes, pattern: bytes, case_insensitive: bool = False) -> int:
    """Count non-overlapping, left-to-right occurrences of `pattern` in `data`.

    ASCII case folding is applied when `case_insensitive` is set.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    if case_insensitive:
        data = data.lower()
        pattern = pattern.lower()
    count = 0
    start = 0
    while True:
        idx = data.find(pattern, start)
        if idx < 0:
            return count
        count += 1
        start = idx + len(pattern)


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def sniff_file_kind(data: bytes) -> FileKind:
    """Deterministically classify raw bytes into one of the supported kinds.

    Never raises: anything unrecognized (including malformed archives) is
    FileKind.UNKNOWN.
    """
    if data.startswith(b"%PDF-"):
        return FileKind.PDF
    if data.startswith(b"PK\x03\x04"):
        return _sniff_ooxml(data)
    if data.startswith(b"P5") or data.startswith(_PNG_SIGNATURE):
        return FileKind.QR_IMAGE
    head = data[:4096].lstrip()
    lowered = head[:16].lower()
    if lowered.startswith(b"<!doctype") or lowered.startswith(b"<html"):
        return FileKind.HTML
    return FileKind.UNKNOWN


def _sniff_ooxml(data: bytes) -> FileKind:
    from .containers.errors import ContainerError
    from .containers.ziparc import zip_open

    try:
        archive = zip_open(data)
        names = {entry.name for entry in archive.entries}
    except ContainerError:
        return FileKind.UNKNOWN
    except Exception:
        return FileKind.UNKNOWN
    if "word/document.xml" in names:
        return FileKind.DOCX
    if "xl/workbook.xml" in names:
        return FileKind.XLSX
    return FileKind.UNKNOWN


def format_value(v: float) -> str:
    """Serialize a feature value with up to 9 significant digits."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.9g}"


Destination = Union[str, Path, io.IOBase]


def write_dataset_csv(ds: LabeledDataset, destination: Destination) -> int:
    """Write a labeled dataset as UTF-8 CSV (header = columns + "label").

    Returns the number of bytes written.
    """
    rows = ([format_value(v) for v in vec.values] + [str(label)] for vec, label in ds.rows)
    return _write_csv(list(ds.schema.columns) + ["label"], rows, destination)


def write_features_csv(schema: FeatureSchema, vectors: Iterable[FeatureVector],
                       destination: Destination) -> int:
    """Unlabeled variant of write_dataset_csv (header = columns only)."""
    def rows():
        for vec in vectors:
            if vec.schema.columns != schema.columns:
                raise SchemaError("vector schema mismatch in write_features_csv")
            yield [format_value(v) for v in vec.values]

    return _write_csv(list(schema.columns), rows(), destination)


def _write_csv(header: list[str], rows: Iterable[list[str]], destination: Destination) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    payload = buf.getvalue().encode("utf-8")
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as fh:
            fh.write(payload)
    else:
        destination.write(payload)
    return len(payload)


def read_dataset_csv(source: Union[str, Path, bytes, io.IOBase], schema: FeatureSchema) -> LabeledDataset:
    """Read a labeled dataset; the header must match the schema plus "label"."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            raw = fh.read()
    elif isinstance(source, bytes):
        raw = source
    else:
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    reader = csv.reader(io.StringIO(raw.decode("utf-8")))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty CSV: missing header row") from None
    expected = list(schema.columns) + ["label"]
    if header != expected:
        raise SchemaError(
            f"header mismatch: expected {expected[:3]}...+label "
            f"({len(expected)} columns), got {len(header)} columns"
            + ("" if header[-1:] == ["label"] else " (no trailing 'label')")
        )
    rows: list[tuple[FeatureVector, int]] = []
    for row_idx, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(expected):
            raise DatasetError(f"row {row_idx}: expected {len(expected)} cells, got {len(row)}")
        values = []
        for col, cell in zip(schema.columns, row):
            try:
                v = float(cell)
            except ValueError:
                raise DatasetError(f"row {row_idx}, column {col!r}: non-numeric value {cell!r}") from None
            if not math.isfinite(v):
                raise DatasetError(f"row {row_idx}, column {col!r}: non-finite value {cell!r}")
            values.append(v)
        label_cell = row[-1].strip()
        if label_cell not in ("0", "1"):
            raise DatasetError(f"row {row_idx}, column 'label': label must be 0 or 1, got {label_cell!r}")
        rows.append((FeatureVector(schema, values), int(label_cell)))
    return LabeledDataset(schema, rows)
