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

import numpy as np


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


# Below this length Counter counts faster than numpy, whose calls cost about
# 20 us before the first byte. On a 2-vCPU x86-64 host the two cross at
# 300-400 bytes; at 512 numpy is 15-25% faster, at 256 25% slower.
_NUMPY_ENTROPY_MIN = 512
# bytes counted per numpy call; bincount and the offsets of np.minimum.at
# widen each byte to 8, so this bounds the temporaries at 512 KiB each
_ENTROPY_CHUNK = 1 << 16


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy in bits per byte over the byte histogram of `data`.

    Empty input yields 0.0. Result is always within [0, 8]. The terms are
    summed over byte values in order of first occurrence, the order in which
    `Counter` yields them. Inputs of `_NUMPY_ENTROPY_MIN` bytes or more are
    counted with numpy, in chunks of `_ENTROPY_CHUNK` bytes, and give the
    same float to the bit.
    """
    counts = Counter(data).values() if len(data) < _NUMPY_ENTROPY_MIN else _byte_counts(data)
    total = len(data)
    entropy = 0.0
    for count in counts:
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def sum_in_order(values: Iterable[float]) -> float:
    """Floats added left to right, rounding each partial sum, as builtin sum()
    did before Python 3.12 began to compensate; the same on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _byte_counts(data: bytes) -> list[int]:
    """The count of each byte value present in `data`, in order of first
    occurrence. First occurrences are looked for only until every value
    present has been seen."""
    values = np.frombuffer(data, dtype=np.uint8)
    n = len(values)
    hist = np.zeros(256, dtype=np.int64)
    for start in range(0, n, _ENTROPY_CHUNK):
        hist += np.bincount(values[start:start + _ENTROPY_CHUNK], minlength=256)
    present = int(np.count_nonzero(hist))
    first = np.full(256, n, dtype=np.int64)
    for start in range(0, n, _ENTROPY_CHUNK):
        chunk = values[start:start + _ENTROPY_CHUNK]
        np.minimum.at(first, chunk, np.arange(start, start + len(chunk)))
        if np.count_nonzero(first < n) == present:
            break
    return hist[np.argsort(first, kind="stable")[:present]].tolist()


def sniff_file_kind(data: bytes) -> FileKind:
    """Deterministically classify raw bytes into one of the supported kinds.

    Never raises: anything unrecognized (including malformed archives) is
    FileKind.UNKNOWN.
    """
    if data.startswith(b"%PDF-"):
        return FileKind.PDF
    if data.startswith(b"PK\x03\x04"):
        return _sniff_ooxml(data)
    if data.startswith(b"P5"):
        return FileKind.QR_IMAGE
    head = data[:4096].lstrip()
    lowered = head[:16].lower()
    if lowered.startswith(b"<!doctype") or lowered.startswith(b"<html"):
        return FileKind.HTML
    return FileKind.UNKNOWN


def _sniff_ooxml(data: bytes) -> FileKind:
    from .containers.ziparc import zip_open

    try:
        archive = zip_open(data)
        names = {entry.name for entry in archive.entries}
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


class CsvRowWriter:
    """Feature rows to a binary stream as UTF-8 CSV with "\\n" line ends: the
    header (columns, plus "label" when `labeled`) on creation, then one line
    of `format_value` cells per `add`. `write` is the csv module's sink."""

    def __init__(self, schema: FeatureSchema, fh, labeled: bool = False):
        self.schema = schema
        self._fh = fh
        self.nbytes = 0
        self._csv = csv.writer(self, lineterminator="\n")
        self._csv.writerow(list(schema.columns) + ["label"] * labeled)

    def write(self, line: str) -> None:
        data = line.encode("utf-8")
        self._fh.write(data)
        self.nbytes += len(data)

    def add(self, vec: FeatureVector, label: int | None = None) -> None:
        if vec.schema.columns != self.schema.columns:
            raise SchemaError("vector schema mismatch in CSV row")
        cells = [format_value(v) for v in vec.values]
        self._csv.writerow(cells if label is None else cells + [str(label)])


def _write_csv(schema: FeatureSchema, rows: Iterable[tuple[FeatureVector, int | None]],
               destination: Destination, labeled: bool) -> int:
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as fh:
            return _write_csv(schema, rows, fh, labeled)
    writer = CsvRowWriter(schema, destination, labeled)
    for vec, label in rows:
        writer.add(vec, label)
    return writer.nbytes


def write_dataset_csv(ds: LabeledDataset, destination: Destination) -> int:
    """Write a labeled dataset as UTF-8 CSV (header = columns + "label");
    returns the number of bytes written."""
    return _write_csv(ds.schema, ds.rows, destination, labeled=True)


def write_features_csv(schema: FeatureSchema, vectors: Iterable[FeatureVector],
                       destination: Destination) -> int:
    """Unlabeled variant of write_dataset_csv (header = columns only)."""
    return _write_csv(schema, ((vec, None) for vec in vectors), destination, labeled=False)


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
