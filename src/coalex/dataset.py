"""Tabular classification datasets and attribute index sets.

A :class:`Dataset` is an immutable numeric feature matrix plus categorical
labels.  :class:`AttributeSubset` is a bit-set over attribute indices used
everywhere a computation is restricted to some columns (per-subset model
training, influence sums).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .errors import ConfigError, DataError

ClassId = Union[str, int]


@dataclass(frozen=True)
class AttributeSubset:
    """Canonical subset of attribute indices ``[0, n)``, stored as a bit mask.

    Equal subsets compare and hash equal regardless of how they were built.
    """

    mask: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("attribute count must be non-negative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} has bits outside [0, {self.n})")

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "AttributeSubset":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"attribute index {i} out of range [0, {n})")
            mask |= 1 << i
        return cls(mask, n)

    @classmethod
    def full(cls, n: int) -> "AttributeSubset":
        return cls((1 << n) - 1, n)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def without_index(self, index: int) -> "AttributeSubset":
        return AttributeSubset(self.mask & ~(1 << index), self.n)


@dataclass(frozen=True)
class ClassTarget:
    """One class of a dataset, identified by value and by position in class_set."""

    class_id: ClassId
    index: int


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric dataset: m instances by n attributes, plus labels.

    ``class_set`` lists the distinct labels in order of first appearance;
    that order defines the class index used by confidence vectors.
    """

    attribute_names: tuple[str, ...]
    features: np.ndarray
    labels: tuple[ClassId, ...]
    class_set: tuple[ClassId, ...] = field(default=())
    name: str = "dataset"

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        feats = np.ascontiguousarray(feats)
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "attribute_names", tuple(self.attribute_names))
        object.__setattr__(self, "labels", tuple(self.labels))
        m, n = feats.shape
        if m < 1:
            raise DataError("dataset must contain at least one instance")
        if len(self.attribute_names) != n:
            raise DataError(f"{len(self.attribute_names)} attribute names for {n} columns")
        if len(set(self.attribute_names)) != n:
            raise DataError("attribute names must be unique")
        if len(self.labels) != m:
            raise DataError(f"{len(self.labels)} labels for {m} instances")
        if not np.all(np.isfinite(feats)):
            bad = np.argwhere(~np.isfinite(feats))[0]
            raise DataError(
                f"non-finite feature value at row {bad[0] + 1}, column "
                f"'{self.attribute_names[bad[1]]}'"
            )
        if not self.class_set:
            object.__setattr__(self, "class_set", tuple(dict.fromkeys(self.labels)))
        unknown = set(self.labels) - set(self.class_set)
        if unknown:
            raise DataError(f"labels {sorted(map(str, unknown))} not in class_set")
        lookup = {c: k for k, c in enumerate(self.class_set)}
        y = np.array([lookup[v] for v in self.labels], dtype=np.intp)
        y.setflags(write=False)
        object.__setattr__(self, "_label_indices", y)

    @property
    def n_attributes(self) -> int:
        return self.features.shape[1]

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_set)

    def instance(self, index: int) -> np.ndarray:
        if not 0 <= index < self.n_instances:
            raise IndexError(f"instance index {index} out of range [0, {self.n_instances})")
        return self.features[index]

    def class_target(self, class_id: ClassId) -> ClassTarget:
        try:
            return ClassTarget(class_id, self.class_set.index(class_id))
        except ValueError:
            raise DataError(f"unknown class {class_id!r}; "
                            f"classes are {list(self.class_set)}") from None

    def label_indices(self) -> np.ndarray:
        """Labels recoded as positions in class_set (read-only)."""
        return self._label_indices

    @cached_property
    def presorted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_presort`` of the features and labels, computed once for every tree pass."""
        return _presort(self.features, self._label_indices)


def _presort(X: np.ndarray, y: np.ndarray):
    """Per column c, ``rank[c, r]``: row r's position in a stable argsort of
    ``X[:, c]``; and the column's values and labels in that order, flat."""
    order = np.argsort(X, axis=0, kind="stable").T
    rank = np.empty_like(order)
    rank[np.arange(len(order))[:, None], order] = np.arange(len(X))
    return rank, np.take_along_axis(X.T, order, 1).ravel(), y[order].ravel()


def load_csv(
    path: str | Path,
    target_column: str | int,
    delimiter: str = ",",
) -> Dataset:
    """Load a header-ed CSV as a Dataset, using one column as the class label.

    ``target_column`` is a header name or a 0-based column index.  Every
    non-target cell must parse as a finite number ('.' decimal separator);
    the offending row and column are named otherwise.  Row order is
    preserved; a leading UTF-8 byte order mark is skipped.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"delimiter must be a single character, got {delimiter!r}")
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            records = list(csv.reader(fh, delimiter=delimiter))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    if not records:
        raise DataError(f"{path}: file is empty")
    header = [h.strip() for h in records[0]]
    target_idx = _resolve_target(header, target_column, path)
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")

    rows: list[list[float]] = []
    labels: list[str] = []
    for line_no, record in enumerate(records[1:], start=2):
        if not record or (len(record) == 1 and record[0].strip() == ""):
            continue  # blank line
        if len(record) != len(header):
            raise DataError(
                f"{path}: line {line_no} has {len(record)} fields, expected {len(header)}"
            )
        values = []
        for k, cell in enumerate(record):
            if k == target_idx:
                continue
            text = cell.strip()
            try:
                v = float(text)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                raise DataError(
                    f"{path}: line {line_no}, column '{header[k]}': "
                    f"cannot parse {cell!r} as a finite number"
                )
            values.append(v)
        rows.append(values)
        labels.append(record[target_idx].strip())

    if not rows:
        raise DataError(f"{path}: no data rows after the header")
    if len(header) < 2:
        raise DataError(f"{path}: need at least one feature column besides the target")
    return Dataset(
        attribute_names=tuple(h for k, h in enumerate(header) if k != target_idx),
        features=np.array(rows, dtype=np.float64),
        labels=tuple(labels),
        name=path.stem,
    )


def _resolve_target(header: list[str], target: str | int, path: Path) -> int:
    if isinstance(target, int):
        if not 0 <= target < len(header):
            raise DataError(f"{path}: target column index {target} out of range")
        return target
    if target in header:
        return header.index(target)
    if target.isdecimal() and int(target) < len(header):
        return int(target)
    raise DataError(f"{path}: target column {target!r} not found in header {header}")
