"""Shared data model: datasets with declared column roles, metric primitives,
MPR specifications, and SADD metadata.

Datasets are immutable after construction and every operation here is a pure
function, so concurrent readers need no locking.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DataLoadError,
    EmptyDataset,
    MissingColumn,
    UnknownLoss,
    UnknownMetric,
    ValidationError,
)

ROLES = (
    "feature",
    "label",
    "prediction",
    "score",
    "group",
    "group_id",
    "timestamp",
    "split",
)

# roles that admit at most one column
_SINGLETON_ROLES = ("label", "prediction", "group", "group_id", "timestamp", "split")

SPLIT_TAGS = ("train", "validation", "test", "production")

_INT_RE = re.compile(r"^[+-]?\d+$")


def canonical_json(obj) -> str:
    """Serialize to the canonical JSON form used for hashing and reports.

    Keys sorted, no whitespace, floats in shortest round-trip form, NaN and
    infinity rejected. Two structurally equal objects always produce the
    same bytes.
    """
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _plain(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Column:
    name: str
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValidationError(f"unknown column role {self.role!r}")


@dataclass(frozen=True)
class Schema:
    """Ordered column declaration. Roles are declared, never inferred."""

    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate column names in schema")
        for role in _SINGLETON_ROLES:
            if len(self.names_for(role)) > 1:
                raise ValidationError(f"multiple columns with role {role!r}")
        if len(self.names_for("score")) == 1:
            raise ValidationError("score columns must form a distribution (need >= 2)")

    @classmethod
    def from_roles(cls, roles: Mapping[str, str]) -> "Schema":
        return cls(tuple(Column(name, role) for name, role in roles.items()))

    def names_for(self, role: str) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.role == role)

    def single(self, role: str) -> str:
        """Name of the unique column with this role, or MissingColumn."""
        names = self.names_for(role)
        if not names:
            raise MissingColumn(f"no column with role {role!r}")
        return names[0]

    def as_plain(self) -> list[list[str]]:
        return [[c.name, c.role] for c in self.columns]


class Dataset:
    """Immutable column-oriented dataset with a content hash.

    The hash covers schema and cell values in canonical JSON form, so it is
    stable under serialization round trips and independent of file layout.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        declared = {c.name for c in schema.columns}
        if set(columns.keys()) != declared:
            raise ValidationError("columns do not match schema")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValidationError("ragged columns")
        self.schema = schema
        self.n_rows = lengths.pop() if lengths else 0
        self._data = {}
        for name, values in columns.items():
            arr = np.asarray(values)
            if arr.dtype == object:
                arr = arr.astype(str)
            if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite values in column {name!r}")
            arr.setflags(write=False)
            self._data[name] = arr
        self._validate_rows()
        self._hash: str | None = None

    def _validate_rows(self):
        score_names = self.schema.names_for("score")
        if score_names and self.n_rows:
            s = self.scores_matrix()
            if np.any(s < 0):
                raise ValidationError("negative score entries")
            if np.max(np.abs(s.sum(axis=1) - 1.0)) > 1e-9:
                raise ValidationError("score rows must sum to 1 within 1e-9")
            pred_names = self.schema.names_for("prediction")
            if pred_names:
                pred = self._data[pred_names[0]]
                if np.issubdtype(pred.dtype, np.integer):
                    if pred.min() < 0 or pred.max() >= len(score_names):
                        raise ValidationError("prediction class index out of range")
        ts_names = self.schema.names_for("timestamp")
        if ts_names and not np.issubdtype(self._data[ts_names[0]].dtype, np.integer):
            raise ValidationError("timestamps must be integers")
        split_names = self.schema.names_for("split")
        if split_names and self.n_rows:
            bad = set(np.unique(self._data[split_names[0]])) - set(SPLIT_TAGS)
            if bad:
                raise ValidationError(f"unknown split tags {sorted(bad)}")
        group_names = self.schema.names_for("group")
        if group_names and self.n_rows:
            g = self._data[group_names[0]]
            if not np.issubdtype(g.dtype, np.integer) or g.min() < 0:
                raise ValidationError("group attribute must be a non-negative code")

    def column(self, name: str) -> np.ndarray:
        if name not in self._data:
            raise MissingColumn(f"no column named {name!r}")
        return self._data[name]

    def by_role(self, role: str) -> np.ndarray:
        return self._data[self.schema.single(role)]

    def features_matrix(self) -> np.ndarray:
        names = self.schema.names_for("feature")
        if not names:
            raise MissingColumn("no feature columns")
        cols = []
        for n in names:
            arr = self._data[n]
            if not np.issubdtype(arr.dtype, np.number):
                raise ValidationError(f"feature column {n!r} is not numeric")
            cols.append(arr.astype(float))
        return np.column_stack(cols)

    def scores_matrix(self) -> np.ndarray:
        names = self.schema.names_for("score")
        if not names:
            raise MissingColumn("no score columns")
        return np.column_stack([self._data[n].astype(float) for n in names])

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        cols = {name: arr[idx] for name, arr in self._data.items()}
        return Dataset(self.schema, cols)

    @property
    def content_hash(self) -> str:
        # identity is the name->role binding plus values; declaration order
        # must not matter, or reordering config columns would dodge the
        # stale-data check
        if self._hash is None:
            payload = {
                "schema": sorted(self.schema.as_plain()),
                "columns": {n: self._data[n] for n in sorted(self._data)},
            }
            self._hash = sha256_hex(canonical_json(payload))
        return self._hash

    def to_jsonl(self, path: str | Path) -> None:
        names = [c.name for c in self.schema.columns]
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(self.n_rows):
                rec = {n: _plain(self._data[n][i].item()) for n in names}
                fh.write(json.dumps(rec, allow_nan=False) + "\n")


def _parse_csv_column(raw: list[str], role: str, name: str) -> np.ndarray:
    if role == "timestamp":
        try:
            return np.array([int(v) for v in raw], dtype=np.int64)
        except ValueError as e:
            raise DataLoadError(f"timestamp column {name!r} must be integers") from e
    if role in ("group_id", "split"):
        return np.array(raw, dtype=str)
    if all(_INT_RE.match(v) for v in raw):
        return np.array([int(v) for v in raw], dtype=np.int64)
    try:
        return np.array([float(v) for v in raw], dtype=float)
    except ValueError:
        if role in ("score",):
            raise DataLoadError(f"score column {name!r} must be numeric")
        return np.array(raw, dtype=str)


def load_csv(path: str | Path, roles: Mapping[str, str]) -> Dataset:
    """Ingest a CSV file with a header row. Only columns named in `roles`
    are kept; numbers are parsed as decimal, all-integer columns as ints."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataLoadError(f"{path}: empty file")
            rows = [r for r in reader if r]
    except UnicodeDecodeError as e:
        raise DataLoadError(f"{path}: not UTF-8 text: {e}") from e
    missing = [name for name in roles if name not in header]
    if missing:
        raise DataLoadError(f"{path}: declared columns absent from header: {missing}")
    idx = {name: header.index(name) for name in roles}
    for r in rows:
        if len(r) != len(header):
            raise DataLoadError(f"{path}: ragged row {r!r}")
    schema = Schema.from_roles(roles)
    columns = {
        name: _parse_csv_column([r[idx[name]] for r in rows], role, name)
        for name, role in roles.items()
    }
    return Dataset(schema, columns)


def load_jsonl(path: str | Path, roles: Mapping[str, str]) -> Dataset:
    """Ingest a JSONL file, one sample object per line."""
    path = Path(path)
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as e:
                    raise DataLoadError(f"{path}:{lineno}: invalid JSON") from e
    except UnicodeDecodeError as e:
        raise DataLoadError(f"{path}: not UTF-8 text: {e}") from e
    columns: dict[str, list] = {name: [] for name in roles}
    for lineno, rec in enumerate(records, 1):
        for name in roles:
            if name not in rec or rec[name] is None:
                raise DataLoadError(f"{path}: record {lineno} missing {name!r}")
            columns[name].append(rec[name])
    schema = Schema.from_roles(roles)
    arrays = {}
    for name, role in roles.items():
        vals = columns[name]
        if role in ("group_id", "split"):
            arrays[name] = np.array([str(v) for v in vals], dtype=str)
        elif all(isinstance(v, int) and not isinstance(v, bool) for v in vals):
            arrays[name] = np.array(vals, dtype=np.int64)
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
            arrays[name] = np.array(vals, dtype=float)
        else:
            arrays[name] = np.array([str(v) for v in vals], dtype=str)
    return Dataset(schema, arrays)


def load_dataset(path: str | Path, roles: Mapping[str, str],
                 fmt: str | None = None) -> Dataset:
    path = Path(path)
    fmt = fmt or ("jsonl" if path.suffix == ".jsonl" else "csv")
    if fmt == "csv":
        return load_csv(path, roles)
    if fmt == "jsonl":
        return load_jsonl(path, roles)
    raise DataLoadError(f"unknown dataset format {fmt!r}")


@dataclass(frozen=True)
class SaddRecord:
    """Stochastic application domain definition: the three-part declaration
    that fixes the reference distribution for every statistical claim.

    part1_context describes the data-generating process, part2_technical the
    input requirements, part3_sampling the sampling strategy in prose plus a
    machine-readable descriptor.
    """

    part1_context: str
    part2_technical: str
    part3_sampling: str
    sampling_descriptor: Mapping[str, object] = field(default_factory=dict)
    version: int = 1

    def __post_init__(self):
        for part in (self.part1_context, self.part2_technical, self.part3_sampling):
            if not part or not part.strip():
                raise ValidationError("all three SADD parts must be non-empty")
        if self.version < 1:
            raise ValidationError("SADD version must be >= 1")

    @property
    def content_hash(self) -> str:
        return sha256_hex(canonical_json({
            "part1": self.part1_context,
            "part2": self.part2_technical,
            "part3": self.part3_sampling,
            "descriptor": dict(self.sampling_descriptor),
            "version": self.version,
        }))


@dataclass(frozen=True)
class MprSpec:
    """A minimum performance requirement: metric, threshold, direction, and
    the share of the family alpha this requirement claims."""

    metric_id: str
    threshold: float
    direction: str = "at_least"  # or at_most
    alpha_share: float = 1.0
    test_kind: str = "exact_binomial"

    def __post_init__(self):
        if self.direction not in ("at_least", "at_most"):
            raise ValidationError(f"bad direction {self.direction!r}")
        if self.test_kind not in ("exact_binomial", "bootstrap"):
            raise ValidationError(f"bad test_kind {self.test_kind!r}")
        if not 0.0 <= self.alpha_share <= 1.0:
            raise ValidationError("alpha_share must be in [0, 1]")
        info = METRICS.get(self.metric_id)
        if info is not None:
            lo, hi = info.codomain
            if not lo <= self.threshold <= hi:
                raise ValidationError(
                    f"threshold {self.threshold} outside codomain of {self.metric_id}")


@dataclass(frozen=True)
class MetricValue:
    """A computed metric with enough structure for exact follow-up tests:
    proportion metrics carry the integer success count, mean-style metrics
    carry per-sample losses for resampling."""

    metric_id: str
    value: float
    n: int
    per_sample_losses: np.ndarray | None = None
    successes: int | None = None

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("metric over zero samples")
        if self.successes is not None:
            if abs(self.value * self.n - self.successes) > 1e-6:
                raise ValidationError("proportion metric inconsistent with its count")


@dataclass(frozen=True)
class MetricInfo:
    metric_id: str
    kind: str  # proportion | real
    codomain: tuple[float, float]
    compute: Callable[[Dataset], MetricValue]


def _labels_and_predictions(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    y = dataset.by_role("label")
    yhat = dataset.by_role("prediction")
    return y, yhat


def _accuracy(dataset: Dataset) -> MetricValue:
    y, yhat = _labels_and_predictions(dataset)
    correct = y == yhat
    k = int(np.sum(correct))
    n = dataset.n_rows
    return MetricValue("accuracy", k / n, n,
                       per_sample_losses=(~correct).astype(float), successes=k)


def _binary_rate(dataset: Dataset, metric_id: str, condition_on: str) -> MetricValue:
    # precision conditions on predicted positives, recall on actual positives
    y, yhat = _labels_and_predictions(dataset)
    mask = (yhat == 1) if condition_on == "prediction" else (y == 1)
    n = int(np.sum(mask))
    if n == 0:
        raise EmptyDataset(f"{metric_id}: conditioning set is empty")
    hit = (y[mask] == 1) & (yhat[mask] == 1)
    k = int(np.sum(hit))
    return MetricValue(metric_id, k / n, n,
                       per_sample_losses=(~hit).astype(float), successes=k)


def _mse(dataset: Dataset) -> MetricValue:
    y, yhat = _labels_and_predictions(dataset)
    sq = (yhat.astype(float) - y.astype(float)) ** 2
    return MetricValue("mse", float(np.mean(sq)), dataset.n_rows, per_sample_losses=sq)


def _rmse(dataset: Dataset) -> MetricValue:
    m = _mse(dataset)
    # losses stay on the squared scale; resampling applies sqrt to the mean
    return MetricValue("rmse", math.sqrt(m.value), m.n, per_sample_losses=m.per_sample_losses)


METRICS: dict[str, MetricInfo] = {
    "accuracy": MetricInfo("accuracy", "proportion", (0.0, 1.0), _accuracy),
    "precision": MetricInfo("precision", "proportion", (0.0, 1.0),
                            lambda d: _binary_rate(d, "precision", "prediction")),
    "recall": MetricInfo("recall", "proportion", (0.0, 1.0),
                         lambda d: _binary_rate(d, "recall", "label")),
    "mse": MetricInfo("mse", "real", (0.0, math.inf), _mse),
    "rmse": MetricInfo("rmse", "real", (0.0, math.inf), _rmse),
}


def compute_metric(dataset: Dataset, metric_id: str) -> MetricValue:
    """Evaluate a metric of METRICS. Deterministic and order-independent."""
    if metric_id not in METRICS:
        raise UnknownMetric(metric_id)
    if dataset.n_rows == 0:
        raise EmptyDataset("cannot compute a metric on zero rows")
    return METRICS[metric_id].compute(dataset)


LOSSES: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "zero_one": lambda y, yhat: (y != yhat).astype(float),
    "squared": lambda y, yhat: (yhat.astype(float) - y.astype(float)) ** 2,
    "absolute": lambda y, yhat: np.abs(yhat.astype(float) - y.astype(float)),
}


def register_loss(loss_id: str, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
    LOSSES[loss_id] = fn


def empirical_risk(dataset: Dataset, loss_id: str) -> MetricValue:
    """Mean per-sample loss, the Monte Carlo estimate of the expected risk."""
    if loss_id not in LOSSES:
        raise UnknownLoss(loss_id)
    if dataset.n_rows == 0:
        raise EmptyDataset("cannot compute risk on zero rows")
    y, yhat = _labels_and_predictions(dataset)
    losses = LOSSES[loss_id](y, yhat)
    n = dataset.n_rows
    if loss_id == "zero_one":
        # complement of the success proportion; 1.0 - (k/n) makes
        # accuracy + risk == 1.0 bit-exact, mean() does not
        k = n - int(np.sum(losses))
        return MetricValue("risk_zero_one", 1.0 - (k / n), n,
                           per_sample_losses=losses, successes=n - k)
    return MetricValue(f"risk_{loss_id}", float(np.mean(losses)), n, per_sample_losses=losses)
