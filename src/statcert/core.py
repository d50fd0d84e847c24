"""Shared data model: datasets with declared column roles, metric primitives,
MPR specifications, and SADD metadata.

Datasets are immutable after construction and every operation here is a pure
function, so concurrent readers need no locking.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .canonical import canonical_json, sha256_hex  # also re-exported from here
from .errors import DataLoadError, ValidationError

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

# the values of the check modules' options: here, not in those modules, so
# that the config validates them without loading the modules
FAIRNESS_METRICS = ("statistical_parity", "equal_opportunity", "equalized_odds")
DUPLICATE_KEYS = ("exact_features", "feature_hash")
DRIFT_METHODS = ("mmd_permutation", "univariate_bonferroni")
OOD_METHODS = ("density_histogram", "density_kde", "distance_centroid",
               "distance_knn", "max_softmax")
# the parameters an OOD method reads, with their defaults: distance_knn's
# k, the rank of the neighbour whose distance is the score
OOD_PARAMS = {"distance_knn": {"k": 5}}
NORMS = ("l1", "l2", "linf")
ATTACKS = ("random_search", "coordinate_descent", "gradient_free_boundary")

_INT_RE = re.compile(r"^[+-]?\d+$")

# rows canonicalised at a time by a pass over a whole dataset (the content
# hash, the duplicate screen's row keys): its transient memory is then
# O(ROW_BLOCK x columns), whatever the number of rows
ROW_BLOCK = 8192


# Canonical cells. A cell's record is equal to another's exactly when their
# '%.12g' (floats) or str() (everything else) forms are equal, which is the
# row identity that `content_hash` and `leakage.duplicate_check` share:
# - a number is its value at 12 significant digits, a signed mantissa of
#   exactly 12 digits and a power of ten; -0.0 stays apart from 0.0, as
#   '%.12g' keeps its sign;
# - an integer of 13 or more digits is itself, since str() prints every
#   digit where '%.12g' would switch to an exponent;
# - text that is the '%.12g' or str() form of a number is that number, any
#   other text the blake2b-128 digest of its UTF-8 bytes.
SIGNIFICANT_DIGITS = 12
_CELL = np.dtype([("kind", "u1"), ("a", "<i8"), ("b", "<i8")])  # packed: 17 bytes
_NUMBER, _NEGATIVE_ZERO, _BIG_INTEGER, _TEXT = range(4)
_MANTISSA_MIN = 10 ** (SIGNIFICANT_DIGITS - 1)
_MANTISSA_END = 10 ** SIGNIFICANT_DIGITS
# correctly rounded powers of ten 10**-170 .. 10**170
_POW10_SPAN = 170
_POW10 = np.array([10**k if k >= 0 else 1 / 10**-k
                   for k in range(-_POW10_SPAN, _POW10_SPAN + 1)], dtype=np.float64)
# the scaling below rounds four times (two table entries, two products),
# so it is off by under 5e-4 at a 12-digit magnitude; a scaled value this
# close to a tie is rounded again by the exact formatter
_TIE_MARGIN = 0.002


def _float_cells(x: np.ndarray, out: np.ndarray) -> None:
    magnitude = np.abs(x)
    nonzero = magnitude > 0
    exponent = np.floor(np.log10(np.where(nonzero, magnitude, 1.0))).astype(np.int64)
    # magnitude * 10**shift has 12 integer digits; the power is taken in two
    # factors so that neither overflows, even for 5e-324
    shift = SIGNIFICANT_DIGITS - 1 - exponent
    half = shift // 2
    scaled = magnitude * _POW10[half + _POW10_SPAN] * _POW10[shift - half + _POW10_SPAN]
    mantissa = np.rint(scaled)
    # an exponent estimate off by one leaves scaled outside [1e11, 1e12)
    redo = nonzero & ((np.abs(scaled - np.floor(scaled) - 0.5) < _TIE_MARGIN)
                      | (scaled < _MANTISSA_MIN) | (mantissa >= _MANTISSA_END))
    for i in np.flatnonzero(redo):
        digits, _, power = f"{magnitude[i]:.{SIGNIFICANT_DIGITS - 1}e}".partition("e")
        mantissa[i] = int(digits.replace(".", ""))
        exponent[i] = int(power)
    out["kind"] = np.where(np.signbit(x) & ~nonzero, _NEGATIVE_ZERO, _NUMBER)
    out["a"] = np.copysign(mantissa, x)
    out["b"] = np.where(nonzero, exponent - (SIGNIFICANT_DIGITS - 1), 0)


def _integer_cells(n: np.ndarray, out: np.ndarray) -> None:
    _float_cells(n.astype(np.float64), out)
    long = (n <= -_MANTISSA_END) | (n >= _MANTISSA_END)
    if long.any():
        out[long] = [(_BIG_INTEGER, v, 0) for v in n[long].tolist()]


def _text_number(text: str) -> float | int | None:
    """The number whose '%.12g' (float) or str() (long int) form is `text`."""
    try:
        x = float(text)
    except ValueError:
        return None
    if math.isfinite(x) and f"{x:.{SIGNIFICANT_DIGITS}g}" == text:
        return x
    if _INT_RE.match(text) and str(int(text)) == text and -2**63 <= int(text) < 2**63:
        return int(text)
    return None


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _text_cells(values: np.ndarray, out: np.ndarray) -> None:
    # each distinct text once
    uniques, inverse = np.unique(values, return_inverse=True)
    cells = np.zeros(len(uniques), dtype=_CELL)
    floats: dict[int, float] = {}
    for i, text in enumerate(uniques.tolist()):
        number = _text_number(text)
        if isinstance(number, float):
            floats[i] = number
        elif number is not None:
            cells[i] = (_BIG_INTEGER, number, 0)
        else:
            digest = hashlib.blake2b(text.encode("utf-8", "surrogatepass"),
                                     digest_size=16).digest()
            cells[i] = (_TEXT, *np.frombuffer(digest, dtype="<i8"))
    numbers = np.zeros(len(floats), dtype=_CELL)
    _float_cells(np.array(list(floats.values()), dtype=np.float64), numbers)
    cells[list(floats)] = numbers
    out[...] = cells[inverse]


def _fill_cells(column: np.ndarray, out: np.ndarray) -> None:
    kind = column.dtype.kind
    if kind == "f":
        _float_cells(column.astype(np.float64), out)
    elif kind == "i" or (kind == "u" and column.max(initial=0) < 2**63):
        _integer_cells(column.astype(np.int64), out)
    elif kind == "U":
        _text_cells(column, out)
    else:
        _text_cells(np.array([str(v) for v in column], dtype=str), out)


def canonical_cells(column: np.ndarray) -> np.ndarray:
    """The canonical 17-byte record of every cell of a column (see above)."""
    column = np.asarray(column)
    out = np.zeros(len(column), dtype=_CELL)
    _fill_cells(column, out)
    return out


@dataclass(frozen=True)
class Schema:
    """Column declaration: each column's name with its role, in declared
    order. Roles are declared, never inferred: each is one of ROLES, a
    singleton role has at most one column, and score columns, which form a
    distribution, are none or at least 2."""

    roles: Mapping[str, str]  # column name -> role

    def __post_init__(self):
        for name, role in self.roles.items():
            if role not in ROLES:
                raise ValidationError(f"unknown role {role!r} of column {name!r}")
        for role in _SINGLETON_ROLES:
            if len(self.names_for(role)) > 1:
                raise ValidationError(f"multiple columns with role {role!r}")
        if len(self.names_for("score")) == 1:
            raise ValidationError("score columns must form a distribution (need >= 2)")

    @classmethod
    def from_roles(cls, roles: Mapping[str, str]) -> "Schema":
        """A schema of its own copy of `roles`."""
        return cls(MappingProxyType(dict(roles)))

    def names_for(self, role: str) -> tuple[str, ...]:
        return tuple(name for name, r in self.roles.items() if r == role)

    def single(self, role: str) -> str:
        """Name of the unique column with this role, or ValidationError."""
        names = self.names_for(role)
        if not names:
            raise ValidationError(f"no column with role {role!r}")
        return names[0]

    def as_plain(self) -> list[list[str]]:
        return [[name, role] for name, role in self.roles.items()]


class Dataset:
    """Immutable column-oriented dataset with a content hash.

    Identity is the name->role binding plus the multiset of rows, each cell
    taken at 12 significant digits (see `canonical_cells`). So the hash is
    stable under serialization round trips, file layout, column declaration
    order and row order: a shuffled copy is the same data.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        if set(columns.keys()) != set(schema.roles):
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
        self._validate_compared_pair()
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

    def _validate_compared_pair(self):
        """The label and the prediction are compared cell by cell, so they
        must both be numbers or both be text: one text cell turns a column
        to text, and no text equals a number."""
        pair = self.schema.names_for("label") + self.schema.names_for("prediction")
        if len(pair) < 2 or not self.n_rows:
            return
        text = [self._data[name].dtype.kind in "US" for name in pair]
        if text[0] == text[1]:
            return
        name, other = pair if text[0] else pair[::-1]
        values = self._data[name].tolist()
        # the first cell that float() refuses is the one that made the column text
        row = next((i for i, v in enumerate(values) if not _reads_as_float(v)), 0)
        raise ValidationError(
            f"column {name!r} holds text ({values[row]!r} in row {row}) but column "
            f"{other!r} holds numbers; a label and its prediction must both be "
            f"numbers or both be text")

    def column(self, name: str) -> np.ndarray:
        if name not in self._data:
            raise ValidationError(f"no column named {name!r}")
        return self._data[name]

    def by_role(self, role: str) -> np.ndarray:
        return self._data[self.schema.single(role)]

    def features_matrix(self) -> np.ndarray:
        names = self.schema.names_for("feature")
        if not names:
            raise ValidationError("no feature columns")
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
            raise ValidationError("no score columns")
        for n in names:
            if not np.issubdtype(self._data[n].dtype, np.number):
                raise ValidationError(f"score column {n!r} is not numeric")
        return np.column_stack([self._data[n].astype(float) for n in names])

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        cols = {name: arr[idx] for name, arr in self._data.items()}
        return Dataset(self.schema, cols)

    def row_blocks(self) -> Iterator[slice]:
        """The rows as consecutive slices of at most `ROW_BLOCK` rows."""
        return (slice(start, start + ROW_BLOCK) for start in range(0, self.n_rows, ROW_BLOCK))

    def canonical_rows(self, names: Sequence[str], rows: slice | np.ndarray) -> np.ndarray:
        """The canonical cells (`canonical_cells`) of the named columns at
        `rows`, a slice or an index array, in sorted-name order, as a
        (selected rows, 17 * len(names)) uint8 matrix: two rows are equal
        exactly when every named cell is."""
        columns = [self.column(name)[rows] for name in sorted(names)]
        cells = np.empty((len(columns[0]) if columns else 0, len(columns)), dtype=_CELL)
        for j, column in enumerate(columns):
            _fill_cells(column, cells[:, j])
        return cells.view(np.uint8)

    def row_digests(self, names: Sequence[str]) -> np.ndarray:
        """One blake2b-128 digest per canonical row of the named columns, as
        an (n_rows,) `S16` array. The rows are canonicalised one block
        (`row_blocks`) at a time, so the pass holds 16 bytes a row and the
        canonical cells of one block."""
        digests = np.empty(self.n_rows, dtype="S16")
        # copying one hasher is cheaper than constructing one per row
        blank = hashlib.blake2b(digest_size=16)
        for rows in self.row_blocks():
            block = []
            for row in self.canonical_rows(names, rows):
                h = blank.copy()
                h.update(row)
                block.append(h.digest())
            digests[rows] = np.frombuffer(b"".join(block), dtype="S16")
        return digests

    @property
    def content_hash(self) -> str:
        # a multiset hash (SHA-256 over the sorted row digests): neither row
        # order nor config declaration order may mint a new identity, or a
        # shuffle or a reordered `columns:` mapping would dodge the
        # stale-data check
        if self._hash is None:
            h = hashlib.sha256(canonical_json(sorted(self.schema.as_plain())).encode())
            digests = self.row_digests(list(self._data))
            digests.sort()
            h.update(digests)
            self._hash = h.hexdigest()
        return self._hash


def _outside(path: Path, name: str, dtype) -> DataLoadError:
    return DataLoadError(f"{path}: column {name!r} holds an integer outside "
                         f"{np.dtype(dtype).name}")


def _array(values: list, dtype, path: Path, name: str) -> np.ndarray:
    """Python numbers as an array of `dtype`, refusing an integer too large for it."""
    try:
        return np.array(values, dtype=dtype)
    except OverflowError as e:
        raise _outside(path, name, dtype) from e


def _parse_csv_column(raw: list[str], role: str, name: str, path: Path) -> np.ndarray:
    if role == "timestamp":
        try:
            return _array([int(v) for v in raw], np.int64, path, name)
        except ValueError as e:
            raise DataLoadError(f"timestamp column {name!r} must be integers") from e
    if role in ("group_id", "split"):
        return np.array(raw, dtype=str)
    if all(_INT_RE.match(v) for v in raw):
        try:
            integers = [int(v) for v in raw]
        except ValueError as e:  # past int()'s digit limit
            raise _outside(path, name, np.int64) from e
        return _array(integers, np.int64, path, name)
    try:
        return np.array([float(v) for v in raw], dtype=float)
    except ValueError:
        if role in ("score",):
            raise DataLoadError(f"score column {name!r} must be numeric")
        return np.array(raw, dtype=str)


def _load_csv_text(path: Path, roles: Mapping[str, str]) -> Dataset:
    """Ingest any CSV file through csv.reader, cell by cell in Python."""
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
        name: _parse_csv_column([r[idx[name]] for r in rows], role, name, path)
        for name, role in roles.items()
    }
    return Dataset(schema, columns)


# Every byte a plain numeric body holds. With no quote, '\r', space or letter
# but the exponent's, each cell is a bare token between commas and newlines,
# which numpy's C reader splits as csv.reader does and parses as float() and
# int() do: both round decimals correctly.
_PLAIN_BYTES = b"0123456789.+-eE,\n"
# the first non-blank line after the header's newline
_FIRST_ROW = re.compile(rb"\n+([^\n]*)")


def _plain_numeric_columns(data: bytes, roles: Mapping[str, str]
                           ) -> dict[str, np.ndarray] | None:
    """The declared columns of CSV file content `data` parsed in C, when
    every byte after the header line is a digit, one of '.+-eE', a comma
    or a newline; equal in dtype and bytes to what `_load_csv_text` makes
    of it. The first data row picks the dtypes: int64 for a declared
    column whose cell there is an integer, float64 for every other
    column. None when the file is not plain numeric or numpy's reader
    refuses a cell, and `_load_csv_text` then reads the whole file."""
    if any(role in ("group_id", "split") for role in roles.values()):
        return None
    end = data.find(b"\n")
    if end < 0 or b"\r" in data[:end]:
        return None
    header_line = data[:end]
    # translate drops the plain bytes: the body is plain when nothing is
    # left of it
    left = len(data.translate(None, _PLAIN_BYTES))
    if left != len(header_line.translate(None, _PLAIN_BYTES)):
        return None
    try:
        # strict: a quoted name left open at the newline is an error
        header = next(csv.reader([header_line.decode("utf-8") + "\n"], strict=True))
        idx = {name: header.index(name) for name in roles}
    except (UnicodeDecodeError, csv.Error, ValueError):  # ValueError: a name is absent
        return None
    first = _FIRST_ROW.match(data, end).group(1).decode().split(",")
    if len(first) != len(header):
        return None
    # a timestamp is int64 whatever its first cell, so one that is not an
    # integer is refused
    integers = {j for name, j in idx.items()
                if roles[name] == "timestamp" or _INT_RE.match(first[j])}
    dtype = [(str(j), np.int64 if j in integers else np.float64)
             for j in range(len(header))]
    try:
        with warnings.catch_warnings():
            # numpy warns on a body of blank lines, and older numpy reads
            # '3.0' as the int64 3 under a DeprecationWarning
            warnings.simplefilter("error")
            # a malformed number, an empty cell, a row of another length or
            # an integer outside int64 is a ValueError
            body = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",",
                              comments=None, skiprows=1, ndmin=1)
    except (ValueError, Warning):
        return None
    return {name: body[str(j)] for name, j in idx.items()}


def load_csv(path: str | Path, roles: Mapping[str, str]) -> Dataset:
    """Ingest a CSV file with a header row. Only columns named in `roles`
    are kept; numbers are parsed as decimal, all-integer columns as ints.
    A plain numeric file is parsed in C in one pass, with dtypes its first
    row picks; a cell that pass refuses, and any other file, goes through
    csv.reader, to the same dataset."""
    path = Path(path)
    columns = _plain_numeric_columns(path.read_bytes(), roles)
    if columns is None:
        return _load_csv_text(path, roles)
    return Dataset(Schema.from_roles(roles), columns)


def read_jsonl(path: str | Path):
    """(line number, value) for each non-blank line of a UTF-8 JSONL file,
    each line read by json.loads; a file or line it cannot read is
    DataLoadError."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DataLoadError(f"{path}:{lineno}: invalid JSON") from e
                except ValueError as e:  # past int()'s digit limit
                    raise DataLoadError(f"{path}:{lineno}: an integer has too many "
                                        f"digits to read") from e
                except RecursionError as e:
                    raise DataLoadError(f"{path}:{lineno}: nested too deeply to "
                                        f"read") from e
                yield lineno, value
    except UnicodeDecodeError as e:
        raise DataLoadError(f"{path}: not UTF-8 text: {e}") from e


def load_jsonl(path: str | Path, roles: Mapping[str, str]) -> Dataset:
    """Ingest a JSONL file, one sample object per line."""
    path = Path(path)
    records = [rec for _, rec in read_jsonl(path)]
    columns: dict[str, list] = {name: [] for name in roles}
    for lineno, rec in enumerate(records, 1):
        if not isinstance(rec, dict):
            raise DataLoadError(f"{path}: record {lineno} is not a JSON object")
        for name in roles:
            if name not in rec or rec[name] is None:
                raise DataLoadError(f"{path}: record {lineno} missing {name!r}")
            columns[name].append(rec[name])
    schema = Schema.from_roles(roles)
    arrays = {}
    for name, role in roles.items():
        vals = columns[name]
        if role in ("group_id", "split"):
            arrays[name] = _text(vals, path, name)
        elif all(isinstance(v, int) and not isinstance(v, bool) for v in vals):
            arrays[name] = _array(vals, np.int64, path, name)
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
            arrays[name] = _array(vals, np.float64, path, name)
        else:
            arrays[name] = _text(vals, path, name)
    return Dataset(schema, arrays)


def _text(values: list, path: Path, name: str) -> np.ndarray:
    """JSON values as text cells. A non-finite number, alone or inside a
    list or object, is refused as in a numeric column: its text (`nan`,
    `inf`) is no value the file wrote."""
    for record, value in enumerate(values, 1):
        if not isinstance(value, str):
            try:
                canonical_json(value)
            except ValueError:
                raise DataLoadError(f"{path}: record {record} holds a non-finite number "
                                    f"in column {name!r}") from None
    return np.array([str(v) for v in values], dtype=str)


def load_dataset(path: str | Path, roles: Mapping[str, str]) -> Dataset:
    """A JSONL file when `path` ends in `.jsonl`, else a CSV file."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return load_jsonl(path, roles)
    return load_csv(path, roles)


@dataclass(frozen=True)
class SaddRecord:
    """Stochastic application domain definition: the three-part declaration
    that fixes the reference distribution for every statistical claim.

    Its fields are the keys of the config's `sadd` section. Part 1,
    operating_context, describes the data-generating process; part 2,
    technical_requirements, the input requirements; part 3,
    sampling_strategy, the sampling strategy in prose, with
    sampling_descriptor its free-form machine-readable form. The content
    hash keys the parts "part1" to "part3", so it does not depend on these
    field names.
    """

    operating_context: str
    technical_requirements: str
    sampling_strategy: str
    sampling_descriptor: Mapping[str, object] = field(default_factory=dict)
    version: int = 1

    def __post_init__(self):
        for part in (self.operating_context, self.technical_requirements,
                     self.sampling_strategy):
            if not part or not part.strip():
                raise ValidationError("all three SADD parts must be non-empty")
        if self.version < 1:
            raise ValidationError("SADD version must be >= 1")

    @property
    def content_hash(self) -> str:
        return sha256_hex(canonical_json({
            "part1": self.operating_context,
            "part2": self.technical_requirements,
            "part3": self.sampling_strategy,
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
        info = METRICS.get(self.metric_id)
        if info is not None:
            lo, hi = info.codomain
            if not lo <= self.threshold <= hi:
                raise ValidationError(
                    f"threshold {self.threshold} outside codomain of {self.metric_id}")


def ood_params(method: str, params: Mapping) -> dict:
    """The parameters OOD `method` runs with: `params` over the defaults of
    the ones it reads (OOD_PARAMS). A key it does not read, or a k that is
    not a positive integer, is ValidationError. OodScorer and the config
    both check `ood.params` here."""
    defaults = OOD_PARAMS.get(method, {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(map(str, unknown))}")
    chosen = {**defaults, **params}
    if "k" in chosen:
        k = chosen["k"]
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValidationError(f"k must be a positive integer, got {k!r}")
    return chosen


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
        raise ValidationError(f"{metric_id}: conditioning set is empty")
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
        raise ValidationError(metric_id)
    if dataset.n_rows == 0:
        raise ValidationError("cannot compute a metric on zero rows")
    return METRICS[metric_id].compute(dataset)
