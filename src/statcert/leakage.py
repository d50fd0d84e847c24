"""Executable screens for train/test contamination: duplicate rows, shared
group identifiers, temporal overlap, and target-proxy features.

Severity policy: cross-split contamination is a violation (it invalidates
the performance estimate and gates the audit); within-set duplicates and
proxy flags are warnings. Every check is deterministic given its inputs and
seed, and a clean report always has empty evidence.

Pre-processing-order leakage (fitting scalers or selecting features before
the split) is not detectable from the data after the fact; the audit report
carries a process checklist instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DUPLICATE_KEYS, Dataset, canonical_cells
from .errors import ValidationError
from .sampling import mix64
from .stattest import rank_auroc, row_groups

PROXY_MIN_ROWS = 100
PROXY_AUC_THRESHOLD = 0.99
PROXY_HOLDOUT_FRACTION = 0.5


@dataclass(frozen=True)
class LeakageReport:
    check_id: str
    severity: str  # clean | warning | violation
    evidence: tuple = ()
    description: str = ""

    def __post_init__(self):
        if self.severity not in ("clean", "warning", "violation"):
            raise ValidationError(f"bad severity {self.severity!r}")
        if (self.severity == "clean") != (len(self.evidence) == 0):
            raise ValidationError("clean reports must have empty evidence and vice versa")


def _need_rows(train: Dataset, test: Dataset, check: str) -> None:
    """A screen that compared no rows has found nothing: refuse it."""
    if train.n_rows == 0 or test.n_rows == 0:
        raise ValidationError(f"both splits need rows for the {check} check")


def _row_keys(dataset: Dataset, features) -> np.ndarray:
    """A 64-bit key per row that depends on its canonical feature cells
    alone: the splitmix64 output function folded over each cell's kind, a
    and b, in sorted-name order. Equal rows get equal keys; unequal rows
    share one only by collision. Computed one row block at a time."""
    keys = np.zeros(dataset.n_rows, dtype=np.uint64)
    for rows in dataset.row_blocks():
        key = keys[rows]
        for name in sorted(features):
            cells = canonical_cells(dataset.column(name)[rows])
            for field in ("kind", "a", "b"):
                key[...] = mix64(key ^ cells[field].astype(np.uint64))
    return keys


def _feature_rows(dataset: Dataset, features, rows: np.ndarray) -> np.ndarray:
    """The canonical feature cells of `rows`, each row one sortable byte string."""
    cells = dataset.canonical_rows(features, rows)
    return cells.view(f"S{cells.shape[1]}")[:, 0]


def duplicate_check(train: Dataset, test: Dataset,
                    key: str = "exact_features") -> LeakageReport:
    """Flag feature rows that appear in both splits, or repeat within one.

    Two rows are the same when every feature cell is equal at 12 significant
    digits, the cell identity of `Dataset.content_hash` (see
    `core.canonical_cells`), so CSV round trips cannot hide a duplicate.
    Either key (exact_features, feature_hash) gives the same screen. A
    64-bit row key (`_row_keys`), built one row block at a time, picks the
    candidates: the rows of either split whose key occurs more than once.
    Equal rows have equal keys, so no duplicate escapes the prefilter, and
    a key collision only adds a candidate. The candidates' canonical rows
    are then compared themselves, by sorting and binary search, so the
    evidence is exact. Transient memory is O(rows) for the keys plus
    O(block x features) cells, and the canonical rows of the candidates
    alone. Cross-split matches are violations, within-set repeats warnings.
    Evidence carries (train_row, test_row) indices, so swapping the splits
    flags the same pairs.
    """
    if key not in DUPLICATE_KEYS:
        raise ValidationError(f"bad key {key!r}")
    features = train.schema.names_for("feature")
    if features != test.schema.names_for("feature"):
        raise ValidationError("train/test feature columns differ")
    if not features:
        raise ValidationError("no feature columns to compare")
    _need_rows(train, test, "duplicate")
    _, order, starts, counts = row_groups(np.concatenate(
        [_row_keys(train, features), _row_keys(test, features)]))
    # ascending, so mapping a candidate's position back to its row keeps
    # the order of the evidence
    candidates = np.sort(order[np.repeat(counts > 1, counts)])
    split = np.searchsorted(candidates, train.n_rows)
    ids = {"train": candidates[:split], "test": candidates[split:] - train.n_rows}
    test_rows = _feature_rows(test, features, ids["test"])
    groups = {}
    for tag, rows in (("train", _feature_rows(train, features, ids["train"])),
                      ("test", test_rows)):
        keys, order, starts, counts = row_groups(rows)
        groups[tag] = keys, ids[tag][order], starts, counts

    evidence = []
    keys, order, starts, counts = groups["train"]
    slots = np.searchsorted(keys, test_rows)
    hits = np.flatnonzero(slots < len(keys))
    hits = hits[keys[slots[hits]] == test_rows[hits]]
    for i, g in zip(ids["test"][hits].tolist(), slots[hits].tolist()):
        evidence.append({"test_row": i,
                         "train_rows": order[starts[g]:starts[g] + counts[g]].tolist()})
    cross = len(evidence)

    for tag, (_, order, starts, counts) in groups.items():
        repeated = np.flatnonzero(counts > 1)
        # in order of each set's first row
        for g in repeated[np.argsort(order[starts[repeated]])].tolist():
            evidence.append({"set": tag, "rows": order[starts[g]:starts[g] + counts[g]].tolist()})

    if cross:
        severity = "violation"
        description = f"{cross} test row(s) duplicated in train"
    elif evidence:
        severity = "warning"
        description = "repeated rows within a split"
    else:
        severity = "clean"
        description = "no duplicate feature rows"
    return LeakageReport("duplicate", severity, tuple(evidence), description)


def group_leakage_check(train: Dataset, test: Dataset) -> LeakageReport:
    """Flag group identifiers (the group_id column) present in both splits
    (same patient, same device, ...). Evidence lists one entry per shared
    identifier."""
    def ids(ds):
        return set(str(v) for v in ds.column(ds.schema.single("group_id")))

    train_ids, test_ids = ids(train), ids(test)
    _need_rows(train, test, "group")
    shared = sorted(train_ids & test_ids)
    if shared:
        return LeakageReport("group", "violation", tuple(shared),
                             f"{len(shared)} group id(s) appear in both splits")
    return LeakageReport("group", "clean", (), "group ids disjoint across splits")


def temporal_split_check(train: Dataset, test: Dataset) -> LeakageReport:
    """Flag training rows timestamped (the timestamp column) after the
    evaluation window opens."""
    def stamps(ds):
        return np.asarray(ds.column(ds.schema.single("timestamp")), dtype=np.int64)

    train_ts = stamps(train)
    test_ts = stamps(test)
    _need_rows(train, test, "temporal")
    test_start = int(test_ts.min())
    offending = np.flatnonzero(train_ts > test_start)
    if len(offending) == 0:
        return LeakageReport("temporal", "clean", (),
                             "all training rows precede the test window")
    ts = train_ts[offending]
    evidence = tuple({"train_row": int(i), "timestamp": int(t)}
                     for i, t in zip(offending, ts))
    description = (f"{len(offending)} training row(s) after test start {test_start}, "
                   f"timestamps in [{int(ts.min())}, {int(ts.max())}]")
    return LeakageReport("temporal", "violation", evidence, description)


def _best_threshold(values: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Cut and orientation maximizing balanced accuracy on the fit half.

    Returns (threshold, orientation); orientation +1 predicts positive when
    value > threshold, -1 when value <= threshold.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = labels[order]
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    # pos_left[i], neg_left[i]: counts at or below cut i (after row i)
    pos_left = np.cumsum(y)
    neg_left = np.cumsum(1 - y)
    cuts = np.flatnonzero(np.diff(v) > 0)  # cut between distinct values only
    best = (0.5, float(v[0]) - 1.0, 1)  # predict-all-positive fallback
    for i in cuts:
        tpr = (n_pos - pos_left[i]) / n_pos  # predicted positive: value > cut
        tnr = neg_left[i] / n_neg
        bacc = (tpr + tnr) / 2.0
        threshold = float((v[i] + v[i + 1]) / 2.0)
        if bacc > best[0]:
            best = (bacc, threshold, 1)
        if 1.0 - bacc > best[0]:
            best = (1.0 - bacc, threshold, -1)
    return best[1], best[2]


def target_proxy_screen(dataset: Dataset, seed: int = 0) -> LeakageReport:
    """Screen every numeric feature for being a disguised copy of the label.

    Binary labels: fit a single-feature threshold classifier on an internal
    fit half, then measure its holdout discrimination as the rank AUC of the
    binarized predictions (equal to balanced accuracy); features at or above
    PROXY_AUC_THRESHOLD are flagged. Real labels: absolute Spearman rank
    correlation >= 0.99 flags. The split is internal so the screen never
    consumes designated test data; non-numeric features are skipped and
    named in the description.
    """
    if dataset.n_rows < PROXY_MIN_ROWS:
        raise ValidationError(f"proxy screen needs >= {PROXY_MIN_ROWS} rows")
    y = dataset.by_role("label")
    label_values = set(np.unique(y).tolist())
    binary = label_values <= {0, 1}

    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n_rows)
    n_hold = int(round(dataset.n_rows * PROXY_HOLDOUT_FRACTION))
    hold_idx, fit_idx = perm[:n_hold], perm[n_hold:]

    evidence = []
    skipped = []
    for name in dataset.schema.names_for("feature"):
        col = dataset.column(name)
        if not np.issubdtype(col.dtype, np.number):
            skipped.append(name)
            continue
        x = col.astype(float)
        if binary:
            yb = y.astype(int)
            if yb[fit_idx].sum() in (0, len(fit_idx)) or yb[hold_idx].sum() in (0, len(hold_idx)):
                raise ValidationError("proxy screen needs both classes in each half")
            threshold, orient = _best_threshold(x[fit_idx], yb[fit_idx])
            predicted = (x[hold_idx] > threshold) if orient == 1 else (x[hold_idx] <= threshold)
            auc = rank_auroc(predicted.astype(float), yb[hold_idx].astype(bool))
            if auc >= PROXY_AUC_THRESHOLD:
                evidence.append({"feature": name, "holdout_auc": float(auc)})
        else:
            from scipy.stats import spearmanr  # scipy.stats takes ~1 s to import

            rho = spearmanr(x, y.astype(float)).statistic
            if np.isfinite(rho) and abs(float(rho)) >= 0.99:
                evidence.append({"feature": name, "spearman": float(rho)})

    note = f"; skipped non-numeric: {skipped}" if skipped else ""
    if evidence:
        return LeakageReport(
            "target_proxy", "warning", tuple(evidence),
            f"{len(evidence)} feature(s) discriminate the label at >= "
            f"{PROXY_AUC_THRESHOLD}{note}")
    return LeakageReport("target_proxy", "clean", (),
                         f"no single feature reaches {PROXY_AUC_THRESHOLD}{note}")
