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

from .core import Dataset
from .errors import MissingColumn, SchemaMismatch, TooFewSamples, ValidationError
from .stattest import rank_auroc

DUPLICATE_KEYS = ("exact_features", "feature_hash")
PROXY_MIN_ROWS = 100


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

    def as_plain(self) -> dict:
        return {
            "check_id": self.check_id,
            "severity": self.severity,
            "evidence": [dict(e) if isinstance(e, dict) else e for e in self.evidence],
            "description": self.description,
        }


def _row_groups(rows: np.ndarray):
    """Rows grouped by equal value: (keys, order, starts, counts). Group g
    holds the value keys[g] (keys ascend) in the rows order[starts[g]:
    starts[g] + counts[g]], in ascending row order."""
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, len(ordered)])
    return ordered[starts], order, starts, counts


def _feature_rows(dataset: Dataset, features) -> np.ndarray:
    """Each row's canonical feature cells as one sortable byte string."""
    rows = dataset.canonical_rows(features)
    return rows.view(f"S{rows.shape[1]}")[:, 0]


def duplicate_check(train: Dataset, test: Dataset,
                    key: str = "exact_features") -> LeakageReport:
    """Flag feature rows that appear in both splits, or repeat within one.

    Two rows are the same when every feature cell is equal at 12 significant
    digits, the cell identity of `Dataset.content_hash` (see
    `core.canonical_cells`), so CSV round trips cannot hide a duplicate.
    Either key (exact_features, feature_hash) compares the canonical rows
    themselves, by sorting and binary search. Cross-split matches are
    violations, within-set repeats warnings. Evidence carries (train_row,
    test_row) indices, so swapping the splits flags the same pairs.
    """
    if key not in DUPLICATE_KEYS:
        raise ValidationError(f"bad key {key!r}")
    features = train.schema.names_for("feature")
    if features != test.schema.names_for("feature"):
        raise SchemaMismatch("train/test feature columns differ")
    if not features:
        raise MissingColumn("no feature columns to compare")
    test_rows = _feature_rows(test, features)
    groups = {"train": _row_groups(_feature_rows(train, features)),
              "test": _row_groups(test_rows)}

    evidence = []
    keys, order, starts, counts = groups["train"]
    slots = np.searchsorted(keys, test_rows)
    hits = np.flatnonzero(slots < len(keys))
    hits = hits[keys[slots[hits]] == test_rows[hits]]
    for i, g in zip(hits.tolist(), slots[hits].tolist()):
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


def group_leakage_check(train: Dataset, test: Dataset,
                        group_id_column: str | None = None) -> LeakageReport:
    """Flag group identifiers present in both splits (same patient, same
    device, ...). Evidence lists one entry per shared identifier."""
    def ids(ds):
        name = group_id_column or ds.schema.single("group_id")
        return set(str(v) for v in ds.column(name))

    shared = sorted(ids(train) & ids(test))
    if shared:
        return LeakageReport("group", "violation", tuple(shared),
                             f"{len(shared)} group id(s) appear in both splits")
    return LeakageReport("group", "clean", (), "group ids disjoint across splits")


def temporal_split_check(train: Dataset, test: Dataset,
                         timestamp_column: str | None = None) -> LeakageReport:
    """Flag training rows timestamped after the evaluation window opens."""
    def stamps(ds):
        name = timestamp_column or ds.schema.single("timestamp")
        return np.asarray(ds.column(name), dtype=np.int64)

    train_ts = stamps(train)
    test_ts = stamps(test)
    if len(train_ts) == 0 or len(test_ts) == 0:
        raise ValidationError("both splits need rows for the temporal check")
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


def target_proxy_screen(dataset: Dataset, auc_threshold: float = 0.99,
                        holdout_fraction: float = 0.5, seed: int = 0) -> LeakageReport:
    """Screen every numeric feature for being a disguised copy of the label.

    Binary labels: fit a single-feature threshold classifier on an internal
    fit half, then measure its holdout discrimination as the rank AUC of the
    binarized predictions (equal to balanced accuracy); features at or above
    auc_threshold are flagged. Real labels: absolute Spearman rank
    correlation >= 0.99 flags. The split is internal so the screen never
    consumes designated test data; non-numeric features are skipped and
    named in the description.
    """
    if dataset.n_rows < PROXY_MIN_ROWS:
        raise TooFewSamples(f"proxy screen needs >= {PROXY_MIN_ROWS} rows")
    if not 0.0 < holdout_fraction < 1.0:
        raise ValidationError("holdout_fraction must be in (0, 1)")
    y = dataset.by_role("label")
    label_values = set(np.unique(y).tolist())
    binary = label_values <= {0, 1}

    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n_rows)
    n_hold = int(round(dataset.n_rows * holdout_fraction))
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
            if auc >= auc_threshold:
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
            f"{auc_threshold}{note}")
    return LeakageReport("target_proxy", "clean", (),
                         f"no single feature reaches {auc_threshold}{note}")
