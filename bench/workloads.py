"""Seeded synthetic workspaces for the statcert benchmark.

Every workspace is a directory holding CSV files, an audit config and, where
the workload needs one, a ledger snapshot. The program under test only ever
sees these files. The same seed always gives the same data; ledger entries
carry wall-clock timestamps, which no command prints.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from statcert.audit import AuditLedger, load_config, run_audit

FEATURES = tuple(f"x{i}" for i in range(8))
FAMILY_ALPHA = 0.05
FAMILY_WEIGHTS = (0.5, 0.25, 0.25)
ACCURACY = 0.95          # exact share of correct predictions in every labeled file
MEAN_SHIFT = 0.5         # per-feature mean shift of the monitor_mmd window
NO_SHIFT_JITTER = 0.01   # noise added to a resampled reference to make a no-shift window


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload. Zero means the file is not generated."""

    train_rows: int
    test_rows: int
    window_rows: int = 0
    point_rows: int = 0
    ledger_entries: int = 0
    n_permutations: int = 500


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # certify | monitor | replay
    sizes: Sizes
    smoke: Sizes
    write_verdict: str      # expected verdict of the ledger-writing command
    window_shift: bool


WORKLOADS = {w.name: w for w in (
    Workload(
        "certify_large", "certify",
        Sizes(train_rows=100_000, test_rows=50_000),
        Sizes(train_rows=400, test_rows=200),
        write_verdict="pass", window_shift=False),
    Workload(
        "monitor_mmd", "monitor",
        Sizes(train_rows=200, test_rows=3000, window_rows=3000, point_rows=1000),
        Sizes(train_rows=50, test_rows=300, window_rows=300, point_rows=300,
              n_permutations=50),
        write_verdict="shift_benign", window_shift=True),
    Workload(
        "ledger_replay", "replay",
        Sizes(train_rows=200, test_rows=300, window_rows=300,
              ledger_entries=20_000),
        Sizes(train_rows=50, test_rows=100, window_rows=100, ledger_entries=40,
              n_permutations=50),
        write_verdict="ok", window_shift=False),
)}


@dataclass(frozen=True)
class Workspace:
    root: Path
    config: Path
    ledger: Path
    snapshot: Path          # ledger restored before each command; absent = fresh ledger
    report: Path
    window: Path | None
    point_check: Path | None
    sizes: Sizes
    ledger_entries: int     # entries in the snapshot


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Write float columns with 6 decimals and integer columns as integers."""
    names = list(columns)
    fmt = ["%d" if np.issubdtype(columns[n].dtype, np.integer) else "%.6f" for n in names]
    table = np.column_stack([columns[n] for n in names]).astype(object)
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(names),
               comments="")


def features(rng: np.random.Generator, rows: int, shift: float = 0.0) -> dict[str, np.ndarray]:
    data = rng.standard_normal((rows, len(FEATURES))) + shift
    return {name: data[:, j] for j, name in enumerate(FEATURES)}


def labeled(rng: np.random.Generator, rows: int, with_prediction: bool) -> dict[str, np.ndarray]:
    """Features plus a balanced label; predictions are correct on exactly
    round(ACCURACY * rows) rows, so every seed certifies."""
    cols = features(rng, rows)
    label = rng.integers(0, 2, rows, dtype=np.int64)
    cols["label"] = label
    if with_prediction:
        wrong = rng.permutation(rows)[: rows - round(ACCURACY * rows)]
        prediction = label.copy()
        prediction[wrong] = 1 - prediction[wrong]
        cols["prediction"] = prediction
    return cols


def _roles(with_prediction: bool) -> str:
    roles = [f"{f}: feature" for f in FEATURES] + ["label: label"]
    if with_prediction:
        roles.append("prediction: prediction")
    return "{" + ", ".join(roles) + "}"


def config_text(seed: int, sizes: Sizes) -> str:
    return f"""\
version: 1
seed: {seed}
model_id: bench-classifier
sadd:
  operating_context: Synthetic standardized sensor features.
  technical_requirements: Eight finite real-valued features; binary label.
  sampling_strategy: Simple random sample, independent of training data.
datasets:
  train:
    path: data/train.csv
    columns: {_roles(False)}
  test:
    path: data/test.csv
    columns: {_roles(True)}
family:
  alpha: {FAMILY_ALPHA}
  weights: {list(FAMILY_WEIGHTS)}
mprs:
  - name: accuracy_floor
    dataset: test
    metric: accuracy
    direction: at_least
    threshold: 0.9
    test: exact_binomial
    alpha_share: 1.0
leakage:
  enabled: true
  train: train
  test: test
  duplicate_key: exact_features
drift:
  reference: test
  method: mmd_permutation
  alpha: 0.05
  n_permutations: {sizes.n_permutations}
ledger: audit_ledger.jsonl
report: audit_report.json
"""


def _hex(rng: np.random.Generator) -> str:
    return rng.bytes(32).hex()


def build_ledger(path: Path, family: dict, entries: int, rng: np.random.Generator) -> None:
    """Append `entries` entries through the public AuditLedger.append.

    Every tenth entry is a test-bearing recertification with a fresh gating
    hash that demonstrated its requirement; the rest are no-shift monitor
    entries. Alphas follow the fallback recurrence, so the ledger verifies.
    """
    ledger = AuditLedger(path)
    tests, carry = 0, 0.0
    for i in range(entries):
        common = dict(model_id="bench-classifier", family=family, seed=int(i))
        if i % 10 == 0:
            w = FAMILY_WEIGHTS[tests] if tests < len(FAMILY_WEIGHTS) else 0.0
            alpha = carry + FAMILY_ALPHA * w
            p = float(rng.uniform(1e-12, 1e-6))
            gating = _hex(rng)
            ledger.append(
                kind="certification" if i == 0 else "recertification",
                dataset_hashes={"test": gating, "train": _hex(rng)},
                gating_hashes=[gating], test_bearing=True,
                alpha_allocated=alpha, alpha_carried_in=carry,
                alpha_carried_out=alpha,
                decisions=[{"name": "accuracy_floor", "p_value": p,
                            "alpha_used": alpha, "decision": "reject_H0"}],
                demonstrated=True, verdict="pass", **common)
            tests, carry = tests + 1, alpha
        else:
            ledger.append(
                kind="monitor",
                dataset_hashes={"reference": _hex(rng), "window": _hex(rng)},
                gating_hashes=[], test_bearing=False, alpha_allocated=0.0,
                alpha_carried_in=carry, alpha_carried_out=carry, decisions=[],
                demonstrated=None, verdict="ok", **common)


def generate(workload: Workload, root: Path, seed: int, smoke: bool = False) -> Workspace:
    """Write the workload's files under `root` (replacing it) from `seed`."""
    sizes = workload.smoke if smoke else workload.sizes
    shutil.rmtree(root, ignore_errors=True)
    data = root / "data"
    data.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    write_csv(data / "train.csv", labeled(rng, sizes.train_rows, with_prediction=False))
    test = labeled(rng, sizes.test_rows, with_prediction=True)
    write_csv(data / "test.csv", test)
    config = root / "audit.yaml"
    config.write_text(config_text(seed, sizes))

    window = point_check = None
    if sizes.window_rows:
        window = data / "window.csv"
        if workload.window_shift:
            write_csv(window, features(rng, sizes.window_rows, MEAN_SHIFT))
        else:
            # a jittered resample of the reference, far from any detectable shift
            ref = np.column_stack([test[f] for f in FEATURES])
            rows = ref[rng.integers(0, len(ref), sizes.window_rows)]
            rows = rows + NO_SHIFT_JITTER * rng.standard_normal(rows.shape)
            write_csv(window, {f: rows[:, j] for j, f in enumerate(FEATURES)})
    if sizes.point_rows:
        point_check = data / "point_check.csv"
        write_csv(point_check, labeled(rng, sizes.point_rows, with_prediction=True))

    ledger = root / "audit_ledger.jsonl"
    snapshot = root / "ledger_snapshot.jsonl"
    entries = 0
    if workload.kind == "monitor":
        report = run_audit(config)
        if report.verdict != "pass":
            raise RuntimeError(f"{workload.name}: set-up certification gave {report.verdict}")
        entries = 1
    elif workload.kind == "replay":
        family = load_config(config).family_snapshot()
        build_ledger(ledger, family, sizes.ledger_entries, rng)
        entries = sizes.ledger_entries
    if entries:
        shutil.copyfile(ledger, snapshot)
    return Workspace(root, config, ledger, snapshot, root / "audit_report.json",
                     window, point_check, sizes, entries)


def restore(ws: Workspace) -> None:
    """Put the ledger back to the workspace's snapshot (or remove it)."""
    if ws.ledger_entries:
        shutil.copyfile(ws.snapshot, ws.ledger)
    else:
        ws.ledger.unlink(missing_ok=True)
    ws.report.unlink(missing_ok=True)
