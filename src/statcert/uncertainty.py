"""Entropy decomposition of ensemble predictive uncertainty.

For K member distributions p(y|x, w_k) with posterior weights w_k:

    total     = H(sum_k w_k p_k)          entropy of the posterior predictive
    aleatoric = sum_k w_k H(p_k)          expected member entropy
    epistemic = total - aleatoric         mutual information I(y; w)

All entropies in nats. The subtraction identity is exact; the direct
KL form sum_k w_k KL(p_k || mean) is recomputed as an internal cross-check.

Two uses of the decomposition: the abstention rule (`uncertainty_fallback`),
and the quality of total uncertainty as a flag for misclassified inputs,
scored as its AUROC against them (`evaluate_uncertainty_quality`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import read_jsonl
from .errors import DataLoadError, ValidationError
from .stattest import rank_auroc

SIMPLEX_TOL = 1e-9
CROSS_CHECK_TOL = 1e-8
NEGATIVE_SNAP = 1e-12


@dataclass(frozen=True)
class EnsemblePrediction:
    """K member categorical distributions over C classes for one input, and
    whether the prediction was correct, when that is known."""

    members: np.ndarray
    weights: np.ndarray | None = None
    correct: bool | None = None

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.members, dtype=float))
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 2:
            raise ValidationError("members must be a K x C matrix with C >= 2")
        # NaN passes every comparison below
        if not np.all(np.isfinite(m)):
            raise ValidationError("non-finite probability entries")
        if np.any(m < 0):
            raise ValidationError("negative probability entries")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > SIMPLEX_TOL:
            raise ValidationError("member rows must sum to 1 within 1e-9")
        m.setflags(write=False)
        object.__setattr__(self, "members", m)
        if self.weights is None:
            w = np.full(m.shape[0], 1.0 / m.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (m.shape[0],):
                raise ValidationError("one weight per member")
            if (not np.all(np.isfinite(w)) or np.any(w < 0)
                    or abs(float(w.sum()) - 1.0) > SIMPLEX_TOL):
                raise ValidationError("weights must be >= 0 and sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_classes(self) -> int:
        return self.members.shape[1]


@dataclass(frozen=True)
class UncertaintyDecomposition:
    total: float
    aleatoric: float
    epistemic: float
    n_classes: int

    def __post_init__(self):
        if min(self.total, self.aleatoric, self.epistemic) < 0:
            raise ValidationError("uncertainty components must be non-negative")
        if abs(self.total - (self.aleatoric + self.epistemic)) > 1e-10:
            raise ValidationError("additivity violated beyond 1e-10")
        if self.total > np.log(self.n_classes) + 1e-9:
            raise ValidationError("total entropy exceeds ln C")

    def component(self, name: str) -> float:
        if name not in ("total", "aleatoric", "epistemic"):
            raise ValidationError(f"unknown component {name!r}")
        return getattr(self, name)


def _entropy(p: np.ndarray) -> float:
    # 0 * log 0 := 0
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def decompose(ens: EnsemblePrediction) -> UncertaintyDecomposition:
    """Split predictive uncertainty into aleatoric and epistemic parts.

    Epistemic comes from the subtraction identity, which is exact and
    numerically gentler near zero than the KL sum; the KL sum is still
    evaluated and must agree within 1e-8. A subtraction result in
    [-1e-12, 0) is rounding noise on an epistemic of exactly zero and is
    snapped, keeping both additivity and non-negativity.
    """
    mean = ens.weights @ ens.members
    total = _entropy(mean)
    aleatoric = float(np.sum(ens.weights * [_entropy(row) for row in ens.members]))
    epistemic = total - aleatoric

    kl_sum = 0.0
    for w, row in zip(ens.weights, ens.members):
        if w == 0:
            continue
        nz = row > 0
        kl_sum += w * float(np.sum(row[nz] * (np.log(row[nz]) - np.log(mean[nz]))))
    if abs(epistemic - kl_sum) > CROSS_CHECK_TOL:
        raise ValidationError(
            f"identity and KL-form epistemic disagree: {epistemic} vs {kl_sum}")

    if -NEGATIVE_SNAP <= epistemic < 0.0:
        epistemic = 0.0
        aleatoric = total
    return UncertaintyDecomposition(total, aleatoric, epistemic, ens.n_classes)


def uncertainty_fallback(dec: UncertaintyDecomposition,
                         thresholds: dict[str, float]) -> str:
    """Abstention rule on a decomposition: abstain iff any configured
    component reaches its threshold (>=, so a component exactly at the line
    abstains)."""
    for limit in thresholds.values():
        if limit < 0:
            raise ValidationError("thresholds must be non-negative")
    for name, limit in thresholds.items():
        if dec.component(name) >= limit:
            return "abstain"
    return "accept"


def evaluate_uncertainty_quality(decomps: Sequence[UncertaintyDecomposition],
                                 flags: Sequence[bool]) -> float:
    """AUROC of total uncertainty against the flags, which mark the bad
    outcome (a misclassified input): the rank statistic, ties averaged.
    Needs at least two inputs of each flag value."""
    if len(decomps) != len(flags):
        raise ValidationError("flags must align with decompositions")
    flags_arr = np.asarray(flags, dtype=bool)
    n_flagged = int(np.sum(flags_arr))
    if n_flagged < 2 or len(flags_arr) - n_flagged < 2:
        raise ValidationError("need >= 2 samples of each flag class")
    return rank_auroc(np.array([d.total for d in decomps]), flags_arr)


def load_ensembles(path: str | Path) -> list[EnsemblePrediction]:
    """Read ensemble predictions from JSONL: one object per input with a
    K x C "members" array, optional "weights" and an optional boolean
    "correct" (any other value reads as unknown)."""
    out = []
    for lineno, rec in read_jsonl(path):
        if not isinstance(rec, dict) or "members" not in rec:
            raise DataLoadError(f"{path}:{lineno}: missing members array")
        correct = rec.get("correct")
        try:
            weights = np.asarray(rec["weights"], dtype=float) if "weights" in rec else None
            out.append(EnsemblePrediction(np.asarray(rec["members"], dtype=float),
                                          weights,
                                          correct if isinstance(correct, bool) else None))
        # ValueError, TypeError and OverflowError: not an array of numbers
        except (ValidationError, ValueError, TypeError, OverflowError) as e:
            raise DataLoadError(f"{path}:{lineno}: {e}") from e
    return out
