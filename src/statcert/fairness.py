"""Group-fairness metrics on a binary (group, label, prediction) cube,
Pareto-front computation over candidate models, and bootstrap gating of
fairness requirements.

Binary group and binary outcome only. Parity is reported signed (positive
favors group a=1); gating always uses absolute violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import ValidationError
from .stattest import BOOTSTRAP_MIN_B, TestResult, linear_quantile, percentile_pvalue


@dataclass(frozen=True)
class GroupedOutcomes:
    """2 x 2 x 2 contingency cube: counts[a, y, yhat]."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (2, 2, 2):
            raise ValidationError("cube must be 2x2x2 (group, label, prediction)")
        if not np.issubdtype(c.dtype, np.integer) or np.any(c < 0):
            raise ValidationError("counts must be non-negative integers")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "GroupedOutcomes":
        a = dataset.by_role("group")
        y = dataset.by_role("label")
        yhat = dataset.by_role("prediction")
        for name, v in (("group", a), ("label", y), ("prediction", yhat)):
            vals = set(np.unique(v).tolist())
            if not vals <= {0, 1}:
                raise ValidationError(f"{name} column must be binary 0/1, saw {sorted(vals)}")
        cube = np.zeros((2, 2, 2), dtype=np.int64)
        np.add.at(cube, (a.astype(int), y.astype(int), yhat.astype(int)), 1)
        return cls(cube)


# The sets each metric conditions on, as indices into the cube: each group
# (a,) for parity, each (group, label) cell (a, y) for the conditional
# metrics, in the order the bootstrap redraws them.
_STRATA = {"statistical_parity": ((0,), (1,)),
           "equal_opportunity": ((0, 1), (1, 1)),
           "equalized_odds": ((0, 0), (1, 0), (0, 1), (1, 1))}


def _checked_counts(outcomes: GroupedOutcomes, metric: str) -> np.ndarray:
    """The cube, refused when a set the metric conditions on is empty."""
    if metric not in _STRATA:
        raise ValidationError(f"unknown fairness metric {metric!r}")
    for stratum in _STRATA[metric]:
        if outcomes.counts[stratum].sum() == 0:
            if len(stratum) == 1:
                raise ValidationError(f"group a={stratum[0]} has no samples")
            raise ValidationError(f"cell (a={stratum[0]}, y={stratum[1]}) has no samples")
    return outcomes.counts


def _gaps(cubes: np.ndarray, metric: str) -> np.ndarray:
    """The metric on each (..., 2, 2, 2) cube, indexed [group, label,
    prediction]: the signed parity gap p(yhat=1 | a=1) - p(yhat=1 | a=0),
    or the worst |gap| in p(yhat=1 | a, y) over the metric's conditioning
    labels. Its absolute value is the gating violation. The one definition
    of each metric, for the observed cube and every bootstrap resample."""
    if metric == "statistical_parity":
        rates = cubes[..., 1].sum(axis=-1) / cubes.sum(axis=(-2, -1))  # [..., group]
        return rates[..., 1] - rates[..., 0]
    cells = cubes[..., [y for a, y in _STRATA[metric] if a == 0], :]
    rates = cells[..., 1] / cells.sum(axis=-1)  # [..., group, label]
    return np.abs(rates[..., 1, :] - rates[..., 0, :]).max(axis=-1)


def statistical_parity_diff(outcomes: GroupedOutcomes) -> float:
    """p(yhat=1 | a=1) - p(yhat=1 | a=0); positive means group 1 receives
    the positive prediction more often."""
    return float(_gaps(_checked_counts(outcomes, "statistical_parity"), "statistical_parity"))


def equalized_odds_diff(outcomes: GroupedOutcomes, mode: str = "odds") -> float:
    """Conditional positive-rate gap between groups.

    opportunity: |TPR(a=1) - TPR(a=0)|, conditioning on y=1 only.
    odds: the worst gap over both label values.
    """
    if mode not in ("opportunity", "odds"):
        raise ValidationError(f"mode must be opportunity or odds, got {mode!r}")
    return fairness_violation(outcomes, "equal_opportunity" if mode == "opportunity"
                              else "equalized_odds")


def fairness_violation(outcomes: GroupedOutcomes, metric: str) -> float:
    """Non-negative violation used for gating (absolute value of parity)."""
    return float(abs(_gaps(_checked_counts(outcomes, metric), metric)))


@dataclass(frozen=True)
class ModelPoint:
    model_id: str
    performance: float
    fairness_violation: float

    def __post_init__(self):
        if not (np.isfinite(self.performance) and np.isfinite(self.fairness_violation)):
            raise ValidationError("model point must be finite")
        if self.fairness_violation < 0:
            raise ValidationError("violation must be non-negative")


def pareto_front(points: list[ModelPoint]) -> list[ModelPoint]:
    """Maximal points under (performance up, violation down).

    A point is dominated when another is at least as good on both axes and
    strictly better on one; exact ties on both axes are mutually
    non-dominating and all survive. Output sorted by performance ascending.
    Single sweep over the performance-sorted list, O(n log n).
    """
    if not points:
        raise ValidationError("need at least one point")
    by_perf = sorted(points, key=lambda p: -p.performance)
    front: list[ModelPoint] = []
    best_higher = np.inf  # min violation among strictly better performers
    i = 0
    while i < len(by_perf):
        j = i
        while j < len(by_perf) and by_perf[j].performance == by_perf[i].performance:
            j += 1
        tier = by_perf[i:j]
        tier_min = min(p.fairness_violation for p in tier)
        for p in tier:
            if p.fairness_violation <= tier_min and p.fairness_violation < best_higher:
                front.append(p)
        best_higher = min(best_higher, tier_min)
        i = j
    return sorted(front, key=lambda p: p.performance)


def _resampled_violations(outcomes: GroupedOutcomes, metric: str, n_bootstrap: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Stratified bootstrap of the violation statistic, for a cube that
    fairness_violation accepted.

    Each stratum's counts are redrawn with its size fixed: a group's four
    (y, yhat) cells for parity, a (group, y) cell's positive predictions
    for the conditional metrics. Rows never cross strata, so every
    resample keeps the conditioning sets nonempty.
    """
    counts = outcomes.counts
    cubes = np.broadcast_to(counts, (n_bootstrap, *counts.shape)).copy()
    for stratum in _STRATA[metric]:
        cells = counts[stratum]
        n = int(cells.sum())
        if len(stratum) == 1:
            draws = rng.multinomial(n, cells.reshape(-1) / n, size=n_bootstrap)
        else:
            positives = rng.binomial(n, int(cells[1]) / n, size=n_bootstrap)
            draws = np.stack([n - positives, positives], axis=-1)
        cubes[(slice(None), *stratum)] = draws.reshape(-1, *cells.shape)
    return np.abs(_gaps(cubes, metric))


def fairness_mpr_check(outcomes: GroupedOutcomes, metric: str, max_violation: float,
                       n_bootstrap: int = 2000, alpha: float = 0.05,
                       seed: int = 0) -> TestResult:
    """One-sided bootstrap gate of one fairness requirement.

    H0: violation >= max_violation; rejecting demonstrates fairness. The
    p-value is the percentile rule (r+1)/(B+1) over stratified resamples of
    the contingency cube, drawn from the stream SeedSequence([seed, 0]).
    """
    if n_bootstrap < BOOTSTRAP_MIN_B:
        raise ValidationError(f"need B >= {BOOTSTRAP_MIN_B}, got {n_bootstrap}")
    if max_violation < 0:
        raise ValidationError("max_violation must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    observed = fairness_violation(outcomes, metric)
    draws = _resampled_violations(outcomes, metric, n_bootstrap, rng)
    return TestResult(
        test_id="fairness_bootstrap",
        statistic=observed,
        p_value=percentile_pvalue(draws, max_violation, "at_most"),
        conf_bound=linear_quantile(draws, 1.0 - alpha),
        alpha_used=alpha,
        n=int(outcomes.counts.sum()),
        params={"metric": metric, "max_violation": max_violation,
                "B": n_bootstrap, "seed": seed},
    )
