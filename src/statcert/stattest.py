"""One-sided hypothesis tests that a minimum performance requirement is met.

Conventions: every test is oriented so that rejecting H0 demonstrates the
requirement. For an at_least MPR the null is "true metric <= threshold"; for
at_most it is "true metric >= threshold". Exact p-values throughout (no
mid-p), matching the published binomial reference values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import METRICS, Dataset, MetricValue, MprSpec, compute_metric
from .errors import ValidationError

BOOTSTRAP_MIN_N = 20
BOOTSTRAP_MIN_B = 1000  # the fewest resamples a fairness gate may be configured with
BOOTSTRAP_B = 2000  # resamples of the MPR bootstrap test


@dataclass
class TestResult:
    test_id: str
    statistic: float
    p_value: float
    conf_bound: float
    alpha_used: float
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError("p-value outside [0, 1]")

    @property
    def rejected(self) -> bool:
        return self.p_value <= self.alpha_used

    @property
    def decision(self) -> str:
        return "reject_H0" if self.rejected else "fail_to_reject"

    def as_plain(self) -> dict:
        return {
            "test_id": self.test_id,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "conf_bound": self.conf_bound,
            "alpha_used": self.alpha_used,
            "decision": self.decision,
            "n": self.n,
            "params": dict(self.params),
        }


def _binomial_sf_geq(k: int, n: int, p0: float) -> float:
    """P(X >= k | Binomial(n, p0)), exact.

    Uses the regularized incomplete beta identity
    P(X >= k) = I_{p0}(k, n - k + 1), which stays accurate at n in the
    tens of thousands where naive summation underflows.
    """
    if k <= 0:
        return 1.0
    if p0 == 0.0:
        return 0.0
    if p0 == 1.0:
        return 1.0
    from scipy import special  # ~0.35 s to import: only the exact tests load it
    return float(special.betainc(k, n - k + 1, p0))


def _check_counts(k: int, n: int) -> None:
    if n < 1 or not 0 <= k <= n or int(k) != k or int(n) != n:
        raise ValidationError(f"need integers 0 <= k <= n with n >= 1, got k={k}, n={n}")


def binomial_test_one_sided(k: int, n: int, p0: float, direction: str = "at_least",
                            alpha: float = 0.05) -> TestResult:
    """Exact one-sided binomial test of an MPR on a success count.

    at_least: H0 p <= p0 vs H1 p > p0, p-value = P(X >= k | p0).
    at_most:  H0 p >= p0 vs H1 p < p0, p-value = P(X <= k | p0).
    p0 = 0 and p0 = 1 are served by the same exact tail logic rather than
    rejected: a vacuous requirement yields p-value 0 or 1, never an error.
    """
    _check_counts(k, n)
    if direction not in ("at_least", "at_most"):
        raise ValidationError(f"bad direction {direction!r}")
    if not 0.0 <= p0 <= 1.0:
        raise ValidationError(f"threshold {p0} outside [0, 1]")
    k, n = int(k), int(n)
    if direction == "at_least":
        p_value = _binomial_sf_geq(k, n, p0)
        bound = clopper_pearson_bound(k, n, alpha, "lower")
    else:
        p_value = _binomial_sf_geq(n - k, n, 1.0 - p0)  # P(X <= k | p0), by symmetry
        bound = clopper_pearson_bound(k, n, alpha, "upper")
    return TestResult(
        test_id="exact_binomial",
        statistic=k / n,
        p_value=p_value,
        conf_bound=bound,
        alpha_used=alpha,
        n=n,
        params={"k": k, "n": n, "p0": p0, "direction": direction, "alpha": alpha},
    )


def clopper_pearson_bound(k: int, n: int, alpha: float, side: str) -> float:
    """One-sided exact (Clopper-Pearson) binomial confidence bound.

    The lower bound solves P(X >= k | p) = alpha in p, i.e. the alpha
    quantile of Beta(k, n - k + 1); zero when k = 0. The upper bound is the
    mirror image. Monotone in k on both sides.
    """
    _check_counts(k, n)
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    k, n = int(k), int(n)
    from scipy import special
    if side == "lower":
        if k == 0:
            return 0.0
        return float(special.betaincinv(k, n - k + 1, alpha))
    if side == "upper":
        if k == n:
            return 1.0
        return float(special.betaincinv(k + 1, n - k, 1.0 - alpha))
    raise ValidationError(f"side must be lower or upper, got {side!r}")


def percentile_pvalue(stat_samples: np.ndarray, threshold: float, direction: str) -> float:
    """One-sided resampling p-value with the (r+1)/(B+1) correction.

    Counts resampled statistics on the H0 side of the threshold; direction
    names the requirement, so at_most counts samples >= threshold. Shared by
    the scalar bootstrap test and the fairness gate.
    """
    stat_samples = np.asarray(stat_samples, dtype=float)
    b = len(stat_samples)
    if direction == "at_most":
        r = int(np.sum(stat_samples >= threshold))
    elif direction == "at_least":
        r = int(np.sum(stat_samples <= threshold))
    else:
        raise ValidationError(f"bad direction {direction!r}")
    return (r + 1) / (b + 1)


def bootstrap_test_one_sided(values: np.ndarray, threshold: float, direction: str,
                             alpha: float = 0.05, seed: int = 0) -> TestResult:
    """Percentile-bootstrap one-sided test on the mean of per-sample values,
    over BOOTSTRAP_B resamples.

    The input is sorted before resampling, which makes the result invariant
    to the order the samples arrived in. Floor: n >= 20; the percentile
    bootstrap is not defensible below it.
    """
    values = np.sort(np.asarray(values, dtype=float))
    n = len(values)
    if n < BOOTSTRAP_MIN_N:
        raise ValidationError(f"bootstrap needs n >= {BOOTSTRAP_MIN_N}, got {n}")
    if direction not in ("at_least", "at_most"):
        raise ValidationError(f"bad direction {direction!r}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(BOOTSTRAP_B, n))
    means = values[idx].mean(axis=1)
    p_value = percentile_pvalue(means, threshold, direction)
    if direction == "at_most":
        bound = float(np.quantile(means, 1.0 - alpha))
    else:
        bound = float(np.quantile(means, alpha))
    return TestResult(
        test_id="bootstrap_percentile",
        statistic=float(np.mean(values)),
        p_value=p_value,
        conf_bound=bound,
        alpha_used=alpha,
        n=n,
        params={"threshold": threshold, "direction": direction,
                "B": BOOTSTRAP_B, "alpha": alpha, "seed": seed},
    )


def rank_auroc(scores: np.ndarray, positive: np.ndarray) -> float:
    """AUROC of scores against binary flags, ties averaged.

    Mann-Whitney form: the probability a random positive outscores a random
    negative, counting ties as half. Invariant under strictly monotone
    transformations of the scores.
    """
    scores = np.asarray(scores, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    if scores.shape != positive.shape:
        raise ValidationError("scores and flags must align")
    n_pos = int(np.sum(positive))
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("need both classes present for AUROC")
    ranks = _average_ranks(scores)
    u = float(np.sum(ranks[positive])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def row_groups(rows: np.ndarray):
    """Rows grouped by equal value: (keys, order, starts, counts). Group g
    holds the value keys[g] (keys ascend) in the rows order[starts[g]:
    starts[g] + counts[g]], in ascending row order. No groups for no rows."""
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    new_value = np.ones(len(ordered), dtype=bool)
    new_value[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_value)
    counts = np.diff(np.r_[starts, len(ordered)])
    return ordered[starts], order, starts, counts


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie run given the mean of the ranks it spans; all
    NaN when any value is NaN. The same floats as scipy.stats.rankdata,
    without its ~1 s import."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        return np.full(len(x), np.nan)
    _, order, starts, counts = row_groups(x)
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((2 * starts + counts + 1) / 2.0, counts)
    return ranks


def evaluate_mpr(dataset: Dataset, mpr: MprSpec, alpha: float,
                 seed: int = 0) -> tuple[MetricValue, TestResult]:
    """Compute the MPR's metric and run the matching one-sided test.

    Proportion metrics must use the exact binomial test on their lossless
    (k, n) counts. Mean-style metrics use the bootstrap on per-sample
    losses; RMSE is tested on the squared scale (monotone transform, same
    decision).
    """
    metric = compute_metric(dataset, mpr.metric_id)
    info = METRICS[mpr.metric_id]
    if mpr.test_kind == "exact_binomial":
        if info.kind != "proportion" or metric.successes is None:
            raise ValidationError(
                f"exact_binomial requires a proportion metric, {mpr.metric_id} is not")
        result = binomial_test_one_sided(metric.successes, metric.n, mpr.threshold,
                                         mpr.direction, alpha)
        return metric, result
    if info.kind == "proportion":
        raise ValidationError("proportion metrics must use the exact binomial test")
    if metric.per_sample_losses is None:
        raise ValidationError(f"{mpr.metric_id} carries no per-sample losses")
    threshold = mpr.threshold
    if mpr.metric_id == "rmse":
        threshold = threshold ** 2
    result = bootstrap_test_one_sided(metric.per_sample_losses, threshold,
                                      mpr.direction, alpha, seed)
    return metric, result
