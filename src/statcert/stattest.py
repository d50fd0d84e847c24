"""One-sided hypothesis tests that a minimum performance requirement is met.

Conventions: every test is oriented so that rejecting H0 demonstrates the
requirement. For an at_least MPR the null is "true metric <= threshold"; for
at_most it is "true metric >= threshold". Exact p-values throughout (no
mid-p), matching the published binomial reference values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .canonical import plain_fields
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
        return {**plain_fields(self), "decision": self.decision}


# Loader's stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) for n = 0..15;
# above 15 its asymptotic series is used
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
_LN_2PI = 1.8378770664093456  # log(2 pi)
_TINY = 1e-300  # the modified Lentz method's stand-in for a zero denominator
_CF_EPS = 2.0 ** -51  # a continued fraction stops when its next factor is this close to 1
_CF_TERMS = 100_000  # n = 1e8 needs under 2000 at worst; more means an error
_ROOT_EPS = 2.0 ** -48  # a bound is found when its last step is this small, relatively
_ROOT_STEPS = 200


def _stirlerr(n: int) -> float:
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    if n > 500:
        return (_S0 - _S1 / nn) / n
    if n > 80:
        return (_S0 - (_S1 - _S2 / nn) / nn) / n
    if n > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x / m) + m - x, by its series where x is within 10 % of m and
    the direct form cancels."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        term, v = 2.0 * x * v, v * v
        for j in range(3, 2000, 2):
            term *= v
            following = s + term / j
            if following == s:
                break
            s = following
        return s
    return x * math.log(x / m) + m - x


def _binomial_pmf(x: int, n: int, p: float, q: float) -> float:
    """P(X = x | Binomial(n, p)) for 0 < p < 1 and q = 1 - p, which the
    caller gives apart so that either may be exact: Loader's saddle-point
    form ("Fast and Accurate Computation of Binomial Probabilities", 2000).
    Its relative error is about |log pmf| + |x - n p| ulp, from the exp and
    from rounding n p, at any n."""
    if n == 0:
        return 1.0
    if x == 0:
        return math.exp(-_bd0(n, n * q) - n * p if p < 0.1 else n * math.log(q))
    if x == n:
        return math.exp(-_bd0(n, n * p) - n * q if q < 0.1 else n * math.log(p))
    lc = (_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
          - _bd0(x, n * p) - _bd0(n - x, n * q))
    # x (n - x) / n of two ints is correctly rounded, where 1 - x / n would cancel
    return math.exp(lc - 0.5 * (_LN_2PI + math.log(x * (n - x) / n)))


def _beta_cf(a: int, b: int, x: float) -> float:
    """The continued fraction of I_x(a, b) = x^a (1 - x)^b cf / (a B(a, b)),
    by the modified Lentz method (Numerical Recipes, section 6.4). It
    converges in O(sqrt(max(a, b))) terms for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1))
    cf = d
    for m in range(1, _CF_TERMS):
        for numerator in (m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))):
            d = 1.0 / _nonzero(1.0 + numerator * d)
            c = _nonzero(1.0 + numerator / c)
            factor = c * d
            cf *= factor
        if abs(factor - 1.0) <= _CF_EPS:
            return cf
    raise ArithmeticError(f"incomplete beta fraction ({a}, {b}, {x}) did not converge")


def _nonzero(v: float) -> float:
    """v, or the modified Lentz method's stand-in for a zero denominator."""
    return v if abs(v) >= _TINY else _TINY


def _binomial_sf_geq(k: int, n: int, p: float, q: float | None = None) -> float:
    """P(X >= k | Binomial(n, p)) = I_p(k, n - k + 1), in pure Python
    floats. q is 1 - p; a caller that holds it exactly passes it.

    The pmf at k times the incomplete beta's continued fraction gives the
    tail where that fraction converges fast, p < (k + 1) / (n + 3); the
    complement of the lower tail, by the same means, gives it elsewhere.
    Measured against exact sums: within 2e-13 relative at n <= 200, down to
    tails of 1e-300, the most where the tail is smallest (the pmf is the exp
    of a log). The error grows with n as scipy's betainc's does: to about
    1e-12 at n = 1e6, and to 1e-11 where p or 1 - p is a small multiple of
    1 / n, where the fraction's terms cancel.
    """
    q = 1.0 - p if q is None else q
    if k <= 0 or q == 0.0:
        return 1.0
    if p == 0.0 or k > n:
        return 0.0
    if p < (k + 1) / (n + 3):
        tail = q * _binomial_pmf(k, n, p, q) * _beta_cf(k, n - k + 1, p)
    else:
        tail = 1.0 - p * _binomial_pmf(k - 1, n, p, q) * _beta_cf(n - k + 1, k, q)
    return min(1.0, max(0.0, tail))


def _solve(tail, slope, alpha: float, increasing: bool, x: float) -> float:
    """The p in (0, 1) where tail(p) = alpha, for a tail monotone in p with
    derivative slope(p). Newton steps on log tail against log p, from x:
    near 0 a binomial tail is a power of p, which such a step solves at
    once, so a bound of 1e-300 takes a few steps, where bisection takes a
    thousand. Each step is kept inside the bracket the earlier iterates
    give; where it would leave it, the bracket is bisected instead, at its
    geometric mean while it spans more than a factor of two."""
    lo, hi, target = 0.0, 1.0, math.log(alpha)
    for _ in range(_ROOT_STEPS):
        f = tail(x)
        if f == alpha:
            return x
        if (f > alpha) == increasing:
            hi = x
        else:
            lo = x
        elasticity = x * slope(x) / f if f > 0.0 else 0.0  # d log tail / d log p
        step = (math.log(f) - target) / elasticity if elasticity != 0.0 else math.inf
        if abs(step) <= _ROOT_EPS:
            return x * math.exp(-step)
        following = x * math.exp(-step) if step > -700.0 else math.inf
        if not lo < following < hi:
            following = math.sqrt(lo * hi) if 2.0 * lo < hi and lo > 0.0 else 0.5 * (lo + hi)
        if abs(following - x) <= _ROOT_EPS * x:
            return following
        x = following
    return x


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
        p_value = _binomial_sf_geq(n - k, n, 1.0 - p0, p0)  # P(X <= k | p0), by symmetry
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
    quantile of Beta(k, n - k + 1); zero when k = 0. The upper bound solves
    P(X <= k | p) = alpha in p itself, not as one minus a lower bound, so
    that it keeps its relative accuracy near 0; one when k = n. Monotone in
    k on both sides.
    """
    _check_counts(k, n)
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    k, n = int(k), int(n)
    if side == "lower":
        if k == 0:
            return 0.0
        # the slope of P(X >= k | p) is the Beta(k, n - k + 1) density
        return _solve(lambda p: _binomial_sf_geq(k, n, p),
                      lambda p: n * _binomial_pmf(k - 1, n - 1, p, 1.0 - p),
                      alpha, True, k / (n + 1))
    if side == "upper":
        if k == n:
            return 1.0
        return _solve(lambda p: _binomial_sf_geq(n - k, n, 1.0 - p, p),
                      lambda p: -n * _binomial_pmf(k, n - 1, p, 1.0 - p),
                      alpha, False, (k + 1) / (n + 1))
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


def linear_quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) with its default linear interpolation, bit for
    bit (NaN if any value is), from one np.partition: the first np.quantile
    in a process imports numpy.ma, about 10 ms."""
    n = len(values)
    index = (n - 1) * q
    lo = math.floor(index) if index < n - 1 else -1  # numpy's index past the end
    hi = lo + 1 if lo >= 0 else -1
    # numpy's own partition points, so that even the signs of equal zeros agree
    ordered = np.partition(values, sorted({0, -1, lo, hi}))  # NaN sorts last
    if np.isnan(ordered[-1]):
        return math.nan
    a, b, t = float(ordered[lo]), float(ordered[hi]), index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


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
        bound = linear_quantile(means, 1.0 - alpha)
    else:
        bound = linear_quantile(means, alpha)
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
