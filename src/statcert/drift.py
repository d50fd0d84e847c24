"""Distribution-shift detection and the total-variation performance bound.

Two detection routes: per-dimension univariate tests (KS for continuous,
chi-square for declared categorical dimensions) combined with Bonferroni,
or an unbiased MMD^2 kernel two-sample test with a permutation p-value.
Feature encoding happens outside; batches arrive as plain matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DRIFT_METHODS, Dataset, MetricValue, MprSpec
from .errors import (
    DegenerateTable,
    DimensionMismatch,
    DomainMismatch,
    NoShiftToClassify,
    SupportMismatch,
    TooFewSamples,
    ValidationError,
)
from .stattest import TestResult, evaluate_mpr

KS_MIN_N = 5
KS_PERMUTATION_MAX_N = 25  # at or below this, the asymptotic p is replaced


@dataclass(frozen=True)
class EncodedBatch:
    """n x d matrix of already-encoded features, tagged with its source."""

    data: np.ndarray
    source: str  # reference | production

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise ValidationError("batch must be a 2-d matrix")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("non-finite entries in batch")
        if self.source not in ("reference", "production"):
            raise ValidationError(f"bad source tag {self.source!r}")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def batch_from_dataset(dataset: Dataset, source: str) -> EncodedBatch:
    return EncodedBatch(dataset.features_matrix(), source)


@dataclass(frozen=True)
class ShiftVerdict:
    method: str
    aggregate: str  # no_shift | shift
    per_feature: tuple[TestResult, ...]
    severity: float | None = None
    alpha: float = 0.05
    details: dict = field(default_factory=dict)

    def as_plain(self) -> dict:
        return {
            "method": self.method,
            "aggregate": self.aggregate,
            "severity": self.severity,
            "alpha": self.alpha,
            "per_feature": [t.as_plain() for t in self.per_feature],
            "details": dict(self.details),
        }


def _ecdf_sup_distance(x: np.ndarray, y: np.ndarray) -> float:
    grid = np.concatenate([x, y])
    fx = np.searchsorted(np.sort(x), grid, side="right") / len(x)
    fy = np.searchsorted(np.sort(y), grid, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def ks_two_sample(x: np.ndarray, y: np.ndarray, alpha: float = 0.05,
                  seed: int = 0, n_perm: int = 2000) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test.

    D = sup |F_x - F_y|. The p-value uses the asymptotic Kolmogorov
    distribution at effective n = nx*ny/(nx+ny); when min(nx, ny) <= 25 the
    asymptotic form is unreliable and a seeded permutation p-value is used
    instead (recorded in params).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < KS_MIN_N or len(y) < KS_MIN_N:
        raise TooFewSamples(f"KS needs >= {KS_MIN_N} per sample")
    d_obs = _ecdf_sup_distance(x, y)
    nx, ny = len(x), len(y)
    if min(nx, ny) <= KS_PERMUTATION_MAX_N:
        rng = np.random.default_rng(seed)
        pooled = np.concatenate([x, y])
        count = 0
        for _ in range(n_perm):
            perm = rng.permutation(pooled)
            if _ecdf_sup_distance(perm[:nx], perm[nx:]) >= d_obs - 1e-15:
                count += 1
        p_value = (count + 1) / (n_perm + 1)
        mode = "permutation"
    else:
        en = nx * ny / (nx + ny)
        from scipy import special  # ~0.35 s to import: only the exact tests load it
        p_value = float(np.clip(special.kolmogorov(d_obs * np.sqrt(en)), 0.0, 1.0))
        mode = "asymptotic"
    return TestResult(
        test_id="ks_two_sample",
        statistic=d_obs,
        p_value=p_value,
        conf_bound=d_obs,
        alpha_used=alpha,
        n=nx + ny,
        params={"nx": nx, "ny": ny, "mode": mode,
                **({"seed": seed, "n_perm": n_perm} if mode == "permutation" else {})},
    )


def chi2_two_sample(x: np.ndarray, y: np.ndarray, alpha: float = 0.05) -> TestResult:
    """Two-sample chi-square homogeneity test on categorical codes.

    Categories whose expected count in either sample falls below 5 are
    merged into one rare bucket before testing; if the merged table still
    violates the floor, or fewer than two categories remain, the table is
    degenerate. Degrees of freedom: (categories - 1).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if len(x) == 0 or len(y) == 0:
        raise DegenerateTable("empty sample")
    cats = sorted(set(np.unique(x).tolist()) | set(np.unique(y).tolist()), key=str)
    nx, ny = len(x), len(y)
    total = nx + ny

    def counts(sample, categories):
        return np.array([int(np.sum(sample == c)) for c in categories], dtype=float)

    cx, cy = counts(x, cats), counts(y, cats)
    pooled = cx + cy
    min_expected = np.minimum(nx * pooled / total, ny * pooled / total)
    rare = min_expected < 5.0
    if np.any(rare):
        keep = [c for c, r in zip(cats, rare) if not r]
        cx = np.append(counts(x, keep), cx[rare].sum())
        cy = np.append(counts(y, keep), cy[rare].sum())
        pooled = cx + cy
        min_expected = np.minimum(nx * pooled / total, ny * pooled / total)
        if np.any(min_expected < 5.0):
            raise DegenerateTable("expected counts below 5 even after merging")
    m = len(pooled)
    if m < 2:
        raise DegenerateTable("fewer than two categories")
    stat = 0.0
    for obs, n_g in ((cx, nx), (cy, ny)):
        expected = n_g * pooled / total
        stat += float(np.sum((obs - expected) ** 2 / expected))
    dof = m - 1
    from scipy import special
    # chdtrc is the chi-square survival function that scipy.stats.chi2.sf calls
    p_value = float(np.clip(special.chdtrc(dof, stat), 0.0, 1.0))
    return TestResult(
        test_id="chi2_two_sample",
        statistic=stat,
        p_value=p_value,
        conf_bound=stat,
        alpha_used=alpha,
        n=total,
        params={"dof": dof, "categories": m},
    )


# One row block of the pooled distance matrix holds about this many cells
# (8 MiB of float64); no function here holds more than one block at a time.
_BLOCK_CELLS = 1 << 20
_MAGNITUDE = np.int64(np.iinfo(np.int64).max)  # every bit but the sign
# A block's columns start at a multiple of this, so that BLAS tiles them as
# it tiles the full (N x N) product and nearly every distance is the same
# double it would be there.
_COLUMN_ALIGN = 64
# The median bracket spans this many standard errors of the sampled median's
# rank on each side: a true median outside it has odds below 1e-6.
_BRACKET_SE = 5.0


def _upper_blocks(pooled: np.ndarray, norms: np.ndarray):
    """The upper triangle of the pooled squared-distance matrix, one row
    block at a time: (lo, hi, D[lo:hi, lo:]), with D = |a|^2 + |b|^2 - 2 a.b
    clipped at 0 from the squared row norms. The block's leading square
    D[lo:hi, lo:hi] is whole, its diagonal and lower half included.

    Every block is written over the one before it, so a caller must be done
    with a block before it asks for the next."""
    total = len(pooled)
    rows = min(total, max(1, _BLOCK_CELLS // total))
    gram_cells, out_cells = np.empty(rows * total), np.empty(rows * total)
    for lo in range(0, total, rows):
        hi = min(lo + rows, total)
        start = lo - lo % _COLUMN_ALIGN
        cells = (hi - lo) * (total - start)
        gram = gram_cells[:cells].reshape(hi - lo, total - start)
        out = out_cells[:cells].reshape(gram.shape)
        np.matmul(pooled[lo:hi], pooled[start:].T, out=gram)
        gram *= 2.0
        np.add(norms[lo:hi, None], norms[None, start:], out=out)
        out -= gram
        np.maximum(out, 0.0, out=out)
        yield lo, hi, out[:, lo - start:]


def _pair_distances(pooled: np.ndarray, norms: np.ndarray):
    """The squared distances of all pairs i < j, in two arrays per row block:
    the strict upper half of the block's leading square, then the rest."""
    for lo, hi, sq in _upper_blocks(pooled, norms):
        rows = hi - lo
        yield sq[:, :rows][np.arange(rows) > np.arange(rows)[:, None]]
        yield sq[:, rows:]


def _pair_distance_bits(pooled: np.ndarray, norms: np.ndarray):
    """The squared distances of all pairs i < j, a piece at a time, as 1-d
    int64 bit patterns with the sign bit cleared (so -0.0 reads as 0.0).
    Non-negative doubles order exactly as these integers do."""
    for part in _pair_distances(pooled, norms):
        yield (part.view(np.int64) & _MAGNITUDE).ravel()


def _select_pair_sq_distances(pooled: np.ndarray, norms: np.ndarray,
                              ranks: list[int], count: int, prefix: int = 0,
                              shift: int = 63) -> list[float]:
    """The squared distances at `ranks` (ascending) among the `count` pairs
    whose bit patterns satisfy bits >> shift == prefix (at shift 63: all).

    Exact radix selection, one pass over the pairs per call. A set that
    fits in one block is collected and sorted. A larger one is histogrammed
    on its next 16 bits (2^16 bins) and each rank recurses into its bin;
    if every value in the set is equal, that value is the answer. Typical
    and heavily tied data take two passes; no rank takes more than four.
    """
    def chosen(bits):
        return bits if shift == 63 else bits[(bits >> shift) == prefix]

    if shift == 0:  # one bit pattern left
        return [float(np.int64(prefix).view(np.float64))] * len(ranks)
    if count <= _BLOCK_CELLS:
        values = np.concatenate([chosen(b) for b in _pair_distance_bits(pooled, norms)])
        values.sort()
        return [float(values[r].view(np.float64)) for r in ranks]
    width = min(16, shift)
    hist = np.zeros(1 << width, np.int64)
    lo, hi = int(_MAGNITUDE), -1
    for bits in _pair_distance_bits(pooled, norms):
        sel = chosen(bits)
        if sel.size:
            hist += np.bincount((sel >> (shift - width)) & ((1 << width) - 1),
                                minlength=1 << width)
            lo, hi = min(lo, int(sel.min())), max(hi, int(sel.max()))
    if lo == hi:
        return [float(np.int64(lo).view(np.float64))] * len(ranks)
    below = np.cumsum(hist) - hist
    digits = np.searchsorted(below, ranks, side="right") - 1
    out = []
    for digit in sorted(set(digits.tolist())):
        within = [r - int(below[digit]) for r, d in zip(ranks, digits) if d == digit]
        out += _select_pair_sq_distances(pooled, norms, within, int(hist[digit]),
                                         (prefix << width) | digit, shift - width)
    return out


def _bracketed_pair_sq_distances(pooled: np.ndarray, norms: np.ndarray,
                                 ranks: list[int], count: int) -> list[float] | None:
    """The squared distances at `ranks` (ascending, near count / 2) among
    all `count` pairs, from one pass; None when that pass cannot tell.

    A seeded sample of random pairs brackets the ranks by value, [a, b];
    the pass counts the pairs below a and collects those in [a, b]. When
    both ranks fall among the collected pairs, sorting them gives the exact
    answer. The sample is sized for a bracket of about a quarter block; a
    bracket that misses the ranks (odds below 1e-6) or holds more than one
    block (heavy ties) gives None.
    """
    total, dim = pooled.shape
    size = int(np.clip((4.0 * _BRACKET_SE * count / _BLOCK_CELLS) ** 2,
                       1 << 14, _BLOCK_CELLS))
    rng = np.random.default_rng(0)
    first = rng.integers(0, total, size)
    second = (first + rng.integers(1, total, size)) % total  # never first
    sample = np.empty(size)
    step = max(1, _BLOCK_CELLS // (2 * max(dim, 1)))
    for lo in range(0, size, step):
        diff = pooled[first[lo:lo + step]]
        diff -= pooled[second[lo:lo + step]]
        sample[lo:lo + step] = np.einsum("ij,ij->i", diff, diff)
    sample.sort()
    half = _BRACKET_SE * np.sqrt(size) / 2.0
    a, b = sample[[max(0, int(size * ranks[0] / count - half)),
                   min(size - 1, int(size * ranks[-1] / count + half) + 1)]]

    inside = np.empty(_BLOCK_CELLS)
    below = held = 0
    for part in _pair_distances(pooled, norms):
        below += int(np.count_nonzero(part < a))
        sel = part[(part >= a) & (part <= b)]
        if held + sel.size > _BLOCK_CELLS:
            return None
        inside[held:held + sel.size] = sel
        held += sel.size
    if not below <= ranks[0] <= ranks[-1] < below + held:
        return None
    values = inside[:held]
    values.sort()
    return [float(values[r - below]) for r in ranks]


def _unit_scale(pooled: np.ndarray) -> int:
    """Scale the pooled sample in place by 2^-e and return e, the binary
    exponent of its largest |x|. The scaled entries lie below 1 in
    magnitude, so squared norms cannot overflow, and the largest are near
    1, so the distances do not all underflow to 0, whatever the features'
    unit. Scaling by a power of two is exact: where the unscaled sums
    neither overflow nor underflow, the kernel is the same doubles as on
    the unscaled sample."""
    e = int(np.frexp(max(pooled.max(initial=0.0), -pooled.min(initial=0.0)))[1])
    np.ldexp(pooled, -e, out=pooled)
    return e


def _median_pair_distance(pooled: np.ndarray) -> float:
    """Median pairwise Euclidean distance of a sample scaled by
    _unit_scale; 0.0 when every pair coincides (or there is none)."""
    if not np.all(np.isfinite(pooled)):
        raise ValidationError("non-finite entries in pooled sample")
    pairs = len(pooled) * (len(pooled) - 1) // 2
    if pairs == 0:
        return 0.0
    norms = np.sum(pooled * pooled, axis=1)
    # np.median's two middle ranks (one when odd), averaged as it does
    ranks = sorted({(pairs - 1) // 2, pairs // 2})
    middle = None
    if pairs > _BLOCK_CELLS:
        middle = _bracketed_pair_sq_distances(pooled, norms, ranks, pairs)
    if middle is None:
        middle = _select_pair_sq_distances(pooled, norms, ranks, pairs)
    return float(np.sqrt(np.mean(np.array(middle))))


def median_heuristic_bandwidth(pooled: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sample.

    The median of the squared distances is found by exact selection over
    the upper triangle of the distance matrix: it is the same double
    np.median of all of them gives, but no more than one row block of the
    matrix is held at a time. When all pairs fit in one block they are
    sorted; otherwise one pass collects the pairs inside a bracket drawn
    from a seeded sample of pairs and sorts those, and radix selection
    takes over if the bracket misses. Time O(N^2) (one pass on typical
    data, at most five), memory O(N + block) for N pooled rows. The
    distances are taken on the sample scaled by a power of two
    (_unit_scale) and scaled back, so the result does not depend on the
    features' unit. Falls back to 1.0 when every pair coincides, so the
    kernel stays defined on degenerate data.
    """
    scaled = np.array(pooled, dtype=float, ndmin=2)
    e = _unit_scale(scaled)
    med = _median_pair_distance(scaled)
    return float(np.ldexp(med, e)) if med > 0 else 1.0


def _assignment(keys: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 matrix whose column p marks the n rows with the smallest
    keys in column p of `keys` (rows x permutations), built in `keys`.

    Each column's n-th smallest key is its threshold, found a block of
    columns at a time; the rows at or below it are the n smallest unless
    another key ties it. Then argpartition breaks the tie, which picks the
    same rows as always.
    """
    total, n_perm = keys.shape
    threshold = np.empty(n_perm)
    step = max(1, _BLOCK_CELLS // total)
    for lo in range(0, n_perm, step):
        cols = keys[:, lo:lo + step].T.copy()  # contiguous, so partitions run fast
        cols.partition(n - 1, axis=1)
        threshold[lo:lo + step] = cols[:, n - 1]
        del cols  # before the next copy
    chosen = keys <= threshold
    if np.all(np.count_nonzero(chosen, axis=0) == n):
        np.copyto(keys, chosen)
        return keys
    take = np.argpartition(keys, n - 1, axis=0)[:n]
    keys.fill(0.0)
    np.put_along_axis(keys, take, 1.0, axis=0)
    return keys


def mmd_permutation_test(x: np.ndarray, y: np.ndarray, n_perm: int = 1000,
                         seed: int = 0, alpha: float = 0.05,
                         bandwidth: float | None = None) -> TestResult:
    """Unbiased MMD^2 two-sample test with an RBF kernel.

    Kernel k(a, b) = exp(-|a-b|^2 / (2 h^2)) with h the pooled median
    heuristic unless given; the features and h are scaled by one power of
    two (_unit_scale) first, so the result does not depend on the features'
    unit, and the reported `bandwidth` is in the features' own unit. The
    permutation null recomputes the U-statistic under random relabelings of
    the pooled rows; with unit kernel diagonal the statistic is a function
    of v'Kv and 1'Kv alone, so all permutations reduce to one product of
    the kernel with a 0/1 assignment matrix. The
    kernel is symmetric, so it is built only over its upper triangle, one
    row block at a time, and never held whole: each block's leading square
    is used as it is and the rest counts for itself and its mirror image,
    so the products cover half the kernel. Time O((n+m)^2 * n_perm),
    memory O((n+m) * (block + n_perm)).
    p-value = (r + 1) / (n_perm + 1).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, m = len(x), len(y)
    if n < 2 or m < 2:
        raise TooFewSamples("MMD needs >= 2 rows per batch")
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"{x.shape[1]} vs {y.shape[1]} columns")
    if n_perm < 1:
        raise ValidationError("n_perm must be >= 1")
    pooled = np.vstack([x, y])
    e = _unit_scale(pooled)
    total = n + m
    if bandwidth is None:
        med = _median_pair_distance(pooled)
        h, bandwidth = (med, float(np.ldexp(med, e))) if med > 0 else (1.0, 1.0)
    else:
        h = float(np.ldexp(bandwidth, -e))

    # column p labels x the n rows it draws
    assign = _assignment(np.random.default_rng(seed).random((total, n_perm)), n)
    v = np.zeros(total)
    v[:n] = 1.0

    norms = np.sum(pooled * pooled, axis=1)
    ksum = 0.0
    colsum = np.zeros(total)
    v_k = np.zeros(total)  # v'K, the kernel summed over the rows labelled x
    v_kv = np.zeros(n_perm)
    for lo, hi, kb in _upper_blocks(pooled, norms):
        np.divide(kb, -(2.0 * h * h), out=kb)  # the same doubles as -kb / (2 h^2)
        np.exp(kb, out=kb)
        # K[lo:hi, lo:hi] and K[lo:hi, hi:], which also stands for K[hi:, lo:]
        sq, off = kb[:, :hi - lo], kb[:, hi - lo:]
        rowsum = off.sum(axis=1)
        # one block alone sums exactly as K.sum()
        ksum += float(sq.sum()) + 2.0 * float(rowsum.sum())
        colsum[lo:hi] += sq.sum(axis=0) + rowsum
        colsum[hi:] += off.sum(axis=0)
        v_k[lo:hi] += v[lo:hi] @ sq + off @ v[hi:]
        v_k[hi:] += v[lo:hi] @ off
        q = off @ assign[hi:]
        q *= 2.0
        q += sq @ assign[lo:hi]
        v_kv += np.einsum("ij,ij->j", assign[lo:hi], q)

    def stat_from(v_kv: np.ndarray, s_v: np.ndarray) -> np.ndarray:
        sxx = v_kv - n
        syy = ksum - 2.0 * s_v + v_kv - m
        sxy = s_v - v_kv
        return sxx / (n * (n - 1)) + syy / (m * (m - 1)) - 2.0 * sxy / (n * m)

    observed = float(stat_from(np.array([v_k @ v]), np.array([colsum @ v]))[0])
    null_stats = stat_from(v_kv, colsum @ assign)

    r = int(np.sum(null_stats >= observed))
    p_value = (r + 1) / (n_perm + 1)
    return TestResult(
        test_id="mmd_permutation",
        statistic=observed,
        p_value=p_value,
        conf_bound=float(np.quantile(null_stats, 1.0 - alpha)),
        alpha_used=alpha,
        n=total,
        params={"bandwidth": bandwidth, "n_perm": n_perm, "seed": seed, "n_x": n, "n_y": m},
    )


def multivariate_shift_test(ref: EncodedBatch, prod: EncodedBatch, alpha: float = 0.05,
                            method: str = "mmd_permutation", seed: int = 0,
                            n_perm: int = 1000,
                            categorical_dims: tuple[int, ...] = ()) -> ShiftVerdict:
    """Stage-two shift test between a reference and a production batch.

    univariate_bonferroni runs one test per dimension at level alpha/d;
    mmd_permutation runs a single kernel test at level alpha. Deterministic
    given seed.
    """
    if ref.d != prod.d:
        raise DimensionMismatch(f"reference d={ref.d}, production d={prod.d}")
    if ref.n == 0 or prod.n == 0:
        raise ValidationError("empty batch")
    if method not in DRIFT_METHODS:
        raise ValidationError(f"unknown shift method {method!r}")
    if method == "univariate_bonferroni":
        per_alpha = alpha / ref.d
        results = []
        for j in range(ref.d):
            xj, yj = ref.data[:, j], prod.data[:, j]
            if j in categorical_dims:
                results.append(chi2_two_sample(xj.astype(int), yj.astype(int), per_alpha))
            else:
                results.append(ks_two_sample(xj, yj, per_alpha, seed=seed))
        shift = any(t.rejected for t in results)
        return ShiftVerdict(
            method=method,
            aggregate="shift" if shift else "no_shift",
            per_feature=tuple(results),
            severity=max(t.statistic for t in results),
            alpha=alpha,
            details={"per_dimension_alpha": per_alpha, "d": ref.d},
        )
    result = mmd_permutation_test(ref.data, prod.data, n_perm=n_perm,
                                  seed=seed, alpha=alpha)
    return ShiftVerdict(
        method=method,
        aggregate="shift" if result.rejected else "no_shift",
        per_feature=(result,),
        severity=result.statistic,
        alpha=alpha,
        details={"bandwidth": result.params["bandwidth"], "n_perm": n_perm},
    )


@dataclass(frozen=True)
class DiscreteDistribution:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise ValidationError("need a 1-d probability vector")
        if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValidationError("entries must be >= 0 and sum to 1 within 1e-12")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def support_size(self) -> int:
        return len(self.probs)


def total_variation_discrete(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """d(p, q) = half the L1 distance; a metric on distributions, in [0, 1]."""
    if p.support_size != q.support_size:
        raise SupportMismatch(f"{p.support_size} vs {q.support_size}")
    return float(0.5 * np.sum(np.abs(p.probs - q.probs)))


@dataclass(frozen=True)
class ShiftBoundResult:
    err_p: float
    err_q: float
    gap: float
    tv: float
    holds: bool


def shift_bound_check(h: np.ndarray, f: np.ndarray, p: DiscreteDistribution,
                      q: DiscreteDistribution) -> ShiftBoundResult:
    """Check |err_p(h,f) - err_q(h,f)| <= d(p,q) on a discrete domain.

    h and f are [0,1]-valued predictor and ground-truth functions given
    pointwise on the support; err_p = sum_i p_i |h_i - f_i|. The bound holds
    for every (h, f) pair; equality is attained by the witness below.
    """
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float)
    if p.support_size != q.support_size:
        raise SupportMismatch(f"{p.support_size} vs {q.support_size}")
    if len(h) != p.support_size or len(f) != p.support_size:
        raise DomainMismatch("h and f must cover the full support")
    if np.any((h < 0) | (h > 1)) or np.any((f < 0) | (f > 1)):
        raise DomainMismatch("h and f must take values in [0, 1]")
    diff = np.abs(h - f)
    err_p = float(np.sum(p.probs * diff))
    err_q = float(np.sum(q.probs * diff))
    gap = abs(err_p - err_q)
    tv = total_variation_discrete(p, q)
    return ShiftBoundResult(err_p, err_q, gap, tv, gap <= tv + 1e-12)


def tv_equality_witness(p: DiscreteDistribution,
                        q: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The (h, f) pair attaining |err_p - err_q| = d(p, q).

    h = indicator of {i : p_i > q_i}, f = 0: the error gap becomes
    sum over {p > q} of (p_i - q_i), which is exactly the TV distance.
    """
    if p.support_size != q.support_size:
        raise SupportMismatch(f"{p.support_size} vs {q.support_size}")
    h = (p.probs > q.probs).astype(float)
    return h, np.zeros_like(h)


@dataclass(frozen=True)
class ShiftClassification:
    label: str  # benign | malignant
    metric: MetricValue
    test: TestResult


def classify_shift(verdict: ShiftVerdict, point_check: Dataset, mpr: MprSpec,
                   alpha: float, seed: int = 0) -> ShiftClassification:
    """Classify a detected shift by point-checking the MPR on labeled data.

    Benign when the MPR test still demonstrates the requirement at the given
    alpha, malignant otherwise. The alpha is whatever the audit ledger's
    family allocates; this function does not do its own multiplicity
    accounting.
    """
    if verdict.aggregate != "shift":
        raise NoShiftToClassify("no detected shift to classify")
    metric, test = evaluate_mpr(point_check, mpr, alpha, seed=seed)
    label = "benign" if test.rejected else "malignant"
    return ShiftClassification(label, metric, test)
