"""Monte Carlo and brute-force oracles shared by module and acceptance tests."""

import math

import numpy as np

from statcert.core import sha256_hex
from statcert.drift import (
    DiscreteDistribution,
    mmd_permutation_test,
    shift_bound_check,
    total_variation_discrete,
    tv_equality_witness,
)
from statcert.sampling import splitmix64
from statcert.leakage import LeakageReport
from statcert.stattest import TestResult


def mmd_rejection_rate(reps, n_per_batch, dim, shift, alpha=0.05,
                       n_perm=500, base_seed=909090):
    """Fraction of repetitions where the MMD test rejects.

    Each repetition draws fresh reference/production Gaussians; `shift`
    displaces the first coordinate of the production batch.
    """
    rejections = 0
    for r in range(reps):
        rng = np.random.default_rng(splitmix64(base_seed, r))
        x = rng.normal(size=(n_per_batch, dim))
        y = rng.normal(size=(n_per_batch, dim))
        y[:, 0] += shift
        result = mmd_permutation_test(x, y, n_perm=n_perm,
                                      seed=splitmix64(base_seed, 10_000 + r),
                                      alpha=alpha)
        rejections += int(result.rejected)
    return rejections / reps


def _full_sq_distances(a, b):
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def full_matrix_bandwidth(pooled):
    """Median heuristic over the whole (N x N) distance matrix at once:
    the reference the blocked selection in `drift` must match exactly."""
    sq = _full_sq_distances(pooled, pooled)
    off = sq[np.triu_indices_from(sq, k=1)]
    if len(off) == 0:
        return 1.0
    med = float(np.sqrt(np.median(off)))
    return med if med > 0 else 1.0


def full_matrix_mmd_test(x, y, n_perm=1000, seed=0, alpha=0.05, bandwidth=None):
    """MMD permutation test holding the whole (n+m)^2 kernel: the reference
    for the blocked `mmd_permutation_test` (same RNG stream and assignment)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, m = len(x), len(y)
    pooled = np.vstack([x, y])
    total = n + m
    h = bandwidth if bandwidth is not None else full_matrix_bandwidth(pooled)
    kernel = np.exp(-_full_sq_distances(pooled, pooled) / (2.0 * h * h))

    ksum = float(kernel.sum())
    colsum = kernel.sum(axis=0)

    def stat_from(v_kv, s_v):
        sxx = v_kv - n
        syy = ksum - 2.0 * s_v + v_kv - m
        sxy = s_v - v_kv
        return sxx / (n * (n - 1)) + syy / (m * (m - 1)) - 2.0 * sxy / (n * m)

    v = np.zeros(total)
    v[:n] = 1.0
    observed = float(stat_from(np.array([v @ kernel @ v]), np.array([colsum @ v]))[0])

    rng = np.random.default_rng(seed)
    keys = rng.random((total, n_perm))
    take = np.argpartition(keys, n - 1, axis=0)[:n]
    assign = np.zeros((total, n_perm))
    np.put_along_axis(assign, take, 1.0, axis=0)
    q = kernel @ assign
    null_stats = stat_from(np.einsum("ij,ij->j", assign, q), colsum @ assign)

    r = int(np.sum(null_stats >= observed))
    p_value = (r + 1) / (n_perm + 1)
    return TestResult(
        test_id="mmd_permutation",
        statistic=observed,
        p_value=p_value,
        conf_bound=float(np.quantile(null_stats, 1.0 - alpha)),
        alpha_used=alpha,
        n=total,
        params={"bandwidth": h, "n_perm": n_perm, "seed": seed, "n_x": n, "n_y": m},
    )


def binomial_interval_95(n, p):
    """Central 95% range of Binomial(n, p) successes, by direct summation.

    Log-space pmf so large n never overflows."""
    log_pmf = np.array([
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(n + 1)])
    cdf = np.cumsum(np.exp(log_pmf))
    lo = int(np.searchsorted(cdf, 0.025))
    hi = int(np.searchsorted(cdf, 0.975))
    return lo, hi


def random_tv_bound_violations(n_tuples, support, seed=515151):
    """Count violations of the error-gap bound on random (h, f, p, q)."""
    rng = np.random.default_rng(seed)
    violations = 0
    max_slack = -np.inf
    for _ in range(n_tuples):
        p = DiscreteDistribution(rng.dirichlet(np.ones(support)))
        q = DiscreteDistribution(rng.dirichlet(np.ones(support)))
        h = rng.uniform(size=support)
        f = rng.uniform(size=support)
        res = shift_bound_check(h, f, p, q)
        if not res.holds:
            violations += 1
        max_slack = max(max_slack, res.gap - res.tv)
    return violations, max_slack


def random_ensemble(rng, max_k=32, max_c=10):
    """Random ensemble: K in [1, max_k], C in [2, max_c], Dirichlet rows."""
    from statcert.uncertainty import EnsemblePrediction

    k = int(rng.integers(1, max_k + 1))
    c = int(rng.integers(2, max_c + 1))
    rows = rng.dirichlet(np.full(c, 0.5), size=k)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return EnsemblePrediction(rows)


def max_additivity_error(n_ensembles, seed=737373):
    """Worst |total - (aleatoric + epistemic)| over random ensembles."""
    from statcert.uncertainty import decompose

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_ensembles):
        d = decompose(random_ensemble(rng))
        worst = max(worst, abs(d.total - (d.aleatoric + d.epistemic)))
    return worst


def witness_equality_error(n_tuples, support, seed=626262):
    """Largest |gap - tv| over random (p, q) with the derived witness."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_tuples):
        p = DiscreteDistribution(rng.dirichlet(np.ones(support)))
        q = DiscreteDistribution(rng.dirichlet(np.ones(support)))
        h, f = tv_equality_witness(p, q)
        res = shift_bound_check(h, f, p, q)
        tv = total_variation_discrete(p, q)
        worst = max(worst, abs(res.gap - tv))
    return worst


def string_cell(value) -> str:
    """A cell's canonical string: 12 significant digits for floats, str()
    for anything else. Two cells are the same data exactly when these are
    equal; `core.canonical_cells` must agree."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def string_duplicate_check(train, test, key="exact_features"):
    """Duplicate screen over joined cell strings in Python dicts: the
    reference for the sorted-row `leakage.duplicate_check` (same
    evidence, same order)."""
    names = train.schema.names_for("feature")

    def rows(ds):
        columns = [ds.column(n) for n in names]
        out = []
        for i in range(ds.n_rows):
            canon = "\x1f".join(string_cell(col[i]) for col in columns)
            out.append(sha256_hex(canon) if key == "feature_hash" else canon)
        return out

    train_rows, test_rows = rows(train), rows(test)
    train_index = {}
    for i, canon in enumerate(train_rows):
        train_index.setdefault(canon, []).append(i)
    evidence = [{"test_row": i, "train_rows": list(train_index[canon])}
                for i, canon in enumerate(test_rows) if canon in train_index]
    cross = len(evidence)
    for tag, split_rows in (("train", train_rows), ("test", test_rows)):
        seen = {}
        for i, canon in enumerate(split_rows):
            seen.setdefault(canon, []).append(i)
        evidence.extend({"set": tag, "rows": idxs}
                        for idxs in seen.values() if len(idxs) > 1)
    if cross:
        severity, description = "violation", f"{cross} test row(s) duplicated in train"
    elif evidence:
        severity, description = "warning", "repeated rows within a split"
    else:
        severity, description = "clean", "no duplicate feature rows"
    return LeakageReport("duplicate", severity, tuple(evidence), description)
