"""Sampling strategies over a population dataset and design-aware
performance estimation with standard survey-sampling variance formulas.

Draws are without replacement (part-inspection framing); a with_replacement
flag exists for bootstrap reuse. Everything is pure given (population,
design, seed), so replications parallelize with seeds derived through
splitmix64 below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .core import Dataset, compute_metric
from .errors import ValidationError

_MASK64 = (1 << 64) - 1


def mix64(z):
    """The splitmix64 output function of `z`, a Python int in [0, 2**64) or
    a uint64 array (whose products wrap modulo 2**64, as the mask does)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64(seed: int, index: int) -> int:
    """Derive the index-th child seed from a 64-bit base seed.

    This is the splitmix64 output function applied to seed + (index+1) jumps
    of the golden-gamma increment; children are independent streams for all
    practical purposes and the derivation is platform-stable.
    """
    return mix64((seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64)


STRATEGIES = ("simple_random", "stratified", "cluster", "multistage")


@dataclass(frozen=True)
class SamplingDesign:
    """Declarative description of how test data is drawn from the domain."""

    strategy: str
    seed: int
    strata_key: str | None = None
    cluster_key: str | None = None
    allocation: str | Mapping[str, int] = "proportional"
    with_replacement: bool = False
    n_clusters: int | None = None  # first-stage draw size for multistage
    population_size: int | None = None  # enables finite-population correction
    population_stratum_sizes: Mapping[str, int] | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "stratified" and self.strata_key is None:
            raise ValidationError("stratified design needs strata_key")
        if self.strategy in ("cluster", "multistage") and self.cluster_key is None:
            raise ValidationError(f"{self.strategy} design needs cluster_key")


@dataclass(frozen=True)
class DesignEstimate:
    estimate: float
    std_error: float
    per_stratum: tuple[tuple[str, float, int], ...] | None = None

    def __post_init__(self):
        if not np.isfinite(self.std_error) or self.std_error < 0:
            raise ValidationError("std_error must be finite and non-negative")


def largest_remainder(quotas: Sequence[float], total: int) -> list[int]:
    """Round fractional allocations to integers summing to total.

    Floors first, then hands the remaining units to the largest fractional
    parts; ties resolve in input order, so the result is deterministic.
    """
    base = [int(np.floor(q)) for q in quotas]
    remainder = total - sum(base)
    fracs = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in fracs[:remainder]:
        base[i] += 1
    return base


def draw_sample(population: Dataset, design: SamplingDesign, n: int) -> Dataset:
    """Draw n rows according to the design. Deterministic given design.seed."""
    if n > population.n_rows:
        raise ValidationError(f"requested {n} of {population.n_rows} rows")
    rng = np.random.default_rng(design.seed)

    if design.strategy == "simple_random":
        idx = rng.choice(population.n_rows, size=n, replace=design.with_replacement)
        return population.subset(idx)

    if design.strategy == "stratified":
        values = population.column(design.strata_key)
        strata = [str(v) for v in np.unique(values)]
        members = {s: np.flatnonzero(values.astype(str) == s) for s in strata}
        counts = _allocate(design, strata, members, n)
        picked = []
        for s in strata:
            take = counts[s]
            pool = members[s]
            if take > len(pool) and not design.with_replacement:
                raise ValidationError(f"stratum {s!r}: {take} > {len(pool)}")
            picked.append(rng.choice(pool, size=take, replace=design.with_replacement))
        return population.subset(np.concatenate(picked))

    values = population.column(design.cluster_key)
    cluster_ids = [str(v) for v in np.unique(values)]
    members = {c: np.flatnonzero(values.astype(str) == c) for c in cluster_ids}

    if design.strategy == "cluster":
        # whole clusters accumulate until the target is covered
        order = rng.permutation(len(cluster_ids))
        picked, total = [], 0
        for j in order:
            picked.append(members[cluster_ids[j]])
            total += len(members[cluster_ids[j]])
            if total >= n:
                break
        if total < n:
            raise ValidationError("clusters exhausted before reaching n")
        return population.subset(np.concatenate(picked))

    # multistage: stage one draws clusters, stage two simple-random within each
    m = design.n_clusters or max(2, int(np.ceil(np.sqrt(len(cluster_ids)))))
    if m > len(cluster_ids):
        raise ValidationError(f"{m} clusters requested, {len(cluster_ids)} exist")
    chosen = rng.choice(len(cluster_ids), size=m, replace=False)
    chosen_ids = [cluster_ids[j] for j in chosen]
    per = largest_remainder([n / m] * m, n)
    picked = []
    for cid, take in zip(chosen_ids, per):
        pool = members[cid]
        if take > len(pool):
            raise ValidationError(f"cluster {cid!r}: {take} > {len(pool)}")
        picked.append(rng.choice(pool, size=take, replace=False))
    return population.subset(np.concatenate(picked))


def _allocate(design: SamplingDesign, strata: list[str],
              members: Mapping[str, np.ndarray], n: int) -> dict[str, int]:
    if isinstance(design.allocation, Mapping):
        counts = {str(k): int(v) for k, v in design.allocation.items()}
        if set(counts) != set(strata):
            raise ValidationError("explicit allocation must name every stratum")
        if sum(counts.values()) != n:
            raise ValidationError("explicit allocation does not sum to n")
        return counts
    if design.allocation == "equal":
        alloc = largest_remainder([n / len(strata)] * len(strata), n)
    elif design.allocation == "proportional":
        total = sum(len(members[s]) for s in strata)
        alloc = largest_remainder([n * len(members[s]) / total for s in strata], n)
    else:
        raise ValidationError(f"unknown allocation {design.allocation!r}")
    return dict(zip(strata, alloc))


def _fpc(n: int, pop: int | None) -> float:
    # finite-population correction once the sampling fraction passes 5%
    if pop is None or pop <= 1 or n / pop <= 0.05:
        return 1.0
    return float(np.sqrt((pop - n) / (pop - 1)))


def _loss_variance(losses: np.ndarray) -> float:
    if losses is None or len(losses) < 2:
        return 0.0
    return float(np.var(losses, ddof=1))


def estimate_with_design(sample: Dataset, design: SamplingDesign, metric_id: str,
                         population_strata_weights: Mapping[str, float] | None = None,
                         ) -> DesignEstimate:
    """Design-based metric estimate with its standard error.

    Stratified: estimate = sum_s W_s * metric_s with std error
    sqrt(sum_s W_s^2 * v_s / n_s); the weights come from the population
    (required for non-proportional allocation, sample fractions otherwise).
    Cluster and multistage use the between-cluster variance of per-cluster
    metric values, which assumes roughly equal cluster sizes.
    """
    if design.strategy == "stratified":
        values = sample.column(design.strata_key).astype(str)
        strata = [str(v) for v in np.unique(values)]
        if population_strata_weights is not None:
            weights = {str(k): float(v) for k, v in population_strata_weights.items()}
            for s, w in weights.items():
                if w > 0 and s not in strata:
                    raise ValidationError(f"weighted stratum {s!r} absent from sample")
        elif design.allocation == "proportional":
            weights = {s: float(np.sum(values == s)) / sample.n_rows for s in strata}
        else:
            raise ValidationError("non-proportional design needs population weights")
        est = 0.0
        var = 0.0
        per = []
        for s in strata:
            w = weights.get(s, 0.0)
            idx = np.flatnonzero(values == s)
            part = sample.subset(idx)
            mv = compute_metric(part, metric_id)
            n_s = part.n_rows
            v_s = _loss_variance(mv.per_sample_losses)
            pop_s = (design.population_stratum_sizes or {}).get(s)
            fpc = _fpc(n_s, pop_s)
            est += w * mv.value
            var += (w ** 2) * (v_s / n_s) * (fpc ** 2)
            per.append((s, mv.value, n_s))
        return DesignEstimate(est, float(np.sqrt(var)), tuple(per))

    if design.strategy in ("cluster", "multistage"):
        values = sample.column(design.cluster_key).astype(str)
        clusters = [str(v) for v in np.unique(values)]
        mv = compute_metric(sample, metric_id)
        if len(clusters) >= 2:
            cluster_vals = []
            for c in clusters:
                part = sample.subset(np.flatnonzero(values == c))
                cluster_vals.append(compute_metric(part, metric_id).value)
            se = float(np.std(cluster_vals, ddof=1) / np.sqrt(len(clusters)))
        else:
            se = 0.0
        return DesignEstimate(mv.value, se,
                              tuple((c, v, int(np.sum(values == c)))
                                    for c, v in zip(clusters, cluster_vals))
                              if len(clusters) >= 2 else None)

    mv = compute_metric(sample, metric_id)
    v = _loss_variance(mv.per_sample_losses)
    se = float(np.sqrt(v / sample.n_rows)) * _fpc(sample.n_rows, design.population_size)
    return DesignEstimate(mv.value, se)


def solve_stratum_metric(target: float | str, weights: Mapping[str, float | str],
                         known: Mapping[str, float | str], unknown: str) -> Fraction:
    """Solve a stratified design equation for one unknown stratum metric.

    target = sum_s W_s * metric_s with every metric but `unknown` known.
    Inputs are read as decimal literals and solved in exact rational
    arithmetic, since requirement thresholds are human-entered decimals and
    float algebra would land an ulp off (e.g. (0.8 - 0.5)/0.5 != 0.6).
    """
    def frac(x) -> Fraction:
        return Fraction(str(x))

    if unknown not in weights:
        raise ValidationError(f"unknown stratum {unknown!r} has no weight")
    w_u = frac(weights[unknown])
    if w_u == 0:
        raise ValidationError("unknown stratum has zero weight")
    acc = frac(target)
    for s, w in weights.items():
        if s == unknown:
            continue
        if s not in known:
            raise ValidationError(f"stratum {s!r} metric not supplied")
        acc -= frac(w) * frac(known[s])
    return acc / w_u
