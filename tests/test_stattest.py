"""One-sided MPR tests: exact binomial, Clopper-Pearson, bootstrap."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statcert.core import MprSpec
from statcert.errors import (
    DegenerateThreshold,
    InvalidCount,
    InvalidResampleCount,
    TooFewSamples,
    ValidationError,
)
from statcert.stattest import (
    binomial_test_one_sided,
    bootstrap_test_one_sided,
    clopper_pearson_bound,
    evaluate_mpr,
    percentile_pvalue,
    rank_auroc,
)

from conftest import counts_to_rows, labeled


def binomial_tail_oracle(k, n, p0):
    """P(X >= k) by direct summation, independent of the beta identity."""
    return sum(math.comb(n, i) * p0 ** i * (1 - p0) ** (n - i)
               for i in range(k, n + 1))


class TestBinomial:
    def test_94_of_100_at_0_9(self):
        r = binomial_test_one_sided(94, 100, 0.9)
        assert r.p_value == pytest.approx(0.117, abs=1e-3)
        assert r.conf_bound == pytest.approx(0.885, abs=1e-3)
        assert r.decision == "fail_to_reject"

    def test_188_of_200_at_0_9(self):
        r = binomial_test_one_sided(188, 200, 0.9)
        assert r.p_value == pytest.approx(0.032, abs=1e-3)
        assert r.conf_bound == pytest.approx(0.904, abs=1e-3)
        assert r.decision == "reject_H0"

    def test_single_bernoulli(self):
        assert binomial_test_one_sided(1, 1, 0.5).p_value == 0.5

    def test_matches_direct_summation(self):
        r = binomial_test_one_sided(7, 10, 0.6)
        assert r.p_value == pytest.approx(binomial_tail_oracle(7, 10, 0.6),
                                          abs=1e-12)

    def test_at_most_direction(self):
        # P(X <= 2 | n=10, p0=0.6) by summation
        oracle = sum(math.comb(10, i) * 0.6 ** i * 0.4 ** (10 - i)
                     for i in range(0, 3))
        r = binomial_test_one_sided(2, 10, 0.6, direction="at_most")
        assert r.p_value == pytest.approx(oracle, abs=1e-12)

    def test_degenerate_thresholds_exact_semantics(self):
        assert binomial_test_one_sided(3, 10, 0.0).p_value == 0.0
        assert binomial_test_one_sided(0, 10, 0.0).p_value == 1.0
        assert binomial_test_one_sided(9, 10, 1.0).p_value == 1.0
        assert binomial_test_one_sided(10, 10, 1.0).p_value == 1.0

    def test_out_of_range_threshold(self):
        with pytest.raises(DegenerateThreshold):
            binomial_test_one_sided(5, 10, 1.5)

    def test_bad_counts(self):
        with pytest.raises(InvalidCount):
            binomial_test_one_sided(11, 10, 0.5)
        with pytest.raises(InvalidCount):
            binomial_test_one_sided(-1, 10, 0.5)
        with pytest.raises(InvalidCount):
            binomial_test_one_sided(0, 0, 0.5)

    def test_large_n_stays_finite_and_decisive(self):
        r = binomial_test_one_sided(49_500, 50_000, 0.9)
        assert 0.0 <= r.p_value < 1e-100
        assert r.decision == "reject_H0"
        assert 0.985 < r.conf_bound < 0.99

    def test_monotone_in_k_exhaustive(self):
        n, p0 = 60, 0.85
        ps = [binomial_test_one_sided(k, n, p0).p_value for k in range(n + 1)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    @given(st.integers(min_value=1, max_value=150), st.data(),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_pvalue_matches_summation_oracle(self, n, data, p0):
        k = data.draw(st.integers(min_value=0, max_value=n))
        r = binomial_test_one_sided(k, n, p0)
        assert r.p_value == pytest.approx(binomial_tail_oracle(k, n, p0),
                                          rel=1e-9, abs=1e-12)

    def test_conservative_under_exact_null(self):
        # level check: at p = p0 the exact test rejects at most alpha often
        n, p0, alpha = 50, 0.9, 0.05
        p_by_k = np.array([binomial_test_one_sided(k, n, p0).p_value
                           for k in range(n + 1)])
        draws = np.random.default_rng(7).binomial(n, p0, size=100_000)
        rate = float(np.mean(p_by_k[draws] <= alpha))
        assert rate <= alpha


class TestClopperPearson:
    def test_published_bounds(self):
        assert clopper_pearson_bound(94, 100, 0.05, "lower") == pytest.approx(
            0.885, abs=1e-3)
        assert clopper_pearson_bound(188, 200, 0.05, "lower") == pytest.approx(
            0.904, abs=1e-3)

    def test_zero_successes_lower_bound(self):
        assert clopper_pearson_bound(0, 37, 0.05, "lower") == 0.0

    def test_all_successes_upper_bound(self):
        assert clopper_pearson_bound(12, 12, 0.05, "upper") == 1.0

    def test_lower_bound_inverts_tail_probability(self):
        # the bound p* solves P(X >= k | p*) = alpha
        p_star = clopper_pearson_bound(94, 100, 0.05, "lower")
        assert binomial_tail_oracle(94, 100, p_star) == pytest.approx(
            0.05, abs=1e-10)

    def test_monotone_in_k(self):
        n = 40
        lows = [clopper_pearson_bound(k, n, 0.05, "lower") for k in range(n + 1)]
        ups = [clopper_pearson_bound(k, n, 0.05, "upper") for k in range(n + 1)]
        assert all(a <= b for a, b in zip(lows, lows[1:]))
        assert all(a <= b for a, b in zip(ups, ups[1:]))

    @pytest.mark.slow
    @pytest.mark.parametrize("p0", [0.5, 0.9, 0.95])
    def test_duality_with_binomial_exhaustive(self, p0):
        # reject at alpha <=> lower confidence bound clears the threshold
        alpha = 0.05
        for n in range(1, 201):
            for k in range(n + 1):
                r = binomial_test_one_sided(k, n, p0, alpha=alpha)
                assert (r.p_value <= alpha) == (r.conf_bound >= p0), (k, n, p0)


class TestBootstrap:
    def test_constant_losses_entirely_on_h1_side(self):
        values = np.full(25, 0.4)
        r = bootstrap_test_one_sided(values, 0.5, "at_most", b_resamples=1000)
        assert r.p_value == 1 / 1001
        assert r.decision == "reject_H0"

    def test_symmetric_values_centered_on_threshold(self):
        # distinct magnitudes avoid tie mass at the threshold itself
        deltas = np.arange(1, 26) * 0.01
        values = np.concatenate([0.5 + deltas, 0.5 - deltas])
        ps = [bootstrap_test_one_sided(values, 0.5, "at_most", 2000,
                                       seed=s).p_value for s in range(200)]
        assert abs(np.mean(ps) - 0.5) <= 0.05

    def test_against_independent_resampling_oracle(self):
        # stdlib-RNG oracle replicating the percentile p from scratch
        values = np.tile([0.0, 0.0, 1.0], 10)
        r = bootstrap_test_one_sided(values, 1.0, "at_most",
                                     b_resamples=2000, seed=3)
        py_rng = random.Random(12345)
        b = 5000
        hits = 0
        for _ in range(b):
            mean = sum(py_rng.choice(values) for _ in range(len(values))) / len(values)
            if mean >= 1.0:
                hits += 1
        oracle_p = (hits + 1) / (b + 1)
        assert r.rejected == (oracle_p <= 0.05)
        assert abs(r.p_value - oracle_p) <= 0.02

    def test_permutation_invariant(self, rng):
        values = rng.exponential(size=40)
        a = bootstrap_test_one_sided(values, 1.0, "at_most", seed=9)
        b = bootstrap_test_one_sided(rng.permutation(values), 1.0, "at_most",
                                     seed=9)
        assert a.p_value == b.p_value
        assert a.conf_bound == b.conf_bound

    def test_floors_enforced(self):
        with pytest.raises(TooFewSamples):
            bootstrap_test_one_sided(np.zeros(19), 0.5, "at_most")
        with pytest.raises(InvalidResampleCount):
            bootstrap_test_one_sided(np.zeros(20), 0.5, "at_most",
                                     b_resamples=999)

    def test_percentile_pvalue_counts_h0_side(self):
        samples = np.array([0.1, 0.2, 0.3, 0.9])
        assert percentile_pvalue(samples, 0.5, "at_most") == 2 / 5
        assert percentile_pvalue(samples, 0.5, "at_least") == 4 / 5
        with pytest.raises(ValidationError):
            percentile_pvalue(samples, 0.5, "two_sided")


class TestResultInvariants:
    @given(st.integers(min_value=1, max_value=200), st.data(),
           st.floats(min_value=0.01, max_value=0.2))
    @settings(max_examples=60, deadline=None)
    def test_decision_matches_pvalue_alpha(self, n, data, alpha):
        k = data.draw(st.integers(min_value=0, max_value=n))
        r = binomial_test_one_sided(k, n, 0.9, alpha=alpha)
        assert (r.decision == "reject_H0") == (r.p_value <= alpha)
        assert 0.0 <= r.p_value <= 1.0


class TestEvaluateMpr:
    def test_94_dataset_fails_to_demonstrate(self):
        labels, preds = counts_to_rows(100, 94)
        mpr = MprSpec("accuracy", 0.9, "at_least")
        metric, result = evaluate_mpr(labeled(labels, preds), mpr, 0.05)
        assert metric.value == 0.94
        assert result.decision == "fail_to_reject"

    def test_188_dataset_demonstrates(self):
        labels, preds = counts_to_rows(200, 188)
        mpr = MprSpec("accuracy", 0.9, "at_least")
        _, result = evaluate_mpr(labeled(labels, preds), mpr, 0.05)
        assert result.decision == "reject_H0"

    def test_vacuous_threshold_rejects_with_p_zero(self):
        labels, preds = counts_to_rows(10, 7)
        mpr = MprSpec("accuracy", 0.0, "at_least")
        _, result = evaluate_mpr(labeled(labels, preds), mpr, 0.05)
        assert result.p_value == 0.0
        assert result.rejected

    def test_proportion_metric_refuses_bootstrap(self):
        labels, preds = counts_to_rows(30, 25)
        mpr = MprSpec("accuracy", 0.9, "at_least", test_kind="bootstrap")
        with pytest.raises(ValidationError):
            evaluate_mpr(labeled(labels, preds), mpr, 0.05)

    def test_mse_mpr_routes_to_bootstrap(self, rng):
        y = rng.normal(size=40)
        ds = labeled(y, y + rng.normal(scale=0.1, size=40))
        mpr = MprSpec("mse", 1.0, "at_most", test_kind="bootstrap")
        _, result = evaluate_mpr(ds, mpr, 0.05, seed=4)
        assert result.test_id == "bootstrap_percentile"
        assert result.rejected

    def test_rmse_tested_on_squared_scale_same_decision(self, rng):
        y = rng.normal(size=40)
        ds = labeled(y, y + rng.normal(scale=0.1, size=40))
        rmse_mpr = MprSpec("rmse", 1.0, "at_most", test_kind="bootstrap")
        mse_mpr = MprSpec("mse", 1.0, "at_most", test_kind="bootstrap")
        _, r_rmse = evaluate_mpr(ds, rmse_mpr, 0.05, seed=4)
        _, r_mse = evaluate_mpr(ds, mse_mpr, 0.05, seed=4)
        assert r_rmse.decision == r_mse.decision
        assert r_rmse.p_value == r_mse.p_value


class TestRankAuroc:
    def test_perfect_separation(self):
        assert rank_auroc(np.array([1.0, 2.0, 3.0, 4.0]),
                          np.array([False, False, True, True])) == 1.0

    def test_ties_average(self):
        assert rank_auroc(np.array([1.0, 1.0]),
                          np.array([True, False])) == 0.5

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=100)
        flags = rng.uniform(size=100) < 0.4
        a = rank_auroc(scores, flags)
        b = rank_auroc(np.exp(scores * 2.0), flags)
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            rank_auroc(np.array([1.0, 2.0]), np.array([True, True]))

    def test_equals_scipy_rankdata_path_on_ties(self):
        from scipy.stats import rankdata

        def scipy_auroc(scores, positive):
            n_pos = int(np.sum(positive))
            n_neg = len(positive) - n_pos
            u = float(np.sum(rankdata(scores)[positive])) - n_pos * (n_pos + 1) / 2.0
            return u / (n_pos * n_neg)

        rng = np.random.default_rng(424242)
        for _ in range(300):
            n = int(rng.integers(2, 400))
            # few distinct values, so most scores sit in long tie runs
            levels = rng.normal(size=int(rng.integers(1, 12))) * 10.0 ** rng.integers(-3, 4)
            scores = rng.choice(np.r_[levels, -0.0, 0.0, np.inf, -np.inf], size=n)
            flags = rng.uniform(size=n) < rng.uniform(0.05, 0.95)
            flags[:2] = [True, False]
            assert rank_auroc(scores, flags) == scipy_auroc(scores, flags)
        scores = np.array([0.3, np.nan, 0.1])
        flags = np.array([True, False, True])
        assert math.isnan(rank_auroc(scores, flags))
        assert math.isnan(scipy_auroc(scores, flags))
