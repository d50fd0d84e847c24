"""Shift detection, total-variation bound, and shift classification."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chi2

from statcert import drift
from statcert.core import MprSpec
from statcert.drift import (
    DiscreteDistribution,
    EncodedBatch,
    batch_from_dataset,
    chi2_two_sample,
    classify_shift,
    ks_two_sample,
    median_heuristic_bandwidth,
    mmd_permutation_test,
    multivariate_shift_test,
    shift_bound_check,
    total_variation_discrete,
    tv_equality_witness,
)
from statcert.errors import ValidationError
from statcert.sampling import splitmix64

from conftest import counts_to_rows, feature_dataset, labeled
from helpers import (
    binomial_interval_95,
    full_matrix_bandwidth,
    full_matrix_mmd_test,
    mmd_rejection_rate,
    random_tv_bound_violations,
    witness_equality_error,
)


def simplexes(size):
    return arrays(np.float64, size,
                  elements=st.floats(min_value=0.01, max_value=1.0)).map(
        lambda v: DiscreteDistribution(v / v.sum()))


class TestKsTwoSample:
    def test_identical_vectors(self):
        x = np.linspace(0.0, 1.0, 40)
        r = ks_two_sample(x, x.copy())
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_disjoint_supports(self, rng):
        x = rng.uniform(size=1000)
        r = ks_two_sample(x, x + 10.0)
        assert r.statistic == 1.0
        assert r.p_value < 1e-12
        assert r.rejected

    def test_small_sample_uses_permutation_mode(self, rng):
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        r = ks_two_sample(x, y, seed=3)
        assert r.params["mode"] == "permutation"

    def test_matches_exhaustive_permutation_oracle(self):
        # all C(20,10) equal-size splits of the pooled values, enumerated
        x = np.array([0.05, 0.11, 0.23, 0.31, 0.47, 0.52, 0.66, 0.74, 0.88, 0.97])
        y = np.array([0.28, 0.39, 0.44, 0.58, 0.61, 0.69, 0.77, 0.83, 0.91, 1.05])
        r = ks_two_sample(x, y, seed=17, n_perm=4000)

        pooled = np.sort(np.concatenate([x, y]))
        n = 10
        combos = np.array(list(itertools.combinations(range(2 * n), n)))
        member = np.zeros((len(combos), 2 * n))
        np.put_along_axis(member, combos, 1.0, axis=1)
        cum_x = np.cumsum(member, axis=1)
        ranks = np.arange(1, 2 * n + 1)[None, :]
        d_all = np.max(np.abs(cum_x / n - (ranks - cum_x) / n), axis=1)
        d_obs = np.max(np.abs(
            np.searchsorted(np.sort(x), pooled, side="right") / n
            - np.searchsorted(np.sort(y), pooled, side="right") / n))
        exact_p = float(np.mean(d_all >= d_obs - 1e-15))

        mc_tol = 4 * np.sqrt(exact_p * (1 - exact_p) / 4000) + 2 / 4001
        assert abs(r.p_value - exact_p) <= mc_tol

    def test_too_few_samples(self):
        with pytest.raises(ValidationError, match="KS needs >= 5 per sample"):
            ks_two_sample(np.zeros(4), np.zeros(10))


class TestChi2TwoSample:
    def test_identical_frequencies(self):
        x = np.repeat([0, 1, 2], 30)
        r = chi2_two_sample(x, x.copy())
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_maximal_heterogeneity(self):
        r = chi2_two_sample(np.zeros(100, dtype=int), np.ones(100, dtype=int))
        assert r.p_value < 1e-10
        assert r.rejected

    def test_three_category_hand_table(self):
        # x counts (30,10,10), y counts (10,20,20); expected (20,15,15) each
        x = np.repeat([0, 1, 2], [30, 10, 10])
        y = np.repeat([0, 1, 2], [10, 20, 20])
        r = chi2_two_sample(x, y)
        hand = 2 * (10 ** 2 / 20 + 5 ** 2 / 15 + 5 ** 2 / 15)
        assert r.statistic == pytest.approx(hand, abs=1e-12)
        assert r.params["dof"] == 2

    def test_rare_categories_merge_into_one_bucket(self):
        # categories 2-4 are each below the expected-count floor; pooled
        # together they clear it
        x = np.repeat([0, 1, 2, 3, 4], [40, 40, 4, 3, 3])
        y = np.repeat([0, 1, 2, 3, 4], [42, 38, 3, 4, 3])
        r = chi2_two_sample(x, y)
        assert r.params["categories"] == 3  # 0, 1, and the rare bucket

    def test_single_rare_category_still_degenerate(self):
        x = np.repeat([0, 1, 2], [50, 48, 2])
        y = np.repeat([0, 1, 2], [48, 49, 3])
        with pytest.raises(ValidationError, match="expected counts below 5"):
            chi2_two_sample(x, y)

    def test_degenerate_table(self):
        with pytest.raises(ValidationError, match="expected counts below 5"):
            chi2_two_sample(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_p_value_is_scipy_chi2_sf(self):
        # the p-value comes from special.chdtrc, which chi2.sf evaluates
        rng = np.random.default_rng(2026)
        p_values = []
        for _ in range(300):
            k = int(rng.integers(2, 9))
            px = rng.dirichlet(np.ones(k))
            py = px + rng.uniform(0.0, 2.0) * rng.dirichlet(np.ones(k))
            x = rng.choice(k, size=int(rng.integers(50, 400)), p=px)
            y = rng.choice(k, size=int(rng.integers(50, 400)), p=py / py.sum())
            try:
                r = chi2_two_sample(x, y)
            except ValidationError:
                continue
            expected = float(np.clip(chi2.sf(r.statistic, r.params["dof"]), 0.0, 1.0))
            assert r.p_value == expected
            p_values.append(r.p_value)
        assert len(p_values) >= 200
        assert min(p_values) < 1e-10 and max(p_values) > 0.5


class TestMmd:
    def test_identical_batches_no_shift(self, rng):
        x = rng.normal(size=(60, 3))
        r = mmd_permutation_test(x, x.copy(), seed=1)
        assert abs(r.statistic) < 0.05
        assert not r.rejected

    def test_clear_shift_detected(self, rng):
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=(100, 2)) + 3.0
        r = mmd_permutation_test(x, y, seed=2)
        assert r.rejected
        assert r.p_value == 1 / 1001

    def test_affine_invariance_with_median_heuristic(self, rng):
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=(50, 3)) + 0.4
        a = mmd_permutation_test(x, y, seed=5)
        scale, shift = 37.5, -4.0
        b = mmd_permutation_test(x * scale + shift, y * scale + shift, seed=5)
        assert b.statistic == pytest.approx(a.statistic, rel=1e-6, abs=1e-12)
        assert abs(b.p_value - a.p_value) <= 0.005

    def test_bandwidth_recorded_and_positive(self, rng):
        x = rng.normal(size=(30, 2))
        r = mmd_permutation_test(x, x + 1.0, seed=0)
        assert r.params["bandwidth"] > 0
        assert r.params["bandwidth"] == pytest.approx(
            median_heuristic_bandwidth(np.vstack([x, x + 1.0])))

    def test_unbiased_statistic_can_go_negative(self, rng):
        # U-statistic property; a biased estimator would stay positive
        stats = []
        for s in range(40):
            g = np.random.default_rng(s)
            stats.append(mmd_permutation_test(g.normal(size=(20, 2)),
                                              g.normal(size=(20, 2)),
                                              n_perm=50, seed=s).statistic)
        assert min(stats) < 0

    def test_too_few_rows(self):
        with pytest.raises(ValidationError, match="MMD needs >= 2 rows per batch"):
            mmd_permutation_test(np.zeros((1, 2)), np.zeros((5, 2)))

    def test_needs_a_permutation(self, rng):
        with pytest.raises(ValidationError, match="n_perm"):
            mmd_permutation_test(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)),
                                 n_perm=0)

    def test_non_finite_rows_rejected(self):
        x = np.zeros((5, 2))
        x[3, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            mmd_permutation_test(x, np.ones((5, 2)))

    def test_shift_detected_at_a_tiny_unit(self):
        # these features' squares underflow a double
        g = np.random.default_rng(31)
        x, y = g.normal(size=(50, 2)), g.normal(size=(50, 2)) + 2.0
        r = mmd_permutation_test(x * 1e-170, y * 1e-170, n_perm=200, seed=3)
        assert r.decision == "reject_H0"
        assert 1e-171 < r.params["bandwidth"] < 1e-169

    def test_no_spurious_shift_at_a_huge_unit(self):
        # these features' squares overflow a double
        g = np.random.default_rng(32)
        x, y = g.normal(size=(50, 2)), g.normal(size=(50, 2))
        r = mmd_permutation_test(x * 1e160, y * 1e160, n_perm=200, seed=4)
        assert r.decision == "fail_to_reject"
        assert np.isfinite(r.statistic)
        assert 1e159 < r.params["bandwidth"] < 1e161

    @pytest.mark.parametrize("power", [-600, -3, 5, 500])
    def test_power_of_two_unit_changes_only_the_bandwidth(self, power):
        g = np.random.default_rng(33)
        x, y = g.normal(size=(40, 3)), g.normal(size=(45, 3)) + 0.5
        a = mmd_permutation_test(x, y, n_perm=100, seed=5)
        b = mmd_permutation_test(np.ldexp(x, power), np.ldexp(y, power),
                                 n_perm=100, seed=5)
        assert (b.statistic, b.p_value, b.conf_bound) == (
            a.statistic, a.p_value, a.conf_bound)
        assert b.params["bandwidth"] == np.ldexp(a.params["bandwidth"], power)
        assert b.params["bandwidth"] == median_heuristic_bandwidth(np.vstack(
            [np.ldexp(x, power), np.ldexp(y, power)]))

    @pytest.mark.slow
    def test_null_calibration_five_dims(self):
        reps = 500
        rate = mmd_rejection_rate(reps=reps, n_per_batch=60, dim=5,
                                  shift=0.0, base_seed=111)
        lo, hi = binomial_interval_95(reps, 0.05)
        assert lo <= rate * reps <= hi

    @pytest.mark.slow
    def test_power_at_unit_shift(self):
        rate = mmd_rejection_rate(reps=200, n_per_batch=200, dim=2,
                                  shift=1.0, base_seed=222)
        assert rate >= 0.9


MEMORY_SLACK = 4 << 20  # bytes: a row block's products with the assignment, a few vectors


def mmd_peak(n, m, d, n_perm):
    """tracemalloc peak, in bytes, of one seeded MMD test on n + m normal rows."""
    g = np.random.default_rng(77)
    x, y = g.normal(size=(n, d)), g.normal(size=(m, d))
    tracemalloc.start()
    try:
        mmd_permutation_test(x, y, n_perm=n_perm, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assignment_and_one_block(total, n_perm):
    """What the kernel pass may hold, in bytes: the float64 assignment,
    one block of scratch and some slack."""
    return 8 * total * n_perm + 8 * drift._BLOCK_CELLS + MEMORY_SLACK


class TestBlockedMatchesFullMatrix:
    """The blocked kernel and the streaming median against the full-matrix
    implementation they replace (`helpers.full_matrix_*`)."""

    @pytest.mark.parametrize("total,d", [(2, 1), (3, 2), (4001, 8)])
    def test_bandwidth_exact(self, total, d):
        pooled = np.random.default_rng(total).normal(size=(total, d))
        assert median_heuristic_bandwidth(pooled) == full_matrix_bandwidth(pooled)

    @pytest.mark.parametrize("decimals", [0, 1, 2])
    def test_bandwidth_exact_on_ties(self, decimals):
        # rounded data: most of the pairs share a handful of distances
        pooled = np.round(np.random.default_rng(decimals).normal(size=(2500, 3)), decimals)
        assert median_heuristic_bandwidth(pooled) == full_matrix_bandwidth(pooled)

    @pytest.mark.parametrize("total", [2, 3, 1500])
    def test_all_equal_rows_give_unit_bandwidth(self, total):
        pooled = np.full((total, 4), 2.5)
        assert median_heuristic_bandwidth(pooled) == 1.0
        assert full_matrix_bandwidth(pooled) == 1.0

    @pytest.mark.parametrize("n,m,d,shift", [
        (2, 3, 1, 0.0), (3, 2, 2, 0.5), (7, 5, 3, 0.0), (20, 31, 1, 0.4),
        (60, 45, 4, 0.0), (150, 100, 8, 0.3), (301, 500, 2, 0.0), (512, 512, 3, 0.2),
        (777, 1000, 5, 0.1), (1500, 1201, 6, 0.0), (2500, 900, 7, 0.05),
    ])
    def test_permutation_test_matches(self, n, m, d, shift):
        g = np.random.default_rng(n * 1000 + m)
        x = g.normal(size=(n, d))
        y = g.normal(size=(m, d)) + shift
        n_perm = 200 if n + m > 1000 else 500
        got = mmd_permutation_test(x, y, n_perm=n_perm, seed=n + d)
        want = full_matrix_mmd_test(x, y, n_perm=n_perm, seed=n + d)
        assert got.p_value == want.p_value
        assert got.decision == want.decision
        assert got.params == want.params
        np.testing.assert_allclose(got.statistic, want.statistic, rtol=1e-9)
        np.testing.assert_allclose(got.conf_bound, want.conf_bound, rtol=1e-9)
        if (n + m) ** 2 <= drift._BLOCK_CELLS:
            assert got == want  # one block: the same floating-point operations

    def test_memory_below_half_a_kernel(self):
        # the full-matrix version peaks near 305 MiB here, two block buffers
        # at 28 MiB; now the bandwidth's two blocks, 17 MiB, are the peak
        assert mmd_peak(2000, 2000, 8, n_perm=200) < assignment_and_one_block(4000, 200)

    def test_memory_is_the_assignment_and_one_block(self):
        # 22.9 MiB of assignment and one 8 MiB block; two blocks peaked at 40.7 MiB
        assert mmd_peak(3000, 3000, 8, n_perm=500) < assignment_and_one_block(6000, 500)

    def test_bandwidth_memory_is_two_blocks(self):
        # two block buffers and a block of bracketed pairs peaked at 32 MiB
        pooled = np.random.default_rng(6).normal(size=(6000, 8))
        tracemalloc.start()
        try:
            median_heuristic_bandwidth(pooled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the scratch block and the block that collects the bracketed pairs
        assert peak < 2 * 8 * drift._BLOCK_CELLS + MEMORY_SLACK


class TestMultivariateShiftTest:
    def _batches(self, rng, shift=0.0, n=120, d=3):
        ref = EncodedBatch(rng.normal(size=(n, d)), "reference")
        prod_data = rng.normal(size=(n, d))
        prod_data[:, 0] += shift
        return ref, EncodedBatch(prod_data, "production")

    def test_same_rows_no_shift(self, rng):
        data = rng.normal(size=(80, 4))
        ref = EncodedBatch(data, "reference")
        prod = EncodedBatch(data.copy(), "production")
        v = multivariate_shift_test(ref, prod, seed=9)
        assert v.aggregate == "no_shift"
        assert abs(v.severity) < 0.05

    def test_univariate_bonferroni_level_and_aggregate(self, rng):
        ref, prod = self._batches(rng, shift=2.0)
        v = multivariate_shift_test(ref, prod, method="univariate_bonferroni")
        assert v.aggregate == "shift"
        assert v.details["per_dimension_alpha"] == pytest.approx(0.05 / 3)
        assert (any(t.rejected for t in v.per_feature)) == (
            v.aggregate == "shift")

    def test_categorical_dims_route_to_chi2(self, rng):
        n = 100
        ref = EncodedBatch(np.column_stack([
            rng.normal(size=n), rng.integers(0, 3, size=n)]), "reference")
        prod = EncodedBatch(np.column_stack([
            rng.normal(size=n), np.full(n, 2)]), "production")
        v = multivariate_shift_test(ref, prod, method="univariate_bonferroni",
                                    categorical_dims=(1,))
        assert v.per_feature[1].test_id == "chi2_two_sample"
        assert v.aggregate == "shift"

    def test_dimension_mismatch(self, rng):
        ref = EncodedBatch(rng.normal(size=(30, 2)), "reference")
        prod = EncodedBatch(rng.normal(size=(30, 3)), "production")
        with pytest.raises(ValidationError, match="reference d=2, production d=3"):
            multivariate_shift_test(ref, prod)

    def test_deterministic_given_seed(self, rng):
        ref, prod = self._batches(rng, shift=0.3)
        a = multivariate_shift_test(ref, prod, seed=44)
        b = multivariate_shift_test(ref, prod, seed=44)
        assert a.per_feature[0].p_value == b.per_feature[0].p_value

    @pytest.mark.slow
    def test_univariate_null_aggregate_rate_bonferroni_bounded(self):
        reps, d, n = 400, 3, 100
        hits = 0
        for r in range(reps):
            g = np.random.default_rng(splitmix64(333, r))
            ref = EncodedBatch(g.normal(size=(n, d)), "reference")
            prod = EncodedBatch(g.normal(size=(n, d)), "production")
            v = multivariate_shift_test(ref, prod,
                                        method="univariate_bonferroni")
            hits += int(v.aggregate == "shift")
        rate = hits / reps
        stderr = np.sqrt(0.05 * 0.95 / reps)
        assert rate <= 0.05 + 3 * stderr

    def test_batch_from_dataset_takes_feature_columns(self, rng):
        ds = feature_dataset(rng.normal(size=(15, 2)),
                             labels=rng.integers(0, 2, size=15))
        batch = batch_from_dataset(ds, "reference")
        assert batch.d == 2
        assert batch.n == 15
        assert batch.source == "reference"

    def test_encoded_batch_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            EncodedBatch(np.array([[1.0], [np.inf]]), "reference")


class TestTotalVariation:
    def test_identical(self):
        p = DiscreteDistribution(np.array([0.25, 0.75]))
        assert total_variation_discrete(p, p) == 0.0

    def test_disjoint(self):
        p = DiscreteDistribution(np.array([1.0, 0.0]))
        q = DiscreteDistribution(np.array([0.0, 1.0]))
        assert total_variation_discrete(p, q) == 1.0

    def test_hand_value(self):
        p = DiscreteDistribution(np.array([0.5, 0.3, 0.2]))
        q = DiscreteDistribution(np.array([0.2, 0.3, 0.5]))
        assert total_variation_discrete(p, q) == pytest.approx(0.3, abs=1e-15)

    def test_support_mismatch(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        q = DiscreteDistribution(np.array([0.4, 0.3, 0.3]))
        with pytest.raises(ValidationError, match="2 vs 3"):
            total_variation_discrete(p, q)

    @given(simplexes(4), simplexes(4))
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_range(self, p, q):
        d = total_variation_discrete(p, q)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(total_variation_discrete(q, p), abs=1e-15)

    @given(simplexes(5))
    @settings(max_examples=100, deadline=None)
    def test_identity_of_indiscernibles(self, p):
        assert total_variation_discrete(p, p) == 0.0

    @given(simplexes(4), simplexes(4), simplexes(4))
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        assert total_variation_discrete(p, r) <= (
            total_variation_discrete(p, q)
            + total_variation_discrete(q, r) + 1e-12)


class TestShiftBound:
    def test_equal_distributions_zero_gap(self):
        p = DiscreteDistribution(np.array([0.6, 0.4]))
        res = shift_bound_check(np.array([1.0, 0.0]), np.array([0.0, 0.0]),
                                p, p)
        assert res.gap == 0.0
        assert res.tv == 0.0
        assert res.holds

    def test_witness_attains_equality_on_three_points(self):
        assert witness_equality_error(n_tuples=300, support=3) <= 1e-12

    def test_thousand_random_tuples_hold(self):
        violations, slack = random_tv_bound_violations(1000, support=5)
        assert violations == 0
        assert slack <= 0.0 + 1e-12

    def test_h_outside_unit_interval_rejected(self):
        p = DiscreteDistribution(np.array([0.5, 0.5]))
        with pytest.raises(Exception):
            shift_bound_check(np.array([1.5, 0.0]), np.zeros(2), p, p)

    def test_witness_is_indicator_of_p_above_q(self):
        p = DiscreteDistribution(np.array([0.5, 0.3, 0.2]))
        q = DiscreteDistribution(np.array([0.2, 0.3, 0.5]))
        h, f = tv_equality_witness(p, q)
        np.testing.assert_array_equal(h, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(f, [0.0, 0.0, 0.0])


class TestClassifyShift:
    def _shift_verdict(self, rng):
        x = rng.normal(size=(60, 2))
        ref = EncodedBatch(x, "reference")
        prod = EncodedBatch(x + 5.0, "production")
        return multivariate_shift_test(ref, prod, seed=8)

    def test_benign_when_requirement_still_demonstrated(self, rng):
        verdict = self._shift_verdict(rng)
        labels, preds = counts_to_rows(200, 188)
        c = classify_shift(verdict, labeled(labels, preds),
                           MprSpec("accuracy", 0.9, "at_least"), alpha=0.05)
        assert c.label == "benign"

    def test_malignant_when_requirement_not_demonstrated(self, rng):
        verdict = self._shift_verdict(rng)
        labels, preds = counts_to_rows(100, 94)
        c = classify_shift(verdict, labeled(labels, preds),
                           MprSpec("accuracy", 0.9, "at_least"), alpha=0.05)
        assert c.label == "malignant"

    def test_no_shift_to_classify(self, rng):
        x = rng.normal(size=(60, 2))
        verdict = multivariate_shift_test(EncodedBatch(x, "reference"),
                                          EncodedBatch(x.copy(), "production"),
                                          seed=8)
        labels, preds = counts_to_rows(100, 94)
        with pytest.raises(ValidationError, match="no detected shift to classify"):
            classify_shift(verdict, labeled(labels, preds),
                           MprSpec("accuracy", 0.9, "at_least"), alpha=0.05)


def argpartition_assignment(keys, n):
    """The permutation assignment as argpartition and put_along_axis make it."""
    assign = np.zeros(keys.shape)
    np.put_along_axis(assign, np.argpartition(keys, n - 1, axis=0)[:n], 1.0, axis=0)
    return assign


class TestUpperTriangle:
    """The one-pass bandwidth with its exact fallback, the symmetric kernel
    pass and the threshold assignment, against `helpers.full_matrix_*` and
    argpartition."""

    @pytest.fixture
    def selections(self, monkeypatch):
        """The pair counts radix selection was called on: empty when the
        sampled bracket alone gave the median."""
        calls = []
        select = drift._select_pair_sq_distances

        def spy(pooled, norms, ranks, count, *rest):
            calls.append(count)
            return select(pooled, norms, ranks, count, *rest)

        monkeypatch.setattr(drift, "_select_pair_sq_distances", spy)
        return calls

    @pytest.mark.parametrize("d", [1, 3, 8, 17])
    @pytest.mark.parametrize("total", [1025, 2049, 4001])
    def test_bandwidth_exact_over_several_blocks(self, selections, total, d):
        pooled = np.random.default_rng(total * 100 + d).normal(size=(total, d))
        assert median_heuristic_bandwidth(pooled) == full_matrix_bandwidth(pooled)
        pairs = total * (total - 1) // 2
        # all pairs fit in one block only at 1025 rows; elsewhere one pass did it
        assert bool(selections) == (pairs <= drift._BLOCK_CELLS)

    def test_missed_bracket_falls_back(self, monkeypatch, selections):
        # a bracket no wider than the sample's spacing misses the median
        monkeypatch.setattr(drift, "_BRACKET_SE", 0.0)
        pooled = np.random.default_rng(31).normal(size=(2049, 4))
        pairs = 2049 * 2048 // 2
        norms = np.sum(pooled * pooled, axis=1)
        ranks = [(pairs - 1) // 2, pairs // 2]
        scratch = drift._scratch(drift._scratch_cells(2049, 4))
        assert drift._bracketed_pair_sq_distances(pooled, norms, ranks, pairs, scratch) is None
        assert median_heuristic_bandwidth(pooled) == full_matrix_bandwidth(pooled)
        assert selections

    def test_all_distances_equal_but_a_few_fall_back(self, selections):
        # unit vectors: every squared distance is 2 except the 1499 pairs of
        # the stretched first row, so the bracket [2, 2] holds past one block
        pooled = np.eye(1500)
        pooled[0, 0] = 2.0
        assert median_heuristic_bandwidth(pooled) == full_matrix_bandwidth(pooled)
        assert median_heuristic_bandwidth(pooled) == np.sqrt(2.0)
        assert selections

    def test_rounded_data_overflows_the_bracket(self, selections):
        # the median squared distance, 1, is shared by over a third of the pairs
        pooled = np.round(np.random.default_rng(0).normal(size=(3000, 1)), 0)
        assert median_heuristic_bandwidth(pooled) == full_matrix_bandwidth(pooled)
        assert selections

    @pytest.mark.parametrize("n,m,d,shift", [(600, 425, 3, 0.1), (1020, 5, 2, 0.0)])
    def test_permutation_test_just_past_one_block(self, n, m, d, shift):
        assert (n + m) ** 2 > drift._BLOCK_CELLS
        g = np.random.default_rng(n * 1000 + m)
        x = g.normal(size=(n, d))
        y = g.normal(size=(m, d)) + shift
        got = mmd_permutation_test(x, y, n_perm=300, seed=n + d)
        want = full_matrix_mmd_test(x, y, n_perm=300, seed=n + d)
        assert got.p_value == want.p_value
        assert got.decision == want.decision
        assert got.params == want.params
        np.testing.assert_allclose(got.statistic, want.statistic, rtol=1e-9)
        np.testing.assert_allclose(got.conf_bound, want.conf_bound, rtol=1e-9)

    @pytest.mark.parametrize("total,n,n_perm", [(5, 2, 1), (301, 150, 40), (3000, 1000, 800)])
    def test_threshold_assignment_is_argpartitions(self, total, n, n_perm):
        # 800 permutations of 3000 rows take three column blocks
        keys = np.random.default_rng(total).random((total, n_perm))
        want = argpartition_assignment(keys, n)
        scratch = drift._scratch(drift._scratch_cells(total, 1, n_perm))
        np.testing.assert_array_equal(drift._assignment(keys.copy(), n, scratch), want)

    def test_tied_threshold_falls_back_to_argpartition(self):
        keys = np.random.default_rng(8).integers(0, 4, size=(50, 7)).astype(float)
        n = 20
        threshold = np.sort(keys, axis=0)[n - 1]
        assert np.any(np.count_nonzero(keys <= threshold, axis=0) != n)  # a tie
        got = drift._assignment(keys.copy(), n, drift._scratch(drift._scratch_cells(50, 1, 7)))
        np.testing.assert_array_equal(got, argpartition_assignment(keys, n))
        assert np.all(got.sum(axis=0) == n)


def stale_scratch(cells):
    """Work memory that reads as NaN wherever it is read before it is written."""
    return np.full(cells, np.nan)


class TestScratch:
    """Every kernel pass writes its one block of scratch before it reads it,
    so memory left over from anything before cannot reach a result."""

    # one block, several blocks, and 2500 + 900 rows, whose last block has
    # fewer rows than one sum of norms
    SHAPES = [(150, 100, 8), (512, 512, 3), (1500, 1201, 6), (2500, 900, 7)]

    @pytest.mark.parametrize("n,m,d", SHAPES)
    def test_permutation_test_ignores_stale_scratch(self, monkeypatch, n, m, d):
        g = np.random.default_rng(n + m)
        x, y = g.normal(size=(n, d)), g.normal(size=(m, d)) + 0.1
        want = mmd_permutation_test(x, y, n_perm=200, seed=d)
        monkeypatch.setattr(drift, "_scratch", stale_scratch)
        assert mmd_permutation_test(x, y, n_perm=200, seed=d) == want

    @pytest.mark.parametrize("decimals", [None, 0])
    @pytest.mark.parametrize("n,m,d", SHAPES)
    def test_bandwidth_ignores_stale_scratch(self, monkeypatch, n, m, d, decimals):
        # rounded data sends the median to radix selection
        pooled = np.random.default_rng(n * m).normal(size=(n + m, d))
        if decimals is not None:
            pooled = np.round(pooled, decimals)
        want = median_heuristic_bandwidth(pooled)
        monkeypatch.setattr(drift, "_scratch", stale_scratch)
        assert median_heuristic_bandwidth(pooled) == want

    def test_tied_assignment_ignores_stale_scratch(self, monkeypatch):
        keys = np.random.default_rng(8).integers(0, 4, size=(50, 7)).astype(float)
        monkeypatch.setattr(drift, "_scratch", stale_scratch)
        got = drift._assignment(keys.copy(), 20, drift._scratch(drift._scratch_cells(50, 1, 7)))
        np.testing.assert_array_equal(got, argpartition_assignment(keys, 20))
