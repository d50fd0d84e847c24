"""Group fairness metrics, Pareto front, and the bootstrap fairness gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statcert.errors import ValidationError
from statcert.fairness import (
    GroupedOutcomes,
    ModelPoint,
    equalized_odds_diff,
    fairness_mpr_check,
    fairness_violation,
    pareto_front,
    statistical_parity_diff,
)

from conftest import grouped


def cube(c000, c001, c010, c011, c100, c101, c110, c111):
    """counts[a, y, yhat] from flat arguments in lexicographic order."""
    return GroupedOutcomes(np.array(
        [[[c000, c001], [c010, c011]],
         [[c100, c101], [c110, c111]]], dtype=np.int64))


def parity_cube(pos1, n1, pos0, n0):
    """Cube with given positive-prediction counts per group, labels all 0."""
    return cube(n0 - pos0, pos0, 0, 0, n1 - pos1, pos1, 0, 0)


class TestStatisticalParity:
    def test_equal_rates_zero(self):
        assert statistical_parity_diff(parity_cube(50, 100, 50, 100)) == 0.0

    def test_eighty_vs_forty_percent(self):
        assert statistical_parity_diff(parity_cube(80, 100, 40, 100)) == \
            pytest.approx(0.4, abs=1e-15)

    def test_all_negative_predictions_zero(self):
        assert statistical_parity_diff(parity_cube(0, 60, 0, 40)) == 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError, match="group a=0 has no samples"):
            statistical_parity_diff(parity_cube(10, 20, 0, 0))

    def test_sign_flips_under_group_swap(self, rng):
        counts = rng.integers(1, 30, size=8)
        c = cube(*counts)
        swapped = GroupedOutcomes(c.counts[::-1].copy())
        assert statistical_parity_diff(swapped) == pytest.approx(
            -statistical_parity_diff(c), abs=1e-15)


class TestEqualizedOdds:
    def test_identical_tables_zero(self):
        c = cube(30, 10, 5, 25, 30, 10, 5, 25)
        assert equalized_odds_diff(c, "opportunity") == 0.0
        assert equalized_odds_diff(c, "odds") == 0.0

    def test_opportunity_hand_tprs(self):
        # TPR a=1: 27/30 = 0.9; TPR a=0: 18/30 = 0.6
        c = cube(20, 0, 12, 18, 20, 0, 3, 27)
        assert equalized_odds_diff(c, "opportunity") == pytest.approx(
            0.3, abs=1e-15)

    def test_odds_takes_worst_gap(self):
        # y=1 gap 0.3 (0.9 vs 0.6); y=0 gap 0.1 (FPR 0.2 vs 0.1)
        c = cube(18, 2, 12, 18, 16, 4, 3, 27)
        assert equalized_odds_diff(c, "odds") == pytest.approx(0.3, abs=1e-15)
        assert equalized_odds_diff(c, "opportunity") == pytest.approx(
            0.3, abs=1e-15)

    def test_empty_cell_rejected(self):
        c = cube(20, 5, 0, 0, 10, 5, 10, 5)
        with pytest.raises(ValidationError, match=r"cell \(a=0, y=1\) has no samples"):
            equalized_odds_diff(c, "opportunity")

    def test_absolute_metrics_invariant_under_group_swap(self, rng):
        counts = rng.integers(1, 30, size=8)
        c = cube(*counts)
        swapped = GroupedOutcomes(c.counts[::-1].copy())
        for mode in ("opportunity", "odds"):
            assert equalized_odds_diff(swapped, mode) == pytest.approx(
                equalized_odds_diff(c, mode), abs=1e-15)

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            equalized_odds_diff(cube(1, 1, 1, 1, 1, 1, 1, 1), "parity")


class TestCubeFromRawSamples:
    def test_cube_metrics_equal_raw_sample_metrics(self, rng):
        n = 400
        a = rng.integers(0, 2, size=n)
        y = rng.integers(0, 2, size=n)
        yhat = rng.integers(0, 2, size=n)
        c = GroupedOutcomes.from_dataset(grouped(a, y, yhat))

        def raw_rate(mask_group, mask_cond):
            sel = mask_cond & mask_group
            return yhat[sel].mean()

        raw_parity = raw_rate(a == 1, np.ones(n, bool)) - raw_rate(
            a == 0, np.ones(n, bool))
        assert statistical_parity_diff(c) == pytest.approx(raw_parity,
                                                           abs=1e-12)
        raw_tpr_gap = abs(raw_rate(a == 1, y == 1) - raw_rate(a == 0, y == 1))
        assert equalized_odds_diff(c, "opportunity") == pytest.approx(
            raw_tpr_gap, abs=1e-12)

    def test_non_binary_group_rejected(self):
        ds = grouped([0, 1, 2], [0, 1, 0], [0, 1, 0])
        with pytest.raises(ValidationError):
            GroupedOutcomes.from_dataset(ds)


def oracle_front(points):
    """Exhaustive O(n^2) dominance check."""
    out = []
    for p in points:
        dominated = any(
            (q.performance >= p.performance
             and q.fairness_violation <= p.fairness_violation
             and (q.performance > p.performance
                  or q.fairness_violation < p.fairness_violation))
            for q in points)
        if not dominated:
            out.append(p)
    return sorted(out, key=lambda p: (p.performance, p.fairness_violation,
                                      p.model_id))


class TestParetoFront:
    def test_single_point(self):
        p = ModelPoint("m", 0.9, 0.2)
        assert pareto_front([p]) == [p]

    def test_three_point_example(self):
        pts = [ModelPoint("a", 0.9, 0.3), ModelPoint("b", 0.8, 0.1),
               ModelPoint("c", 0.85, 0.4)]
        front = pareto_front(pts)
        assert {p.model_id for p in front} == {"a", "b"}

    def test_identical_points_all_retained(self):
        pts = [ModelPoint(f"m{i}", 0.7, 0.2) for i in range(4)]
        assert len(pareto_front(pts)) == 4

    def test_sorted_by_performance(self, rng):
        pts = [ModelPoint(f"m{i}", float(p), float(v)) for i, (p, v) in
               enumerate(zip(rng.uniform(size=30), rng.uniform(size=30)))]
        front = pareto_front(pts)
        perfs = [p.performance for p in front]
        assert perfs == sorted(perfs)

    def test_matches_exhaustive_oracle_on_random_sets(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 40))
            # coarse grid values force plenty of exact ties
            perf = rng.integers(0, 6, size=n) / 5.0
            viol = rng.integers(0, 6, size=n) / 5.0
            pts = [ModelPoint(f"m{i}", float(p), float(v))
                   for i, (p, v) in enumerate(zip(perf, viol))]
            got = sorted(pareto_front(pts),
                         key=lambda p: (p.performance, p.fairness_violation,
                                        p.model_id))
            assert got == oracle_front(pts), trial

    def test_front_is_mutually_non_dominating(self, rng):
        pts = [ModelPoint(f"m{i}", float(p), float(v)) for i, (p, v) in
               enumerate(zip(rng.uniform(size=50), rng.uniform(size=50)))]
        front = pareto_front(pts)
        assert oracle_front(front) == sorted(
            front, key=lambda p: (p.performance, p.fairness_violation,
                                  p.model_id))

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            pareto_front([])


class TestFairnessGate:
    def test_zero_violation_demonstrates_fairness(self):
        # all predictions negative: every resample has violation exactly 0,
        # so any positive threshold is demonstrably met
        c = parity_cube(0, 100, 0, 100)
        for threshold in (0.01, 0.1, 0.5):
            r = fairness_mpr_check(c, "statistical_parity", threshold, seed=5)
            assert r.rejected
            assert r.p_value == 1 / 2001

    def test_zero_violation_conditional_metrics(self):
        # perfect classifier: per-cell rates are 0 or 1, so resampling
        # cannot move them and the odds gap stays 0
        c = cube(25, 0, 0, 25, 25, 0, 0, 25)
        for metric in ("equal_opportunity", "equalized_odds"):
            assert fairness_mpr_check(c, metric, 0.05, seed=5).rejected

    def test_gross_violation_fails(self):
        c = parity_cube(80, 100, 40, 100)  # parity diff 0.4
        r = fairness_mpr_check(c, "statistical_parity", 0.1, seed=5)
        assert r.statistic == pytest.approx(0.4, abs=1e-12)
        assert not r.rejected
        assert r.p_value > 0.9

    def test_threshold_at_point_estimate_p_near_half(self):
        # large groups make the resample distribution nearly symmetric
        c = parity_cube(600, 1000, 400, 1000)
        ps = [fairness_mpr_check(c, "statistical_parity", 0.2, seed=s).p_value
              for s in range(40)]
        assert abs(float(np.mean(ps)) - 0.5) <= 0.05

    def test_each_metric_demonstrated_on_large_cells(self):
        # large cells keep the resample distributions tight around 0
        c = cube(*([2500] * 8))
        assert fairness_mpr_check(c, "statistical_parity", 0.1, seed=2).rejected
        assert fairness_mpr_check(c, "equalized_odds", 0.15, seed=2).rejected

    def test_deterministic_given_seed(self):
        c = parity_cube(55, 100, 45, 100)
        a = fairness_mpr_check(c, "statistical_parity", 0.2, seed=9)
        b = fairness_mpr_check(c, "statistical_parity", 0.2, seed=9)
        assert a.p_value == b.p_value

    def test_negative_threshold_rejected(self):
        c = parity_cube(10, 20, 10, 20)
        with pytest.raises(ValidationError):
            fairness_mpr_check(c, "statistical_parity", -0.1)

    def test_unknown_metric_rejected(self):
        c = parity_cube(10, 20, 10, 20)
        with pytest.raises(ValidationError):
            fairness_mpr_check(c, "disparate_impact", 0.8)

    @pytest.mark.parametrize("metric, threshold, statistic, p_value, conf_bound", [
        ("statistical_parity", 0.1,
         0.15297906602254424, 0.7612387612387612, 0.26733091787439606),
        ("equal_opportunity", 0.1,
         0.11179245283018868, 0.5354645354645354, 0.23066037735849054),
        ("equalized_odds", 0.2,
         0.13286713286713286, 0.33466533466533466, 0.2933586225095659),
    ])
    def test_outputs_pinned(self, metric, threshold, statistic, p_value, conf_bound):
        # exact values: a change to the metrics or to the order in which the
        # bootstrap draws its resamples moves them, and every ledger entry
        # that records a fairness gate with them
        c = cube(40, 12, 9, 31, 35, 20, 6, 47)
        r = fairness_mpr_check(c, metric, threshold, n_bootstrap=1000, alpha=0.05, seed=7)
        assert (r.statistic, r.p_value, r.conf_bound) == (statistic, p_value, conf_bound)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1,
                max_size=25))
@settings(max_examples=200, deadline=None)
def test_pareto_front_property_vs_oracle(grid_points):
    pts = [ModelPoint(f"m{i}", p / 5.0, v / 5.0)
           for i, (p, v) in enumerate(grid_points)]
    got = sorted(pareto_front(pts),
                 key=lambda p: (p.performance, p.fairness_violation,
                                p.model_id))
    assert got == oracle_front(pts)
