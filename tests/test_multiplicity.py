"""Family-wise error control: fixed sequence, fallback, FWER simulation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statcert.errors import (
    InvalidAlpha,
    InvalidTrialCount,
    ValidationError,
    WeightSumInvalid,
)
from statcert.multiplicity import (
    Hypothesis,
    HypothesisFamily,
    fallback_test,
    fixed_sequence_test,
    simulate_fwer,
)


def family(p_values, alpha=0.05, weights=None):
    if weights is None:
        weights = [None] * len(p_values)
    hyps = tuple(Hypothesis(f"h{i}", p, w)
                 for i, (p, w) in enumerate(zip(p_values, weights)))
    return HypothesisFamily(hyps, alpha)


class TestFixedSequence:
    def test_stops_at_first_failure(self):
        d = fixed_sequence_test(family([0.01, 0.04, 0.2, 0.01]))
        assert [h.decision for h in d.decisions] == [
            "reject_H0", "reject_H0", "fail_to_reject", "fail_to_reject"]

    def test_all_zero_pvalues_all_rejected(self):
        d = fixed_sequence_test(family([0.0, 0.0, 0.0]))
        assert all(h.rejected for h in d.decisions)

    def test_first_failure_blocks_everything(self):
        d = fixed_sequence_test(family([0.06, 0.001, 0.001]))
        assert not any(h.rejected for h in d.decisions)

    def test_untested_hypotheses_get_no_alpha(self):
        d = fixed_sequence_test(family([0.01, 0.2, 0.01]))
        assert d.decisions[1].alpha_allocated == 0.05
        assert d.decisions[2].alpha_allocated == 0.0

    def test_tie_at_alpha_rejects(self):
        d = fixed_sequence_test(family([0.05, 0.05]))
        assert all(h.rejected for h in d.decisions)


class TestFallback:
    def test_carryover_trace_both_rejected(self):
        d = fallback_test(family([0.02, 0.04], weights=[0.5, 0.5]))
        assert [h.alpha_allocated for h in d.decisions] == [0.025, 0.05]
        assert all(h.rejected for h in d.decisions)

    def test_no_carry_after_failure(self):
        d = fallback_test(family([0.03, 0.03], weights=[0.5, 0.5]))
        assert [h.alpha_allocated for h in d.decisions] == [0.025, 0.025]
        assert not any(h.rejected for h in d.decisions)

    def test_mixed_weights_hand_trace(self):
        # w = (0.6, 0.2, 0.2): alpha_1 = 0.03 (reject, carry 0.03),
        # alpha_2 = 0.04 (fail, carry drops), alpha_3 = 0.01
        d = fallback_test(family([0.02, 0.05, 0.005],
                                 weights=[0.6, 0.2, 0.2]))
        allocated = [h.alpha_allocated for h in d.decisions]
        assert allocated == pytest.approx([0.03, 0.04, 0.01])
        assert [h.rejected for h in d.decisions] == [True, False, True]

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightSumInvalid):
            fallback_test(family([0.01, 0.01], weights=[0.5, 0.4]))
        with pytest.raises(WeightSumInvalid):
            fallback_test(family([0.01, 0.01], weights=[0.5, None]))

    def test_equivalence_with_fixed_sequence_on_degenerate_weights(self, rng):
        # w = (1, 0, ..., 0) reproduces fixed-sequence decisions whenever
        # no p-value is exactly 0 (a zero weight still rejects p = 0)
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            ps = rng.uniform(0.001, 0.999, size=m)
            weights = [1.0] + [0.0] * (m - 1)
            fb = fallback_test(family(list(ps), weights=weights))
            fs = fixed_sequence_test(family(list(ps)))
            assert [h.decision for h in fb.decisions] == [
                h.decision for h in fs.decisions]

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_allocation_trace_bounds(self, ps, data):
        m = len(ps)
        raw = data.draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                                 min_size=m, max_size=m))
        weights = [w / sum(raw) for w in raw]
        weights[-1] = 1.0 - sum(weights[:-1])
        alpha = 0.05
        d = fallback_test(family(ps, alpha=alpha, weights=weights))
        for dec, w in zip(d.decisions, weights):
            assert dec.alpha_allocated >= alpha * w - 1e-15
            assert dec.alpha_allocated <= alpha + 1e-15

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_lowering_pvalues_never_loses_rejections(self, ps, data):
        m = len(ps)
        weights = [1.0 / m] * m
        weights[-1] = 1.0 - sum(weights[:-1])
        shrink = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=m, max_size=m))
        lowered = [p * s for p, s in zip(ps, shrink)]
        before = fallback_test(family(ps, weights=weights))
        after = fallback_test(family(lowered, weights=weights))
        for b, a in zip(before.decisions, after.decisions):
            if b.rejected:
                assert a.rejected


class TestSimulatedFwer:
    def test_uncorrected_matches_analytic_value(self):
        est = simulate_fwer("uncorrected", [True] * 20, 0.05,
                            trials=100_000, seed=101)
        assert abs(est.fwer - (1 - 0.95 ** 20)) <= 0.005

    def test_single_hypothesis_fwer_near_alpha(self):
        est = simulate_fwer("bonferroni", [True], 0.05,
                            trials=100_000, seed=11)
        assert abs(est.fwer - 0.05) <= 4 * est.stderr + 1e-9

    @pytest.mark.slow
    @pytest.mark.parametrize("procedure", ["bonferroni", "fallback"])
    def test_strong_control_all_patterns(self, procedure):
        # every true/false configuration of a 4-hypothesis family
        for pattern in itertools.product([True, False], repeat=4):
            if not any(pattern):
                continue  # no true nulls, FWER trivially 0
            est = simulate_fwer(procedure, list(pattern), 0.05,
                                trials=20_000, seed=hash(pattern) % 2 ** 32,
                                weights=[0.4, 0.3, 0.2, 0.1])
            assert est.fwer <= 0.05 + 3 * est.stderr, pattern

    def test_trial_floor_enforced(self):
        with pytest.raises(InvalidTrialCount):
            simulate_fwer("bonferroni", [True], 0.05, trials=500, seed=0)

    def test_unknown_procedure(self):
        with pytest.raises(ValidationError):
            simulate_fwer("holm", [True], 0.05, trials=10_000, seed=0)

    def test_fallback_weight_validation(self):
        with pytest.raises(WeightSumInvalid):
            simulate_fwer("fallback", [True, True], 0.05, trials=10_000,
                          seed=0, weights=[0.9, 0.2])


class TestValidation:
    def test_pvalue_range(self):
        with pytest.raises(ValidationError):
            Hypothesis("h", 1.2)

    def test_empty_family(self):
        with pytest.raises(ValidationError):
            HypothesisFamily((), 0.05)

    def test_family_alpha_range(self):
        with pytest.raises(InvalidAlpha):
            family([0.01], alpha=0.0)
