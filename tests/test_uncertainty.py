"""Entropy decomposition of ensemble predictions and fallback flagging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statcert.errors import (
    DataLoadError,
    DegenerateFlags,
    InvalidSimplexRow,
    ValidationError,
)
from statcert.uncertainty import (
    EnsemblePrediction,
    decompose,
    evaluate_uncertainty_quality,
    load_ensembles,
    uncertainty_fallback,
)

from helpers import max_additivity_error, random_ensemble

LN2 = math.log(2.0)


def h2(p):
    """Binary entropy in nats."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


class TestDecompose:
    def test_identical_members_pure_aleatoric(self):
        ens = EnsemblePrediction(np.tile([0.5, 0.5], (3, 1)))
        d = decompose(ens)
        assert d.total == pytest.approx(LN2, abs=1e-12)
        assert d.aleatoric == pytest.approx(LN2, abs=1e-12)
        assert d.epistemic == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_members_pure_epistemic(self):
        ens = EnsemblePrediction(np.array([[1.0, 0.0], [0.0, 1.0]]))
        d = decompose(ens)
        assert d.total == pytest.approx(LN2, abs=1e-12)
        assert d.aleatoric == pytest.approx(0.0, abs=1e-12)
        assert d.epistemic == pytest.approx(LN2, abs=1e-12)

    def test_hand_arithmetic_case(self):
        ens = EnsemblePrediction(np.array([[0.8, 0.2], [0.6, 0.4]]))
        d = decompose(ens)
        assert d.total == pytest.approx(h2(0.7), abs=1e-12)
        assert d.aleatoric == pytest.approx(0.5 * h2(0.8) + 0.5 * h2(0.6),
                                            abs=1e-12)
        assert d.epistemic == pytest.approx(
            h2(0.7) - 0.5 * h2(0.8) - 0.5 * h2(0.6), abs=1e-12)

    def test_matches_direct_mutual_information_form(self, rng):
        # KL oracle computed here, independent of the identity in decompose
        for _ in range(200):
            ens = random_ensemble(rng, max_k=8, max_c=5)
            d = decompose(ens)
            mean = ens.weights @ ens.members
            kl = 0.0
            for w, row in zip(ens.weights, ens.members):
                nz = row > 0
                kl += w * np.sum(row[nz] * (np.log(row[nz]) - np.log(mean[nz])))
            assert d.epistemic == pytest.approx(float(kl), abs=1e-8)

    def test_weighted_posterior_mean(self):
        ens = EnsemblePrediction(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                 weights=np.array([0.75, 0.25]))
        d = decompose(ens)
        assert d.total == pytest.approx(h2(0.75), abs=1e-12)
        assert d.aleatoric == pytest.approx(0.0, abs=1e-12)

    def test_single_member_zero_epistemic_exactly(self, rng):
        for _ in range(50):
            row = rng.dirichlet(np.ones(4))
            d = decompose(EnsemblePrediction(row[None, :] / row.sum()))
            assert d.epistemic == 0.0

    def test_member_permutation_invariance(self, rng):
        rows = rng.dirichlet(np.ones(3), size=5)
        a = decompose(EnsemblePrediction(rows))
        b = decompose(EnsemblePrediction(rows[::-1].copy()))
        assert a.total == pytest.approx(b.total, abs=1e-12)
        assert a.epistemic == pytest.approx(b.epistemic, abs=1e-12)

    def test_class_label_permutation_invariance(self, rng):
        rows = rng.dirichlet(np.ones(4), size=3)
        perm = rng.permutation(4)
        a = decompose(EnsemblePrediction(rows))
        b = decompose(EnsemblePrediction(rows[:, perm]))
        assert a.total == pytest.approx(b.total, abs=1e-12)
        assert a.aleatoric == pytest.approx(b.aleatoric, abs=1e-12)

    def test_additivity_over_ten_thousand_ensembles(self):
        assert max_additivity_error(10_000) <= 1e-10

    def test_total_bounded_by_log_class_count(self, rng):
        for _ in range(100):
            ens = random_ensemble(rng)
            d = decompose(ens)
            assert d.total <= math.log(ens.n_classes) + 1e-9

    def test_invalid_rows_rejected(self):
        with pytest.raises(InvalidSimplexRow):
            EnsemblePrediction(np.array([[0.7, 0.7]]))
        with pytest.raises(InvalidSimplexRow):
            EnsemblePrediction(np.array([[-0.1, 1.1]]))
        with pytest.raises(InvalidSimplexRow):
            EnsemblePrediction(np.array([[1.0]]))

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            EnsemblePrediction(np.array([[0.5, 0.5]]), weights=np.array([0.9]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_members_and_weights_rejected(self, value):
        # NaN used to pass every simplex check
        with pytest.raises(InvalidSimplexRow, match="non-finite"):
            EnsemblePrediction(np.array([[value, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValidationError):
            EnsemblePrediction(np.array([[0.5, 0.5], [0.5, 0.5]]),
                               weights=np.array([value, 0.5]))

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=2, max_value=6), st.integers())
    @settings(max_examples=150, deadline=None)
    def test_components_non_negative(self, k, c, seed):
        rng = np.random.default_rng(abs(seed) % 2 ** 32)
        rows = rng.dirichlet(np.ones(c), size=k)
        d = decompose(EnsemblePrediction(rows / rows.sum(axis=1, keepdims=True)))
        assert d.total >= 0.0
        assert d.aleatoric >= 0.0
        assert d.epistemic >= 0.0


class TestFallback:
    def test_epistemic_threshold_catches_disagreement(self):
        ens = EnsemblePrediction(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert uncertainty_fallback(ens, {"epistemic": LN2}) == "abstain"

    def test_infinite_thresholds_always_accept(self, rng):
        for _ in range(20):
            ens = random_ensemble(rng, max_k=6, max_c=4)
            thresholds = {"total": math.inf, "aleatoric": math.inf,
                          "epistemic": math.inf}
            assert uncertainty_fallback(ens, thresholds) == "accept"

    def test_total_threshold_hand_case(self):
        # H(0.7, 0.3) ~ 0.6109 nats exceeds 0.6
        ens = EnsemblePrediction(np.array([[0.8, 0.2], [0.6, 0.4]]))
        assert uncertainty_fallback(ens, {"total": 0.6}) == "abstain"
        assert uncertainty_fallback(ens, {"total": 0.7}) == "accept"

    def test_negative_threshold_rejected(self):
        ens = EnsemblePrediction(np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            uncertainty_fallback(ens, {"total": -0.1})

    def test_unknown_component_rejected(self):
        ens = EnsemblePrediction(np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            uncertainty_fallback(ens, {"variance": 1.0})


def certain(p):
    return decompose(EnsemblePrediction(np.array([[p, 1.0 - p]])))


class TestQuality:
    def test_perfect_ordering_gives_auroc_one(self):
        decomps = [certain(0.99), certain(0.95), certain(0.7), certain(0.6)]
        flags = [False, False, True, True]
        q = evaluate_uncertainty_quality(decomps, flags,
                                         "misclassification_detection")
        assert q.auroc == 1.0

    def test_independent_scores_auroc_half(self, rng):
        n = 10_000
        decomps = [certain(p) for p in rng.uniform(0.55, 0.99, size=n)]
        flags = (rng.uniform(size=n) < 0.3).tolist()
        q = evaluate_uncertainty_quality(decomps, flags, "ood_detection")
        assert q.auroc == pytest.approx(0.5, abs=0.02)

    def test_full_coverage_risk_is_error_rate(self):
        decomps = [certain(p) for p in (0.9, 0.8, 0.7, 0.6, 0.55)]
        flags = [False, True, False, True, True]
        q = evaluate_uncertainty_quality(decomps, flags,
                                         "selective_prediction")
        coverage, risk = q.risk_coverage[-1]
        assert coverage == 1.0
        assert risk == pytest.approx(3 / 5)

    def test_risk_coverage_keeps_ties_together(self):
        decomps = [certain(0.9), certain(0.9), certain(0.6), certain(0.55)]
        flags = [False, True, True, False]
        q = evaluate_uncertainty_quality(decomps, flags,
                                         "selective_prediction")
        coverages = [pt[0] for pt in q.risk_coverage]
        assert 0.25 not in coverages  # the two tied scores cannot split

    def test_degenerate_flags(self):
        decomps = [certain(0.9), certain(0.8), certain(0.7)]
        with pytest.raises(DegenerateFlags):
            evaluate_uncertainty_quality(decomps, [True, True, True],
                                         "misclassification_detection")

    def test_unknown_task(self):
        decomps = [certain(0.9), certain(0.8), certain(0.7), certain(0.6)]
        with pytest.raises(ValidationError):
            evaluate_uncertainty_quality(decomps, [True, True, False, False],
                                         "calibration")


class TestLoadEnsembles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ens.jsonl"
        path.write_text(
            '{"members": [[0.8, 0.2], [0.6, 0.4]]}\n'
            '{"members": [[0.5, 0.5]], "weights": [1.0]}\n')
        loaded = load_ensembles(path)
        assert len(loaded) == 2
        assert loaded[0].members.shape == (2, 2)
        d = decompose(loaded[0])
        assert d.total == pytest.approx(h2(0.7), abs=1e-12)

    def test_correct_flag_is_kept_per_line(self, tmp_path):
        # read in the same pass as the members; anything but a boolean is unknown
        path = tmp_path / "ens.jsonl"
        path.write_text(
            '{"members": [[0.8, 0.2]], "correct": true}\n'
            '\n'
            '{"members": [[0.8, 0.2]], "correct": false}\n'
            '{"members": [[0.8, 0.2]]}\n'
            '{"members": [[0.8, 0.2]], "correct": 1}\n')
        assert [e.correct for e in load_ensembles(path)] == [True, False, None, None]

    def test_invalid_row_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"members": [[0.9, 0.9]]}\n')
        with pytest.raises(DataLoadError) as exc:
            load_ensembles(path)
        assert "bad.jsonl:1" in str(exc.value)
