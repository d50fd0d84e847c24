"""OOD scoring, threshold calibration, and query-based robust accuracy.

The load-bearing oracle here is the linear-model margin condition: under
an Linf ball of radius eps, sign(w.x + b) can be flipped iff
|w.x + b| <= eps * ||w||_1, and the coordinate-plus-corner search must
reproduce that decision exactly when its budget covers the enumeration.
"""

import sys

import numpy as np
import pytest

from statcert import robustness
from statcert.errors import ValidationError
from statcert.robustness import (
    OodScorer,
    SubprocessPredictor,
    calibrate_threshold,
    evaluate_ood,
    fit_ood_scorer,
    robust_accuracy,
)

from conftest import build_dataset, feature_dataset
from helpers import binomial_interval_95


class ColumnScorer:
    """Stand-in scorer reading scores straight from the x0 column, so order
    statistics in calibration and evaluation can be checked by hand."""

    def __init__(self, transform=None):
        self.threshold = None
        self.transform = transform

    def score_samples(self, data):
        s = np.asarray(data.column("x0"), dtype=float)
        return self.transform(s) if self.transform else s


class TestOodScorers:
    @pytest.mark.parametrize("method", ["density_histogram", "density_kde",
                                        "distance_centroid", "distance_knn"])
    def test_far_point_scores_higher(self, method, rng):
        x = rng.normal(size=(400, 2))
        labels = (x[:, 0] > 0).astype(int)
        scorer = fit_ood_scorer(feature_dataset(x, labels), method)
        near, far = scorer.score_samples(feature_dataset([[0.0, 0.0], [10.0, 10.0]]))
        assert near < far

    def test_max_softmax_ordering(self):
        ds = build_dataset({"s0": np.array([0.99, 0.5]), "s1": np.array([0.01, 0.5])},
                           {"s0": "score", "s1": "score"})
        scores = OodScorer("max_softmax").score_samples(ds)
        assert scores[0] < scores[1]
        assert scores == pytest.approx([0.01, 0.5])

    def test_mahalanobis_zero_at_class_mean(self, rng):
        x = rng.normal(size=(300, 3))
        labels = np.zeros(300, dtype=int)
        scorer = fit_ood_scorer(feature_dataset(x, labels), "distance_centroid")
        mean = x.mean(axis=0)
        assert scorer.score_samples(feature_dataset(mean))[0] == pytest.approx(0.0, abs=1e-6)

    def test_singular_covariance_regularized_with_warning(self, rng, caplog):
        col = rng.normal(size=200)
        x = np.column_stack([col, col])  # rank 1
        labels = (col > 0).astype(int)
        with caplog.at_level("WARNING"):
            scorer = fit_ood_scorer(feature_dataset(x, labels), "distance_centroid")
        assert any("regulariz" in r.message for r in caplog.records)
        assert np.all(np.isfinite(scorer.score_samples(feature_dataset([[1.0, -1.0]]))))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown method 'isolation_forest'"):
            OodScorer("isolation_forest")

    def test_knn_param_validation(self, rng):
        with pytest.raises(ValidationError, match="k must be a positive integer"):
            OodScorer("distance_knn", k=0)
        ds = feature_dataset(rng.normal(size=(3, 2)))
        with pytest.raises(ValidationError, match="k=10 exceeds reference size 3"):
            fit_ood_scorer(ds, "distance_knn", {"k": 10})

    @pytest.mark.parametrize("method, params", [("density_kde", {"bandwidth": 0.3}),
                                                ("distance_knn", {"k": 3, "leaf_size": 4}),
                                                ("max_softmax", {"k": 3})])
    def test_unread_param_rejected(self, rng, method, params):
        # density_kde used to accept a bandwidth it never read
        with pytest.raises(ValidationError, match="unknown keys"):
            fit_ood_scorer(feature_dataset(rng.normal(size=(20, 2))), method, params)

    def test_scoring_before_fit_rejected(self, rng):
        with pytest.raises(ValidationError):
            OodScorer("density_kde").score_samples(feature_dataset(np.zeros((1, 2))))

    def test_empty_reference_rejected(self):
        with pytest.raises(ValidationError):
            fit_ood_scorer(feature_dataset(np.empty((0, 2))), "density_histogram")

    def test_max_softmax_requires_score_columns(self):
        with pytest.raises(ValidationError, match="no score columns"):
            OodScorer("max_softmax").score_samples(feature_dataset([[0.9, 0.1]]))


class TestCalibrateThreshold:
    def scores_dataset(self, values):
        return feature_dataset(np.asarray(values, dtype=float).reshape(-1, 1))

    def test_target_one_gives_max_score(self, rng):
        values = rng.normal(size=57)
        thr = calibrate_threshold(ColumnScorer(), self.scores_dataset(values), 1.0)
        assert thr == values.max()

    def test_order_statistic_convention(self, rng):
        values = np.arange(1.0, 101.0)
        rng.shuffle(values)
        scorer = ColumnScorer()
        thr = calibrate_threshold(scorer, self.scores_dataset(values), 0.95)
        # k = ceil(0.95 * 100) = 95, threshold is the 95th smallest score
        assert thr == 95.0
        assert scorer.threshold == 95.0

    def test_ceil_rounds_up_on_fractional_rank(self, rng):
        values = np.arange(1.0, 11.0)
        thr = calibrate_threshold(ColumnScorer(), self.scores_dataset(values), 0.95)
        assert thr == 10.0  # ceil(9.5) = 10th smallest

    def test_constant_scores_flag_anything_above(self):
        thr = calibrate_threshold(ColumnScorer(), self.scores_dataset([5.0] * 40), 0.95)
        assert thr == 5.0
        assert 5.1 > thr

    def test_empty_validation_rejected(self):
        with pytest.raises(ValidationError, match="validation set is empty"):
            calibrate_threshold(ColumnScorer(), self.scores_dataset([]), 0.95)

    def test_target_tpr_validated(self):
        ds = self.scores_dataset([1.0, 2.0])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                calibrate_threshold(ColumnScorer(), ds, bad)

    def test_acceptance_rate_on_fresh_id_sample(self):
        # threshold from one ID sample should accept ~95% of another
        rng = np.random.default_rng(777001)
        reference = feature_dataset(rng.normal(size=(1000, 2)))
        scorer = fit_ood_scorer(reference, "distance_knn", {"k": 5})
        calibrate_threshold(scorer, feature_dataset(rng.normal(size=(5000, 2))), 0.95)
        fresh = scorer.score_samples(feature_dataset(rng.normal(size=(2000, 2))))
        accepted = int(np.sum(fresh <= scorer.threshold))
        lo, hi = binomial_interval_95(2000, 0.95)
        assert lo <= accepted <= hi


class TestEvaluateOod:
    def test_perfect_separation(self):
        id_ds = feature_dataset(np.arange(1.0, 101.0).reshape(-1, 1))
        ood_ds = feature_dataset(np.arange(200.0, 300.0).reshape(-1, 1))
        result = evaluate_ood(ColumnScorer(), id_ds, ood_ds)
        assert result.auroc == 1.0
        assert result.fpr_at_95_tpr == 0.0
        # without a calibrated threshold the 95%-TPR point is used: 95 of
        # 100 ID rows accepted, every OOD row rejected
        assert result.detection_accuracy == pytest.approx(195 / 200)

    def test_identical_distributions_near_half(self):
        rng = np.random.default_rng(777002)
        id_ds = feature_dataset(rng.normal(size=(10_000, 1)))
        ood_ds = feature_dataset(rng.normal(size=(10_000, 1)))
        result = evaluate_ood(ColumnScorer(), id_ds, ood_ds)
        assert result.auroc == pytest.approx(0.5, abs=0.02)

    def test_mahalanobis_separates_distant_gaussians(self):
        rng = np.random.default_rng(777003)
        x_id = rng.normal(size=(500, 2))
        scorer = fit_ood_scorer(
            feature_dataset(x_id, np.zeros(500, dtype=int)), "distance_centroid")
        id_test = feature_dataset(rng.normal(size=(500, 2)))
        ood_test = feature_dataset(rng.normal(size=(500, 2)) + np.array([6.0, 0.0]))
        result = evaluate_ood(scorer, id_test, ood_test)
        assert result.auroc >= 0.95

    def test_monotone_transform_leaves_ranks_alone(self):
        rng = np.random.default_rng(777004)
        id_ds = feature_dataset(rng.normal(size=(300, 1)))
        ood_ds = feature_dataset(rng.normal(loc=1.0, size=(300, 1)))
        plain = evaluate_ood(ColumnScorer(), id_ds, ood_ds)
        warped = evaluate_ood(ColumnScorer(np.exp), id_ds, ood_ds)
        assert warped.auroc == plain.auroc
        assert warped.fpr_at_95_tpr == plain.fpr_at_95_tpr
        assert warped.detection_accuracy == plain.detection_accuracy

    def test_calibrated_threshold_drives_detection_accuracy(self):
        id_ds = feature_dataset(np.arange(1.0, 11.0).reshape(-1, 1))
        ood_ds = feature_dataset(np.arange(20.0, 30.0).reshape(-1, 1))
        scorer = ColumnScorer()
        scorer.threshold = 100.0  # accepts everything, so OOD all missed
        result = evaluate_ood(scorer, id_ds, ood_ds)
        assert result.threshold == 100.0
        assert result.detection_accuracy == pytest.approx(0.5)

    def test_empty_sets_rejected(self):
        full = feature_dataset(np.ones((3, 1)))
        empty = feature_dataset(np.empty((0, 1)))
        with pytest.raises(ValidationError, match="must be nonempty"):
            evaluate_ood(ColumnScorer(), empty, full)
        with pytest.raises(ValidationError, match="must be nonempty"):
            evaluate_ood(ColumnScorer(), full, empty)


class TestSubprocessPredictor:
    SIGN_PROGRAM = ("import sys\n"
                    "for line in sys.stdin:\n"
                    "    v = [float(t) for t in line.split(',')]\n"
                    "    print(1 if v[0] > 0 else 0, flush=True)\n")

    def test_line_protocol_round_trip(self):
        with SubprocessPredictor([sys.executable, "-c", self.SIGN_PROGRAM]) as predict:
            assert predict(np.array([0.5, -3.0])) == 1
            assert predict(np.array([-0.5, 9.0])) == 0
            assert predict(np.array([1e-300, 0.0])) == 1

    def test_non_integer_reply_raises(self):
        program = "import sys\nfor line in sys.stdin:\n    print('banana', flush=True)\n"
        with SubprocessPredictor([sys.executable, "-c", program]) as predict:
            with pytest.raises(ValidationError, match="integer"):
                predict(np.array([1.0]))

    def test_dead_process_raises(self):
        predict = SubprocessPredictor([sys.executable, "-c", "pass"])
        with pytest.raises(ValidationError, match="closed its output"):
            predict(np.array([1.0]))

    # answers every line, then outlives its input
    LINGERING_PROGRAM = SIGN_PROGRAM + "import time\ntime.sleep(60)\n"

    def test_process_outliving_its_input_is_killed_and_refused(self, monkeypatch):
        # close() used to raise subprocess.TimeoutExpired and leave the child running
        monkeypatch.setattr(robustness, "CLOSE_TIMEOUT_S", 0.2)
        predict = SubprocessPredictor([sys.executable, "-c", self.LINGERING_PROGRAM])
        with pytest.raises(ValidationError, match="still running 0.2 s after its input closed"):
            with predict:
                assert predict(np.array([0.5, 1.0])) == 1
        assert predict._proc.returncode is not None

    def test_lingering_process_does_not_replace_the_propagating_error(self, monkeypatch):
        monkeypatch.setattr(robustness, "CLOSE_TIMEOUT_S", 0.2)
        predict = SubprocessPredictor([sys.executable, "-c", self.LINGERING_PROGRAM])
        with pytest.raises(KeyError, match="first"):
            with predict:
                raise KeyError("first")
        assert predict._proc.returncode is not None

    def test_drives_robust_accuracy(self, rng):
        x = rng.normal(size=(6, 2))
        y = (x[:, 0] > 0).astype(int)
        with SubprocessPredictor([sys.executable, "-c", self.SIGN_PROGRAM]) as predict:
            result = robust_accuracy(predict, feature_dataset(x, y), epsilon=0.0)
        assert result.clean_accuracy == 1.0
        assert result.robust_accuracy_lower_bound == 1.0


def linf_flip_possible(w, b, x, eps):
    return abs(float(w @ x + b)) <= eps * float(np.abs(w).sum())


def random_linear_case(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    w = rng.normal(size=d)
    w[np.abs(w) < 1e-3] = 1e-3  # keep the margin condition well-posed
    b = float(rng.normal() * 0.3)
    x = rng.normal(size=(4, d))
    y = (x @ w + b > 0).astype(int)
    return w, b, x, y, float(rng.uniform(0.1, 0.6))


class TestRobustAccuracy:
    def test_epsilon_zero_equals_clean_exactly(self, rng):
        x = rng.normal(size=(40, 3))
        y_true = rng.integers(0, 2, size=40)
        predict = lambda z: int(z[0] > 0)
        result = robust_accuracy(predict, feature_dataset(x, y_true), epsilon=0.0)
        clean = np.array([predict(row) for row in x]) == y_true
        assert result.clean_accuracy == clean.mean()
        assert result.robust_accuracy_lower_bound == result.clean_accuracy
        assert result.per_sample_robust == tuple(clean.tolist())

    def test_linear_models_match_margin_condition(self):
        for m in range(200):
            w, b, x, y, eps = random_linear_case(881000 + m)
            d = len(w)
            predict = lambda z: int(float(w @ z + b) > 0)
            result = robust_accuracy(
                predict, feature_dataset(x, y), epsilon=eps, norm="linf",
                attack="coordinate_descent", budget=(1 << d) + 2 * d, seed=m)
            expected = tuple(not linf_flip_possible(w, b, row, eps) for row in x)
            assert result.per_sample_robust == expected, f"model {m}"
            assert result.exhaustive is True
            assert result.robust_accuracy_lower_bound == pytest.approx(
                sum(expected) / len(expected))

    def test_l1_vertices_match_margin_condition(self):
        w, b = np.array([3.0, 1.0]), 0.0
        x = np.array([[0.5, 0.0]])
        y = np.array([1])
        predict = lambda z: int(float(w @ z + b) > 0)
        ds = feature_dataset(x, y)
        # L1 ball vertices are the coordinate extremes: flip iff |v| <= eps*max|w|
        safe = robust_accuracy(predict, ds, 0.4, "l1", "coordinate_descent", budget=8)
        assert safe.per_sample_robust == (True,)
        assert safe.exhaustive is True
        broken = robust_accuracy(predict, ds, 0.6, "l1", "coordinate_descent", budget=8)
        assert broken.per_sample_robust == (False,)

    @pytest.mark.parametrize("attack", ["coordinate_descent", "random_search"])
    def test_monotone_in_epsilon(self, attack):
        w, b, x, y, _ = random_linear_case(881999)
        d = len(w)
        predict = lambda z: int(float(w @ z + b) > 0)
        ds = feature_dataset(x, y)
        flags = []
        for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
            result = robust_accuracy(predict, ds, eps, "linf", attack,
                                     budget=(1 << d) + 2 * d + 50, seed=4)
            flags.append(result.per_sample_robust)
        for before, after in zip(flags, flags[1:]):
            for fb, fa in zip(before, after):
                assert fb or not fa  # once flipped, stays flipped

    def test_constant_classifier_never_flips(self, rng):
        x = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30)
        ds = feature_dataset(x, y)
        for attack in ("coordinate_descent", "random_search", "gradient_free_boundary"):
            result = robust_accuracy(lambda z: 0, ds, 0.5, "l2", attack, budget=40)
            assert result.robust_accuracy_lower_bound == result.clean_accuracy
            assert result.clean_accuracy == np.mean(y == 0)

    def test_reproducible_given_seed(self, rng):
        x = rng.normal(size=(20, 3))
        y = (np.linalg.norm(x, axis=1) > 1.5).astype(int)
        predict = lambda z: int(np.linalg.norm(z) > 1.5)
        ds = feature_dataset(x, y)
        a = robust_accuracy(predict, ds, 0.3, "l2", "random_search", budget=60, seed=9)
        b = robust_accuracy(predict, ds, 0.3, "l2", "random_search", budget=60, seed=9)
        assert a == b

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("attack", ["random_search", "gradient_free_boundary"])
    def test_heuristic_attacks_respect_bound_ordering(self, norm, attack, rng):
        x = rng.normal(size=(15, 3))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        predict = lambda z: int(z[0] + z[1] > 0)
        result = robust_accuracy(predict, feature_dataset(x, y), 0.4, norm,
                                 attack, budget=50, seed=2)
        assert result.robust_accuracy_lower_bound <= result.clean_accuracy
        assert len(result.per_sample_robust) == 15
        assert result.queries_used >= 15

    def test_validation_errors(self, rng):
        ds = feature_dataset(rng.normal(size=(4, 2)), np.zeros(4, dtype=int))
        predict = lambda z: 0
        with pytest.raises(ValidationError, match="budget must be positive"):
            robust_accuracy(predict, ds, 0.1, budget=0)
        with pytest.raises(ValidationError):
            robust_accuracy(predict, ds, 0.1, norm="l0")
        with pytest.raises(ValidationError):
            robust_accuracy(predict, ds, 0.1, attack="pgd")
        with pytest.raises(ValidationError):
            robust_accuracy(predict, ds, -0.1)
