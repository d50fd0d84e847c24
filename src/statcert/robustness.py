"""Out-of-distribution scoring with threshold calibration, and empirical
robust-accuracy estimation against query-based attacks.

Models are black boxes throughout: a predictor is any callable mapping one
feature row to a class index, locally or through the line protocol of
SubprocessPredictor. No gradients are ever requested. Perturbation balls
are taken in the raw feature space of the dataset as given; rescale
features upstream if a different distance is meaningful for the domain.
"""

from __future__ import annotations

import logging
import subprocess
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import ATTACKS, NORMS, OOD_METHODS, Dataset, ood_params
from .errors import ValidationError
from .sampling import splitmix64
from .stattest import rank_auroc

logger = logging.getLogger(__name__)

DENSITY_FLOOR = 1e-12
# seconds a predictor may run on after its input closes
CLOSE_TIMEOUT_S = 10.0


class OodScorer:
    """Reference-fitted OOD scorer; higher score always means more OOD.

    density_histogram: per-dimension equal-width histograms (Freedman-
    Diaconis bin count, floor 2) combined as a product density, scored as
    the negative log density with a 1e-12 probability floor.
    density_kde: Gaussian KDE on the reference rows, same scoring.
    distance_centroid: Mahalanobis distance to the nearest class mean under
    the pooled covariance, regularized by (1e-6 * trace/d) * I.
    distance_knn: Euclidean distance to the k-th nearest reference row.
    max_softmax: 1 - max predicted probability; needs no fit and consumes
    the dataset's score columns rather than features.
    """

    def __init__(self, method: str, **params):
        if method not in OOD_METHODS:
            raise ValidationError(f"unknown method {method!r}")
        self.method = method
        self.params = ood_params(method, params)
        self.threshold: float | None = None
        self._fitted = method == "max_softmax"

    def fit(self, reference: Dataset) -> "OodScorer":
        if self.method == "max_softmax":
            return self
        x = reference.features_matrix()
        if len(x) == 0:
            raise ValidationError("empty reference set")
        if self.method == "density_histogram":
            self._fit_histogram(x)
        elif self.method == "density_kde":
            from scipy.stats import gaussian_kde  # scipy.stats takes ~1 s to import

            try:
                self._kde = gaussian_kde(x.T)
            except np.linalg.LinAlgError as e:  # a covariance that is singular in floats
                raise ValidationError(f"density_kde cannot fit the reference: {e}") from None
        elif self.method == "distance_centroid":
            self._fit_mahalanobis(x, reference.by_role("label"))
        elif self.method == "distance_knn":
            k = self.params["k"]
            if k > len(x):
                raise ValidationError(f"k={k} exceeds reference size {len(x)}")
            from scipy.spatial import cKDTree

            self._tree = cKDTree(x)
        self._fitted = True
        return self

    def _fit_histogram(self, x: np.ndarray) -> None:
        self._hist = []
        n = len(x)
        for j in range(x.shape[1]):
            col = np.sort(x[:, j])
            lo, hi = float(col[0]), float(col[-1])
            if hi == lo:
                lo, hi = lo - 0.5, hi + 0.5
            iqr = float(np.percentile(col, 75) - np.percentile(col, 25))
            width = 2.0 * iqr / n ** (1.0 / 3.0)
            bins = max(2, int(np.ceil((hi - lo) / width))) if width > 0 else 2
            counts, edges = np.histogram(x[:, j], bins=bins, range=(lo, hi))
            dens = counts / n / np.diff(edges)
            self._hist.append((edges, dens))

    def _fit_mahalanobis(self, x: np.ndarray, labels: np.ndarray) -> None:
        classes = np.unique(labels)
        d = x.shape[1]
        self._means = [x[labels == c].mean(axis=0) for c in classes]
        centered = np.vstack([x[labels == c] - m for c, m in zip(classes, self._means)])
        cov = centered.T @ centered / max(1, len(x) - len(classes))
        if np.linalg.matrix_rank(cov) < d:
            logger.warning("singular pooled covariance; regularizing")
        trace = float(np.trace(cov))
        lam = 1e-6 * (trace / d if trace > 0 else 1.0)
        self._precision = np.linalg.inv(cov + lam * np.eye(d))

    def score_samples(self, data: Dataset) -> np.ndarray:
        if not self._fitted:
            raise ValidationError("scorer not fitted")
        if self.method == "max_softmax":
            return 1.0 - data.scores_matrix().max(axis=1)
        x = data.features_matrix()
        if self.method == "density_histogram":
            log_dens = np.zeros(len(x))
            for j, (edges, dens) in enumerate(self._hist):
                idx = np.searchsorted(edges, x[:, j], side="right") - 1
                inside = (idx >= 0) & (idx < len(dens)) & (x[:, j] <= edges[-1])
                idx = np.clip(idx, 0, len(dens) - 1)
                d_j = np.where(inside, dens[idx], 0.0)
                log_dens += np.log(np.maximum(d_j, DENSITY_FLOOR))
            return -log_dens
        if self.method == "density_kde":
            return -np.log(np.maximum(self._kde(x.T), DENSITY_FLOOR))
        if self.method == "distance_centroid":
            dists = []
            for mean in self._means:
                diff = x - mean
                dists.append(np.sqrt(np.einsum("ij,jk,ik->i", diff, self._precision, diff)))
            return np.min(dists, axis=0)
        dist, _ = self._tree.query(x, k=self.params["k"])
        return dist[:, -1] if dist.ndim == 2 else dist


def fit_ood_scorer(reference: Dataset, method: str,
                   params: Mapping[str, object] | None = None) -> OodScorer:
    return OodScorer(method, **(params or {})).fit(reference)


def _acceptance_threshold(scores: np.ndarray, tpr: float) -> float:
    """The ceil(tpr * n)-th smallest of n scores, which admits >= tpr of them."""
    return float(np.sort(scores)[int(np.ceil(tpr * len(scores))) - 1])


def calibrate_threshold(scorer: OodScorer, validation_id: Dataset,
                        target_tpr: float = 0.95) -> float:
    """Threshold at the ceil(target_tpr * n)-th smallest validation score.

    Samples scoring at or below the threshold are accepted as ID, so at
    least target_tpr of the (in-distribution) validation set is accepted.
    The threshold is stored on the scorer.
    """
    if validation_id.n_rows == 0:
        raise ValidationError("validation set is empty")
    if not 0.0 < target_tpr <= 1.0:
        raise ValidationError("target_tpr must be in (0, 1]")
    threshold = _acceptance_threshold(scorer.score_samples(validation_id), target_tpr)
    scorer.threshold = threshold
    return threshold


@dataclass(frozen=True)
class OodEvaluation:
    auroc: float
    fpr_at_95_tpr: float
    detection_accuracy: float
    threshold: float


def evaluate_ood(scorer: OodScorer, id_test: Dataset, ood_test: Dataset) -> OodEvaluation:
    """Separation quality of the scorer on held-out ID vs OOD data.

    AUROC treats OOD as the positive class. FPR@95TPR is the fraction of
    OOD accepted when the threshold is set to admit 95% of this ID test
    set. Detection accuracy is measured at the scorer's calibrated
    threshold when present, else at the 95%-TPR point.
    """
    if id_test.n_rows == 0 or ood_test.n_rows == 0:
        raise ValidationError("both ID and OOD sets must be nonempty")
    id_scores = scorer.score_samples(id_test)
    ood_scores = scorer.score_samples(ood_test)
    scores = np.concatenate([id_scores, ood_scores])
    flags = np.concatenate([np.zeros(len(id_scores), bool), np.ones(len(ood_scores), bool)])
    auroc = rank_auroc(scores, flags)

    tau95 = _acceptance_threshold(id_scores, 0.95)
    fpr95 = float(np.mean(ood_scores <= tau95))

    thr = scorer.threshold if scorer.threshold is not None else tau95
    correct = int(np.sum(id_scores <= thr)) + int(np.sum(ood_scores > thr))
    det_acc = correct / (len(id_scores) + len(ood_scores))
    return OodEvaluation(auroc, fpr95, det_acc, thr)


class SubprocessPredictor:
    """Line-protocol bridge to an external prediction program.

    Protocol: one comma-separated feature row on stdin, one integer class
    index on stdout, both newline-terminated and flushed per line. The
    process stays alive across calls; use as a context manager.
    """

    def __init__(self, command: Sequence[str]):
        self._proc = subprocess.Popen(
            list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, features: np.ndarray) -> int:
        row = ",".join(repr(float(v)) for v in np.asarray(features, dtype=float))
        try:
            self._proc.stdin.write(row + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as e:
            raise ValidationError(f"prediction process died: {e}") from e
        if not line:
            raise ValidationError("prediction process closed its output")
        try:
            return int(line.strip())
        except ValueError as e:
            raise ValidationError(f"expected an integer, got {line!r}") from e

    def close(self) -> None:
        """Close the input and reap the process. One still running
        CLOSE_TIMEOUT_S seconds later is killed, reaped and refused."""
        if self._proc.stdin:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise ValidationError(f"prediction process still running {CLOSE_TIMEOUT_S:g} s "
                                  "after its input closed; killed") from None

    def __enter__(self) -> "SubprocessPredictor":
        return self

    def __exit__(self, exc_type, *_) -> None:
        try:
            self.close()
        except ValidationError:
            if exc_type is None:  # never replace the error already propagating
                raise


@dataclass(frozen=True)
class RobustnessResult:
    """Attack outcome. robust_accuracy_lower_bound keeps its traditional
    name, but read the direction carefully: the attack may miss flips, so
    the value is an upper bound on the true robust accuracy, and a certified
    lower bound only when the search is exhaustive for the model class (the
    corner enumeration on linear models with budget >= 2^d + 2d). Both
    readings are recorded here so no consumer has to guess."""

    epsilon: float
    norm: str
    clean_accuracy: float
    robust_accuracy_lower_bound: float
    attack_budget: int
    per_sample_robust: tuple[bool, ...]
    queries_used: int
    exhaustive: bool

    def as_plain(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "norm": self.norm,
            "clean_accuracy": self.clean_accuracy,
            "robust_accuracy_lower_bound": self.robust_accuracy_lower_bound,
            "attack_budget": self.attack_budget,
            "queries_used": self.queries_used,
            "exhaustive_search": self.exhaustive,
        }


def _unit_ball_sample(rng: np.random.Generator, d: int, norm: str) -> np.ndarray:
    if norm == "linf":
        return rng.uniform(-1.0, 1.0, size=d)
    if norm == "l2":
        g = rng.normal(size=d)
        g /= np.linalg.norm(g) or 1.0
        return g * rng.uniform() ** (1.0 / d)
    e = rng.exponential(size=d)
    simplex = e / e.sum()
    return simplex * rng.choice([-1.0, 1.0], size=d) * rng.uniform() ** (1.0 / d)


def _gray_corner(index: int, d: int) -> np.ndarray:
    g = index ^ (index >> 1)
    return np.array([1.0 if (g >> j) & 1 else -1.0 for j in range(d)])


def _attack_sample(predict: Callable[[np.ndarray], int], x: np.ndarray, y: int,
                   epsilon: float, norm: str, attack: str, budget: int,
                   rng: np.random.Generator) -> tuple[bool, int, bool]:
    """Search the epsilon ball for a label flip.

    Returns (flipped, queries_used, exhaustive). coordinate_descent probes
    the 2d single-coordinate extremes, then enumerates sign corners in Gray
    order; the corners are the extreme points of the Linf ball, so with
    budget >= 2^d + 2d the search is exhaustive for any linear model (for
    L1 the coordinate extremes alone already are the ball's vertices).
    random_search and gradient_free_boundary are heuristic everywhere.
    """
    d = len(x)
    queries = 0

    def query(delta: np.ndarray) -> bool:
        nonlocal queries
        queries += 1
        return predict(x + delta) != y

    if attack == "coordinate_descent":
        for j in range(d):
            for sign in (1.0, -1.0):
                if queries >= budget:
                    return False, queries, False
                delta = np.zeros(d)
                delta[j] = sign * epsilon
                if query(delta):
                    return True, queries, False
        if norm == "l1":
            return False, queries, True  # vertices exhausted
        if norm == "linf":
            n_corners = 1 << d if d < 60 else budget + 1
            exhaustive = budget - queries >= n_corners
            for i in range(min(n_corners, budget - queries)):
                if query(epsilon * _gray_corner(i, d)):
                    return True, queries, False
            return False, queries, exhaustive
        # l2: fall through to random probing with what remains

    if attack in ("coordinate_descent", "random_search"):
        # fresh draws scale with epsilon, so random_search's query sets nest
        # across epsilons
        while queries < budget:
            if query(epsilon * _unit_ball_sample(rng, d, norm)):
                return True, queries, False
        return False, queries, False

    # gradient_free_boundary: full-radius probes, bisecting inward on a hit
    while queries < budget:
        direction = _unit_ball_sample(rng, d, norm)
        scale = np.max(np.abs(direction)) if norm == "linf" else np.linalg.norm(
            direction, 1 if norm == "l1" else 2)
        if scale == 0:
            continue
        direction = direction / scale  # on the unit sphere of the norm
        if query(epsilon * direction):
            lo, hi = 0.0, epsilon
            for _ in range(6):
                if queries >= budget:
                    break
                mid = (lo + hi) / 2.0
                if query(mid * direction):
                    hi = mid
                else:
                    lo = mid
            return True, queries, False
    return False, queries, False


def robust_accuracy(predict: Callable[[np.ndarray], int], dataset: Dataset,
                    epsilon: float, norm: str = "linf",
                    attack: str = "coordinate_descent", budget: int = 1000,
                    seed: int = 0) -> RobustnessResult:
    """Fraction of samples that stay correctly classified across the ball.

    A sample counts as robust when its clean prediction is correct and the
    attack finds no flip within the epsilon ball. epsilon = 0 skips the
    search entirely, so the result equals clean accuracy exactly. Each
    sample's search is seeded by splitmix64(seed, row), making results
    reproducible and independent of evaluation order.
    """
    if norm not in NORMS:
        raise ValidationError(f"norm must be one of {NORMS}")
    if attack not in ATTACKS:
        raise ValidationError(f"attack must be one of {ATTACKS}")
    if budget < 1:
        raise ValidationError("attack budget must be positive")
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    x = dataset.features_matrix()
    y = dataset.by_role("label")
    robust_flags = []
    n_clean = 0
    total_queries = 0
    all_exhaustive = True
    for i in range(dataset.n_rows):
        clean = predict(x[i]) == y[i]
        total_queries += 1
        if not clean:
            robust_flags.append(False)
            continue
        n_clean += 1
        if epsilon == 0.0:
            robust_flags.append(True)
            continue
        rng = np.random.default_rng(splitmix64(seed, i))
        flipped, used, exhaustive = _attack_sample(
            predict, x[i], int(y[i]), epsilon, norm, attack, budget, rng)
        total_queries += used
        robust_flags.append(not flipped)
        if not flipped and not exhaustive:
            all_exhaustive = False
    n = dataset.n_rows
    return RobustnessResult(
        epsilon=epsilon,
        norm=norm,
        clean_accuracy=n_clean / n,
        robust_accuracy_lower_bound=sum(robust_flags) / n,
        attack_budget=budget,
        per_sample_robust=tuple(robust_flags),
        queries_used=total_queries,
        exhaustive=all_exhaustive,
    )
