"""Family-wise error rate control across requirement tests.

Two procedures: Fixed Sequence Testing and the Fallback procedure. Fixed
sequence is the Fallback special case w = (1, 0, ..., 0), except on the
measure-zero corner p = 0 after a failed gatekeeper, where a level-0
Fallback test still rejects; both behaviors follow their stated rules
exactly. A simulation harness estimates the realized FWER for any
true/false null pattern, of these two and of Bonferroni splitting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .canonical import FallbackState  # also re-exported from here
from .errors import ValidationError

logger = logging.getLogger(__name__)

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Hypothesis:
    hypothesis_id: str
    p_value: float
    weight: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p-value {self.p_value} outside [0, 1]")
        if self.weight is not None and self.weight < 0:
            raise ValidationError("negative weight")


@dataclass(frozen=True)
class HypothesisFamily:
    """Ordered hypotheses in their declared temporal/priority order."""

    hypotheses: tuple[Hypothesis, ...]
    family_alpha: float

    def __post_init__(self):
        if not 0.0 < self.family_alpha < 1.0:
            raise ValidationError(f"family alpha {self.family_alpha} outside (0, 1)")
        if not self.hypotheses:
            raise ValidationError("empty hypothesis family")

    def weights(self) -> tuple[float, ...]:
        ws = [h.weight for h in self.hypotheses]
        if any(w is None for w in ws):
            raise ValidationError("every hypothesis needs a weight")
        if abs(sum(ws) - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {sum(ws)}, need 1")
        return tuple(ws)


@dataclass(frozen=True)
class HypothesisDecision:
    hypothesis_id: str
    alpha_allocated: float
    decision: str
    alpha_carried_forward: float

    @property
    def rejected(self) -> bool:
        return self.decision == "reject_H0"


@dataclass(frozen=True)
class SequentialDecision:
    procedure: str
    decisions: tuple[HypothesisDecision, ...]


def fixed_sequence_test(family: HypothesisFamily) -> SequentialDecision:
    """Ordered gatekeeping at full alpha.

    H_i is rejected iff p_j <= alpha for every j <= i; the sequence
    terminates at the first failure and later hypotheses are not tested.
    """
    alpha = family.family_alpha
    alive = True
    decisions = []
    for h in family.hypotheses:
        if alive and h.p_value <= alpha:
            decisions.append(HypothesisDecision(h.hypothesis_id, alpha, "reject_H0", 0.0))
        else:
            allocated = alpha if alive else 0.0
            alive = False
            decisions.append(HypothesisDecision(h.hypothesis_id, allocated,
                                                "fail_to_reject", 0.0))
    return SequentialDecision("fixed_sequence", tuple(decisions))


def fallback_test(family: HypothesisFamily) -> SequentialDecision:
    """Weighted sequential testing with alpha carryover.

    Each hypothesis is tested at FallbackState.next_alpha and rejected when
    p_i <= alpha_i (ties reject). The trace records what each failure lost.
    """
    weights = family.weights()
    state = FallbackState(0, 0.0)
    decisions = []
    for h in family.hypotheses:
        allocated = state.next_alpha(family.family_alpha, weights)
        rejected = h.p_value <= allocated
        state = state.advance(allocated, rejected)
        decisions.append(HypothesisDecision(
            h.hypothesis_id, allocated,
            "reject_H0" if rejected else "fail_to_reject",
            state.carry,
        ))
    return SequentialDecision("fallback", tuple(decisions))


SIM_PROCEDURES = ("uncorrected", "bonferroni", "fixed_sequence", "fallback")
SIM_ALTERNATIVE_BETA = (0.1, 1.0)  # Beta(a, b) of the false nulls' p-values


@dataclass(frozen=True)
class FwerEstimate:
    procedure: str
    fwer: float
    stderr: float
    trials: int


def simulate_fwer(procedure: str, true_null: list[bool], family_alpha: float,
                  trials: int, seed: int, weights: list[float] | None = None) -> FwerEstimate:
    """Monte Carlo estimate of the FWER under a true/false null pattern.

    True-null p-values are uniform(0,1); false nulls draw from
    Beta(SIM_ALTERNATIVE_BETA), concentrated near zero. FWER counts trials with
    at least one rejection among the true nulls. The uncorrected procedure
    exists as a baseline only and is never accepted by the audit config.
    """
    if procedure not in SIM_PROCEDURES:
        raise ValidationError(f"unknown procedure {procedure!r}")
    if trials < 10_000:
        raise ValidationError(f"need >= 10000 trials, got {trials}")
    if not 0.0 < family_alpha < 1.0:
        raise ValidationError(f"alpha {family_alpha} outside (0, 1)")
    m = len(true_null)
    if m == 0:
        raise ValidationError("empty null pattern")
    null_mask = np.asarray(true_null, dtype=bool)
    if weights is None:
        weights = [1.0 / m] * m
        if procedure == "fallback":
            logger.warning("fallback weights unspecified, defaulting to uniform")
    if procedure == "fallback":
        if len(weights) != m:
            raise ValidationError("one weight per hypothesis")
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError("weights must be non-negative and sum to 1")

    rng = np.random.default_rng(seed)
    p = rng.uniform(size=(trials, m))
    n_false = int(np.sum(~null_mask))
    if n_false:
        p[:, ~null_mask] = rng.beta(*SIM_ALTERNATIVE_BETA, size=(trials, n_false))

    if procedure == "uncorrected":
        reject = p <= family_alpha
    elif procedure == "bonferroni":
        reject = p <= family_alpha / m
    elif procedure == "fixed_sequence":
        reject = np.logical_and.accumulate(p <= family_alpha, axis=1)
    else:
        reject = np.zeros((trials, m), dtype=bool)
        state = FallbackState(0, np.zeros(trials))
        for i in range(m):
            allocated = state.next_alpha(family_alpha, weights)
            reject[:, i] = p[:, i] <= allocated
            state = state.advance(allocated, reject[:, i])

    if null_mask.any():
        false_rejection = reject[:, null_mask].any(axis=1)
    else:
        false_rejection = np.zeros(trials, dtype=bool)
    fwer = float(np.mean(false_rejection))
    stderr = float(np.sqrt(fwer * (1.0 - fwer) / trials))
    return FwerEstimate(procedure, fwer, stderr, trials)
