"""Exception types shared across the toolkit.

Everything raised on purpose derives from StatcertError so callers can
catch toolkit failures without swallowing programming errors.
"""

from __future__ import annotations


class StatcertError(Exception):
    """Base class for all toolkit errors."""


# data model

class SchemaMismatch(StatcertError):
    """Two datasets were expected to share a schema but do not."""


class MissingColumn(StatcertError):
    """An operation needs a column role the dataset does not carry."""


class EmptyDataset(StatcertError):
    """Zero rows where at least one is required."""


class DataLoadError(StatcertError):
    """A file could not be parsed into a valid dataset."""


class ValidationError(StatcertError):
    """Row-level contract violation (bad score vector, bad class index)."""


# metrics and losses

class UnknownMetric(StatcertError):
    """Metric identifier not present in the registry."""


class UnknownLoss(StatcertError):
    """Loss identifier not present in the registry."""


# sampling designs

class InsufficientStratum(StatcertError):
    """A stratum holds fewer population units than its allocation."""


class UnknownStrataKey(StatcertError):
    """Stratification key missing from the population frame."""


class MissingWeights(StatcertError):
    """Design-based estimation requires stratum weights."""


class EmptyStratum(StatcertError):
    """A declared stratum contains no sampled rows."""


# hypothesis tests

class InvalidCount(StatcertError):
    """Counts must satisfy 0 <= k <= n with n > 0."""


class DegenerateThreshold(StatcertError):
    """Threshold outside [0, 1] for a proportion hypothesis."""


class TooFewSamples(StatcertError):
    """Sample size below the documented floor for the method."""


class InvalidResampleCount(StatcertError):
    """Bootstrap replicate count below the documented floor."""


# multiplicity control

class InvalidAlpha(StatcertError):
    """Significance level must lie in (0, 1)."""


class WeightSumInvalid(StatcertError):
    """Fallback weights must be non-negative and sum to one."""


class InvalidTrialCount(StatcertError):
    """Simulation needs a positive number of trials."""


# drift detection

class DegenerateTable(StatcertError):
    """Contingency table with an empty margin."""


class DimensionMismatch(StatcertError):
    """Batches disagree on feature dimension."""


class SupportMismatch(StatcertError):
    """Discrete distributions defined on different supports."""


class DomainMismatch(StatcertError):
    """Point-check function evaluated off the distribution support."""


class NoShiftToClassify(StatcertError):
    """Shift classification called although no shift was detected."""


# uncertainty

class InvalidSimplexRow(StatcertError):
    """A probability vector is negative or does not sum to one."""


class DegenerateFlags(StatcertError):
    """Quality evaluation needs both correct and incorrect predictions."""


# fairness

class EmptyGroup(StatcertError):
    """No rows for one of the protected-attribute values."""


class EmptyCell(StatcertError):
    """No rows for a required group-by-label cell."""


# out-of-distribution scoring

class MethodParamInvalid(StatcertError):
    """Scorer method parameter outside its documented range."""


class EmptyValidation(StatcertError):
    """Threshold calibration requires a non-empty validation set."""


class DegenerateScores(StatcertError):
    """Score separation metrics need both populations non-degenerate."""


# robustness

class BudgetZero(StatcertError):
    """Attack query budget must be positive."""


class PredictorProtocolError(StatcertError):
    """The external prediction program broke the line protocol."""


# audit orchestration

class ConfigInvalid(StatcertError):
    """Audit configuration failed validation."""


class FamilyAlphaExhausted(StatcertError):
    """No fallback weight remains for a new ledger entry."""


class InconclusiveVerdict(FamilyAlphaExhausted):
    """The family is exhausted and the inconclusive report is written."""


class FamilyMismatch(StatcertError):
    """Config declares a different hypothesis family than the ledger."""


class StaleDataReuse(StatcertError):
    """Dataset content hash collides with a prior ledger entry."""


class LedgerCorrupt(StatcertError):
    """Hash chain or serialization of the audit ledger is broken."""


class LedgerVersionMismatch(StatcertError):
    """Ledger entries were written under another report schema version."""


class NoReferenceBatch(StatcertError):
    """Monitoring requires a reference batch in the config."""
