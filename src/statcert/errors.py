"""Exception types shared across the toolkit.

Everything raised on purpose derives from StatcertError so callers can
catch toolkit failures without swallowing programming errors. Each class
stands for one way a caller handles a refusal; the message says what was
refused. `cli._EXIT_CODES` maps them to exit codes: LedgerCorrupt is 3,
FamilyAlphaExhausted and InconclusiveVerdict are 1, every other class is 2.
"""

from __future__ import annotations


class StatcertError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(StatcertError):
    """A library argument or a dataset breaks the documented contract."""


class DataLoadError(StatcertError):
    """A file could not be parsed into a valid dataset or report."""


class ConfigInvalid(StatcertError):
    """Audit configuration, or the audit it asks for, failed validation."""


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
