import importlib

from .config import (AuditConfig, DatasetBinding, DriftSettings,
                     FairnessRequirement, LeakageSettings, MprRequirement,
                     OodScenario, OodSettings, RobustnessSettings,
                     UncertaintySettings, load_config)
from .ledger import AuditLedger, FallbackState, entry_hash, verify_ledger
from .report import SCHEMA_VERSION, AuditReport, render_markdown

# the runner pulls in every check module; it loads on first access (PEP 562)
_RUNNER_NAMES = ("MonitorOutcome", "monitor_step", "recertify", "run_audit")

__all__ = [
    "AuditConfig", "AuditLedger", "AuditReport", "DatasetBinding",
    "DriftSettings", "FairnessRequirement", "FallbackState", "LeakageSettings",
    "MonitorOutcome", "MprRequirement", "OodScenario", "OodSettings",
    "RobustnessSettings", "SCHEMA_VERSION", "UncertaintySettings",
    "entry_hash", "load_config", "monitor_step", "recertify",
    "render_markdown", "run_audit", "verify_ledger",
]


def __getattr__(name: str):
    if name in _RUNNER_NAMES:
        value = getattr(importlib.import_module(f"{__name__}.runner"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
