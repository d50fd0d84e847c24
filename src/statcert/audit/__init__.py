import importlib

from .ledger import AuditLedger, FallbackState, entry_hash, verify_ledger
from .report import SCHEMA_VERSION, AuditReport, render_markdown

# config loads numpy and yaml, and the runner every check module: each loads
# on first access of one of its names (PEP 562)
_LAZY = {name: "config" for name in (
    "AuditConfig", "DatasetBinding", "DriftSettings", "FairnessRequirement",
    "LeakageSettings", "MprRequirement", "OodScenario", "OodSettings",
    "RobustnessSettings", "UncertaintySettings", "load_config")}
_LAZY.update({name: "runner" for name in (
    "MonitorOutcome", "monitor_step", "recertify", "run_audit")})

__all__ = [
    "AuditConfig", "AuditLedger", "AuditReport", "DatasetBinding",
    "DriftSettings", "FairnessRequirement", "FallbackState", "LeakageSettings",
    "MonitorOutcome", "MprRequirement", "OodScenario", "OodSettings",
    "RobustnessSettings", "SCHEMA_VERSION", "UncertaintySettings",
    "entry_hash", "load_config", "monitor_step", "recertify",
    "render_markdown", "run_audit", "verify_ledger",
]


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
