"""Statistical conformance testing for ML systems: exact requirement tests,
family-wise error control across model updates, and the supporting drift,
uncertainty, fairness, leakage, OOD, and robustness checks, wired together
by an auditable, hash-chained certification ledger.

Submodules and the re-exported names load on first access (PEP 562), so a
command imports only the modules it runs."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("audit", "core", "drift", "fairness", "leakage", "multiplicity",
               "robustness", "sampling", "stattest", "uncertainty")
_EXPORTS = {"Dataset": "core", "MprSpec": "core", "SaddRecord": "core",
            "load_dataset": "core", "StatcertError": "errors"}

__all__ = [
    "Dataset", "MprSpec", "SaddRecord", "StatcertError", "__version__",
    "audit", "core", "drift", "fairness", "leakage", "load_dataset",
    "multiplicity", "robustness", "sampling", "stattest", "uncertainty",
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
