"""Declarative audit configuration.

One YAML file describes everything an audit run needs: dataset bindings,
the requirement family with its alpha budget, and the optional check
sections. Parsing is strict: unknown keys are rejected, every value is
converted to its field's type (a wrong type is ConfigInvalid naming the
key), every default is materialized at load time, and the fully resolved
tree is echoed into the report so a reader never has to guess what a
missing key meant.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Mapping, get_args, get_origin, get_type_hints

import yaml

from ..core import (ATTACKS, DRIFT_METHODS, DUPLICATE_KEYS, FAIRNESS_METRICS, METRICS, NORMS,
                    OOD_METHODS, ROLES, MprSpec, SaddRecord)
from ..errors import ConfigInvalid, ValidationError
from .ledger import sidecars

SHARE_TOL = 1e-9

# YAML keys of the blocks whose keys are not their dataclass's field names
_SADD_KEYS = {
    "operating_context": "part1_context",
    "technical_requirements": "part2_technical",
    "sampling_strategy": "part3_sampling",
    "sampling_descriptor": "sampling_descriptor",
    "version": "version",
}
_MPR_KEYS = {
    "metric": "metric_id",
    "threshold": "threshold",
    "direction": "direction",
    "test": "test_kind",
    "alpha_share": "alpha_share",
}

_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number",
             str: "a string", Path: "a file path", tuple: "a list", dict: "a mapping",
             abc.Mapping: "a mapping"}


def _require_keys(node, allowed: set[str], required: set[str], where: str) -> dict:
    """node without its null entries, which count as absent, once its keys
    are checked."""
    if not isinstance(node, Mapping):
        raise ConfigInvalid(f"{where}: expected a mapping")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigInvalid(f"{where}: unknown keys {sorted(map(str, unknown))}")
    given = {k: v for k, v in node.items() if v is not None}
    missing = required - set(given)
    if missing:
        raise ConfigInvalid(f"{where}: missing keys {sorted(missing)}")
    return given


def _convert(value, kind, where: str, base: Path | None = None):
    """value read as the annotated type `kind`, or ConfigInvalid naming
    `where`. A Path is an existing file relative to `base`; a dataclass is
    built by _build."""
    if is_dataclass(kind):
        return _build(kind, value, where, base)
    origin, args = get_origin(kind) or kind, get_args(kind)
    if origin is tuple and isinstance(value, list):
        return tuple(_convert(v, args[0], f"{where}[{i}]", base)
                     for i, v in enumerate(value))
    if origin in (dict, abc.Mapping) and isinstance(value, Mapping):
        if not args:
            return dict(value)
        return {_convert(k, args[0], where): _convert(v, args[1], f"{where}.{k}")
                for k, v in value.items()}
    if kind is object or (kind is bool and isinstance(value, bool)):
        return value
    scalar = isinstance(value, (str, int, float)) and not isinstance(value, bool)
    if scalar and kind is str:
        return str(value)
    if scalar and kind is Path:
        path = (base / str(value)).resolve()
        if not path.is_file():
            raise ConfigInvalid(f"{where}: file not found: {path}")
        return path
    # a float never becomes an int silently; a string is parsed, because
    # YAML reads a number like 1e-3 as text
    if scalar and kind in (int, float) and not (kind is int and isinstance(value, float)):
        try:
            number = kind(value)
            if math.isfinite(number):
                return number
        except (ValueError, OverflowError):
            pass
    raise ConfigInvalid(f"{where}: expected {_EXPECTED[origin]}, got {value!r}")


def _build(cls, node, where: str, base: Path | None = None,
           keys: Mapping[str, str] | None = None, **given):
    """An instance of dataclass `cls` from its YAML mapping, which is the one
    statement of the mapping's keys, defaults and types: each key names a
    field (through `keys` where the names differ), a field without a default
    is required, an absent or null key takes the field's default, and each
    value is converted to its field's type. `given` holds fields whose YAML
    form is not a key of the mapping."""
    hints = get_type_hints(cls)
    declared = {f.name: f for f in fields(cls) if f.name not in given}
    keys = keys or {name: name for name in declared}
    required = {key for key, name in keys.items()
                if declared[name].default is MISSING
                and declared[name].default_factory is MISSING}
    node = _require_keys(node, set(keys), required, where)
    values = {keys[k]: _convert(v, hints[keys[k]], f"{where}.{k}", base)
              for k, v in node.items()}
    try:
        return cls(**values, **given)
    except ValidationError as e:
        raise ConfigInvalid(f"{where}: {e}") from e


def _plain(value):
    """Report form of a settings value: paths as strings, sequences as
    lists, mappings sorted by key."""
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return dict(sorted(value.items()))
    if isinstance(value, _Section):
        return value.as_plain()
    return value


def _echo(obj, keys: Mapping[str, str] | None = None) -> dict:
    """Report form of the dataclass `obj`, keyed as its YAML mapping is: each
    key with its field's value, through `keys` where the names differ (see
    _build)."""
    keys = keys or {f.name: f.name for f in fields(obj)}
    return {key: _plain(getattr(obj, name)) for key, name in keys.items()}


class _Section:
    """A config section: its fields are its YAML keys (see _build), and its
    report form is its fields, in order."""

    def as_plain(self) -> dict:
        return _echo(self)


@dataclass(frozen=True)
class DatasetBinding:
    name: str
    path: Path
    columns: dict[str, str]  # column name -> role

    def feature_columns(self) -> dict[str, str]:
        return {c: r for c, r in self.columns.items() if r == "feature"}

    def roles(self) -> set[str]:
        return set(self.columns.values())

    def as_plain(self) -> dict:
        return {"path": str(self.path), "columns": dict(sorted(self.columns.items()))}


@dataclass(frozen=True)
class MprRequirement:
    name: str
    dataset: str
    spec: MprSpec

    def as_plain(self) -> dict:
        return {"name": self.name, "dataset": self.dataset, **_echo(self.spec, _MPR_KEYS)}


@dataclass(frozen=True)
class FairnessRequirement(_Section):
    name: str
    dataset: str
    metric: str
    max_violation: float
    alpha_share: float
    n_bootstrap: int = 2000


@dataclass(frozen=True)
class LeakageSettings(_Section):
    enabled: bool = True
    train: str = "train"
    test: str = "test"
    duplicate_key: str = "exact_features"
    group_check: bool = False
    temporal_check: bool = False
    proxy_screen: bool = False


@dataclass(frozen=True)
class DriftSettings(_Section):
    reference: str
    method: str = "mmd_permutation"
    alpha: float = 0.05
    n_permutations: int = 1000
    categorical_dims: tuple[int, ...] = ()


@dataclass(frozen=True)
class UncertaintySettings(_Section):
    ensembles: Path
    abstain_thresholds: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class OodScenario(_Section):
    name: str
    path: Path
    narrative: str = ""


@dataclass(frozen=True)
class OodSettings(_Section):
    method: str
    reference: str
    validation: str
    target_tpr: float = 0.95
    params: dict = field(default_factory=dict)
    scenarios: tuple[OodScenario, ...] = ()


@dataclass(frozen=True)
class RobustnessSettings(_Section):
    dataset: str
    epsilon: float
    norm: str = "linf"
    attack: str = "coordinate_descent"
    budget: int = 1000
    predictor_command: tuple[str, ...] = ()


@dataclass(frozen=True)
class AuditConfig:
    base_dir: Path
    seed: int
    model_id: str
    sadd: SaddRecord
    datasets: dict[str, DatasetBinding]
    family_alpha: float
    family_weights: tuple[float, ...]
    mprs: tuple[MprRequirement, ...]
    fairness: tuple[FairnessRequirement, ...]
    leakage: LeakageSettings
    drift: DriftSettings | None
    uncertainty: UncertaintySettings | None
    ood: OodSettings | None
    robustness: RobustnessSettings | None
    ledger_path: Path
    report_path: Path

    def family_snapshot(self) -> dict:
        """The frozen multiplicity contract: alpha budget, per-entry weights,
        and the within-entry share of every gating requirement."""
        shares = {r.name: r.spec.alpha_share for r in self.mprs}
        shares.update({r.name: r.alpha_share for r in self.fairness})
        return {
            "alpha": self.family_alpha,
            "weights": list(self.family_weights),
            "procedure": "fallback",
            "shares": dict(sorted(shares.items())),
        }

    def gating_dataset_names(self) -> list[str]:
        names = [r.dataset for r in self.mprs] + [r.dataset for r in self.fairness]
        return sorted(set(names))

    def as_plain(self) -> dict:
        return {
            "seed": self.seed,
            "model_id": self.model_id,
            "sadd": _echo(self.sadd, _SADD_KEYS),
            "datasets": {k: v.as_plain() for k, v in sorted(self.datasets.items())},
            "family": self.family_snapshot(),
            "mprs": [r.as_plain() for r in self.mprs],
            "fairness": _plain(self.fairness),
            "leakage": _plain(self.leakage),
            "drift": _plain(self.drift),
            "uncertainty": _plain(self.uncertainty),
            "ood": _plain(self.ood),
            "robustness": _plain(self.robustness),
            "ledger": str(self.ledger_path),
            "report": str(self.report_path),
        }


def _binding(name: str, node, base: Path) -> DatasetBinding:
    where = f"datasets.{name}"
    node = _require_keys(node, {"path", "columns"}, {"path", "columns"}, where)
    columns = _convert(node["columns"], dict[str, str], f"{where}.columns")
    if not columns:
        raise ConfigInvalid(f"{where}.columns: expected a non-empty mapping")
    for col, role in columns.items():
        if role not in ROLES:
            raise ConfigInvalid(f"{where}.columns.{col}: unknown role {role!r}")
    path = _convert(node["path"], Path, f"{where}.path", base)
    return DatasetBinding(name, path, columns)


def _need_roles(binding: DatasetBinding, roles: tuple[str, ...], where: str) -> None:
    missing = [r for r in roles if r not in binding.roles()]
    if missing:
        raise ConfigInvalid(
            f"{where}: dataset {binding.name!r} lacks declared roles {missing}")


def _need_choice(value: str, choices, what: str, where: str) -> None:
    if value not in choices:
        raise ConfigInvalid(f"{where}: unknown {what} {value!r}, "
                            f"expected one of {sorted(choices)}")


def _need_dataset(name: str, datasets: dict, where: str) -> DatasetBinding:
    if name not in datasets:
        raise ConfigInvalid(f"{where}: unknown dataset {name!r}")
    return datasets[name]


def _artifact_path(raw: dict, key: str, default: str, base: Path,
                   taken: dict[Path, str], with_sidecars: bool = False) -> Path:
    """The file a command writes under `key`, refused here, before any data
    is read, when it is a directory, its directory does not exist or it is
    a file `taken` names, which it would overwrite, and likewise when one
    of its ledger sidecars is; then added to `taken`, with its sidecars."""
    path = (base / _convert(raw.get(key, default), str, key)).resolve()
    if path.is_dir():
        raise ConfigInvalid(f"{key}: {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigInvalid(f"{key}: directory {path.parent} does not exist")
    claims = {path: "", **(sidecars(path) if with_sidecars else {})}
    for claim, what in claims.items():
        if claim in taken:
            named = f"its {what} " if what else ""
            raise ConfigInvalid(f"{key}: {named}{claim} is the same file as {taken[claim]}")
    taken.update({claim: f"the {key}'s {what}" if what else key
                  for claim, what in claims.items()})
    return path


def load_config(path: str | Path) -> AuditConfig:
    path = Path(path)
    # as bytes, which PyYAML decodes as UTF-8 or UTF-16 whatever the locale
    try:
        raw = yaml.safe_load(path.read_bytes())
    except (OSError, yaml.YAMLError) as e:
        raise ConfigInvalid(f"cannot read config {path}: {e}") from e
    base = path.parent

    raw = _require_keys(raw, {"version", "seed", "model_id", "sadd", "datasets", "family",
                              "mprs", "fairness", "leakage", "drift", "uncertainty", "ood",
                              "robustness", "ledger", "report"},
                        {"sadd", "datasets", "family", "mprs"}, "config")
    if _convert(raw.get("version", 1), int, "version") != 1:
        raise ConfigInvalid(f"unsupported config version {raw['version']!r}")

    sadd = _build(SaddRecord, raw["sadd"], "sadd", keys=_SADD_KEYS)
    datasets = {str(k): _binding(str(k), v, base)
                for k, v in _convert(raw["datasets"], dict, "datasets").items()}

    fam = _require_keys(raw["family"], {"alpha", "weights"}, {"alpha"}, "family")
    alpha = _convert(fam["alpha"], float, "family.alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigInvalid("family.alpha must be in (0, 1)")
    weights = _convert(fam.get("weights", [1.0]), tuple[float, ...], "family.weights")
    if not weights or any(w < 0 for w in weights):
        raise ConfigInvalid("family.weights must be non-negative")
    if abs(sum(weights) - 1.0) > SHARE_TOL:
        raise ConfigInvalid("family.weights must sum to 1")

    mprs: list[MprRequirement] = []
    for i, node in enumerate(_convert(raw["mprs"], tuple[dict, ...], "mprs")):
        where = f"mprs[{i}]"
        node = _require_keys(node, {"name", "dataset", *_MPR_KEYS}, {"name", "dataset"},
                             where)
        binding = _need_dataset(_convert(node.pop("dataset"), str, f"{where}.dataset"),
                                datasets, where)
        _need_roles(binding, ("label", "prediction"), where)
        name = _convert(node.pop("name"), str, f"{where}.name")
        spec = _build(MprSpec, node, where, keys=_MPR_KEYS)
        _need_choice(spec.metric_id, METRICS, "metric", f"{where}.metric")
        mprs.append(MprRequirement(name, binding.name, spec))
    if not mprs:
        raise ConfigInvalid("at least one MPR is required")

    fairness = _convert(raw.get("fairness", []), tuple[FairnessRequirement, ...],
                        "fairness")
    for i, req in enumerate(fairness):
        where = f"fairness[{i}]"
        _need_roles(_need_dataset(req.dataset, datasets, where),
                    ("group", "label", "prediction"), where)
        _need_choice(req.metric, FAIRNESS_METRICS, "fairness metric", f"{where}.metric")
    names = [m.name for m in mprs] + [f.name for f in fairness]
    if len(set(names)) != len(names):
        raise ConfigInvalid("requirement names must be unique")

    share_sum = sum(m.spec.alpha_share for m in mprs) + \
        sum(f.alpha_share for f in fairness)
    if abs(share_sum - 1.0) > SHARE_TOL:
        raise ConfigInvalid(
            f"alpha shares across requirements must sum to 1, got {share_sum}")

    leakage = _build(LeakageSettings, raw.get("leakage", {}), "leakage")
    _need_choice(leakage.duplicate_key, DUPLICATE_KEYS, "key", "leakage.duplicate_key")
    if leakage.enabled:
        _need_dataset(leakage.train, datasets, "leakage.train")
        _need_dataset(leakage.test, datasets, "leakage.test")
        if leakage.group_check:
            for nm in (leakage.train, leakage.test):
                _need_roles(datasets[nm], ("group_id",), "leakage.group_check")
        if leakage.temporal_check:
            for nm in (leakage.train, leakage.test):
                _need_roles(datasets[nm], ("timestamp",), "leakage.temporal_check")
        if leakage.proxy_screen:
            _need_roles(datasets[leakage.train], ("label",), "leakage.proxy_screen")

    drift = None
    if "drift" in raw:
        drift = _build(DriftSettings, raw["drift"], "drift")
        _need_roles(_need_dataset(drift.reference, datasets, "drift.reference"),
                    ("feature",), "drift")
        _need_choice(drift.method, DRIFT_METHODS, "method", "drift.method")
        if not 0.0 < drift.alpha < 1.0:
            raise ConfigInvalid("drift.alpha must be in (0, 1)")
        if drift.n_permutations < 1:
            raise ConfigInvalid("drift.n_permutations must be >= 1")

    uncertainty = None
    if "uncertainty" in raw:
        uncertainty = _build(UncertaintySettings, raw["uncertainty"], "uncertainty",
                             base)
        for k in uncertainty.abstain_thresholds:
            if k not in ("total", "aleatoric", "epistemic"):
                raise ConfigInvalid(f"uncertainty.abstain_thresholds: unknown component {k!r}")

    ood = None
    if "ood" in raw:
        ood = _build(OodSettings, raw["ood"], "ood", base)
        _need_choice(ood.method, OOD_METHODS, "method", "ood.method")
        ref = _need_dataset(ood.reference, datasets, "ood.reference")
        val = _need_dataset(ood.validation, datasets, "ood.validation")
        if ood.method == "distance_centroid":
            _need_roles(ref, ("label",), "ood")
        if ood.method == "max_softmax":
            _need_roles(val, ("score",), "ood")
        if len({s.name for s in ood.scenarios}) != len(ood.scenarios):
            raise ConfigInvalid("ood.scenarios: duplicate names")

    robustness = None
    if "robustness" in raw:
        node = dict(_convert(raw["robustness"], dict, "robustness"))
        # robustness.predictor.command is the predictor_command field
        predictor = _require_keys(node.pop("predictor", None), {"command"}, {"command"},
                                  "robustness.predictor")
        command = _convert(predictor["command"], tuple[str, ...],
                           "robustness.predictor.command")
        if not command:
            raise ConfigInvalid("robustness.predictor.command must be non-empty")
        robustness = _build(RobustnessSettings, node, "robustness",
                            predictor_command=command)
        robustness = replace(robustness, norm=robustness.norm.lower())
        _need_choice(robustness.norm, NORMS, "norm", "robustness.norm")
        _need_choice(robustness.attack, ATTACKS, "attack", "robustness.attack")
        _need_roles(_need_dataset(robustness.dataset, datasets, "robustness.dataset"),
                    ("feature", "label"), "robustness")

    # every file the config names, resolved: neither artifact, nor a ledger
    # sidecar, may overwrite one
    taken = {path.resolve(): "config",
             **{b.path: f"datasets.{b.name}.path" for b in datasets.values()}}
    if uncertainty is not None:
        taken[uncertainty.ensembles] = "uncertainty.ensembles"
    for i, scenario in enumerate(ood.scenarios if ood is not None else ()):
        taken[scenario.path] = f"ood.scenarios[{i}].path"
    return AuditConfig(
        base_dir=base,
        seed=_convert(raw.get("seed", 0), int, "seed"),
        model_id=_convert(raw.get("model_id", "unnamed-model"), str, "model_id"),
        sadd=sadd,
        datasets=datasets,
        family_alpha=alpha,
        family_weights=weights,
        mprs=tuple(mprs),
        fairness=fairness,
        leakage=leakage,
        drift=drift,
        uncertainty=uncertainty,
        ood=ood,
        robustness=robustness,
        ledger_path=_artifact_path(raw, "ledger", "audit_ledger.jsonl", base, taken,
                                   with_sidecars=True),
        report_path=_artifact_path(raw, "report", "audit_report.json", base, taken),
    )
