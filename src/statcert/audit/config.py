"""Declarative audit configuration.

One YAML file describes everything an audit run needs: dataset bindings,
the requirement family with its alpha budget, and the optional check
sections. Parsing is strict: each section's keys are its dataclass's
fields, so unknown keys are rejected, every value is converted to its
field's type (a wrong type is ConfigInvalid naming the key), every default
is materialized at load time, and the fully resolved tree is echoed into
the report, each section as its fields (`canonical.plain`), so a reader
never has to guess what a missing key meant. Two maps are free-form:
`sadd.sampling_descriptor`, recorded as written, and `ood.params`,
checked by the rule OodScorer applies (`core.ood_params`).
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping, get_args, get_origin, get_type_hints

import yaml

from ..canonical import plain
from ..core import (ATTACKS, DRIFT_METHODS, DUPLICATE_KEYS, FAIRNESS_METRICS, METRICS, NORMS,
                    OOD_METHODS, MprSpec, SaddRecord, Schema, ood_params)
from ..errors import ConfigInvalid, ValidationError
from ..stattest import BOOTSTRAP_MIN_B
from .ledger import sidecars

SHARE_TOL = 1e-9

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


def _build(cls, node, where: str, base: Path | None = None, **given):
    """An instance of dataclass `cls` from its YAML mapping, which is the one
    statement of the mapping's keys, defaults and types: each key names a
    field, a field without a default is required, an absent or null key
    takes the field's default, and each value is converted to its field's
    type. `given` holds fields whose YAML form is not a key of the mapping."""
    hints = get_type_hints(cls)
    declared = {f.name: f for f in fields(cls) if f.name not in given}
    required = {name for name, f in declared.items()
                if f.default is MISSING and f.default_factory is MISSING}
    node = _require_keys(node, set(declared), required, where)
    values = {k: _convert(v, hints[k], f"{where}.{k}", base) for k, v in node.items()}
    try:
        return cls(**values, **given)
    except ValidationError as e:
        raise ConfigInvalid(f"{where}: {e}") from e


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
    metric: str
    threshold: float
    direction: str = "at_least"
    test: str = "exact_binomial"
    alpha_share: float = 1.0

    def __post_init__(self):
        self.spec  # built now, so that MprSpec's checks refuse a config at load

    @cached_property
    def spec(self) -> MprSpec:
        """The requirement as `stattest.evaluate_mpr` takes it."""
        return MprSpec(self.metric, self.threshold, self.direction, self.alpha_share,
                       self.test)


@dataclass(frozen=True)
class FairnessRequirement:
    name: str
    dataset: str
    metric: str
    max_violation: float
    alpha_share: float
    n_bootstrap: int = 2000


@dataclass(frozen=True)
class LeakageSettings:
    enabled: bool = True
    train: str = "train"
    test: str = "test"
    duplicate_key: str = "exact_features"
    group_check: bool = False
    temporal_check: bool = False
    proxy_screen: bool = False


@dataclass(frozen=True)
class DriftSettings:
    reference: str
    method: str = "mmd_permutation"
    alpha: float = 0.05
    n_permutations: int = 1000
    categorical_dims: tuple[int, ...] = ()


@dataclass(frozen=True)
class UncertaintySettings:
    ensembles: Path
    abstain_thresholds: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class OodScenario:
    name: str
    path: Path
    narrative: str = ""


@dataclass(frozen=True)
class OodSettings:
    method: str
    reference: str
    validation: str
    target_tpr: float = 0.95
    params: dict = field(default_factory=dict)
    scenarios: tuple[OodScenario, ...] = ()


@dataclass(frozen=True)
class RobustnessSettings:
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
        shares = {r.name: r.alpha_share for r in (*self.mprs, *self.fairness)}
        return {
            "alpha": self.family_alpha,
            "weights": list(self.family_weights),
            "procedure": "fallback",
            "shares": dict(sorted(shares.items())),
        }

    def gating_dataset_names(self) -> list[str]:
        return sorted({r.dataset for r in (*self.mprs, *self.fairness)})

    def as_plain(self) -> dict:
        return {
            "seed": self.seed,
            "model_id": self.model_id,
            "sadd": plain(self.sadd),
            "datasets": plain(self.datasets),
            "family": self.family_snapshot(),
            "mprs": plain(self.mprs),
            "fairness": plain(self.fairness),
            "leakage": plain(self.leakage),
            "drift": plain(self.drift),
            "uncertainty": plain(self.uncertainty),
            "ood": plain(self.ood),
            "robustness": plain(self.robustness),
            "ledger": str(self.ledger_path),
            "report": str(self.report_path),
        }


def _binding(name: str, node, base: Path) -> DatasetBinding:
    where = f"datasets.{name}"
    node = _require_keys(node, {"path", "columns"}, {"path", "columns"}, where)
    columns = _convert(node["columns"], dict[str, str], f"{where}.columns")
    if not columns:
        raise ConfigInvalid(f"{where}.columns: expected a non-empty mapping")
    try:
        Schema.from_roles(columns)
    except ValidationError as e:
        raise ConfigInvalid(f"{where}.columns: {e}") from e
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


def _need_range(ok: bool, where: str, rule: str, value) -> None:
    if not ok:
        raise ConfigInvalid(f"{where} must be {rule}, got {value}")


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

    sadd = _build(SaddRecord, raw["sadd"], "sadd")
    datasets = {str(k): _binding(str(k), v, base)
                for k, v in _convert(raw["datasets"], dict, "datasets").items()}

    fam = _require_keys(raw["family"], {"alpha", "weights"}, {"alpha"}, "family")
    alpha = _convert(fam["alpha"], float, "family.alpha")
    _need_range(0.0 < alpha < 1.0, "family.alpha", "in (0, 1)", alpha)
    weights = _convert(fam.get("weights", [1.0]), tuple[float, ...], "family.weights")
    if not weights or any(w < 0 for w in weights):
        raise ConfigInvalid("family.weights must be non-negative")
    if abs(sum(weights) - 1.0) > SHARE_TOL:
        raise ConfigInvalid("family.weights must sum to 1")

    mprs = _convert(raw["mprs"], tuple[MprRequirement, ...], "mprs")
    for i, req in enumerate(mprs):
        where = f"mprs[{i}]"
        _need_roles(_need_dataset(req.dataset, datasets, where), ("label", "prediction"),
                    where)
        _need_choice(req.metric, METRICS, "metric", f"{where}.metric")
    if not mprs:
        raise ConfigInvalid("at least one MPR is required")

    fairness = _convert(raw.get("fairness", []), tuple[FairnessRequirement, ...],
                        "fairness")
    for i, req in enumerate(fairness):
        where = f"fairness[{i}]"
        _need_roles(_need_dataset(req.dataset, datasets, where),
                    ("group", "label", "prediction"), where)
        _need_choice(req.metric, FAIRNESS_METRICS, "fairness metric", f"{where}.metric")
        _need_range(req.max_violation >= 0.0, f"{where}.max_violation", "non-negative",
                    req.max_violation)
        _need_range(req.n_bootstrap >= BOOTSTRAP_MIN_B, f"{where}.n_bootstrap",
                    f">= {BOOTSTRAP_MIN_B}", req.n_bootstrap)
    requirements = {f"{section}[{i}]": req
                    for section, reqs in (("mprs", mprs), ("fairness", fairness))
                    for i, req in enumerate(reqs)}
    if len({req.name for req in requirements.values()}) != len(requirements):
        raise ConfigInvalid("requirement names must be unique")
    for where, req in requirements.items():
        _need_range(0.0 < req.alpha_share <= 1.0, f"{where}.alpha_share", "in (0, 1]",
                    req.alpha_share)
    share_sum = sum(req.alpha_share for req in requirements.values())
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
        reference = _need_dataset(drift.reference, datasets, "drift.reference")
        _need_roles(reference, ("feature",), "drift")
        _need_choice(drift.method, DRIFT_METHODS, "method", "drift.method")
        _need_range(0.0 < drift.alpha < 1.0, "drift.alpha", "in (0, 1)", drift.alpha)
        _need_range(drift.n_permutations >= 1, "drift.n_permutations", ">= 1",
                    drift.n_permutations)
        # indices into the reference's feature columns, which only the
        # per-feature tests read
        if drift.categorical_dims and drift.method != "univariate_bonferroni":
            raise ConfigInvalid(f"drift.categorical_dims: only univariate_bonferroni "
                                f"reads it, not {drift.method}")
        n_features = len(reference.feature_columns())
        outside = [i for i in drift.categorical_dims if not 0 <= i < n_features]
        if outside:
            raise ConfigInvalid(f"drift.categorical_dims: {outside} index no feature column "
                                f"of {drift.reference!r}, which has {n_features}")
        # written, not defaulted: only the MMD permutation test reads it
        if raw["drift"].get("n_permutations") is not None and drift.method != "mmd_permutation":
            raise ConfigInvalid(f"drift.n_permutations: only mmd_permutation reads it, "
                                f"not {drift.method}")

    uncertainty = None
    if "uncertainty" in raw:
        uncertainty = _build(UncertaintySettings, raw["uncertainty"], "uncertainty",
                             base)
        for k, limit in uncertainty.abstain_thresholds.items():
            if k not in ("total", "aleatoric", "epistemic"):
                raise ConfigInvalid(f"uncertainty.abstain_thresholds: unknown component {k!r}")
            _need_range(limit >= 0.0, f"uncertainty.abstain_thresholds.{k}", "non-negative",
                        limit)

    ood = None
    if "ood" in raw:
        ood = _build(OodSettings, raw["ood"], "ood", base)
        _need_choice(ood.method, OOD_METHODS, "method", "ood.method")
        _need_range(0.0 < ood.target_tpr <= 1.0, "ood.target_tpr", "in (0, 1]",
                    ood.target_tpr)
        ref = _need_dataset(ood.reference, datasets, "ood.reference")
        val = _need_dataset(ood.validation, datasets, "ood.validation")
        if ood.method == "distance_centroid":
            _need_roles(ref, ("label",), "ood")
        if ood.method == "max_softmax":
            _need_roles(val, ("score",), "ood")
        if len({s.name for s in ood.scenarios}) != len(ood.scenarios):
            raise ConfigInvalid("ood.scenarios: duplicate names")
        # echoed as written, less its null entries, which count as absent
        params = {k: v for k, v in ood.params.items() if v is not None}
        try:
            ood_params(ood.method, params)
        except ValidationError as e:
            raise ConfigInvalid(f"ood.params: {e}") from e
        ood = replace(ood, params=params)

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
        _need_range(robustness.epsilon >= 0.0, "robustness.epsilon", "non-negative",
                    robustness.epsilon)
        _need_range(robustness.budget >= 1, "robustness.budget", ">= 1", robustness.budget)
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
        mprs=mprs,
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
