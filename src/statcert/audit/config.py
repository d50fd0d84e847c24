"""Declarative audit configuration.

One YAML file describes everything an audit run needs: dataset bindings,
the requirement family with its alpha budget, and the optional check
sections. Parsing is strict: unknown keys are rejected, every default is
materialized at load time, and the fully resolved tree is echoed into the
report so a reader never has to guess what a missing key meant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

import yaml

from ..core import ROLES, MprSpec, SaddRecord
from ..errors import ConfigInvalid

SHARE_TOL = 1e-9

_ROLE_NEEDS = {
    "accuracy": ("label", "prediction"),
    "precision": ("label", "prediction"),
    "recall": ("label", "prediction"),
    "mse": ("label", "prediction"),
    "rmse": ("label", "prediction"),
}


def _require_keys(node: Mapping, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(node, Mapping):
        raise ConfigInvalid(f"{where}: expected a mapping")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigInvalid(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(node)
    if missing:
        raise ConfigInvalid(f"{where}: missing keys {sorted(missing)}")


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


class _Section:
    """A config section whose report form is its fields, in order."""

    def as_plain(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


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
        return {
            "name": self.name,
            "dataset": self.dataset,
            "metric": self.spec.metric_id,
            "direction": self.spec.direction,
            "threshold": self.spec.threshold,
            "test": self.spec.test_kind,
            "alpha_share": self.spec.alpha_share,
        }


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
    narrative: str


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
            "sadd": {
                "operating_context": self.sadd.part1_context,
                "technical_requirements": self.sadd.part2_technical,
                "sampling_strategy": self.sadd.part3_sampling,
                "sampling_descriptor": dict(self.sadd.sampling_descriptor),
                "version": self.sadd.version,
            },
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


def _binding(name: str, node: Mapping, base: Path) -> DatasetBinding:
    where = f"datasets.{name}"
    _require_keys(node, {"path", "columns"}, {"path", "columns"}, where)
    columns = node["columns"]
    if not isinstance(columns, Mapping) or not columns:
        raise ConfigInvalid(f"{where}.columns: expected a non-empty mapping")
    for col, role in columns.items():
        if role not in ROLES:
            raise ConfigInvalid(f"{where}.columns.{col}: unknown role {role!r}")
    path = (base / str(node["path"])).resolve()
    if not path.is_file():
        raise ConfigInvalid(f"{where}: file not found: {path}")
    return DatasetBinding(name, path, dict(columns))


def _need_roles(binding: DatasetBinding, roles: tuple[str, ...], where: str) -> None:
    missing = [r for r in roles if r not in binding.roles()]
    if missing:
        raise ConfigInvalid(
            f"{where}: dataset {binding.name!r} lacks declared roles {missing}")


def _need_dataset(name: str, datasets: dict, where: str) -> DatasetBinding:
    if name not in datasets:
        raise ConfigInvalid(f"{where}: unknown dataset {name!r}")
    return datasets[name]


def load_config(path: str | Path) -> AuditConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, yaml.YAMLError) as e:
        raise ConfigInvalid(f"cannot read config {path}: {e}") from e
    if not isinstance(raw, Mapping):
        raise ConfigInvalid("config root must be a mapping")
    base = path.parent

    top_allowed = {"version", "seed", "model_id", "sadd", "datasets", "family",
                   "mprs", "fairness", "leakage", "drift", "uncertainty", "ood",
                   "robustness", "ledger", "report"}
    _require_keys(raw, top_allowed, {"sadd", "datasets", "family", "mprs"}, "config")
    if raw.get("version", 1) != 1:
        raise ConfigInvalid(f"unsupported config version {raw.get('version')!r}")

    sadd_node = raw["sadd"]
    _require_keys(sadd_node,
                  {"operating_context", "technical_requirements", "sampling_strategy",
                   "sampling_descriptor", "version"},
                  {"operating_context", "technical_requirements", "sampling_strategy"},
                  "sadd")
    try:
        sadd = SaddRecord(
            part1_context=str(sadd_node["operating_context"]),
            part2_technical=str(sadd_node["technical_requirements"]),
            part3_sampling=str(sadd_node["sampling_strategy"]),
            sampling_descriptor=dict(sadd_node.get("sampling_descriptor", {})),
            version=int(sadd_node.get("version", 1)),
        )
    except Exception as e:
        raise ConfigInvalid(f"sadd: {e}") from e

    datasets = {str(k): _binding(str(k), v, base) for k, v in raw["datasets"].items()}

    fam = raw["family"]
    _require_keys(fam, {"alpha", "weights"}, {"alpha"}, "family")
    alpha = float(fam["alpha"])
    if not 0.0 < alpha < 1.0:
        raise ConfigInvalid("family.alpha must be in (0, 1)")
    weights = tuple(float(w) for w in fam.get("weights", [1.0]))
    if not weights or any(w < 0 for w in weights):
        raise ConfigInvalid("family.weights must be non-negative")
    if abs(sum(weights) - 1.0) > SHARE_TOL:
        raise ConfigInvalid("family.weights must sum to 1")

    mprs: list[MprRequirement] = []
    for i, node in enumerate(raw["mprs"] or []):
        where = f"mprs[{i}]"
        _require_keys(node, {"name", "dataset", "metric", "direction", "threshold",
                             "test", "alpha_share"},
                      {"name", "dataset", "metric", "threshold"}, where)
        binding = _need_dataset(str(node["dataset"]), datasets, where)
        metric = str(node["metric"])
        _need_roles(binding, _ROLE_NEEDS.get(metric, ("label", "prediction")), where)
        try:
            spec = MprSpec(
                metric_id=metric,
                threshold=float(node["threshold"]),
                direction=str(node.get("direction", "at_least")),
                alpha_share=float(node.get("alpha_share", 1.0)),
                test_kind=str(node.get("test", "exact_binomial")),
            )
        except Exception as e:
            raise ConfigInvalid(f"{where}: {e}") from e
        mprs.append(MprRequirement(str(node["name"]), binding.name, spec))
    if not mprs:
        raise ConfigInvalid("at least one MPR is required")
    names = [m.name for m in mprs]

    fairness: list[FairnessRequirement] = []
    for i, node in enumerate(raw.get("fairness") or []):
        where = f"fairness[{i}]"
        _require_keys(node, {"name", "dataset", "metric", "max_violation",
                             "alpha_share", "n_bootstrap"},
                      {"name", "dataset", "metric", "max_violation", "alpha_share"},
                      where)
        binding = _need_dataset(str(node["dataset"]), datasets, where)
        _need_roles(binding, ("group", "label", "prediction"), where)
        metric = str(node["metric"])
        if metric not in ("statistical_parity", "equal_opportunity", "equalized_odds"):
            raise ConfigInvalid(f"{where}: unknown fairness metric {metric!r}")
        fairness.append(FairnessRequirement(
            name=str(node["name"]),
            dataset=binding.name,
            metric=metric,
            max_violation=float(node["max_violation"]),
            alpha_share=float(node["alpha_share"]),
            n_bootstrap=int(node.get("n_bootstrap", 2000)),
        ))
        names.append(fairness[-1].name)
    if len(set(names)) != len(names):
        raise ConfigInvalid("requirement names must be unique")

    share_sum = sum(m.spec.alpha_share for m in mprs) + \
        sum(f.alpha_share for f in fairness)
    if abs(share_sum - 1.0) > SHARE_TOL:
        raise ConfigInvalid(
            f"alpha shares across requirements must sum to 1, got {share_sum}")

    leak_node = raw.get("leakage") or {}
    _require_keys(leak_node, {"enabled", "train", "test", "duplicate_key",
                              "group_check", "temporal_check", "proxy_screen"},
                  set(), "leakage")
    leakage = LeakageSettings(
        enabled=bool(leak_node.get("enabled", True)),
        train=str(leak_node.get("train", "train")),
        test=str(leak_node.get("test", "test")),
        duplicate_key=str(leak_node.get("duplicate_key", "exact_features")),
        group_check=bool(leak_node.get("group_check", False)),
        temporal_check=bool(leak_node.get("temporal_check", False)),
        proxy_screen=bool(leak_node.get("proxy_screen", False)),
    )
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
    if raw.get("drift") is not None:
        node = raw["drift"]
        _require_keys(node, {"reference", "method", "alpha", "n_permutations",
                             "categorical_dims"}, {"reference"}, "drift")
        binding = _need_dataset(str(node["reference"]), datasets, "drift.reference")
        _need_roles(binding, ("feature",), "drift")
        drift = DriftSettings(
            reference=binding.name,
            method=str(node.get("method", "mmd_permutation")),
            alpha=float(node.get("alpha", 0.05)),
            n_permutations=int(node.get("n_permutations", 1000)),
            categorical_dims=tuple(int(d) for d in node.get("categorical_dims", [])),
        )
        if drift.method not in ("mmd_permutation", "univariate_bonferroni"):
            raise ConfigInvalid(f"drift.method: unknown method {drift.method!r}")
        if not 0.0 < drift.alpha < 1.0:
            raise ConfigInvalid("drift.alpha must be in (0, 1)")
        if drift.n_permutations < 1:
            raise ConfigInvalid("drift.n_permutations must be >= 1")

    uncertainty = None
    if raw.get("uncertainty") is not None:
        node = raw["uncertainty"]
        _require_keys(node, {"ensembles", "abstain_thresholds"}, {"ensembles"},
                      "uncertainty")
        ens_path = (base / str(node["ensembles"])).resolve()
        if not ens_path.is_file():
            raise ConfigInvalid(f"uncertainty.ensembles: file not found: {ens_path}")
        thresholds = {str(k): float(v)
                      for k, v in (node.get("abstain_thresholds") or {}).items()}
        for k in thresholds:
            if k not in ("total", "aleatoric", "epistemic"):
                raise ConfigInvalid(f"uncertainty.abstain_thresholds: unknown component {k!r}")
        uncertainty = UncertaintySettings(ens_path, thresholds)

    ood = None
    if raw.get("ood") is not None:
        node = raw["ood"]
        _require_keys(node, {"method", "reference", "validation", "target_tpr",
                             "params", "scenarios"},
                      {"method", "reference", "validation"}, "ood")
        ref = _need_dataset(str(node["reference"]), datasets, "ood.reference")
        val = _need_dataset(str(node["validation"]), datasets, "ood.validation")
        method = str(node["method"])
        if method == "distance_centroid":
            _need_roles(ref, ("label",), "ood")
        if method == "max_softmax":
            _need_roles(val, ("score",), "ood")
        scenarios = []
        for i, sc in enumerate(node.get("scenarios") or []):
            where = f"ood.scenarios[{i}]"
            _require_keys(sc, {"name", "path", "narrative"}, {"name", "path"}, where)
            sc_path = (base / str(sc["path"])).resolve()
            if not sc_path.is_file():
                raise ConfigInvalid(f"{where}: file not found: {sc_path}")
            scenarios.append(OodScenario(str(sc["name"]), sc_path,
                                         str(sc.get("narrative", ""))))
        if len({s.name for s in scenarios}) != len(scenarios):
            raise ConfigInvalid("ood.scenarios: duplicate names")
        ood = OodSettings(
            method=method, reference=ref.name, validation=val.name,
            target_tpr=float(node.get("target_tpr", 0.95)),
            params=dict(node.get("params") or {}),
            scenarios=tuple(scenarios),
        )

    robustness = None
    if raw.get("robustness") is not None:
        node = raw["robustness"]
        _require_keys(node, {"dataset", "epsilon", "norm", "attack", "budget",
                             "predictor"},
                      {"dataset", "epsilon", "predictor"}, "robustness")
        binding = _need_dataset(str(node["dataset"]), datasets, "robustness.dataset")
        _need_roles(binding, ("feature", "label"), "robustness")
        pred = node["predictor"]
        _require_keys(pred, {"command"}, {"command"}, "robustness.predictor")
        command = tuple(str(c) for c in pred["command"])
        if not command:
            raise ConfigInvalid("robustness.predictor.command must be non-empty")
        robustness = RobustnessSettings(
            dataset=binding.name,
            epsilon=float(node["epsilon"]),
            norm=str(node.get("norm", "linf")).lower(),
            attack=str(node.get("attack", "coordinate_descent")),
            budget=int(node.get("budget", 1000)),
            predictor_command=command,
        )

    return AuditConfig(
        base_dir=base,
        seed=int(raw.get("seed", 0)),
        model_id=str(raw.get("model_id", "unnamed-model")),
        sadd=sadd,
        datasets=datasets,
        family_alpha=alpha,
        family_weights=weights,
        mprs=tuple(mprs),
        fairness=tuple(fairness),
        leakage=leakage,
        drift=drift,
        uncertainty=uncertainty,
        ood=ood,
        robustness=robustness,
        ledger_path=(base / str(raw.get("ledger", "audit_ledger.jsonl"))).resolve(),
        report_path=(base / str(raw.get("report", "audit_report.json"))).resolve(),
    )
