"""End-to-end audit orchestration.

A run is one logical transaction: leakage screens first (a violation gates
everything and spends no alpha), then the requirement family at the alpha
the ledger's fallback recurrence allocates to this entry, then the
informational sections. Reports carry no timestamps, so identical inputs
reproduce identical bytes; wall-clock provenance lives in the ledger.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .. import __version__
from ..core import Dataset, canonical_json, load_dataset
from ..drift import (ShiftClassification, ShiftVerdict, batch_from_dataset,
                     classify_shift, multivariate_shift_test)
from ..errors import (ConfigInvalid, DataLoadError, FamilyAlphaExhausted,
                      FamilyMismatch, LedgerCorrupt, LedgerVersionMismatch,
                      NoReferenceBatch, StaleDataReuse, StatcertError)
from ..fairness import GroupedOutcomes, fairness_mpr_check
from ..leakage import (duplicate_check, group_leakage_check, target_proxy_screen,
                       temporal_split_check)
from ..multiplicity import FallbackState
from ..robustness import (SubprocessPredictor, calibrate_threshold, evaluate_ood,
                          fit_ood_scorer, robust_accuracy)
from ..sampling import splitmix64
from ..stattest import evaluate_mpr
from ..uncertainty import (decompose, evaluate_uncertainty_quality, load_ensembles,
                           uncertainty_fallback)
from .config import AuditConfig, load_config
from .ledger import AuditLedger, verify_ledger
from .report import SCHEMA_VERSION, AuditReport


def _load_bound_datasets(config: AuditConfig) -> dict[str, Dataset]:
    out = {}
    for name, binding in config.datasets.items():
        try:
            out[name] = load_dataset(binding.path, binding.columns)
        except (StatcertError, OSError, ValueError) as e:
            raise DataLoadError(f"dataset {name!r} at {binding.path}: {e}") from e
    return out


def _leakage_section(config: AuditConfig, datasets: dict[str, Dataset]):
    settings = config.leakage
    if not settings.enabled:
        return False, {"gate": "skipped", "reports": []}
    train = datasets[settings.train]
    test = datasets[settings.test]
    reports = [duplicate_check(train, test, key=settings.duplicate_key)]
    if settings.group_check:
        reports.append(group_leakage_check(train, test))
    if settings.temporal_check:
        reports.append(temporal_split_check(train, test))
    if settings.proxy_screen:
        reports.append(target_proxy_screen(train, seed=config.seed))
    failed = any(r.severity == "violation" for r in reports)
    return failed, {"gate": "failed" if failed else "passed",
                    "reports": [r.as_plain() for r in reports]}


def _decision(name: str, test) -> dict:
    """The ledger's record of one requirement test."""
    return {"name": name, "p_value": test.p_value, "alpha_used": test.alpha_used,
            "decision": test.decision}


def _requirement_sections(config: AuditConfig, datasets: dict[str, Dataset],
                          entry_alpha: float):
    """Run every gating requirement at its share of the entry alpha."""
    mpr_rows, fairness_rows, decisions = [], [], []
    all_demonstrated = True
    for j, req in enumerate(config.mprs):
        alpha_j = entry_alpha * req.spec.alpha_share
        metric, test = evaluate_mpr(datasets[req.dataset], req.spec, alpha_j,
                                    seed=splitmix64(config.seed, 1000 + j))
        demonstrated = test.rejected
        all_demonstrated = all_demonstrated and demonstrated
        mpr_rows.append({
            "name": req.name,
            "dataset": req.dataset,
            "metric": req.spec.metric_id,
            "direction": req.spec.direction,
            "observed": metric.value,
            "threshold": req.spec.threshold,
            "n": metric.n,
            "demonstrated": demonstrated,
            "test": test.as_plain(),
        })
        decisions.append(_decision(req.name, test))
    for j, req in enumerate(config.fairness):
        alpha_j = entry_alpha * req.alpha_share
        outcomes = GroupedOutcomes.from_dataset(datasets[req.dataset])
        test = fairness_mpr_check(
            outcomes, [(req.metric, req.max_violation)],
            n_bootstrap=req.n_bootstrap, alpha=alpha_j,
            seed=splitmix64(config.seed, 2000 + j))[req.metric]
        demonstrated = test.rejected
        all_demonstrated = all_demonstrated and demonstrated
        fairness_rows.append({
            "name": req.name,
            "dataset": req.dataset,
            "metric": req.metric,
            "observed": test.statistic,
            "threshold": req.max_violation,
            "n": test.n,
            "demonstrated": demonstrated,
            "test": test.as_plain(),
        })
        decisions.append(_decision(req.name, test))
    return all_demonstrated, mpr_rows, fairness_rows, decisions


def _scenario_columns(config: AuditConfig) -> dict[str, str]:
    binding = config.datasets[config.ood.validation]
    if config.ood.method == "max_softmax":
        return {c: r for c, r in binding.columns.items() if r == "score"}
    return binding.feature_columns()


def _aux_sections(config: AuditConfig, datasets: dict[str, Dataset]) -> dict:
    checks: dict = {"drift": None, "uncertainty": None, "ood": None,
                    "robustness": None}

    if config.drift is not None:
        ref = datasets[config.drift.reference]
        checks["drift"] = {
            "method": config.drift.method,
            "alpha": config.drift.alpha,
            "reference": config.drift.reference,
            "reference_hash": ref.content_hash,
            "n_reference": ref.n_rows,
            "n_permutations": config.drift.n_permutations,
        }

    if config.uncertainty is not None:
        ensembles = load_ensembles(config.uncertainty.ensembles)
        decomps = [decompose(e) for e in ensembles]
        thresholds = config.uncertainty.abstain_thresholds
        abstained = sum(uncertainty_fallback(e, thresholds) == "abstain"
                        for e in ensembles) if thresholds else 0
        section = {
            "n_predictions": len(decomps),
            "mean_total": float(np.mean([d.total for d in decomps])),
            "mean_aleatoric": float(np.mean([d.aleatoric for d in decomps])),
            "mean_epistemic": float(np.mean([d.epistemic for d in decomps])),
            "abstain_thresholds": dict(sorted(thresholds.items())),
            "abstain_rate": abstained / len(decomps) if decomps else 0.0,
            "flag_quality_auroc": None,
        }
        if ensembles and all(e.correct is not None for e in ensembles):
            wrong = [not e.correct for e in ensembles]
            if 2 <= sum(wrong) <= len(wrong) - 2:
                quality = evaluate_uncertainty_quality(
                    decomps, wrong, task="misclassification_detection")
                section["flag_quality_auroc"] = quality.auroc
        checks["uncertainty"] = section

    if config.ood is not None:
        scorer = fit_ood_scorer(datasets[config.ood.reference], config.ood.method,
                                config.ood.params)
        threshold = calibrate_threshold(scorer, datasets[config.ood.validation],
                                        config.ood.target_tpr)
        rows = []
        for sc in config.ood.scenarios:
            ood_ds = load_dataset(sc.path, _scenario_columns(config))
            ev = evaluate_ood(scorer, datasets[config.ood.validation], ood_ds)
            rows.append({"scenario": sc.name, "narrative": sc.narrative,
                         "data_hash": ood_ds.content_hash,
                         "calibrated_threshold": threshold, **ev.as_plain()})
        checks["ood"] = rows

    if config.robustness is not None:
        rs = config.robustness
        command = [str(config.base_dir / c) if (config.base_dir / c).is_file() else c
                   for c in rs.predictor_command]
        with SubprocessPredictor(command) as predictor:
            result = robust_accuracy(predictor, datasets[rs.dataset], rs.epsilon,
                                     rs.norm, rs.attack, rs.budget, seed=config.seed)
        checks["robustness"] = result.as_plain()

    return checks


def _build_payload(config: AuditConfig, verdict: str, checks: dict,
                   dataset_hashes: dict, entry_index: int, entry_alpha: float,
                   carried_in: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "verdict": verdict,
        "model_id": config.model_id,
        "seed": config.seed,
        "sadd": {**config.as_plain()["sadd"], "content_hash": config.sadd.content_hash},
        "config": config.as_plain(),
        "family": config.family_snapshot(),
        "entry": {"index": entry_index, "alpha_allocated": entry_alpha,
                  "alpha_carried_in": carried_in},
        "dataset_hashes": dict(sorted(dataset_hashes.items())),
        "checks": checks,
        "environment": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def _certification_pass(config: AuditConfig, datasets: dict[str, Dataset],
                        entry_alpha: float):
    """Shared certification body: gate, family, auxiliary sections."""
    gate_failed, leak_section = _leakage_section(config, datasets)
    checks: dict = {"leakage": leak_section, "mpr": [], "fairness": [],
                    "drift": None, "uncertainty": None, "ood": None,
                    "robustness": None}
    if gate_failed:
        return checks, "fail", None, []
    all_demonstrated, mpr_rows, fairness_rows, decisions = _requirement_sections(
        config, datasets, entry_alpha)
    checks["mpr"] = mpr_rows
    checks["fairness"] = fairness_rows
    checks.update(_aux_sections(config, datasets))
    return checks, ("pass" if all_demonstrated else "fail"), all_demonstrated, decisions


def _open(ledger: AuditLedger, config: AuditConfig, *,
          need_entries: bool) -> FallbackState:
    """Check the ledger can take an entry under this config; return its
    replayed fallback state."""
    integrity = verify_ledger(ledger)
    if not integrity["consistent"]:
        raise LedgerCorrupt(
            f"entry {integrity['first_inconsistency']}: {integrity['detail']}")
    # entries without the field predate it: they were written under version 1
    older = next((e for e in ledger.entries
                  if e.get("schema_version", 1) != SCHEMA_VERSION), None)
    if older is not None:
        raise LedgerVersionMismatch(
            f"ledger entry {older['index']} was written under report schema version "
            f"{older.get('schema_version', 1)}, not {SCHEMA_VERSION}; its dataset "
            "hashes cannot tell fresh data from consumed data under this version, "
            "so start a new ledger")
    if len(ledger) == 0:
        if need_entries:
            raise ConfigInvalid("ledger is empty; run the initial certification first")
    elif ledger.family() != config.family_snapshot():
        raise FamilyMismatch("requirement family differs from the one frozen at "
                             "ledger entry 0")
    return ledger.replay_state()


def _allocate(state: FallbackState, config: AuditConfig) -> float:
    """The alpha the fallback recurrence gives the next test-bearing entry."""
    alpha = state.next_alpha(config.family_alpha, config.family_weights)
    if alpha <= 0.0:
        raise FamilyAlphaExhausted(
            f"fallback allocates zero alpha to test {state.tests_done}; its family "
            "weight is zero and nothing was carried forward")
    return alpha


def _commit(ledger: AuditLedger, config: AuditConfig, state: FallbackState, *,
            kind: str, alpha: float, demonstrated: bool | None,
            dataset_hashes: dict, gating_hashes, decisions: list[dict],
            verdict: str) -> dict:
    """Append the entry. demonstrated=None marks an entry that tested
    nothing: it spends no alpha, gates no data, and passes the carry on."""
    test_bearing = demonstrated is not None
    return ledger.append(
        kind=kind,
        model_id=config.model_id,
        family=config.family_snapshot(),
        dataset_hashes=dataset_hashes,
        gating_hashes=gating_hashes if test_bearing else [],
        seed=config.seed,
        test_bearing=test_bearing,
        alpha_allocated=alpha if test_bearing else 0.0,
        alpha_carried_in=state.carry,
        alpha_carried_out=(state.advance(alpha, demonstrated).carry if test_bearing
                           else state.carry),
        decisions=decisions,
        demonstrated=demonstrated,
        verdict=verdict,
    )


def _as_ledger(ledger: AuditLedger | str | Path) -> AuditLedger:
    return ledger if isinstance(ledger, AuditLedger) else AuditLedger(ledger)


def _as_config(config: AuditConfig | str | Path) -> AuditConfig:
    return config if isinstance(config, AuditConfig) else load_config(config)


def run_audit(config: AuditConfig | str | Path) -> AuditReport:
    """Initial certification: evaluate everything, write ledger entry 0.

    Re-running against an existing ledger is idempotent when the family,
    the bound data and the decisions recorded at entry 0 are reproduced (the
    report is regenerated, no entry is appended and no alpha is re-spent);
    anything else is an error, because entry 0 is already taken — subsequent
    evidence goes through recertify.
    """
    config = _as_config(config)
    ledger = AuditLedger(config.ledger_path)
    _open(ledger, config, need_entries=False)
    state = FallbackState(0, 0.0)  # a rerun regenerates entry 0
    datasets = _load_bound_datasets(config)
    dataset_hashes = {k: d.content_hash for k, d in datasets.items()}
    rerun = len(ledger) > 0
    if rerun and ledger.entries[0]["dataset_hashes"] != dict(sorted(dataset_hashes.items())):
        raise ConfigInvalid("ledger already holds an initial certification on "
                            "different data; use recertify")

    entry_alpha = _allocate(state, config)
    checks, verdict, demonstrated, decisions = _certification_pass(
        config, datasets, entry_alpha)
    # equal hashes do not pin the decisions: the seed and the thresholds are
    # outside the family, and values may differ past the 12th digit
    if rerun and (verdict != ledger.entries[0]["verdict"] or canonical_json(decisions)
                  != canonical_json(ledger.entries[0]["decisions"])):
        raise ConfigInvalid("ledger entry 0 holds other decisions on this data; a "
                            "rerun must reproduce them, and new evidence goes "
                            "through recertify")
    if not rerun:
        _commit(ledger, config, state, kind="certification", alpha=entry_alpha,
                demonstrated=demonstrated, dataset_hashes=dataset_hashes,
                gating_hashes=[datasets[n].content_hash
                               for n in config.gating_dataset_names()],
                decisions=decisions, verdict=verdict)
    payload = _build_payload(config, verdict, checks, dataset_hashes,
                             entry_index=0, entry_alpha=entry_alpha,
                             carried_in=state.carry)
    return AuditReport(payload)


def recertify(ledger: AuditLedger | str | Path, config: AuditConfig | str | Path,
              updated_model_data: Dataset | None = None) -> tuple[AuditReport, AuditLedger]:
    """Test an updated model at the alpha the fallback recurrence allocates.

    The gating data must be fresh: data with the content hash of any data a
    prior entry spent alpha on (the same multiset of rows at 12 significant
    digits, in any order) is refused. When updated_model_data is given
    it replaces every gating dataset binding; otherwise the bindings are
    reloaded from disk.
    """
    config = _as_config(config)
    ledger = _as_ledger(ledger)
    state = _open(ledger, config, need_entries=True)

    datasets = _load_bound_datasets(config)
    if updated_model_data is not None:
        for name in config.gating_dataset_names():
            datasets[name] = updated_model_data
    dataset_hashes = {k: d.content_hash for k, d in datasets.items()}
    gating_hashes = {datasets[n].content_hash for n in config.gating_dataset_names()}
    stale = gating_hashes & ledger.prior_gating_hashes()
    if stale:
        raise StaleDataReuse("gating data reuses content already consumed by a "
                             f"prior entry: {sorted(h[:12] for h in stale)}")

    entry_alpha = _allocate(state, config)
    checks, verdict, demonstrated, decisions = _certification_pass(
        config, datasets, entry_alpha)
    entry = _commit(ledger, config, state, kind="recertification", alpha=entry_alpha,
                    demonstrated=demonstrated, dataset_hashes=dataset_hashes,
                    gating_hashes=gating_hashes, decisions=decisions, verdict=verdict)
    payload = _build_payload(config, verdict, checks, dataset_hashes,
                             entry_index=entry["index"], entry_alpha=entry_alpha,
                             carried_in=state.carry)
    return AuditReport(payload), ledger


@dataclass(frozen=True)
class MonitorOutcome:
    verdict: str  # ok | shift_benign | shift_malignant | shift_unclassified
    shift: ShiftVerdict
    classification: ShiftClassification | None
    entry: dict

    def as_plain(self) -> dict:
        out = {"verdict": self.verdict, "shift": self.shift.as_plain(),
               "entry_index": self.entry["index"]}
        if self.classification is not None:
            out["point_check"] = {
                "label": self.classification.label,
                "observed": self.classification.metric.value,
                "test": self.classification.test.as_plain(),
            }
        return out


def monitor_step(ledger: AuditLedger | str | Path, config: AuditConfig | str | Path,
                 production_window: Dataset,
                 point_check: Dataset | None = None) -> MonitorOutcome:
    """One monitoring cycle: shift test, then optional labeled point check.

    No shift: verdict ok, nothing spent. Shift without labels: verdict
    shift_unclassified (still recorded). Shift with a labeled point check:
    the primary requirement is re-tested at the next fallback alpha, giving
    shift_benign or shift_malignant; that entry is test-bearing and consumes
    family alpha like a recertification.
    """
    config = _as_config(config)
    ledger = _as_ledger(ledger)
    state = _open(ledger, config, need_entries=True)
    if config.drift is None:
        raise NoReferenceBatch("config declares no drift section, so no reference "
                               "batch is registered")

    datasets = _load_bound_datasets(config)
    reference = batch_from_dataset(datasets[config.drift.reference], "reference")
    window = batch_from_dataset(production_window, "production")
    shift = multivariate_shift_test(
        reference, window, alpha=config.drift.alpha, method=config.drift.method,
        seed=config.seed, n_perm=config.drift.n_permutations,
        categorical_dims=config.drift.categorical_dims)

    dataset_hashes = {"reference": datasets[config.drift.reference].content_hash,
                      "window": production_window.content_hash}
    classification, demonstrated, entry_alpha = None, None, 0.0
    gating: list[str] = []
    decisions: list[dict] = []
    if shift.aggregate == "no_shift":
        verdict = "ok"
    elif point_check is None:
        verdict = "shift_unclassified"
    else:
        entry_alpha = _allocate(state, config)
        if point_check.content_hash in ledger.prior_gating_hashes():
            raise StaleDataReuse("point-check data reuses content already consumed "
                                 "by a prior entry")
        primary = config.mprs[0]
        classification = classify_shift(
            shift, point_check, primary.spec, entry_alpha,
            seed=splitmix64(config.seed, 3000 + len(ledger)))
        verdict = "shift_benign" if classification.label == "benign" else "shift_malignant"
        demonstrated = classification.test.rejected
        gating = [point_check.content_hash]
        dataset_hashes["point_check"] = point_check.content_hash
        decisions = [_decision(primary.name, classification.test)]

    entry = _commit(ledger, config, state, kind="monitor", alpha=entry_alpha,
                    demonstrated=demonstrated, dataset_hashes=dataset_hashes,
                    gating_hashes=gating, decisions=decisions, verdict=verdict)
    return MonitorOutcome(verdict, shift, classification, entry)
