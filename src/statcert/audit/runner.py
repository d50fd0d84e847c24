"""End-to-end audit orchestration.

run, recertify and monitor write their ledger entry through one
transaction, `_Entry`: opening it locks the ledger and checks it, `spend`
refuses consumed gating data and then allocates the fallback alpha, and
`commit` appends the entry and fsyncs the ledger; the lock is released
when the transaction's with block ends. Data files are read after it
opens, by `_load`, whose errors name the file's role. run and recertify
share `_certify`: the leakage screens first (a violation gates
everything, and the entry spends no alpha), then the requirement family
at the alpha `spend` allocated, then the informational sections; last,
the report is staged, the entry committed and the report renamed into
place. Reports carry no timestamps, so identical inputs reproduce
identical bytes; wall-clock provenance lives in the ledger.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import __version__
from ..canonical import FallbackState, canonical_json, plain
from ..core import Dataset, load_dataset
from ..drift import (ShiftClassification, ShiftVerdict, batch_from_dataset,
                     classify_shift, multivariate_shift_test)
from ..errors import (ConfigInvalid, DataLoadError, FamilyAlphaExhausted,
                      FamilyMismatch, InconclusiveVerdict, LedgerCorrupt,
                      StaleDataReuse, StatcertError)
from ..sampling import splitmix64
from ..stattest import evaluate_mpr
from .config import AuditConfig, load_config
from .ledger import AuditLedger, resume_replay
from .report import SCHEMA_CHANGES, SCHEMA_VERSION, AuditReport


def _load(what: str, path: str | Path, roles: dict[str, str]) -> Dataset:
    """Read one data file; any error becomes DataLoadError naming its role."""
    try:
        return load_dataset(path, roles)
    except (StatcertError, OSError, ValueError) as e:
        # most loader messages name the file already
        where = "" if str(path) in str(e) else f" at {path}"
        raise DataLoadError(f"{what}{where}: {e}") from e


def _leakage_section(config: AuditConfig, datasets: dict[str, Dataset]):
    settings = config.leakage
    if not settings.enabled:
        return False, {"gate": "skipped", "reports": []}
    from ..leakage import (duplicate_check, group_leakage_check, target_proxy_screen,
                           temporal_split_check)
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
                    "reports": plain(reports)}


def _decision(name: str, test) -> dict:
    """The ledger's record of one requirement test."""
    return {"name": name, "p_value": test.p_value, "alpha_used": test.alpha_used,
            "decision": test.decision}


def _requirement_sections(config: AuditConfig, datasets: dict[str, Dataset],
                          entry_alpha: float):
    """Run every gating requirement at its share of the entry alpha."""
    tests = []

    def row(req, test, metric: str, observed, threshold, n: int, **extra) -> dict:
        tests.append((req.name, test))
        return {"name": req.name, "dataset": req.dataset, "metric": metric, **extra,
                "observed": observed, "threshold": threshold, "n": n,
                "demonstrated": test.rejected, "test": plain(test)}

    mpr_rows = []
    for j, req in enumerate(config.mprs):
        metric, test = evaluate_mpr(datasets[req.dataset], req.spec,
                                    entry_alpha * req.alpha_share,
                                    seed=splitmix64(config.seed, 1000 + j))
        mpr_rows.append(row(req, test, req.metric, metric.value, req.threshold, metric.n,
                            direction=req.direction))
    fairness_rows = []
    if config.fairness:
        from ..fairness import GroupedOutcomes, fairness_mpr_check
    for j, req in enumerate(config.fairness):
        test = fairness_mpr_check(
            GroupedOutcomes.from_dataset(datasets[req.dataset]), req.metric,
            req.max_violation, n_bootstrap=req.n_bootstrap,
            alpha=entry_alpha * req.alpha_share, seed=splitmix64(config.seed, 2000 + j))
        fairness_rows.append(row(req, test, req.metric, test.statistic,
                                 req.max_violation, test.n))
    return (all(test.rejected for _, test in tests), mpr_rows, fairness_rows,
            [_decision(name, test) for name, test in tests])


def _scenario_columns(config: AuditConfig) -> dict[str, str]:
    binding = config.datasets[config.ood.validation]
    if config.ood.method == "max_softmax":
        return {c: r for c, r in binding.columns.items() if r == "score"}
    return binding.feature_columns()


# the informational sections: a report holds each key, null where not configured
_AUX_CHECKS = ("drift", "uncertainty", "ood", "robustness")


def _aux_sections(config: AuditConfig, datasets: dict[str, Dataset]) -> dict:
    checks: dict = dict.fromkeys(_AUX_CHECKS)

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
        from ..uncertainty import (decompose, evaluate_uncertainty_quality,
                                   load_ensembles, uncertainty_fallback)
        ensembles = load_ensembles(config.uncertainty.ensembles)
        decomps = [decompose(e) for e in ensembles]
        thresholds = config.uncertainty.abstain_thresholds
        abstained = sum(uncertainty_fallback(d, thresholds) == "abstain"
                        for d in decomps) if thresholds else 0
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
                section["flag_quality_auroc"] = evaluate_uncertainty_quality(decomps, wrong)
        checks["uncertainty"] = section

    if config.ood is not None:
        from ..robustness import calibrate_threshold, evaluate_ood, fit_ood_scorer
        scorer = fit_ood_scorer(datasets[config.ood.reference], config.ood.method,
                                config.ood.params)
        threshold = calibrate_threshold(scorer, datasets[config.ood.validation],
                                        config.ood.target_tpr)
        rows = []
        for sc in config.ood.scenarios:
            ood_ds = _load(f"ood scenario {sc.name!r}", sc.path, _scenario_columns(config))
            ev = evaluate_ood(scorer, datasets[config.ood.validation], ood_ds)
            rows.append({"scenario": sc.name, "narrative": sc.narrative,
                         "data_hash": ood_ds.content_hash,
                         "calibrated_threshold": threshold, **plain(ev)})
        checks["ood"] = rows

    if config.robustness is not None:
        from ..robustness import SubprocessPredictor, robust_accuracy
        rs = config.robustness
        command = [str(config.base_dir / c) if (config.base_dir / c).is_file() else c
                   for c in rs.predictor_command]
        with SubprocessPredictor(command) as predictor:
            result = robust_accuracy(predictor, datasets[rs.dataset], rs.epsilon,
                                     rs.norm, rs.attack, rs.budget, seed=config.seed)
        checks["robustness"] = plain(result)

    return checks


def _schema_refusal(older: dict) -> str:
    """Why an entry written under another schema version ends the ledger."""
    version = older.get("schema_version", 1)  # entries without it predate the field
    reasons = ([SCHEMA_CHANGES[v] for v in range(version + 1, SCHEMA_VERSION + 1)]
               if type(version) is int and 1 <= version < SCHEMA_VERSION else
               ["no entry is comparable across schema versions"])
    return (f"ledger entry {older['index']} was written under report schema version "
            f"{version}, not {SCHEMA_VERSION}: {'; '.join(reasons)}; start a new ledger")


class _Entry:
    """The one ledger transaction: lock the ledger, open it, spend alpha on
    fresh data, commit the entry. Construction takes the ledger's write
    lock and holds it until the with block that uses the transaction ends,
    so no other writer moves the tail the entry continues from. Opening
    replays the ledger, from the checkpoint of the prefix the last writer
    verified where that still matches, and checks that it can take an
    entry under this config: integrity, schema version, entries present
    (unless the entry is the initial one), family. An initial entry is
    entry 0, which a rerun regenerates: it starts the fallback recurrence
    and finds nothing consumed."""

    def __init__(self, ledger: AuditLedger | str | Path, config: AuditConfig, *,
                 initial: bool = False):
        self.ledger = ledger if isinstance(ledger, AuditLedger) else AuditLedger(ledger)
        self.config = config
        self._lock = self.ledger.lock()
        try:
            self.replay = replayed = resume_replay(self.ledger)
            if not replayed.consistent:
                raise LedgerCorrupt(
                    f"entry {replayed.first_inconsistency}: {replayed.detail}")
            if replayed.older is not None:
                raise ConfigInvalid(_schema_refusal(replayed.older))
            if replayed.n_entries == 0:
                if not initial:
                    raise ConfigInvalid("ledger is empty; run the initial certification first")
            elif replayed.family != config.family_snapshot():
                raise FamilyMismatch("requirement family differs from the one frozen at "
                                     "ledger entry 0")
        except BaseException:
            self._lock.close()
            raise
        if initial:
            self.index, self.state, self.consumed = 0, FallbackState(0, 0.0), frozenset()
        else:
            self.index, self.state, self.consumed = (replayed.n_entries, replayed.state,
                                                     replayed.consumed)
        self.alpha, self.gating = 0.0, []

    def __enter__(self) -> "_Entry":
        return self

    def __exit__(self, *exc) -> None:
        self._lock.close()

    def spend(self, gating_hashes, what: str) -> float:
        """Refuse gating data that a prior entry consumed, since FWER
        control holds only on fresh data; then allocate the alpha the
        fallback recurrence gives this entry. Both are kept for commit."""
        stale = self.consumed.intersection(gating_hashes)
        if stale:
            raise StaleDataReuse(f"{what} reuses content already consumed by a prior "
                                 f"entry: {sorted(h[:12] for h in stale)}")
        alpha = self.state.next_alpha(self.config.family_alpha, self.config.family_weights)
        if alpha <= 0.0:
            raise FamilyAlphaExhausted(
                f"fallback allocates zero alpha to test {self.state.tests_done}; its "
                "family weight is zero and nothing was carried forward")
        self.alpha, self.gating = alpha, gating_hashes
        return alpha

    def recorded_alpha(self, demonstrated: bool | None) -> float:
        """The alpha the entry records: what spend allocated, or none when
        the entry tested nothing."""
        return self.alpha if demonstrated is not None else 0.0

    def commit(self, kind: str, verdict: str, demonstrated: bool | None,
               dataset_hashes: dict, decisions: list[dict]) -> dict:
        """Append the entry and fsync the ledger. demonstrated=None marks an
        entry that tested nothing: it spends no alpha, gates no data, and
        passes the carry on."""
        tested = demonstrated is not None
        config, state = self.config, self.state
        entry = self.ledger.append(
            kind=kind,
            model_id=config.model_id,
            family=config.family_snapshot(),
            dataset_hashes=dataset_hashes,
            gating_hashes=self.gating if tested else [],
            seed=config.seed,
            test_bearing=tested,
            alpha_allocated=self.recorded_alpha(demonstrated),
            alpha_carried_in=state.carry,
            alpha_carried_out=(state.advance(self.alpha, demonstrated) if tested
                               else state).carry,
            decisions=decisions,
            demonstrated=demonstrated,
            verdict=verdict,
        )
        self.ledger.sync()
        return entry


def _as_config(config: AuditConfig | str | Path) -> AuditConfig:
    return config if isinstance(config, AuditConfig) else load_config(config)


def _certify(entry: _Entry, kind: str, rerun_of: dict | None = None) -> AuditReport:
    """Load the bound data, spend, test, and publish the report with the
    entry's commit, or the inconclusive report if spend finds the family
    exhausted. A rerun of entry 0 must reproduce that entry, and commits
    nothing."""
    config = entry.config
    gating = config.gating_dataset_names()
    datasets = {name: _load(f"dataset {name!r}", binding.path, binding.columns)
                for name, binding in config.datasets.items()}
    dataset_hashes = {k: d.content_hash for k, d in datasets.items()}
    if rerun_of is not None and rerun_of["dataset_hashes"] != dataset_hashes:
        raise ConfigInvalid("ledger already holds an initial certification on "
                            "different data; use recertify")
    try:
        entry.spend({datasets[n].content_hash for n in gating}, "gating data")
    except FamilyAlphaExhausted as e:
        AuditReport({"schema_version": SCHEMA_VERSION, "verdict": "inconclusive",
                     "model_id": config.model_id, "reason": str(e)}).write(config.report_path)
        raise InconclusiveVerdict(str(e)) from e

    gate_failed, leak_section = _leakage_section(config, datasets)
    checks: dict = {"leakage": leak_section, "mpr": [], "fairness": [],
                    **dict.fromkeys(_AUX_CHECKS)}
    verdict, demonstrated, decisions = "fail", None, []
    if not gate_failed:
        demonstrated, checks["mpr"], checks["fairness"], decisions = (
            _requirement_sections(config, datasets, entry.alpha))
        verdict = "pass" if demonstrated else "fail"
        checks.update(_aux_sections(config, datasets))
    # equal hashes do not pin the decisions: the seed and the thresholds are
    # outside the family, and values may differ past the 12th digit
    if rerun_of is not None and (verdict != rerun_of["verdict"] or canonical_json(
            decisions) != canonical_json(rerun_of["decisions"])):
        raise ConfigInvalid("ledger entry 0 holds other decisions on this data; a "
                            "rerun must reproduce them, and new evidence goes "
                            "through recertify")

    import scipy  # for its version only
    plain = config.as_plain()
    report = AuditReport({
        "schema_version": SCHEMA_VERSION,
        "verdict": verdict,
        "model_id": config.model_id,
        "seed": config.seed,
        "sadd": {**plain["sadd"], "content_hash": config.sadd.content_hash},
        "config": plain,
        "family": config.family_snapshot(),
        "entry": {"index": entry.index,
                  "alpha_allocated": entry.recorded_alpha(demonstrated),
                  "alpha_carried_in": entry.state.carry},
        "dataset_hashes": dict(sorted(dataset_hashes.items())),
        "checks": checks,
        "environment": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    })
    commit = None if rerun_of is not None else lambda: entry.commit(
        kind, verdict, demonstrated, dataset_hashes, decisions)
    report.write(config.report_path, commit)
    return report


def run_audit(config: AuditConfig | str | Path) -> AuditReport:
    """Initial certification: evaluate everything, write entry 0 and the report.

    Re-running against an existing ledger is idempotent when the family,
    the bound data and the decisions recorded at entry 0 are reproduced (the
    report is regenerated, no entry is appended and no alpha is re-spent);
    anything else is an error, because entry 0 is already taken — subsequent
    evidence goes through recertify.
    """
    config = _as_config(config)
    with _Entry(config.ledger_path, config, initial=True) as entry:
        return _certify(entry, "certification", rerun_of=entry.replay.first)


def recertify(config: AuditConfig | str | Path) -> AuditReport:
    """Test an updated model at the alpha the fallback recurrence allocates,
    append its entry to the config's ledger, and write the report.

    The bindings are reloaded from disk, and the gating data must be fresh:
    data with the content hash of any data a prior entry spent alpha on
    (the same multiset of rows at 12 significant digits, in any order) is
    refused.
    """
    config = _as_config(config)
    with _Entry(config.ledger_path, config) as entry:
        return _certify(entry, "recertification")


@dataclass(frozen=True)
class MonitorOutcome:
    verdict: str  # ok | shift_benign | shift_malignant | shift_unclassified
    shift: ShiftVerdict
    classification: ShiftClassification | None
    entry: dict

    def as_plain(self) -> dict:
        out = {"verdict": self.verdict, "shift": plain(self.shift),
               "entry_index": self.entry["index"]}
        if self.classification is not None:
            out["point_check"] = {
                "label": self.classification.label,
                "observed": self.classification.metric.value,
                "test": plain(self.classification.test),
            }
        return out


def monitor_step(ledger: AuditLedger | str | Path, config: AuditConfig | str | Path,
                 production_window: Dataset | str | Path,
                 point_check: Dataset | str | Path | None = None) -> MonitorOutcome:
    """One monitoring cycle: shift test, then optional labeled point check.

    No shift: verdict ok, nothing spent. Shift without labels: verdict
    shift_unclassified (still recorded). Shift with a labeled point check:
    the primary requirement is re-tested at the next fallback alpha, giving
    shift_benign or shift_malignant; that entry is test-bearing and consumes
    family alpha like a recertification, and like one it refuses consumed
    data before it allocates any. The window (read with the reference's
    feature columns) and the point check (with the primary requirement's
    dataset columns) are datasets or paths; the drift reference is the only
    bound dataset a monitor reads.
    """
    config = _as_config(config)
    with _Entry(ledger, config) as entry:
        drift, primary = config.drift, config.mprs[0]
        if drift is None:
            raise ConfigInvalid("config declares no drift section, so no reference "
                                "batch is registered")
        ref = config.datasets[drift.reference]
        if not isinstance(production_window, Dataset):
            production_window = _load("window", production_window, ref.feature_columns())
        if point_check is not None and not isinstance(point_check, Dataset):
            point_check = _load("point check", point_check,
                                config.datasets[primary.dataset].columns)
        reference = _load(f"dataset {ref.name!r}", ref.path, ref.columns)
        shift = multivariate_shift_test(
            batch_from_dataset(reference, "reference"),
            batch_from_dataset(production_window, "production"),
            alpha=drift.alpha, method=drift.method, seed=config.seed,
            n_perm=drift.n_permutations, categorical_dims=drift.categorical_dims)

        dataset_hashes = {"reference": reference.content_hash,
                          "window": production_window.content_hash}
        classification, demonstrated, decisions = None, None, []
        if shift.aggregate == "no_shift":
            verdict = "ok"
        elif point_check is None:
            verdict = "shift_unclassified"
        else:
            alpha = entry.spend([point_check.content_hash], "point-check data")
            classification = classify_shift(shift, point_check, primary.spec, alpha,
                                            seed=splitmix64(config.seed, 3000 + entry.index))
            verdict = "shift_benign" if classification.label == "benign" else "shift_malignant"
            demonstrated = classification.test.rejected
            dataset_hashes["point_check"] = point_check.content_hash
            decisions = [_decision(primary.name, classification.test)]

        return MonitorOutcome(verdict, shift, classification, entry.commit(
            "monitor", verdict, demonstrated, dataset_hashes, decisions))
