"""Orchestration: config parsing, the tamper-evident ledger, certification
runs, fallback re-certification, and the monitoring loop.

Ledger tampers are planted by rewriting the JSONL file directly, exactly
the way an after-the-fact edit would, and every one must surface at the
right entry index on replay.
"""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from statcert.audit.config import load_config
from statcert.audit.ledger import AuditLedger, FallbackState, entry_hash, verify_ledger
from statcert.audit.report import AuditReport, payload_hash
from statcert.audit.runner import monitor_step, recertify, run_audit
from statcert.core import canonical_json, load_dataset
from statcert.errors import (
    ConfigInvalid,
    FamilyAlphaExhausted,
    FamilyMismatch,
    LedgerCorrupt,
    NoReferenceBatch,
    StaleDataReuse,
)

from conftest import build_dataset

EXAMPLE = Path(__file__).resolve().parent.parent / "example"


@pytest.fixture
def example_copy(tmp_path):
    dst = tmp_path / "example"
    shutil.copytree(EXAMPLE, dst)
    return dst


def write_labeled_csv(path: Path, n: int, k: int, seed: int) -> None:
    """n rows, exactly k with prediction == label; fresh features per seed."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    labels = rng.integers(0, 2, size=n)
    predictions = labels.copy()
    predictions[k:] = 1 - labels[k:]
    lines = ["x0,x1,label,prediction"]
    lines += [f"{x[i, 0]:.6f},{x[i, 1]:.6f},{labels[i]},{predictions[i]}"
              for i in range(n)]
    path.write_text("\n".join(lines) + "\n")


def write_train_csv(path: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(120, 2))
    labels = rng.integers(0, 2, size=120)
    lines = ["x0,x1,label"]
    lines += [f"{x[i, 0]:.6f},{x[i, 1]:.6f},{labels[i]}" for i in range(120)]
    path.write_text("\n".join(lines) + "\n")


def build_workspace(root: Path, *, n=200, k=195, weights=(1.0,), alpha=0.05,
                    threshold=0.9, data_seed=501) -> Path:
    """Minimal config: one accuracy MPR plus the duplicate gate."""
    data = root / "data"
    data.mkdir(exist_ok=True)
    write_train_csv(data / "train.csv", data_seed)
    write_labeled_csv(data / "test.csv", n, k, data_seed + 1)
    cfg = {
        "version": 1,
        "seed": 42,
        "model_id": "synthetic",
        "sadd": {
            "operating_context": "synthetic bench",
            "technical_requirements": "two features, binary label",
            "sampling_strategy": "simple random sample",
        },
        "datasets": {
            "train": {"path": "data/train.csv",
                      "columns": {"x0": "feature", "x1": "feature",
                                  "label": "label"}},
            "test": {"path": "data/test.csv",
                     "columns": {"x0": "feature", "x1": "feature",
                                 "label": "label", "prediction": "prediction"}},
        },
        "family": {"alpha": alpha, "weights": list(weights)},
        "mprs": [{"name": "accuracy_floor", "dataset": "test",
                  "metric": "accuracy", "direction": "at_least",
                  "threshold": threshold, "test": "exact_binomial",
                  "alpha_share": 1.0}],
        "leakage": {"enabled": True, "train": "train", "test": "test"},
        "ledger": "ledger.jsonl",
        "report": "report.json",
    }
    path = root / "audit.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def mutate_yaml(src: Path, transform, name="mutated.yaml") -> Path:
    raw = yaml.safe_load(src.read_text())
    transform(raw)
    dst = src.parent / name
    dst.write_text(yaml.safe_dump(raw))
    return dst


def shuffle_rows(path: Path, seed: int) -> None:
    """Rewrite a CSV file with its data rows in another order."""
    header, *rows = path.read_text().splitlines()
    order = np.random.default_rng(seed).permutation(len(rows))
    path.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")


def write_grouped_csv(path: Path, n: int, seed: int) -> None:
    """n rows in two alternating groups, every prediction correct."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    labels = rng.integers(0, 2, size=n)
    lines = ["x0,x1,group,label,prediction"]
    lines += [f"{x[i, 0]:.6f},{x[i, 1]:.6f},{i % 2},{labels[i]},{labels[i]}"
              for i in range(n)]
    path.write_text("\n".join(lines) + "\n")


def add_fairness(root: Path, raw: dict) -> None:
    """Give the test data a group column and split the entry alpha evenly
    between the accuracy MPR and a statistical-parity requirement."""
    write_grouped_csv(root / "data" / "test.csv", 400, seed=503)
    raw["datasets"]["test"]["columns"]["group"] = "group"
    raw["mprs"][0]["alpha_share"] = 0.5
    raw["fairness"] = [{"name": "parity", "dataset": "test",
                        "metric": "statistical_parity", "max_violation": 0.3,
                        "alpha_share": 0.5, "n_bootstrap": 1000}]


def build_full_workspace(root: Path) -> Path:
    """build_workspace plus every optional section, fairness included."""
    path = build_workspace(root)
    data = root / "data"
    (data / "ensembles.jsonl").write_text(
        '{"members": [[0.9, 0.1], [0.7, 0.3]], "correct": true}\n'
        '{"members": [[0.4, 0.6], [0.6, 0.4]], "correct": false}\n')
    write_labeled_csv(data / "ood_far.csv", 50, 50, seed=9)

    def transform(raw):
        add_fairness(root, raw)
        raw["leakage"]["proxy_screen"] = True
        raw["drift"] = {"reference": "test", "n_permutations": 200,
                        "categorical_dims": [1]}
        raw["uncertainty"] = {"ensembles": "data/ensembles.jsonl",
                              "abstain_thresholds": {"total": 0.5, "epistemic": 0.2}}
        raw["ood"] = {"method": "distance_knn", "reference": "train",
                      "validation": "test", "params": {"k": 3},
                      "scenarios": [{"name": "far", "path": "data/ood_far.csv",
                                     "narrative": "sensors out of range"}]}
        raw["robustness"] = {"dataset": "test", "epsilon": 0.1, "budget": 50,
                             "predictor": {"command": ["predict.py", "--fast"]}}
    return mutate_yaml(path, transform, name="full.yaml")


class TestConfig:
    def test_example_config_loads(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        assert cfg.family_alpha == 0.05
        assert cfg.family_weights == (1.0,)
        assert cfg.seed == 20240901
        assert len(cfg.mprs) == 1
        mpr = cfg.mprs[0]
        assert (mpr.name, mpr.spec.metric_id, mpr.spec.threshold) == (
            "accuracy_floor", "accuracy", 0.9)
        assert cfg.leakage.enabled
        assert cfg.drift.method == "mmd_permutation"
        assert cfg.datasets["test"].path.is_file()

    def test_unknown_top_level_key(self, example_copy):
        path = mutate_yaml(example_copy / "audit.yaml",
                           lambda raw: raw.update(surprise=1))
        with pytest.raises(ConfigInvalid, match="unknown keys.*surprise"):
            load_config(path)

    def test_unknown_role(self, example_copy):
        def transform(raw):
            raw["datasets"]["test"]["columns"]["x0"] = "covariate"
        with pytest.raises(ConfigInvalid, match="unknown role"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    def test_unsupported_version(self, example_copy):
        path = mutate_yaml(example_copy / "audit.yaml",
                           lambda raw: raw.update(version=2))
        with pytest.raises(ConfigInvalid, match="version"):
            load_config(path)

    def test_weights_must_sum_to_one(self, example_copy):
        def transform(raw):
            raw["family"]["weights"] = [0.5, 0.4]
        with pytest.raises(ConfigInvalid, match="sum to 1"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    def test_alpha_shares_must_sum_to_one(self, example_copy):
        def transform(raw):
            raw["mprs"][0]["alpha_share"] = 0.7
        with pytest.raises(ConfigInvalid, match="shares.*sum to 1"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    def test_missing_data_file(self, example_copy):
        def transform(raw):
            raw["datasets"]["test"]["path"] = "data/nowhere.csv"
        with pytest.raises(ConfigInvalid, match="file not found"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    def test_mpr_needs_known_dataset(self, example_copy):
        def transform(raw):
            raw["mprs"][0]["dataset"] = "holdout"
        with pytest.raises(ConfigInvalid, match="unknown dataset"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    def test_mpr_needs_declared_roles(self, example_copy):
        def transform(raw):
            del raw["datasets"]["test"]["columns"]["prediction"]
        with pytest.raises(ConfigInvalid, match="lacks declared roles"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    def test_at_least_one_mpr(self, example_copy):
        path = mutate_yaml(example_copy / "audit.yaml",
                           lambda raw: raw.update(mprs=[]))
        with pytest.raises(ConfigInvalid, match="at least one MPR"):
            load_config(path)

    def test_family_alpha_range(self, example_copy):
        def transform(raw):
            raw["family"]["alpha"] = 1.0
        with pytest.raises(ConfigInvalid, match="alpha"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    def test_drift_needs_a_permutation(self, example_copy):
        # 0 used to load, and `audit monitor` then died inside np.quantile
        def transform(raw):
            raw["drift"]["n_permutations"] = 0
        with pytest.raises(ConfigInvalid, match="n_permutations"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_drift_alpha_range(self, example_copy, alpha):
        def transform(raw):
            raw["drift"]["alpha"] = alpha
        with pytest.raises(ConfigInvalid, match="drift.alpha"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    def test_defaults_are_materialized(self, tmp_path):
        cfg = load_config(build_workspace(tmp_path))
        plain = cfg.as_plain()
        assert plain["leakage"]["duplicate_key"] == "exact_features"
        assert plain["leakage"]["proxy_screen"] is False
        assert plain["drift"] is None
        assert plain["family"]["procedure"] == "fallback"
        assert plain["mprs"][0]["direction"] == "at_least"

    def test_family_snapshot_freezes_shares(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        snap = cfg.family_snapshot()
        assert snap == {"alpha": 0.05, "weights": [1.0], "procedure": "fallback",
                        "shares": {"accuracy_floor": 1.0}}

    def test_as_plain_of_every_section(self, tmp_path):
        # the resolved config echoed into reports; paths made relative
        cfg = load_config(build_full_workspace(tmp_path))
        plain = canonical_json(cfg.as_plain()).replace(f"{tmp_path.resolve()}/", "")
        assert plain == FULL_CONFIG_PLAIN

    def test_fairness_section_loads_with_group_role(self, tmp_path):
        cfg = load_config(mutate_yaml(build_workspace(tmp_path),
                                      lambda raw: add_fairness(tmp_path, raw)))
        assert [r.name for r in cfg.fairness] == ["parity"]
        assert cfg.family_snapshot()["shares"] == {"accuracy_floor": 0.5,
                                                   "parity": 0.5}

    def test_unknown_metric_is_refused_at_load(self, example_copy):
        # used to load, run the leakage screens and only then fail
        def transform(raw):
            raw["mprs"][0]["metric"] = "acuracy"
        with pytest.raises(ConfigInvalid,
                           match=r"^mprs\[0\]\.metric: unknown metric 'acuracy'"):
            load_config(mutate_yaml(example_copy / "audit.yaml", transform))

    @pytest.mark.parametrize("key,value", [
        ("leakage.duplicate_key", "exact_feature"),
        ("ood.method", "distance_knnn"),
        ("robustness.norm", "l3"),
        ("robustness.attack", "grid_search"),
    ])
    def test_unknown_choice_is_refused_at_load(self, tmp_path, key, value):
        # each used to load; the run refused it only after reading the data
        def transform(raw):
            section, leaf = key.split(".")
            raw[section][leaf] = value
        message = rf"^{re.escape(key)}: unknown \w+ '{value}', expected one of"
        with pytest.raises(ConfigInvalid, match=message):
            load_config(mutate_yaml(build_full_workspace(tmp_path), transform))

    def test_readme_config_schema_loads(self, tmp_path):
        readme = (EXAMPLE.parent / "README.md").read_text()
        block = re.search(r"## Config schema\n\n```yaml\n(.*?)```", readme, re.S).group(1)
        for binding in yaml.safe_load(block)["datasets"].values():
            data = tmp_path / binding["path"]
            data.parent.mkdir(parents=True, exist_ok=True)
            data.touch()
        (tmp_path / "audit.yaml").write_text(block)
        cfg = load_config(tmp_path / "audit.yaml")
        assert [r.name for r in cfg.mprs + cfg.fairness] == ["accuracy_floor", "parity_gap"]


# build_full_workspace's config as the hand-written as_plain methods
# rendered it, with the workspace prefix removed from paths
FULL_CONFIG_PLAIN = (
    '{"datasets":{"test":{"columns":{"group":"group","label":"label",'
    '"prediction":"prediction","x0":"feature","x1":"feature"},'
    '"path":"data/test.csv"},"train":{"columns":{"label":"label",'
    '"x0":"feature","x1":"feature"},"path":"data/train.csv"}},'
    '"drift":{"alpha":0.05,"categorical_dims":[1],'
    '"method":"mmd_permutation","n_permutations":200,"reference":"test"},'
    '"fairness":[{"alpha_share":0.5,"dataset":"test","max_violation":0.3,'
    '"metric":"statistical_parity","n_bootstrap":1000,"name":"parity"}],'
    '"family":{"alpha":0.05,"procedure":"fallback",'
    '"shares":{"accuracy_floor":0.5,"parity":0.5},"weights":[1.0]},'
    '"leakage":{"duplicate_key":"exact_features","enabled":true,'
    '"group_check":false,"proxy_screen":true,"temporal_check":false,'
    '"test":"test","train":"train"},"ledger":"ledger.jsonl",'
    '"model_id":"synthetic","mprs":[{"alpha_share":0.5,"dataset":"test",'
    '"direction":"at_least","metric":"accuracy","name":"accuracy_floor",'
    '"test":"exact_binomial","threshold":0.9}],'
    '"ood":{"method":"distance_knn","params":{"k":3},"reference":"train",'
    '"scenarios":[{"name":"far","narrative":"sensors out of range",'
    '"path":"data/ood_far.csv"}],"target_tpr":0.95,"validation":"test"},'
    '"report":"report.json","robustness":{"attack":"coordinate_descent",'
    '"budget":50,"dataset":"test","epsilon":0.1,"norm":"linf",'
    '"predictor_command":["predict.py","--fast"]},'
    '"sadd":{"operating_context":"synthetic bench",'
    '"sampling_descriptor":{},"sampling_strategy":"simple random sample",'
    '"technical_requirements":"two features, binary label","version":1},'
    '"seed":42,"uncertainty":{"abstain_thresholds":{"epistemic":0.2,'
    '"total":0.5},"ensembles":"data/ensembles.jsonl"}}'
)

FAMILY = {"alpha": 0.05, "weights": [0.4, 0.3, 0.3], "procedure": "fallback",
          "shares": {"acc": 1.0}}


def seed_ledger(path: Path) -> AuditLedger:
    """Three hand-built entries: pass, monitor, fail; replayable by hand.

    alpha trace: e0 tests at 0.05*0.4 = 0.02 and demonstrates (carry 0.02);
    e1 is a non-test monitor entry; e2 tests at 0.02 + 0.05*0.3 = 0.035 and
    fails (carry drops to 0).
    """
    ledger = AuditLedger(path)
    common = dict(model_id="m", family=FAMILY, seed=1)
    ledger.append(kind="certification", dataset_hashes={"test": "h0"},
                  gating_hashes=["h0"], test_bearing=True, alpha_allocated=0.02,
                  alpha_carried_in=0.0, alpha_carried_out=0.02,
                  decisions=[{"name": "acc", "decision": "reject_h0"}],
                  demonstrated=True, verdict="pass", **common)
    ledger.append(kind="monitor", dataset_hashes={"window": "h1"},
                  gating_hashes=[], test_bearing=False, alpha_allocated=0.0,
                  alpha_carried_in=0.02, alpha_carried_out=0.02, decisions=[],
                  demonstrated=None, verdict="ok", **common)
    ledger.append(kind="recertification", dataset_hashes={"test": "h2"},
                  gating_hashes=["h2"], test_bearing=True, alpha_allocated=0.035,
                  alpha_carried_in=0.02, alpha_carried_out=0.0,
                  decisions=[{"name": "acc", "decision": "fail_to_reject_h0"}],
                  demonstrated=False, verdict="fail", **common)
    return ledger


def rewrite(path: Path, entries: list[dict]) -> None:
    path.write_text("".join(canonical_json(e) + "\n" for e in entries))


def load_lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class TestFallbackState:
    def test_first_entry_gets_alpha_times_weight(self):
        assert FallbackState(0, 0.0).next_alpha(0.05, (0.5, 0.5)) == 0.025

    def test_carry_adds_to_next_weight(self):
        assert FallbackState(1, 0.025).next_alpha(0.05, (0.5, 0.5)) == 0.05

    def test_exhausted_weights_leave_only_carry(self):
        assert FallbackState(2, 0.05).next_alpha(0.05, (0.5, 0.5)) == 0.05
        assert FallbackState(2, 0.0).next_alpha(0.05, (0.5, 0.5)) == 0.0

    def test_failed_prior_means_no_carry(self):
        assert FallbackState(1, 0.0).next_alpha(0.05, (0.5, 0.5)) == 0.025


class TestLedgerIntegrity:
    def test_fresh_ledger_consistent(self, tmp_path):
        ledger = seed_ledger(tmp_path / "l.jsonl")
        result = verify_ledger(ledger)
        assert result == {"consistent": True, "first_inconsistency": None,
                          "detail": None, "n_entries": 3}
        assert verify_ledger(tmp_path / "l.jsonl")["consistent"]

    def test_replay_state_tracks_tests_and_carry(self, tmp_path):
        ledger = seed_ledger(tmp_path / "l.jsonl")
        assert ledger.replay_state() == FallbackState(tests_done=2, carry=0.0)

    def test_reload_from_disk_identical(self, tmp_path):
        ledger = seed_ledger(tmp_path / "l.jsonl")
        assert AuditLedger(tmp_path / "l.jsonl").entries == ledger.entries

    def test_tampered_alpha_flagged_at_its_index(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        entries[2]["alpha_allocated"] = 0.05  # forged bigger budget
        entries[2]["entry_hash"] = entry_hash(entries[2])  # cover the edit
        rewrite(path, entries)
        result = verify_ledger(path)
        assert not result["consistent"]
        assert result["first_inconsistency"] == 2
        assert "allocated alpha" in result["detail"]

    def test_edited_payload_without_rehash_flagged(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        entries[1]["verdict"] = "pass"
        rewrite(path, entries)
        result = verify_ledger(path)
        assert result["first_inconsistency"] == 1
        assert "hash" in result["detail"]

    def test_reordered_entries_flagged(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        entries[1], entries[2] = entries[2], entries[1]
        rewrite(path, entries)
        result = verify_ledger(path)
        assert result["first_inconsistency"] == 1
        assert "index" in result["detail"]

    def test_broken_prev_hash_chain_flagged(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        entries[1]["prev_hash"] = "0" * 64
        entries[1]["entry_hash"] = entry_hash(entries[1])
        rewrite(path, entries)
        result = verify_ledger(path)
        assert result["first_inconsistency"] == 1
        assert "chain" in result["detail"]

    def test_deleted_entry_flagged(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        del entries[1]
        rewrite(path, entries)
        assert verify_ledger(path)["first_inconsistency"] == 1

    def test_non_test_entry_spending_alpha_flagged(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        entries[1]["alpha_allocated"] = 0.01
        entries[1]["entry_hash"] = entry_hash(entries[1])
        rewrite(path, entries)
        result = verify_ledger(path)
        # the forged hash keeps entry 1 self-consistent but breaks the
        # chain into entry 2; either reading is an inconsistency at <= 2
        assert not result["consistent"]
        assert result["first_inconsistency"] in (1, 2)

    def test_garbage_line_flagged(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        with path.open("a") as fh:
            fh.write("{not json\n")
        result = verify_ledger(path)
        assert result["first_inconsistency"] == 3
        assert "JSON" in result["detail"]

    def test_missing_file_reported(self, tmp_path):
        result = verify_ledger(tmp_path / "absent.jsonl")
        assert not result["consistent"]
        assert "not found" in result["detail"]

    def test_family_drift_across_entries_flagged(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        entries[2]["family"] = {**FAMILY, "alpha": 0.1}
        entries[2]["entry_hash"] = entry_hash(entries[2])
        rewrite(path, entries)
        result = verify_ledger(path)
        assert result["first_inconsistency"] == 2
        assert "family" in result["detail"]


class TestRunAudit:
    def test_example_passes(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        report = run_audit(cfg)
        assert report.verdict == "pass"
        row = report.payload["checks"]["mpr"][0]
        assert row["observed"] == pytest.approx(0.94)
        assert row["n"] == 200
        assert row["test"]["p_value"] < 0.05
        ledger = AuditLedger(cfg.ledger_path)
        assert len(ledger) == 1
        assert ledger.entries[0]["demonstrated"] is True
        assert verify_ledger(ledger)["consistent"]

    def test_small_sample_fails_despite_higher_point_estimate(self, example_copy):
        # 94/100 correct: estimate 0.94 > 0.9, p = 0.117, not demonstrated
        report = run_audit(load_config(example_copy / "audit_fail.yaml"))
        assert report.verdict == "fail"
        row = report.payload["checks"]["mpr"][0]
        assert row["observed"] == pytest.approx(0.94)
        assert row["test"]["p_value"] == pytest.approx(0.1172, abs=5e-4)
        assert row["demonstrated"] is False

    def test_leak_gate_blocks_before_any_test(self, example_copy):
        cfg = load_config(example_copy / "audit_leak.yaml")
        report = run_audit(cfg)
        assert report.verdict == "fail"
        assert report.payload["checks"]["leakage"]["gate"] == "failed"
        assert report.payload["checks"]["mpr"] == []
        entry = AuditLedger(cfg.ledger_path).entries[0]
        assert entry["test_bearing"] is False
        assert entry["alpha_allocated"] == 0.0
        assert entry["demonstrated"] is None
        assert entry["gating_hashes"] == []

    def test_rerun_is_idempotent(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        first = run_audit(cfg)
        second = run_audit(cfg)
        assert first.to_json() == second.to_json()
        assert first.content_hash == second.content_hash
        assert len(AuditLedger(cfg.ledger_path)) == 1

    def test_rerun_on_different_data_refused(self, example_copy):
        run_audit(load_config(example_copy / "audit.yaml"))

        def transform(raw):
            raw["datasets"]["test"]["path"] = "data/test_fail.csv"
        swapped = mutate_yaml(example_copy / "audit.yaml", transform)
        with pytest.raises(ConfigInvalid, match="recertify"):
            run_audit(load_config(swapped))

    def test_rerun_must_reproduce_the_decisions_of_entry_0(self, tmp_path):
        # the bootstrap reads only the multiset of losses (it sorts them), so
        # a shuffled file reproduces entry 0; another seed resamples
        # differently, and its report would contradict the ledger
        def bootstrap_mse(raw):
            raw["mprs"][0].update(metric="mse", direction="at_most", threshold=0.04,
                                  test="bootstrap")
        path = mutate_yaml(build_workspace(tmp_path), bootstrap_mse)
        first = run_audit(load_config(path))
        shuffle_rows(tmp_path / "data" / "test.csv", seed=1)
        again = run_audit(load_config(path))
        assert again.payload["checks"]["mpr"] == first.payload["checks"]["mpr"]
        reseeded = mutate_yaml(path, lambda raw: raw.update(seed=7), name="reseeded.yaml")
        with pytest.raises(ConfigInvalid, match="other decisions"):
            run_audit(load_config(reseeded))
        assert len(AuditLedger(tmp_path / "ledger.jsonl")) == 1

    def test_rerun_with_changed_family_refused(self, example_copy):
        run_audit(load_config(example_copy / "audit.yaml"))

        def transform(raw):
            raw["family"]["alpha"] = 0.01
        changed = mutate_yaml(example_copy / "audit.yaml", transform)
        with pytest.raises(FamilyMismatch):
            run_audit(load_config(changed))

    def test_corrupt_ledger_blocks_run(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        run_audit(cfg)
        entries = load_lines(cfg.ledger_path)
        entries[0]["verdict"] = "fail"
        rewrite(cfg.ledger_path, entries)
        with pytest.raises(LedgerCorrupt):
            run_audit(cfg)

    def test_report_written_fields(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        report = run_audit(cfg)
        payload = report.payload
        assert payload["environment"]["numpy"] == np.__version__
        assert payload["family"] == cfg.family_snapshot()
        assert payload["entry"] == {"index": 0, "alpha_allocated": 0.05,
                                    "alpha_carried_in": 0.0}
        assert set(payload["dataset_hashes"]) == {"train", "test"}
        assert payload["checks"]["drift"]["n_reference"] == 200

    def test_fairness_requirement_tested_at_its_share(self, tmp_path):
        cfg = load_config(mutate_yaml(build_workspace(tmp_path),
                                      lambda raw: add_fairness(tmp_path, raw)))
        report = run_audit(cfg)
        row = report.payload["checks"]["fairness"][0]
        assert row["name"] == "parity"
        assert row["test"]["alpha_used"] == pytest.approx(0.05 * 0.5)
        assert row["demonstrated"] is True
        assert report.verdict == "pass"
        entry = AuditLedger(cfg.ledger_path).entries[0]
        assert [d["name"] for d in entry["decisions"]] == ["accuracy_floor", "parity"]

    def test_zero_first_weight_exhausts_family(self, tmp_path):
        path = build_workspace(tmp_path, weights=(0.0, 1.0))
        with pytest.raises(FamilyAlphaExhausted):
            run_audit(load_config(path))


class TestRecertify:
    def test_alpha_trace_after_demonstration(self, tmp_path):
        # w = (0.5, 0.5), alpha 0.05: entry 0 tests at 0.025; after a
        # rejection the carry joins the next weight, so entry 1 tests at 0.05
        path = build_workspace(tmp_path, k=195, weights=(0.5, 0.5))
        cfg = load_config(path)
        report = run_audit(cfg)
        assert report.verdict == "pass"
        assert AuditLedger(cfg.ledger_path).entries[0]["alpha_allocated"] == 0.025

        write_labeled_csv(tmp_path / "data" / "test.csv", 200, 195, seed=777)
        report2, ledger = recertify(cfg.ledger_path, cfg)
        assert report2.verdict == "pass"
        entry = ledger.entries[1]
        assert entry["alpha_allocated"] == pytest.approx(0.05)
        assert entry["alpha_carried_in"] == pytest.approx(0.025)
        assert entry["kind"] == "recertification"
        assert verify_ledger(ledger)["consistent"]

    def test_alpha_trace_after_failure(self, tmp_path):
        # failed entries carry nothing: both tests run at 0.025
        path = build_workspace(tmp_path, k=170, weights=(0.5, 0.5))
        cfg = load_config(path)
        assert run_audit(cfg).verdict == "fail"

        write_labeled_csv(tmp_path / "data" / "test.csv", 200, 170, seed=778)
        report2, ledger = recertify(cfg.ledger_path, cfg)
        assert report2.verdict == "fail"
        assert [e["alpha_allocated"] for e in ledger.entries] == [0.025, 0.025]
        assert verify_ledger(ledger)["consistent"]

    def test_stale_data_refused(self, tmp_path):
        cfg = load_config(build_workspace(tmp_path, k=195))
        run_audit(cfg)
        with pytest.raises(StaleDataReuse):
            recertify(cfg.ledger_path, cfg)  # same file, same bytes

    def test_shuffled_copy_of_consumed_data_refused(self, tmp_path):
        cfg = load_config(build_workspace(tmp_path, k=195, weights=(0.5, 0.5)))
        run_audit(cfg)
        shuffle_rows(tmp_path / "data" / "test.csv", seed=2)
        with pytest.raises(StaleDataReuse):
            recertify(cfg.ledger_path, cfg)
        write_labeled_csv(tmp_path / "data" / "test.csv", 200, 195, seed=781)
        report, ledger = recertify(cfg.ledger_path, cfg)  # fresh rows still pass
        assert report.verdict == "pass"
        assert len(ledger) == 2

    def test_stale_data_refused_under_reordered_columns(self, tmp_path):
        # reversing the `columns:` mapping must not mint a fresh identity
        path = build_workspace(tmp_path, k=195)
        run_audit(load_config(path))

        def reverse_test_columns(cfg):
            cols = cfg["datasets"]["test"]["columns"]
            cfg["datasets"]["test"]["columns"] = dict(reversed(cols.items()))
            return cfg

        reordered = load_config(mutate_yaml(path, reverse_test_columns))
        with pytest.raises(StaleDataReuse):
            recertify(reordered.ledger_path, reordered)

    def test_exhausted_family_refused(self, tmp_path):
        # single weight spent by a failed first test leaves nothing behind
        cfg = load_config(build_workspace(tmp_path, k=170, weights=(1.0,)))
        assert run_audit(cfg).verdict == "fail"
        write_labeled_csv(tmp_path / "data" / "test.csv", 200, 195, seed=779)
        with pytest.raises(FamilyAlphaExhausted):
            recertify(cfg.ledger_path, cfg)

    def test_empty_ledger_refused(self, tmp_path):
        cfg = load_config(build_workspace(tmp_path))
        (tmp_path / "ledger.jsonl").touch()
        with pytest.raises(ConfigInvalid, match="initial certification"):
            recertify(cfg.ledger_path, cfg)

    def test_family_change_refused(self, tmp_path):
        path = build_workspace(tmp_path, k=195, weights=(0.5, 0.5))
        cfg = load_config(path)
        run_audit(cfg)
        changed = mutate_yaml(path, lambda raw: raw["family"].update(alpha=0.1))
        write_labeled_csv(tmp_path / "data" / "test.csv", 200, 195, seed=780)
        with pytest.raises(FamilyMismatch):
            recertify(cfg.ledger_path, load_config(changed))

    def test_updated_dataset_object_replaces_gating_data(self, tmp_path, rng):
        cfg = load_config(build_workspace(tmp_path, k=195, weights=(0.5, 0.5)))
        run_audit(cfg)
        labels = rng.integers(0, 2, size=150)
        fresh = build_dataset(
            {"x0": rng.normal(size=150), "x1": rng.normal(size=150),
             "label": labels, "prediction": labels.copy()},
            {"x0": "feature", "x1": "feature", "label": "label",
             "prediction": "prediction"})
        report, ledger = recertify(cfg.ledger_path, cfg, fresh)
        assert report.verdict == "pass"  # 150/150 at alpha 0.05
        assert ledger.entries[1]["dataset_hashes"]["test"] == fresh.content_hash


class TestMonitor:
    def window(self, example_copy, name):
        cfg = load_config(example_copy / "audit.yaml")
        return load_dataset(example_copy / "data" / name,
                            cfg.datasets["test"].feature_columns())

    def test_stable_window_is_ok(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        run_audit(cfg)
        outcome = monitor_step(cfg.ledger_path, cfg,
                               self.window(example_copy, "window.csv"))
        assert outcome.verdict == "ok"
        assert outcome.entry["test_bearing"] is False
        assert outcome.entry["alpha_allocated"] == 0.0
        ledger = AuditLedger(cfg.ledger_path)
        assert len(ledger) == 2
        assert verify_ledger(ledger)["consistent"]

    def test_shift_without_labels_unclassified(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        run_audit(cfg)
        outcome = monitor_step(cfg.ledger_path, cfg,
                               self.window(example_copy, "window_shift.csv"))
        assert outcome.verdict == "shift_unclassified"
        assert outcome.shift.aggregate == "shift"
        assert outcome.entry["test_bearing"] is False
        assert outcome.classification is None

    def test_shift_with_passing_point_check_benign(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        run_audit(cfg)
        point = load_dataset(example_copy / "data" / "point_check.csv",
                             cfg.datasets["test"].columns)
        outcome = monitor_step(cfg.ledger_path, cfg,
                               self.window(example_copy, "window_shift.csv"), point)
        assert outcome.verdict == "shift_benign"
        assert outcome.classification.label == "benign"
        entry = outcome.entry
        # entry 0 demonstrated at the full 0.05 and carried it forward;
        # the weight list (1.0,) is spent, so the point check runs at 0.05
        assert entry["test_bearing"] is True
        assert entry["alpha_allocated"] == pytest.approx(0.05)
        assert entry["gating_hashes"] == [point.content_hash]
        assert verify_ledger(AuditLedger(cfg.ledger_path))["consistent"]

    def test_point_check_cannot_reuse_certified_data(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        run_audit(cfg)
        reused = load_dataset(example_copy / "data" / "test_pass.csv",
                              cfg.datasets["test"].columns)
        with pytest.raises(StaleDataReuse):
            monitor_step(cfg.ledger_path, cfg,
                         self.window(example_copy, "window_shift.csv"), reused)

    def test_shuffled_point_check_copy_refused(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        run_audit(cfg)
        path = example_copy / "data" / "point_check.csv"
        shifted = self.window(example_copy, "window_shift.csv")
        point = load_dataset(path, cfg.datasets["test"].columns)
        assert monitor_step(cfg.ledger_path, cfg, shifted, point).verdict == "shift_benign"
        shuffle_rows(path, seed=3)
        shuffled = load_dataset(path, cfg.datasets["test"].columns)
        with pytest.raises(StaleDataReuse):
            monitor_step(cfg.ledger_path, cfg, shifted, shuffled)

    def test_no_drift_section_refused(self, tmp_path, example_copy):
        cfg = load_config(build_workspace(tmp_path))
        run_audit(cfg)
        with pytest.raises(NoReferenceBatch):
            monitor_step(cfg.ledger_path, cfg,
                         self.window(example_copy, "window.csv"))

    def test_empty_ledger_refused(self, example_copy):
        cfg = load_config(example_copy / "audit.yaml")
        with pytest.raises(ConfigInvalid, match="initial certification"):
            monitor_step(cfg.ledger_path, cfg,
                         self.window(example_copy, "window.csv"))


class TestReport:
    def test_content_hash_is_hash_of_file_bytes(self, example_copy):
        import hashlib

        cfg = load_config(example_copy / "audit.yaml")
        report = run_audit(cfg)
        report.write(cfg.report_path)
        on_disk = cfg.report_path.read_bytes()
        assert report.content_hash == hashlib.sha256(on_disk).hexdigest()
        assert report.content_hash == payload_hash(json.loads(on_disk))

    def test_markdown_view(self, example_copy):
        report = run_audit(load_config(example_copy / "audit.yaml"))
        md = report.to_markdown()
        assert "Verdict: PASS" in md
        assert "accuracy_floor" in md
        assert report.content_hash in md

    def test_markdown_for_gated_run(self, example_copy):
        report = run_audit(load_config(example_copy / "audit_leak.yaml"))
        md = report.to_markdown()
        assert "Verdict: FAIL" in md
        assert "No requirement was tested" in md

    def test_round_trip_through_disk(self, tmp_path, example_copy):
        report = run_audit(load_config(example_copy / "audit.yaml"))
        path = report.write(tmp_path / "r.json")
        assert AuditReport(json.loads(path.read_text())).content_hash == \
            report.content_hash
