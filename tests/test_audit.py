"""Orchestration: config parsing, the tamper-evident ledger, certification
runs, fallback re-certification, and the monitoring loop.

Ledger tampers are planted by rewriting the JSONL file directly, exactly
the way an after-the-fact edit would, and every one must surface at the
right entry index on replay.
"""

import fcntl
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from statcert.audit.config import load_config
from statcert.audit.ledger import (_CHUNK, _REQUIRED_FIELDS, AuditLedger, FallbackState,
                                   _resume_point, entry_hash, replay_ledger, resume_replay,
                                   verify_ledger)
from statcert.audit.report import AuditReport, payload_hash, render_markdown
from statcert.audit.runner import _Entry, monitor_step, recertify, run_audit
from statcert.core import canonical_json, load_dataset, sha256_hex
from statcert.errors import (
    ConfigInvalid,
    FamilyAlphaExhausted,
    FamilyMismatch,
    LedgerCorrupt,
    NoReferenceBatch,
    StaleDataReuse,
)

from conftest import build_dataset
from helpers import reference_consumed_hashes, reference_replay_state

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

    def test_directory_is_inconsistent_not_an_error(self, tmp_path):
        # replay of a path never raises; a directory used to raise IsADirectoryError
        result = replay_ledger(tmp_path)
        assert (result.consistent, result.first_inconsistency, result.n_entries) == (
            False, None, 0)
        assert result.detail.startswith("cannot read ledger: ")

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

    @pytest.mark.parametrize("field", ["alpha_allocated", "family"])
    def test_integer_too_large_for_a_float_flagged(self, tmp_path, field):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        huge = 10**400
        entries[0][field] = huge if field != "family" else {**FAMILY, "alpha": huge}
        entries[0]["entry_hash"] = entry_hash(entries[0])
        rewrite(path, entries[:1])
        result = verify_ledger(path)
        assert result["first_inconsistency"] == 0
        assert "numeric" in result["detail"]

    def test_deeply_nested_line_is_reported_not_raised(self, tmp_path):
        # past some depth json.loads, and a little earlier the re-hash,
        # exceed the recursion limit; wherever that lies, the replay reports
        path = tmp_path / "l.jsonl"
        entry = json.dumps({f: None for f in _REQUIRED_FIELDS} | {"index": 0})
        for depth in range(800, 1100, 2):
            path.write_text(f'{entry[:-1]},"deep":{"[" * depth}{"]" * depth}}}\n')
            result = verify_ledger(path)
            assert not result["consistent"]
            assert result["first_inconsistency"] == 0

    def test_missing_file_reported(self, tmp_path):
        result = verify_ledger(tmp_path / "absent.jsonl")
        assert not result["consistent"]
        assert "not found" in result["detail"]

    @pytest.mark.parametrize("hashes", [5, "abc", [[1]]], ids=repr)
    def test_gating_hashes_that_are_not_a_list_of_strings_flagged(self, tmp_path,
                                                                  hashes):
        # a string used to pass, and be consumed as its characters
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        entries[0]["gating_hashes"] = hashes
        entries[0]["entry_hash"] = entry_hash(entries[0])
        rewrite(path, entries[:1])
        assert verify_ledger(path) == {
            "consistent": False, "first_inconsistency": 0,
            "detail": "gating hashes are not a list of strings", "n_entries": 1}

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


def seeded_ledger(path: Path, n: int = 200, seed: int = 8) -> AuditLedger:
    """n entries drawn from `seed`: tests that pass or fail, and entries
    that test nothing, some of which still carry gating hashes; the tests
    outnumber the family weights."""
    rng = random.Random(seed)
    ledger = AuditLedger(path)
    state = FallbackState(0, 0.0)
    for i in range(n):
        hashes = [f"{rng.getrandbits(64):016x}" for _ in range(rng.randint(0, 2))]
        tested = rng.random() < 0.4
        alpha, demonstrated, after = 0.0, None, state
        if tested:
            alpha = state.next_alpha(FAMILY["alpha"], FAMILY["weights"])
            demonstrated = rng.random() < 0.7
            after = state.advance(alpha, demonstrated)
        ledger.append(kind="monitor", model_id="m", family=FAMILY,
                      dataset_hashes={"window": f"w{i}"}, gating_hashes=hashes, seed=1,
                      test_bearing=tested, alpha_allocated=alpha,
                      alpha_carried_in=state.carry, alpha_carried_out=after.carry,
                      decisions=[], demonstrated=demonstrated, verdict="ok")
        state = after
    return ledger


class TestSingleReplay:
    """The walk that verifies a ledger also yields the state, the consumed
    hashes and the family the runner continues from; each must equal a loop
    of its own over the entries."""

    @pytest.fixture
    def ledger(self, tmp_path):
        ledger = seeded_ledger(tmp_path / "l.jsonl")
        tested = [e for e in ledger.entries if e["test_bearing"]]
        # the mix the replay must get right
        assert {e["demonstrated"] for e in tested} == {True, False}
        assert any(not e["test_bearing"] and e["gating_hashes"] for e in ledger.entries)
        assert any(e["alpha_carried_in"] > 0 for e in tested)
        assert len(tested) > len(FAMILY["weights"])
        assert any(e["alpha_allocated"] == 0.0 for e in tested)
        return ledger

    def test_views_equal_the_reference(self, ledger):
        for view in (ledger, AuditLedger(ledger.path)):
            assert view.replay_state() == reference_replay_state(view.entries)
            assert view.prior_gating_hashes() == reference_consumed_hashes(view.entries)

    def test_open_returns_the_reference(self, ledger):
        config = SimpleNamespace(family_snapshot=lambda: FAMILY)
        with _Entry(ledger, config) as entry:
            replayed = entry.replay
        assert replayed.consistent and replayed.n_entries == 200
        assert replayed.state == reference_replay_state(ledger.entries)
        assert replayed.consumed == reference_consumed_hashes(ledger.entries)
        assert replayed.family == FAMILY
        assert replayed.older is None
        assert (entry.index, entry.state, entry.consumed) == (
            200, replayed.state, replayed.consumed)


def quiet_ledger(path: Path, n: int) -> None:
    """A certification followed by n - 1 monitor entries that saw no shift:
    the ledger a certificate grows while nothing changes. Only entry 0
    gates data, so its replay keeps one consumed hash."""
    ledger = AuditLedger(path)
    ledger.append(kind="certification", model_id="m", family=FAMILY,
                  dataset_hashes={"test": "h0"}, gating_hashes=["h0"], seed=1,
                  test_bearing=True, alpha_allocated=0.02, alpha_carried_in=0.0,
                  alpha_carried_out=0.02, decisions=[], demonstrated=True, verdict="pass")
    for i in range(1, n):
        ledger.append(kind="monitor", model_id="m", family=FAMILY,
                      dataset_hashes={"window": f"w{i}"}, gating_hashes=[], seed=1,
                      test_bearing=False, alpha_allocated=0.0, alpha_carried_in=0.02,
                      alpha_carried_out=0.02, decisions=[], demonstrated=None, verdict="ok")


class TestStreamedReplay:
    """The replay reads one entry at a time, yet reports what a parse of the
    whole file ahead of the walk would: a line that is not JSON outranks an
    earlier inconsistency, and n_entries counts every entry before it."""

    @pytest.fixture
    def edited(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seeded_ledger(path, n=8)
        entries = load_lines(path)
        entries[2]["seed"] = 2  # content edited, hash left as it was
        rewrite(path, entries)
        return path

    def test_edited_entry_counts_every_entry(self, edited):
        assert verify_ledger(edited) == {
            "consistent": False, "first_inconsistency": 2,
            "detail": "entry hash does not match content", "n_entries": 8}

    def test_line_that_is_not_json_outranks_an_earlier_edit(self, edited):
        lines = edited.read_text().splitlines(keepends=True)
        edited.write_text("".join(lines[:6] + ["{oops\n"] + lines[6:]))
        assert verify_ledger(edited) == {
            "consistent": False, "first_inconsistency": 6,
            "detail": "line 7 is not valid JSON", "n_entries": 6}
        with pytest.raises(LedgerCorrupt, match=r"l\.jsonl:7: not valid JSON$"):
            verify_ledger(AuditLedger(edited))

    def test_memory_does_not_grow_with_the_ledger(self, tmp_path):
        peaks = []
        for n in (400, 4000):
            path = tmp_path / f"{n}.jsonl"
            quiet_ledger(path, n)
            tracemalloc.start()
            try:
                assert replay_ledger(path).n_entries == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks

    def test_append_refuses_a_last_line_without_its_newline(self, tmp_path):
        # it used to glue its entry onto that line, which then read as not JSON
        path = tmp_path / "l.jsonl"
        quiet_ledger(path, 3)
        path.write_bytes(path.read_bytes()[:-1])
        kept = path.read_bytes()
        with pytest.raises(LedgerCorrupt, match=r"l\.jsonl:3: has no newline$"):
            AuditLedger(path).append(kind="monitor", model_id="m", family=FAMILY,
                                     dataset_hashes={}, gating_hashes=[], seed=1,
                                     test_bearing=False, alpha_allocated=0.0,
                                     alpha_carried_in=0.02, alpha_carried_out=0.02,
                                     decisions=[], demonstrated=None, verdict="ok")
        assert path.read_bytes() == kept

    @pytest.mark.parametrize("replayed", [False, True])
    def test_append_continues_the_file(self, tmp_path, replayed):
        # an unread ledger finds its tail on the first append, a replayed
        # one keeps the tail its replay read
        path = tmp_path / "l.jsonl"
        quiet_ledger(path, 5)
        ledger = AuditLedger(path)
        if replayed:
            assert ledger.replay_state() == FallbackState(1, 0.02)
        entry = ledger.append(kind="monitor", model_id="m", family=FAMILY,
                              dataset_hashes={}, gating_hashes=[], seed=1,
                              test_bearing=False, alpha_allocated=0.0,
                              alpha_carried_in=0.02, alpha_carried_out=0.02, decisions=[],
                              demonstrated=None, verdict="ok")
        assert (entry["index"], len(ledger)) == (5, 6)
        assert verify_ledger(path)["consistent"]


def rechain(entries: list[dict], start: int) -> None:
    """Link and hash entries[start:] again, as an editor covering an edit would."""
    for i in range(start, len(entries)):
        entries[i]["prev_hash"] = entries[i - 1]["entry_hash"] if i else None
        entries[i]["entry_hash"] = entry_hash(entries[i])


def lines(entries) -> str:
    return "".join(canonical_json(e) + "\n" for e in entries)


K = 12  # entries the checkpoint covers in the resume battery


def first_test_after_k(entries) -> int:
    return next(i for i in range(K + 1, len(entries)) if entries[i]["test_bearing"])


def reuse_after_k(entries):
    consumed = next(h for e in entries[:K] for h in e["gating_hashes"])
    j = first_test_after_k(entries)
    entries[j]["gating_hashes"] = [consumed]
    rechain(entries, j)
    return lines(entries)


def forge_alpha_after_k(entries):
    j = first_test_after_k(entries)
    entries[j]["alpha_allocated"] += 0.01
    rechain(entries, j)
    return lines(entries)


def version_1_after_k(entries):
    del entries[K + 2]["schema_version"]
    rechain(entries, K + 2)
    return lines(entries)


def break_chain_after_k(entries):
    entries[K + 2]["prev_hash"] = "0" * 64
    rechain(entries, K + 3)
    entries[K + 2]["entry_hash"] = entry_hash(entries[K + 2])
    return lines(entries)


def blank_and_cr_after_k(entries, then=""):
    # blank lines, lone \r and \r\n endings: the first blank line is not JSON
    cr = "\r".join(canonical_json(e) for e in entries[K:K + 3])
    return (lines(entries[:K]) + "\n  \n" + cr + "\r\n\n" + then
            + "\r\n".join(canonical_json(e) for e in entries[K + 3:]) + "\r\n")


# the ledger after the checkpoint's prefix, damaged in each of these ways
RESUME_BATTERY = {
    "intact": lines,
    "nothing after L": lambda es: lines(es[:K]),
    "torn last line": lambda es: lines(es)[:-10],
    "bad JSON after L": lambda es: lines(es[:K + 3]) + "{oops\n" + lines(es[K + 3:]),
    "NaN after L": lambda es: lines(es[:K + 1]) + '{"index": NaN}\n' + lines(es[K + 1:]),
    "not an object after L": lambda es: lines(es[:K + 1]) + "[1]\n" + lines(es[K + 1:]),
    "deleted entry after L": lambda es: lines(es[:K + 1] + es[K + 2:]),
    "edit after L": lambda es: lines(es[:K + 1]) + lines(es[K + 1:]).replace(
        '"seed":1', '"seed":2', 1),
    "broken chain after L": break_chain_after_k,
    "alpha forgery after L": forge_alpha_after_k,
    "reuse after L": reuse_after_k,
    "version-1 entry after L": version_1_after_k,
    "blank and CR lines after L": blank_and_cr_after_k,
    "blank and CR lines, then bad JSON": lambda es: blank_and_cr_after_k(es, "{oops\n"),
}


def replay_outcome(replay, path: Path):
    """A replay of the ledger at path, and the tail it leaves, or the error."""
    ledger = AuditLedger(path)
    try:
        return replay(ledger), ledger._tail
    except LedgerCorrupt as e:
        return str(e)


def ckpt_path(path: Path) -> Path:
    return path.with_name(path.name + ".ckpt")


def checkpoint(path: Path, prefix: str) -> None:
    """Leave at path the checkpoint a write command's replay writes for
    the ledger `prefix`."""
    path.write_text(prefix)
    resume_replay(AuditLedger(path))
    assert _resume_point(path) is not None


def battery_entries(tmp_path: Path, older_before_k: bool = False) -> list[dict]:
    entries = list(seeded_ledger(tmp_path / "seeded.jsonl", n=30).entries)
    assert any(e["gating_hashes"] for e in entries[:K])
    if older_before_k:
        del entries[2]["schema_version"]
        rechain(entries, 2)
    return entries


class TestResumedReplay:
    """A write command resumes its replay from `<ledger>.ckpt`, and must
    reach what a full replay reaches, field by field, detail strings and
    the tail its append continues from included."""

    @pytest.fixture(params=[False, True], ids=["current", "version-1 entry before L"])
    def entries(self, tmp_path, request):
        return battery_entries(tmp_path, older_before_k=request.param)

    @pytest.mark.parametrize("damage", RESUME_BATTERY.values(), ids=RESUME_BATTERY)
    def test_resumed_replay_equals_the_full_one(self, tmp_path, entries, damage):
        path = tmp_path / "l.jsonl"
        checkpoint(path, lines(entries[:K]))
        path.write_text(damage([json.loads(canonical_json(e)) for e in entries]))
        start, reader = _resume_point(path)  # the checkpoint still holds
        assert (start.n_entries, reader.at.offset) == (K, len(lines(entries[:K])))
        full = replay_outcome(replay_ledger, path)
        assert replay_outcome(resume_replay, path) == full
        # a second resumed replay starts from the checkpoint the first left
        assert replay_outcome(resume_replay, path) == full

    def test_battery_is_what_the_full_replay_reports(self, tmp_path):
        # each damage surfaces at its own entry or line, past the checkpoint
        path, found, entries = tmp_path / "l.jsonl", {}, battery_entries(tmp_path)
        for name, damage in RESUME_BATTERY.items():
            path.write_text(damage([json.loads(canonical_json(e)) for e in entries]))
            outcome = replay_outcome(replay_ledger, path)
            if isinstance(outcome, str):
                found[name] = outcome.removeprefix(f"{path}:")
            else:
                replayed = outcome[0]
                found[name] = (replayed.first_inconsistency, replayed.detail,
                               replayed.n_entries, replayed.older is not None)
        assert found == {
            "intact": (None, None, 30, False),
            "nothing after L": (None, None, K, False),
            "torn last line": "30: not valid JSON",
            "bad JSON after L": "16: not valid JSON",
            "NaN after L": "14: not valid JSON",
            "not an object after L": (13, "entry is not an object", 31, False),
            "deleted entry after L": (13, "index 14 at position 13", 29, False),
            "edit after L": (13, "entry hash does not match content", 30, False),
            "broken chain after L": (14, "broken hash chain", 30, False),
            "alpha forgery after L": (14, "allocated alpha 0.01 != replayed 0.0", 30, False),
            "reuse after L": (14, "gating hash 07c15471a451 was consumed by entry 3", 30,
                              False),
            "version-1 entry after L": (None, None, 30, True),
            "blank and CR lines after L": "13: not valid JSON",
            "blank and CR lines, then bad JSON": "13: not valid JSON",
        }

    def test_checkpoint_covers_the_new_entries(self, tmp_path, entries):
        path = tmp_path / "l.jsonl"
        checkpoint(path, lines(entries[:K]))
        path.write_text(lines(entries))
        resume_replay(AuditLedger(path))
        start, reader = _resume_point(path)
        assert start == replay_ledger(AuditLedger(path))
        assert reader.at == (len(lines(entries)), len(entries))

    @pytest.mark.parametrize("edited", [0, K // 2, K - 1])
    def test_edit_before_the_checkpoint_is_caught(self, tmp_path, entries, edited):
        # entry 0 and the last entry are read again; only the prefix's hash
        # guards the entries between them
        path = tmp_path / "l.jsonl"
        checkpoint(path, lines(entries[:K]))
        entries[edited]["seed"] = 2  # content edited, hash left as it was
        path.write_text(lines(entries))
        assert _resume_point(path) is None
        full = replay_outcome(replay_ledger, path)
        assert full[0].as_plain() == {
            "consistent": False, "first_inconsistency": edited,
            "detail": "entry hash does not match content", "n_entries": 30}
        assert replay_outcome(resume_replay, path) == full

    def forged(self, path: Path, **fields) -> None:
        ck = json.loads(ckpt_path(path).read_text())
        ckpt_path(path).write_text(canonical_json({**ck, **fields}))

    @pytest.mark.parametrize("ckpt", [
        "stale", "ledger truncated", "other ledger", "truncated", "garbage", "empty object",
        "not an object", "deep", "count", "carry", "first", "prefix inside a line",
        "version", "consumed not indices", "negative size"])
    def test_checkpoint_that_does_not_match_is_ignored(self, tmp_path, entries, ckpt):
        path = tmp_path / "l.jsonl"
        checkpoint(path, lines(entries[:K]))
        good = json.loads(ckpt_path(path).read_text())
        prefix = lines(entries[:K])
        if ckpt == "stale":  # the ledger was rewritten since
            path.write_text(lines(seeded_ledger(tmp_path / "other.jsonl", n=30, seed=9).entries))
        elif ckpt == "ledger truncated":
            path.write_text(lines(entries[:K - 1]))
        elif ckpt == "other ledger":
            other = tmp_path / "other.jsonl"
            checkpoint(other, lines(seeded_ledger(tmp_path / "o.jsonl", n=K, seed=9).entries))
            shutil.copyfile(ckpt_path(other), ckpt_path(path))
        elif ckpt == "truncated":
            raw = ckpt_path(path).read_bytes()
            ckpt_path(path).write_bytes(raw[:len(raw) // 2])
        elif ckpt == "garbage":
            ckpt_path(path).write_bytes(b"\xff\x00garbage")
        elif ckpt == "empty object":
            ckpt_path(path).write_text("{}")
        elif ckpt == "not an object":
            ckpt_path(path).write_text("[1, 2]")
        elif ckpt == "deep":
            ckpt_path(path).write_text("[" * 100_000 + "]" * 100_000)
        elif ckpt == "count":
            self.forged(path, entries=K - 1)
        elif ckpt == "carry":
            self.forged(path, carry=good["carry"] + 0.01)
        elif ckpt == "first":
            self.forged(path, first={**good["first"], "seed": 7})
        elif ckpt == "prefix inside a line":
            cut = len(prefix) - 5
            self.forged(path, bytes=cut, sha256=sha256_hex(prefix[:cut]))
        elif ckpt == "version":
            self.forged(path, version=0)
        elif ckpt == "consumed not indices":
            self.forged(path, consumed=dict.fromkeys(good["consumed"], "x"))
        elif ckpt == "negative size":
            self.forged(path, bytes=-1)
        if ckpt not in ("stale", "ledger truncated"):
            path.write_text(lines(entries))
        assert _resume_point(path) is None
        full = replay_outcome(replay_ledger, path)
        assert replay_outcome(resume_replay, path) == full
        # the full replay left a checkpoint that holds
        assert _resume_point(path)[0] == full[0]

    def test_checkpoint_is_written_only_for_new_entries(self, tmp_path, entries):
        path = tmp_path / "l.jsonl"
        checkpoint(path, lines(entries))
        ckpt_path(path).write_bytes(ckpt_path(path).read_bytes() + b" ")
        resume_replay(AuditLedger(path))
        assert ckpt_path(path).read_bytes().endswith(b" ")

    @pytest.mark.parametrize("ledger", ["inconsistent", "unterminated", "empty", "missing"])
    def test_no_checkpoint_without_new_verified_entries(self, tmp_path, entries, ledger):
        path = tmp_path / "l.jsonl"
        text = {"inconsistent": lines(entries).replace('"seed":1', '"seed":2', 1),
                "unterminated": lines(entries)[:-1], "empty": ""}.get(ledger)
        if text is not None:
            path.write_text(text)
        if ledger == "unterminated":
            with pytest.raises(LedgerCorrupt, match=r"l\.jsonl:30: has no newline$"):
                resume_replay(AuditLedger(path))
        else:
            replayed = resume_replay(AuditLedger(path))
            assert replayed.consistent == (ledger != "inconsistent")
        assert not ckpt_path(path).exists()

    @pytest.mark.parametrize("long_entry", [K - 2, K - 1], ids=["before the last", "last"])
    def test_line_longer_than_a_chunk(self, tmp_path, entries, long_entry):
        # the prefix's last entry is the line that ends its final _CHUNK
        # bytes: a long line before it still lets the replay resume, even
        # where chunks counted from the start would split the last line in
        # two; a last line longer than _CHUNK means a full replay
        path = tmp_path / "l.jsonl"
        last, size = len(lines(entries[K - 1:K])), len(lines(entries[:K]))
        pad = _CHUNK + last // 2 - size if long_entry == K - 2 else _CHUNK
        entries[long_entry]["model_id"] += "m" * pad
        rechain(entries, long_entry)
        path.write_text(lines(entries[:K]))
        resume_replay(AuditLedger(path))
        assert ckpt_path(path).exists()
        assert (_resume_point(path) is None) == (long_entry == K - 1)
        path.write_text(lines(entries))
        full = replay_outcome(replay_ledger, path)
        assert full[0].consistent
        assert replay_outcome(resume_replay, path) == full

    def test_failed_checkpoint_write_changes_nothing(self, tmp_path, entries):
        path = tmp_path / "l.jsonl"
        path.write_text(lines(entries))
        ckpt_path(path).mkdir()  # no file can be renamed over it
        (ckpt_path(path) / "keep").touch()
        assert resume_replay(AuditLedger(path)) == replay_ledger(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "l.jsonl", "l.jsonl.ckpt", "seeded.jsonl"]


class TestDurableCommit:
    """A write command fsyncs the ledger once its entry is appended."""

    @pytest.mark.parametrize("command", ["run", "monitor"])
    def test_committed_entry_is_fsynced(self, example_copy, monkeypatch, command):
        cfg = load_config(example_copy / "audit.yaml")
        if command == "monitor":
            run_audit(cfg)
        synced, fsync = [], os.fsync

        def recorded(fd):
            st = os.fstat(fd)
            synced.append((st.st_ino, st.st_size))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recorded)
        if command == "run":
            run_audit(cfg)
        else:
            monitor_step(cfg.ledger_path, cfg, TestMonitor().window(example_copy, "window.csv"))
        ledger = cfg.ledger_path.stat()
        assert (ledger.st_ino, ledger.st_size) in synced


class TestReusedGatingData:
    """FWER control holds only on fresh data: a test-bearing entry whose
    gating hash an earlier entry consumed is an inconsistency."""

    def test_reused_gating_hash_flagged_naming_the_consumer(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        entries[2]["gating_hashes"] = ["h0"]
        rechain(entries, 2)
        rewrite(path, entries)
        assert verify_ledger(path) == {
            "consistent": False, "first_inconsistency": 2,
            "detail": "gating hash h0 was consumed by entry 0", "n_entries": 3}
        config = SimpleNamespace(family_snapshot=lambda: FAMILY)
        with pytest.raises(LedgerCorrupt, match="entry 2: gating hash h0 was consumed"):
            _Entry(path, config)

    def test_non_test_entry_may_repeat_a_hash(self, tmp_path):
        # only a test-bearing entry spends alpha on its gating data
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        entries = load_lines(path)
        entries[1]["gating_hashes"] = ["h0"]
        rechain(entries, 1)
        rewrite(path, entries)
        assert verify_ledger(path)["consistent"]
        assert replay_ledger(path).consumed_at == {"h0": 0, "h2": 2}

    @pytest.mark.parametrize("forged", ["consumed", "tests_done"])
    def test_forged_checkpoint_leaves_an_entry_verify_catches(self, example_copy, forged):
        # the checkpoint is trusted as far as the ledger beside it: an edit
        # that lets consumed data in, or misplaces the recurrence, leaves
        # an entry that the full replay refuses
        cfg = load_config(example_copy / "audit.yaml")
        run_audit(cfg)
        window = TestMonitor().window(example_copy, "window.csv")
        monitor_step(cfg.ledger_path, cfg, window)
        ckpt = ckpt_path(cfg.ledger_path)
        raw = json.loads(ckpt.read_text())
        raw.update(consumed={}) if forged == "consumed" else raw.update(tests_done=0)
        ckpt.write_text(canonical_json(raw))
        data = "test_pass.csv" if forged == "consumed" else "point_check.csv"
        point = load_dataset(example_copy / "data" / data, cfg.datasets["test"].columns)
        monitor_step(cfg.ledger_path, cfg,
                     TestMonitor().window(example_copy, "window_shift.csv"), point)
        result = verify_ledger(cfg.ledger_path)
        assert (result["consistent"], result["first_inconsistency"]) == (False, 2)
        assert result["detail"].startswith(
            "gating hash" if forged == "consumed" else "allocated alpha 0.1 ")


STEPS = """
import sys
from statcert.audit.config import load_config
from statcert.audit.runner import monitor_step
from statcert.core import load_dataset
cfg = load_config(sys.argv[1])
window = load_dataset(sys.argv[2], cfg.datasets["test"].feature_columns())
for _ in range(int(sys.argv[3])):
    assert monitor_step(cfg.ledger_path, cfg, window).verdict == "ok"
"""


class TestConcurrentWriters:
    """Each write command holds the ledger's lock from its replay to its
    commit, so writers that overlap append one after another."""

    def test_monitors_in_parallel_all_land(self, example_copy):
        config = mutate_yaml(example_copy / "audit.yaml",
                             lambda raw: raw["drift"].update(n_permutations=20))
        cfg = load_config(config)
        run_audit(cfg)
        workers, steps = 3, 15
        procs = [subprocess.Popen([sys.executable, "-c", STEPS, str(config),
                                   str(example_copy / "data" / "window.csv"), str(steps)],
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(workers)]
        errors = [p.communicate(timeout=300)[1] for p in procs]
        assert [p.returncode for p in procs] == [0] * workers, errors
        assert verify_ledger(cfg.ledger_path) == {
            "consistent": True, "first_inconsistency": None, "detail": None,
            "n_entries": 1 + workers * steps}

    def lock_is_free(self, ledger: Path) -> bool:
        with ledger.with_name(ledger.name + ".lock").open("ab") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                return False
            return True

    def test_lock_held_for_the_transaction(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        config = SimpleNamespace(family_snapshot=lambda: FAMILY)
        with _Entry(path, config):
            assert not self.lock_is_free(path)
        assert self.lock_is_free(path)

    def test_lock_released_when_the_ledger_is_refused(self, tmp_path):
        path = tmp_path / "l.jsonl"
        seed_ledger(path)
        config = SimpleNamespace(family_snapshot=lambda: {**FAMILY, "alpha": 0.1})
        with pytest.raises(FamilyMismatch):
            _Entry(path, config)
        assert self.lock_is_free(path)


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

    def test_consumed_point_check_refused_before_exhaustion(self, example_copy):
        # a failed run leaves nothing to allocate; monitor refuses consumed
        # data first, as recertify does, and only fresh data meets exhaustion
        path = mutate_yaml(example_copy / "audit.yaml",
                           lambda raw: raw["mprs"][0].update(threshold=0.99))
        cfg = load_config(path)
        assert run_audit(cfg).verdict == "fail"
        shifted = self.window(example_copy, "window_shift.csv")
        columns = cfg.datasets["test"].columns
        reused = load_dataset(example_copy / "data" / "test_pass.csv", columns)
        with pytest.raises(StaleDataReuse):
            recertify(cfg.ledger_path, cfg)
        with pytest.raises(StaleDataReuse):
            monitor_step(cfg.ledger_path, cfg, shifted, reused)
        fresh = load_dataset(example_copy / "data" / "point_check.csv", columns)
        with pytest.raises(FamilyAlphaExhausted):
            monitor_step(cfg.ledger_path, cfg, shifted, fresh)
        assert len(AuditLedger(cfg.ledger_path)) == 1

    def test_paths_are_read_like_datasets(self, tmp_path, example_copy):
        # the CLI passes paths: the same cycle as on loaded datasets
        cfg = load_config(example_copy / "audit.yaml")
        run_audit(cfg)
        twin = shutil.copytree(example_copy, tmp_path / "twin")
        point = load_dataset(example_copy / "data" / "point_check.csv",
                             cfg.datasets["test"].columns)
        loaded = monitor_step(cfg.ledger_path, cfg,
                              self.window(example_copy, "window_shift.csv"), point)
        twin_cfg = load_config(twin / "audit.yaml")
        read = monitor_step(twin_cfg.ledger_path, twin_cfg,
                            twin / "data" / "window_shift.csv",
                            twin / "data" / "point_check.csv")
        assert read.verdict == "shift_benign"
        assert read.as_plain() == loaded.as_plain()
        assert read.entry["dataset_hashes"] == loaded.entry["dataset_hashes"]
        assert read.entry["gating_hashes"] == [point.content_hash]

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
        md = render_markdown(report.payload)
        assert "Verdict: PASS" in md
        assert "accuracy_floor" in md
        assert report.content_hash in md

    def test_markdown_for_gated_run(self, example_copy):
        report = run_audit(load_config(example_copy / "audit_leak.yaml"))
        md = render_markdown(report.payload)
        assert "Verdict: FAIL" in md
        assert "No requirement was tested" in md

    def test_round_trip_through_disk(self, tmp_path, example_copy):
        report = run_audit(load_config(example_copy / "audit.yaml"))
        path = report.write(tmp_path / "r.json")
        assert AuditReport(json.loads(path.read_text())).content_hash == \
            report.content_hash
