"""Acceptance gate: twelve release criteria, one test each.

Every test prints a single `criterion NN (...): PASS` line on success and
carries its tolerances inline; a failure anywhere here means the package
must not ship. Oracles are recomputed locally (closed forms, exhaustive
enumeration, or pure-python arithmetic), never read back from the code
under test.
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from statcert.core import canonical_json
from statcert.audit.ledger import entry_hash
from statcert.fairness import (
    GroupedOutcomes,
    ModelPoint,
    equalized_odds_diff,
    pareto_front,
    statistical_parity_diff,
)
from statcert.leakage import (
    duplicate_check,
    group_leakage_check,
    target_proxy_screen,
    temporal_split_check,
)
from statcert.multiplicity import (
    Hypothesis,
    HypothesisFamily,
    fallback_test,
    fixed_sequence_test,
    simulate_fwer,
)
from statcert.robustness import (
    calibrate_threshold,
    evaluate_ood,
    fit_ood_scorer,
    robust_accuracy,
)
from statcert.sampling import SamplingDesign, estimate_with_design, solve_stratum_metric
from statcert.stattest import binomial_test_one_sided
from statcert.uncertainty import EnsemblePrediction, decompose

from conftest import build_dataset, feature_dataset
from helpers import (
    binomial_interval_95,
    max_additivity_error,
    mmd_rejection_rate,
    random_tv_bound_violations,
    witness_equality_error,
)

pytestmark = pytest.mark.acceptance

EXAMPLE = Path(__file__).resolve().parent.parent / "example"


def passed(n: int, label: str) -> None:
    print(f"criterion {n:02d} ({label}): PASS")


def best_call_time(fn, repeats=5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestAcceptance:
    def test_criterion_01_binomial_worked_examples(self):
        small = binomial_test_one_sided(94, 100, 0.9)
        assert abs(small.p_value - 0.117) <= 0.001
        assert abs(small.conf_bound - 0.885) <= 0.001
        assert small.decision == "fail_to_reject"

        large = binomial_test_one_sided(188, 200, 0.9)
        assert abs(large.p_value - 0.032) <= 0.001
        assert abs(large.conf_bound - 0.904) <= 0.001
        assert large.decision == "reject_H0"

        binomial_test_one_sided(94, 100, 0.9)  # warm path before timing
        assert best_call_time(lambda: binomial_test_one_sided(94, 100, 0.9)) < 1e-3
        assert best_call_time(lambda: binomial_test_one_sided(188, 200, 0.9)) < 1e-3
        passed(1, "binomial worked examples, <1ms")

    def test_criterion_02_design_estimate_and_implied_target(self):
        # stratified sample: every blue part correct, every red part wrong
        n = 100
        sample = build_dataset(
            {"label": np.zeros(2 * n, dtype=np.int64),
             "prediction": np.concatenate([np.zeros(n), np.ones(n)]).astype(np.int64),
             "color": np.array(["blue"] * n + ["red"] * n)},
            {"label": "label", "prediction": "prediction", "color": "group_id"})
        design = SamplingDesign("stratified", seed=0, strata_key="color",
                                allocation="equal")
        est = estimate_with_design(sample, design, "accuracy",
                                   population_strata_weights={"blue": 0.8,
                                                              "red": 0.2})
        assert est.estimate == 0.8  # exact, not approximate

        red = solve_stratum_metric("0.8", {"blue": "0.5", "red": "0.5"},
                                   {"blue": "1.0"}, "red")
        assert red == Fraction(3, 5)
        assert float(red) == 0.6
        passed(2, "design estimate 0.800 exact; implied red target 0.600 exact")

    def test_criterion_03_fwer_analytic_and_strong_control(self):
        t0 = time.perf_counter()
        est = simulate_fwer("uncorrected", [True] * 20, 0.05,
                            trials=100_000, seed=31001)
        analytic = 1.0 - 0.95 ** 20
        assert abs(est.fwer - analytic) <= 0.005

        trials = 50_000
        bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / trials)
        for i, pattern in enumerate(itertools.product([True, False], repeat=4)):
            for procedure in ("bonferroni", "fallback"):
                est = simulate_fwer(
                    procedure, list(pattern), 0.05, trials=trials,
                    seed=31100 + i, weights=[0.25] * 4)
                assert est.fwer <= bound, (procedure, pattern, est.fwer)
        assert time.perf_counter() - t0 < 60.0
        passed(3, "FWER 0.6415 +/- 0.005 uncorrected; strong control, <60s")

    def test_criterion_04_fallback_degenerates_to_fixed_sequence(self):
        rng = np.random.default_rng(31004)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            p = rng.uniform(size=m)
            weights = [1.0] + [0.0] * (m - 1)
            fb = fallback_test(HypothesisFamily(
                tuple(Hypothesis(f"h{i}", p[i], weights[i]) for i in range(m)), 0.05))
            fs = fixed_sequence_test(HypothesisFamily(
                tuple(Hypothesis(f"h{i}", p[i]) for i in range(m)), 0.05))
            assert [d.decision for d in fb.decisions] == \
                [d.decision for d in fs.decisions]
        passed(4, "fallback(1,0,...,0) == fixed sequence on 1000 p-vectors")

    def test_criterion_05_uncertainty_identity(self):
        assert max_additivity_error(10_000) <= 1e-10

        ln2 = math.log(2.0)
        same = decompose(EnsemblePrediction(np.array([[0.5, 0.5]] * 3)))
        assert abs(same.total - ln2) <= 1e-12
        assert abs(same.aleatoric - ln2) <= 1e-12
        assert abs(same.epistemic - 0.0) <= 1e-12

        onehot = decompose(EnsemblePrediction(np.array([[1.0, 0.0], [0.0, 1.0]])))
        assert abs(onehot.total - ln2) <= 1e-12
        assert abs(onehot.aleatoric - 0.0) <= 1e-12
        assert abs(onehot.epistemic - ln2) <= 1e-12
        passed(5, "total = aleatoric + epistemic to 1e-10 over 10k ensembles")

    def test_criterion_06_tv_bound_and_witness(self):
        t0 = time.perf_counter()
        violations, _ = random_tv_bound_violations(1000, support=5)
        assert violations == 0
        assert witness_equality_error(1000, support=3) <= 1e-12
        assert time.perf_counter() - t0 < 5.0
        passed(6, "TV bound: 0/1000 violations; witness tight to 1e-12, <5s")

    @pytest.mark.slow
    def test_criterion_07_mmd_calibration_and_power(self):
        t0 = time.perf_counter()
        null_rate = mmd_rejection_rate(reps=500, n_per_batch=60, dim=5, shift=0.0)
        lo, hi = binomial_interval_95(500, 0.05)
        assert lo <= null_rate * 500 <= hi

        power = mmd_rejection_rate(reps=200, n_per_batch=200, dim=2, shift=1.0)
        assert power >= 0.9
        assert time.perf_counter() - t0 < 600.0
        passed(7, "MMD null rate in binomial band; power >= 0.9, <10min")

    def test_criterion_08_fairness_oracles(self):
        rng = np.random.default_rng(31008)
        for _ in range(20):
            c = rng.integers(1, 40, size=(2, 2, 2))
            outcomes = GroupedOutcomes(c.astype(np.int64))
            # hand recount from raw integer cells
            rate = [int(c[a, :, 1].sum()) / int(c[a].sum()) for a in (0, 1)]
            assert statistical_parity_diff(outcomes) == rate[1] - rate[0]
            gaps = [abs(int(c[1, y, 1]) / int(c[1, y].sum())
                        - int(c[0, y, 1]) / int(c[0, y].sum())) for y in (0, 1)]
            assert equalized_odds_diff(outcomes, "opportunity") == gaps[1]
            assert equalized_odds_diff(outcomes, "odds") == max(gaps)

        def oracle_front(points):
            keep = []
            for p in points:
                dominated = any(
                    q.performance >= p.performance
                    and q.fairness_violation <= p.fairness_violation
                    and (q.performance > p.performance
                         or q.fairness_violation < p.fairness_violation)
                    for q in points)
                if not dominated:
                    keep.append(p)
            return keep

        def as_set(points):
            return frozenset((p.model_id, p.performance, p.fairness_violation)
                             for p in points)

        for s in range(1000):
            rng_s = np.random.default_rng(31500 + s)
            n = int(rng_s.integers(1, 40))
            if s % 2 == 0:  # coarse grid forces exact ties on both axes
                perf = rng_s.integers(0, 6, size=n) / 5.0
                viol = rng_s.integers(0, 6, size=n) / 5.0
            else:
                perf = rng_s.uniform(size=n)
                viol = rng_s.uniform(size=n)
            points = [ModelPoint(f"m{i}", float(perf[i]), float(viol[i]))
                      for i in range(n)]
            assert as_set(pareto_front(points)) == as_set(oracle_front(points)), s
        passed(8, "fairness metrics exact on 20 tables; pareto == oracle x1000")

    def test_criterion_09_leakage_planted_and_proxy_fpr(self):
        def split(x):
            cols = {f"x{j}": x[:, j].copy() for j in range(x.shape[1])}
            return build_dataset(cols, {k: "feature" for k in cols})

        for s in range(30):
            rng = np.random.default_rng(32000 + s)
            xtr = rng.normal(size=(500, 3))
            xte = rng.normal(size=(400, 3))
            n_plant = int(rng.integers(1, 6))
            rows_te = rng.choice(400, size=n_plant, replace=False)
            rows_tr = rng.choice(500, size=n_plant, replace=False)
            xte[rows_te] = xtr[rows_tr]
            report = duplicate_check(split(xtr), split(xte))
            assert report.severity == "violation", s
            found = {e["test_row"] for e in report.evidence if "test_row" in e}
            assert found == set(rows_te.tolist()), s

        for s in range(30):
            rng = np.random.default_rng(32100 + s)
            k_shared = int(rng.integers(1, 8))
            train_ids = np.arange(100)
            test_ids = np.concatenate([np.arange(100 - k_shared, 100),
                                       np.arange(200, 230)])

            def with_ids(ids):
                return build_dataset(
                    {"x": rng.normal(size=len(ids)), "gid": ids},
                    {"x": "feature", "gid": "group_id"})

            report = group_leakage_check(with_ids(train_ids), with_ids(test_ids))
            assert report.severity == "violation", s
            assert len(report.evidence) == k_shared, s

        for s in range(30):
            rng = np.random.default_rng(32200 + s)
            n_late = int(rng.integers(1, 10))
            train_ts = np.concatenate([rng.integers(0, 1000, size=90),
                                       rng.integers(2001, 3000, size=n_late)])
            test_ts = rng.integers(1500, 2000, size=50)

            def stamped(ts):
                return build_dataset(
                    {"x": np.zeros(len(ts)), "t": ts.astype(np.int64)},
                    {"x": "feature", "t": "timestamp"})

            report = temporal_split_check(stamped(train_ts), stamped(test_ts))
            assert report.severity == "violation", s
            assert len(report.evidence) == n_late, s

        rng = np.random.default_rng(32300)
        n_features = 100
        y = rng.integers(0, 2, size=10_000)
        cols = {f"x{j}": rng.normal(size=10_000) for j in range(n_features)}
        roles = {k: "feature" for k in cols}
        cols["y"], roles["y"] = y, "label"
        report = target_proxy_screen(build_dataset(cols, roles), seed=5)
        assert len(report.evidence) / n_features <= 0.01
        passed(9, "0 false negatives on 90 planted leaks; proxy FPR <= 1%")

    def test_criterion_10_linear_model_exactness(self):
        for m in range(1000):
            rng = np.random.default_rng(33000 + m)
            d = int(rng.integers(2, 6))
            w = rng.normal(size=d)
            w[np.abs(w) < 1e-3] = 1e-3
            b = float(rng.normal() * 0.3)
            x = rng.normal(size=(4, d))
            y = (x @ w + b > 0).astype(int)
            eps = float(rng.uniform(0.1, 0.6))
            predict = lambda z: int(float(w @ z + b) > 0)
            result = robust_accuracy(
                predict, feature_dataset(x, y), epsilon=eps, norm="linf",
                attack="coordinate_descent", budget=(1 << d) + 2 * d, seed=m)
            margin_safe = tuple(
                abs(float(w @ row + b)) > eps * float(np.abs(w).sum()) for row in x)
            assert result.per_sample_robust == margin_safe, m
            assert result.exhaustive is True

        rng = np.random.default_rng(33999)
        x = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        predict = lambda z: int(z[0] > 0)
        at_zero = robust_accuracy(predict, feature_dataset(x, y), epsilon=0.0)
        clean = float(np.mean([predict(row) == y[i] for i, row in enumerate(x)]))
        assert at_zero.robust_accuracy_lower_bound == at_zero.clean_accuracy == clean
        passed(10, "Linf flips match margin condition on 1000/1000 linear models")

    def test_criterion_11_ood_separation_and_calibration(self):
        rng = np.random.default_rng(34011)
        scorer = fit_ood_scorer(
            feature_dataset(rng.normal(size=(500, 2)), np.zeros(500, dtype=int)),
            "distance_centroid")
        id_test = feature_dataset(rng.normal(size=(500, 2)))
        ood_test = feature_dataset(rng.normal(size=(500, 2)) + np.array([6.0, 0.0]))
        assert evaluate_ood(scorer, id_test, ood_test).auroc >= 0.95

        calibrate_threshold(scorer, feature_dataset(rng.normal(size=(5000, 2))), 0.95)
        fresh = scorer.score_samples(feature_dataset(rng.normal(size=(2000, 2))))
        accepted = int(np.sum(fresh <= scorer.threshold))
        lo, hi = binomial_interval_95(2000, 0.95)
        assert lo <= accepted <= hi
        passed(11, "Mahalanobis AUROC >= 0.95; calibration in binomial band")

    def test_criterion_12_cli_end_to_end(self, tmp_path):
        work = tmp_path / "example"
        shutil.copytree(EXAMPLE, work)

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "statcert.cli", *args],
                capture_output=True, text=True)

        first = cli("run", str(work / "audit.yaml"))
        assert first.returncode == 0, first.stderr
        report_bytes = (work / "audit_report.json").read_bytes()

        again = cli("run", str(work / "audit.yaml"))
        assert again.returncode == 0
        assert (work / "audit_report.json").read_bytes() == report_bytes

        failing = cli("run", str(work / "audit_fail.yaml"))
        assert failing.returncode == 1

        leaky = cli("run", str(work / "audit_leak.yaml"))
        assert leaky.returncode == 1
        leak_report = json.loads((work / "audit_leak_report.json").read_text())
        assert leak_report["checks"]["mpr"] == []
        leak_entry = json.loads(
            (work / "audit_leak_ledger.jsonl").read_text().splitlines()[0])
        assert leak_entry["alpha_allocated"] == 0.0
        assert leak_entry["test_bearing"] is False
        # the report states the alpha its ledger entry records
        assert leak_report["entry"]["alpha_allocated"] == leak_entry["alpha_allocated"]

        # grow the ledger past one entry so reorder/deletion are observable
        quiet = cli("monitor", str(work / "audit.yaml"),
                    "--window", str(work / "data" / "window.csv"))
        assert quiet.returncode == 0
        shifted = cli("monitor", str(work / "audit.yaml"),
                      "--window", str(work / "data" / "window_shift.csv"))
        assert shifted.returncode == 1
        explained = cli("monitor", str(work / "audit.yaml"),
                        "--window", str(work / "data" / "window_shift.csv"),
                        "--point-check", str(work / "data" / "point_check.csv"))
        assert explained.returncode == 0

        ledger_path = work / "audit_ledger.jsonl"
        clean = cli("verify-ledger", str(ledger_path))
        assert clean.returncode == 0
        assert json.loads(clean.stdout)["consistent"] is True

        pristine = [json.loads(line)
                    for line in ledger_path.read_text().splitlines() if line.strip()]
        assert len(pristine) >= 4

        def tamper(transform):
            entries = json.loads(json.dumps(pristine))  # deep copy
            transform(entries)
            ledger_path.write_text(
                "".join(canonical_json(e) + "\n" for e in entries))
            result = cli("verify-ledger", str(ledger_path))
            assert result.returncode == 3, result.stdout
            assert json.loads(result.stdout)["consistent"] is False

        def forge_alpha(entries):
            entries[0]["alpha_allocated"] = 0.2
            entries[0]["entry_hash"] = entry_hash(entries[0])

        def edit_payload(entries):
            entries[0]["verdict"] = "fail"

        def reorder(entries):
            entries[1], entries[2] = entries[2], entries[1]

        def break_chain(entries):
            entries[1]["prev_hash"] = "f" * 64
            entries[1]["entry_hash"] = entry_hash(entries[1])

        def delete_entry(entries):
            del entries[1]

        for plant in (forge_alpha, edit_payload, reorder, break_chain,
                      delete_entry):
            tamper(plant)
        passed(12, "CLI run/rerun/fail/leak/verify-ledger exit codes correct")
