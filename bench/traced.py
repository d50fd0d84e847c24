"""Traced run: each workload's stages re-enacted in process under spans.

The program carries no spans of its own yet, so this module calls the
layers' public functions itself, in the order `audit.runner` and `cli` call
them, and wraps each call in a span. `run_audit` and `monitor_step` are also
timed whole; the runner's self time is that whole call minus the re-enacted
stages. The same re-enactment is run with tracing off to measure the
tracing overhead. After the timed ops comes the baseline sweep: fixed-size
calls of the heaviest stages, measured in this run only.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from statcert.audit import (AuditLedger, FallbackState, load_config, monitor_step,
                            run_audit, verify_ledger)
from statcert.core import load_dataset
from statcert.drift import (batch_from_dataset, classify_shift,
                            median_heuristic_bandwidth, mmd_permutation_test,
                            multivariate_shift_test)
from statcert.leakage import duplicate_check
from statcert.sampling import splitmix64
from statcert.stattest import evaluate_mpr

import timed
import workloads as W

MIB = 2 ** 20
CLI_SAMPLES = 5
# (name suffix, full size, smoke size)
SWEEP_ROWS = (("1e4", 10_000, 100), ("1e5", 100_000, 1_000))
SWEEP_MMD = (("n1000", 1000, 50), ("n2000", 2000, 100), ("n4000", 4000, 200))
SWEEP_MMD_PERMUTATIONS = 500
SWEEP_LEDGER = ("5000", 5000, 50)

# Per-layer metrics and their units, in report order.
PER_LAYER = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "audit.config.load_s": "s",
    "core.load_dataset_s": "s",
    "core.content_hash_s": "s",
    "core.rows_loaded": "count",
    "core.input_mb": "MiB",
    "leakage.duplicate_check_s": "s",
    "leakage.rows_compared": "count",
    "stattest.evaluate_mpr_s": "s",
    "drift.bandwidth_s": "s",
    "drift.shift_test_s": "s",
    "drift.classify_shift_s": "s",
    "drift.peak_mb": "MiB",
    "drift.kernel_cells": "count",
    "drift.permutations": "count",
    "audit.ledger.load_s": "s",
    "audit.ledger.verify_s": "s",
    "audit.ledger.verify_path_s": "s",
    "audit.ledger.replay_s": "s",
    "audit.ledger.append_s": "s",
    "audit.ledger.entries": "count",
    "audit.ledger.mb": "MiB",
    "audit.report.write_s": "s",
    "audit.report.bytes": "B",
    "audit.runner.run_audit_s": "s",
    "audit.runner.monitor_step_s": "s",
    "audit.runner.self_s": "s",
    "trace.overhead_s": "s",
    **{f"core.load_dataset_{k}_s": "s" for k, _, _ in SWEEP_ROWS},
    **{f"core.content_hash_{k}_s": "s" for k, _, _ in SWEEP_ROWS},
    **{f"leakage.duplicate_check_{k}_s": "s" for k, _, _ in SWEEP_ROWS},
    **{f"drift.mmd_{k}_s": "s" for k, _, _ in SWEEP_MMD},
    **{f"drift.mmd_{k}_peak_mb": "MiB" for k, _, _ in SWEEP_MMD},
    f"audit.ledger.append_{SWEEP_LEDGER[0]}_s": "s",
    f"audit.ledger.load_{SWEEP_LEDGER[0]}_s": "s",
    f"audit.ledger.verify_{SWEEP_LEDGER[0]}_s": "s",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent and op id, plus counts."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op: int | str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, memory: bool = False, **counts):
        """Record one span; `memory` also records the tracemalloc peak.

        Yields a dict the caller may add counts to once they are known.
        """
        if not self.enabled:
            yield counts
            return
        rec = {"op": self.op, "id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, **counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        if memory:
            tracemalloc.start()
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            if memory:
                rec["peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()
            self._stack.pop()

    def with_self_time(self) -> list[dict]:
        """Spans with `self_ns`: duration minus the time of direct children."""
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + duration_ns(s)
        return [{**s, "self_ns": duration_ns(s) - child_ns.get(s["id"], 0)}
                for s in self.spans]


def duration_ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def load(t: Tracer, path: Path, columns: dict):
    with t.span("core.load_dataset", rows=0, bytes=Path(path).stat().st_size) as rec:
        ds = load_dataset(path, columns)
        rec["rows"] = ds.n_rows
    return ds


def content_hash(t: Tracer, ds) -> str:
    with t.span("core.content_hash", rows=ds.n_rows):
        return ds.content_hash


def ledger_counts(path: Path) -> dict:
    size = path.stat().st_size if path.exists() else 0
    entries = len(path.read_bytes().splitlines()) if size else 0
    return {"entries": entries, "bytes": size}


def reenact_run(t: Tracer, ws: W.Workspace):
    """`audit run`: config load, the stages `run_audit` calls, report write."""
    with t.span("cli.run"):
        with t.span("audit.config.load"):
            config = load_config(ws.config)
        with t.span("audit.runner.stages"):
            datasets = {name: load(t, b.path, b.columns)
                        for name, b in config.datasets.items()}
            with t.span("audit.ledger.load", **ledger_counts(config.ledger_path)):
                ledger = AuditLedger(config.ledger_path)
            hashes = {name: content_hash(t, ds) for name, ds in datasets.items()}
            leak = config.leakage
            train, test = datasets[leak.train], datasets[leak.test]
            with t.span("leakage.duplicate_check", rows=train.n_rows + test.n_rows):
                gate = duplicate_check(train, test, key=leak.duplicate_key)
            alpha = FallbackState(0, 0.0).next_alpha(config.family_alpha,
                                                     config.family_weights)
            decisions, demonstrated = [], True
            for j, req in enumerate(config.mprs):
                data = datasets[req.dataset]
                with t.span("stattest.evaluate_mpr", rows=data.n_rows):
                    _, test_result = evaluate_mpr(data, req.spec, alpha * req.spec.alpha_share,
                                                  seed=splitmix64(config.seed, 1000 + j))
                demonstrated = demonstrated and test_result.rejected
                decisions.append({"name": req.name, "p_value": test_result.p_value,
                                  "alpha_used": test_result.alpha_used,
                                  "decision": test_result.decision})
            verdict = "pass" if demonstrated and gate.severity != "violation" else "fail"
            with t.span("audit.ledger.append"):
                ledger.append(
                    kind="certification", model_id=config.model_id,
                    family=config.family_snapshot(), dataset_hashes=hashes,
                    gating_hashes=[hashes[n] for n in config.gating_dataset_names()],
                    seed=config.seed, test_bearing=True, alpha_allocated=alpha,
                    alpha_carried_in=0.0, alpha_carried_out=alpha if demonstrated else 0.0,
                    decisions=decisions, demonstrated=demonstrated, verdict=verdict)
    return verdict


def reenact_monitor(t: Tracer, ws: W.Workspace):
    """`audit monitor`: the CLI's loads, then the stages `monitor_step` calls."""
    with t.span("cli.monitor"):
        with t.span("audit.config.load"):
            config = load_config(ws.config)
        drift = config.drift
        window = load(t, ws.window, config.datasets[drift.reference].feature_columns())
        point = None
        if ws.point_check is not None:
            point = load(t, ws.point_check, config.datasets[config.mprs[0].dataset].columns)
        with t.span("audit.ledger.load", **ledger_counts(config.ledger_path)):
            ledger = AuditLedger(config.ledger_path)
        with t.span("audit.runner.stages"):
            with t.span("audit.ledger.verify", entries=len(ledger)):
                integrity = verify_ledger(ledger)
            if not integrity["consistent"]:
                raise RuntimeError(f"ledger inconsistent: {integrity['detail']}")
            datasets = {name: load(t, b.path, b.columns)
                        for name, b in config.datasets.items()}
            reference = batch_from_dataset(datasets[drift.reference], "reference")
            production = batch_from_dataset(window, "production")
            window_hash = content_hash(t, window)
            total = reference.n + production.n
            with t.span("drift.shift_test", kernel_cells=total * total,
                        permutations=drift.n_permutations):
                shift = multivariate_shift_test(
                    reference, production, alpha=drift.alpha, method=drift.method,
                    seed=config.seed, n_perm=drift.n_permutations,
                    categorical_dims=drift.categorical_dims)
            with t.span("audit.ledger.replay", entries=len(ledger)):
                state = ledger.replay_state()
            hashes = {"reference": content_hash(t, datasets[drift.reference]),
                      "window": window_hash}
            alpha, carried_out, gating, decisions, demonstrated = 0.0, state.carry, [], [], None
            test_bearing = False
            if shift.aggregate == "no_shift":
                verdict = "ok"
            elif point is None:
                verdict = "shift_unclassified"
            else:
                test_bearing = True
                alpha = state.next_alpha(config.family_alpha, config.family_weights)
                with t.span("audit.ledger.replay", entries=len(ledger)):
                    ledger.prior_gating_hashes()
                hashes["point_check"] = content_hash(t, point)
                with t.span("drift.classify_shift", rows=point.n_rows):
                    classification = classify_shift(
                        shift, point, config.mprs[0].spec, alpha,
                        seed=splitmix64(config.seed, 3000 + len(ledger)))
                verdict = f"shift_{'benign' if classification.label == 'benign' else 'malignant'}"
                demonstrated = classification.test.rejected
                carried_out = alpha if demonstrated else 0.0
                gating = [hashes["point_check"]]
                decisions = [{"name": config.mprs[0].name,
                              "p_value": classification.test.p_value,
                              "alpha_used": classification.test.alpha_used,
                              "decision": classification.test.decision}]
            with t.span("audit.ledger.append"):
                ledger.append(
                    kind="monitor", model_id=config.model_id,
                    family=config.family_snapshot(), dataset_hashes=hashes,
                    gating_hashes=gating, seed=config.seed, test_bearing=test_bearing,
                    alpha_allocated=alpha,
                    alpha_carried_in=state.carry, alpha_carried_out=carried_out,
                    decisions=decisions, demonstrated=demonstrated, verdict=verdict)
    return verdict, (config, window, point, np.vstack([reference.data, production.data]))


def reenact_verify(t: Tracer, ws: W.Workspace):
    """`audit verify-ledger`: the path-based parser and replay."""
    with t.span("cli.verify-ledger"):
        with t.span("audit.ledger.verify_path", **ledger_counts(ws.ledger)):
            result = verify_ledger(ws.ledger)
    return "consistent" if result["consistent"] else f"inconsistent: {result['detail']}"


def traced_op(t: Tracer, workload: W.Workload, ws: W.Workspace) -> list[str]:
    """One op of the workload under tracing; returns any wrong outcomes."""
    wrong = []

    def expect(what: str, got: str, want: str) -> None:
        if got != want:
            wrong.append(f"{what}: {got!r}, expected {want!r}")

    if workload.kind == "certify":
        W.restore(ws)
        config = load_config(ws.config)
        with t.span("audit.runner.run_audit"):
            report = run_audit(config)
        expect("run_audit", report.verdict, workload.write_verdict)
        W.restore(ws)
        expect("re-enacted run", reenact_run(t, ws), workload.write_verdict)
        with t.span("audit.report.write", bytes=len(report.to_json().encode())):
            report.write(ws.report)
        return wrong

    if workload.kind == "replay":
        W.restore(ws)
        expect("re-enacted verify-ledger", reenact_verify(t, ws), "consistent")
    W.restore(ws)
    verdict, (config, window, point, pooled) = reenact_monitor(t, ws)
    expect("re-enacted monitor", verdict, workload.write_verdict)
    with t.span("drift.bandwidth", rows=len(pooled)):
        median_heuristic_bandwidth(pooled)
    W.restore(ws)
    ledger = AuditLedger(ws.ledger)
    with t.span("audit.runner.monitor_step"):
        outcome = monitor_step(ledger, config, window, point)
    expect("monitor_step", outcome.verdict, workload.write_verdict)
    return wrong


def untraced_op(workload: W.Workload, ws: W.Workspace) -> float:
    """The same re-enactment with tracing off; returns its wall time."""
    t = Tracer(enabled=False)
    elapsed = 0.0
    steps = {"certify": (reenact_run,), "monitor": (reenact_monitor,),
             "replay": (reenact_verify, reenact_monitor)}[workload.kind]
    for step in steps:
        W.restore(ws)
        start = time.perf_counter()
        step(t, ws)
        elapsed += time.perf_counter() - start
    return elapsed


def shift_test_peak_mib(t: Tracer, ws: W.Workspace) -> float:
    """tracemalloc peak of one more shift test, run apart from the timed ops
    because tracemalloc slows the call it watches."""
    t.op = "memory"
    config = load_config(ws.config)
    drift = config.drift
    reference = batch_from_dataset(load_dataset(config.datasets[drift.reference].path,
                                                config.datasets[drift.reference].columns),
                                   "reference")
    window = load_dataset(ws.window, config.datasets[drift.reference].feature_columns())
    with t.span("drift.shift_test", memory=True) as rec:
        multivariate_shift_test(reference, batch_from_dataset(window, "production"),
                                alpha=drift.alpha, method=drift.method, seed=config.seed,
                                n_perm=drift.n_permutations,
                                categorical_dims=drift.categorical_dims)
    return rec["peak_mib"]


def per_op_sums(spans: list[dict], ops: list[int]) -> dict[str, list[float]]:
    """For every span name, its summed duration (s) in each op."""
    sums: dict[str, list[float]] = {}
    for op in ops:
        mine = [s for s in spans if s["op"] == op]
        for name in {s["name"] for s in mine}:
            sums.setdefault(name, []).append(
                sum(duration_ns(s) for s in mine if s["name"] == name) / 1e9)
    return sums


def span_count(spans: list[dict], op: int, name: str, key: str) -> float:
    return sum(s.get(key, 0) for s in spans if s["op"] == op and s["name"] == name)


def runner_self_s(spans: list[dict], op: int) -> float:
    """Whole runner call minus the stages re-enacted for it in the same op."""
    mine = [s for s in spans if s["op"] == op]
    whole = next(s for s in mine if s["name"] in ("audit.runner.run_audit",
                                                  "audit.runner.monitor_step"))
    group = next(s for s in mine if s["name"] == "audit.runner.stages")
    stages = sum(duration_ns(s) for s in mine if s["parent"] == group["id"])
    return (duration_ns(whole) - stages) / 1e9


def cli_startup(src: Path, out_dir: Path, samples: int) -> tuple[float, float]:
    """Median wall of a bare interpreter, and of `import statcert.cli` minus it."""
    env = timed.child_env(src)

    def median_wall(code: str) -> float:
        walls = []
        for _ in range(samples):
            child = timed.spawn("startup", [sys.executable, "-c", code], env, out_dir)
            if child.code != 0:
                raise RuntimeError(f"{code!r} failed: {child.stderr.strip()}")
            walls.append(child.wall_s)
        return statistics.median(walls)

    interpreter = median_wall("pass")
    return interpreter, median_wall("import statcert.cli") - interpreter


def sweep(t: Tracer, ws: W.Workspace, seed: int, smoke: bool) -> dict[str, float]:
    """The baseline points: the heaviest stages at fixed sizes."""
    t.op = "sweep"
    out: dict[str, float] = {}
    rng = np.random.default_rng(seed)
    root = ws.root / "sweep"
    root.mkdir(exist_ok=True)
    roles = {**{f: "feature" for f in W.FEATURES}, "label": "label",
             "prediction": "prediction"}

    def timed_span(name: str, fn, **counts):
        with t.span(name, **counts) as rec:
            value = fn()
        out[f"{name}_s"] = duration_ns(rec) / 1e9
        return value

    for key, full, small in SWEEP_ROWS:
        rows = small if smoke else full
        train_path, test_path = root / f"train_{key}.csv", root / f"test_{key}.csv"
        W.write_csv(train_path, W.labeled(rng, rows, with_prediction=True))
        W.write_csv(test_path, W.labeled(rng, rows // 2, with_prediction=True))
        train = timed_span(f"core.load_dataset_{key}", lambda: load_dataset(train_path, roles),
                           rows=rows)
        timed_span(f"core.content_hash_{key}", lambda: train.content_hash, rows=rows)
        test = load_dataset(test_path, roles)
        timed_span(f"leakage.duplicate_check_{key}", lambda: duplicate_check(train, test),
                   rows=rows + rows // 2)

    for key, full, small in SWEEP_MMD:
        n = small if smoke else full
        x, y = rng.standard_normal((n, len(W.FEATURES))), rng.standard_normal((n, len(W.FEATURES)))
        with t.span(f"drift.mmd_{key}", memory=True, kernel_cells=4 * n * n,
                    permutations=SWEEP_MMD_PERMUTATIONS) as rec:
            mmd_permutation_test(x, y, n_perm=SWEEP_MMD_PERMUTATIONS, seed=seed)
        out[f"drift.mmd_{key}_s"] = duration_ns(rec) / 1e9
        out[f"drift.mmd_{key}_peak_mb"] = rec["peak_mib"]

    key, full, small = SWEEP_LEDGER
    entries = small if smoke else full
    path = root / f"ledger_{key}.jsonl"
    path.unlink(missing_ok=True)
    family = load_config(ws.config).family_snapshot()
    timed_span(f"audit.ledger.append_{key}",
               lambda: W.build_ledger(path, family, entries, rng), entries=entries)
    ledger = timed_span(f"audit.ledger.load_{key}", lambda: AuditLedger(path), entries=entries)
    result = timed_span(f"audit.ledger.verify_{key}", lambda: verify_ledger(ledger),
                        entries=entries)
    if not result["consistent"]:
        raise RuntimeError(f"sweep ledger does not verify: {result['detail']}")
    return out


def traced_run(workload: W.Workload, ws: W.Workspace, seed: int, seconds: float,
               smoke: bool, src: Path, out_dir: Path) -> tuple[dict, dict]:
    """Returns ({metric: (value, unit)}, details)."""
    t = Tracer()
    ops: list[int] = []
    wrong: list[str] = []
    failed_ops = 0
    untraced: list[float] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        t.op = len(ops)
        ops.append(t.op)
        problems = traced_op(t, workload, ws)
        wrong += problems
        failed_ops += bool(problems)
        untraced.append(untraced_op(workload, ws))

    spans = t.spans
    sums = per_op_sums(spans, ops)

    def med(name: str) -> float:
        return statistics.median(sums[name]) if name in sums else 0.0

    def count(name: str, key: str) -> float:
        return statistics.median(span_count(spans, op, name, key) for op in ops)

    traced_total = [sum(duration_ns(s) for s in spans if s["op"] == op
                        and s["parent"] is None and s["name"].startswith("cli.")) / 1e9
                    for op in ops]
    interpreter_s, import_s = cli_startup(src, out_dir, 1 if smoke else CLI_SAMPLES)
    values = {
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "audit.config.load_s": med("audit.config.load"),
        "core.load_dataset_s": med("core.load_dataset"),
        "core.content_hash_s": med("core.content_hash"),
        "core.rows_loaded": count("core.load_dataset", "rows"),
        "core.input_mb": count("core.load_dataset", "bytes") / MIB,
        "leakage.duplicate_check_s": med("leakage.duplicate_check"),
        "leakage.rows_compared": count("leakage.duplicate_check", "rows"),
        "stattest.evaluate_mpr_s": med("stattest.evaluate_mpr"),
        "drift.bandwidth_s": med("drift.bandwidth"),
        "drift.shift_test_s": med("drift.shift_test"),
        "drift.classify_shift_s": med("drift.classify_shift"),
        "drift.peak_mb": shift_test_peak_mib(t, ws) if workload.kind != "certify" else 0.0,
        "drift.kernel_cells": count("drift.shift_test", "kernel_cells"),
        "drift.permutations": count("drift.shift_test", "permutations"),
        "audit.ledger.load_s": med("audit.ledger.load"),
        "audit.ledger.verify_s": med("audit.ledger.verify"),
        "audit.ledger.verify_path_s": med("audit.ledger.verify_path"),
        "audit.ledger.replay_s": med("audit.ledger.replay"),
        "audit.ledger.append_s": med("audit.ledger.append"),
        "audit.ledger.entries": float(ws.ledger_entries),
        "audit.ledger.mb": (ws.snapshot.stat().st_size / MIB) if ws.ledger_entries else 0.0,
        "audit.report.write_s": med("audit.report.write"),
        "audit.report.bytes": count("audit.report.write", "bytes"),
        "audit.runner.run_audit_s": med("audit.runner.run_audit"),
        "audit.runner.monitor_step_s": med("audit.runner.monitor_step"),
        "audit.runner.self_s": statistics.median(runner_self_s(spans, op) for op in ops),
        "trace.overhead_s": statistics.median(traced_total) - statistics.median(untraced),
    }
    values.update(sweep(t, ws, seed, smoke))

    spans_path = out_dir / "spans.jsonl"
    with spans_path.open("w") as fh:
        for s in t.with_self_time():
            fh.write(json.dumps(s) + "\n")
    details = {"ops": len(ops), "failed_ops": failed_ops, "wrong": wrong[:5],
               "spans_file": str(spans_path),
               "traced_op_s": traced_total, "untraced_op_s": untraced}
    return {k: (values[k], unit) for k, unit in PER_LAYER.items()}, details
