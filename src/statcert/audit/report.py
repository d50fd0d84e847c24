"""Audit report: a single deterministic JSON document plus a markdown view.

The JSON is the artifact; markdown is rendered from it and carries no
information of its own. A report has one of two shapes: a certification
with its checks, or an inconclusive verdict with only its reason, written
when the family has no alpha left to give. Nothing time-dependent goes in
here (timestamps live in the ledger), so identical inputs produce
identical bytes. `AuditReport.write` is the one report writer.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, NamedTuple

from ..canonical import canonical_json, sha256_hex

SCHEMA_VERSION = 3
# what each version changed in what an entry records, so that a ledger
# written under an older one is refused for the reason that holds for it
SCHEMA_CHANGES = {
    2: "version 2 changed the dataset hashes, so fresh data cannot be told from "
       "consumed data",
    3: "version 3 changed the exact tests' p-values and bounds in their last digits, "
       "so a rerun cannot reproduce its decisions",
}


def payload_hash(payload: dict) -> str:
    return sha256_hex(canonical_json(payload) + "\n")


class AuditReport(NamedTuple):
    """One report: its payload, and the bytes and hash written from it."""

    payload: dict

    @property
    def verdict(self) -> str:
        return self.payload["verdict"]

    def to_json(self) -> str:
        return canonical_json(self.payload) + "\n"

    @property
    def content_hash(self) -> str:
        return payload_hash(self.payload)

    def write(self, path: str | Path, commit: Callable[[], object] | None = None) -> Path:
        """Stage the bytes in a temp file beside `path` and fsync them, run
        `commit` (the ledger append), then rename the temp file over `path`.
        On a failure the temp file is removed and `path` left as it was."""
        path = Path(path)
        staged = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with staged.open("wb") as fh:
                fh.write(self.to_json().encode())
                fh.flush()
                os.fsync(fh.fileno())
            if commit is not None:
                commit()
            os.replace(staged, path)
        except BaseException:
            staged.unlink(missing_ok=True)
            raise
        return path


def _fmt(x) -> str:
    if isinstance(x, bool) or x is None:
        return str(x)
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _test_line(name: str, entry: dict) -> str:
    t = entry["test"]
    mark = "PASS" if entry["demonstrated"] else "FAIL"
    return (f"| {name} | {_fmt(entry.get('observed'))} | "
            f"{_fmt(entry.get('threshold'))} | {_fmt(t['p_value'])} | "
            f"{_fmt(t['alpha_used'])} | {mark} |")


def render_markdown(payload) -> str:
    """The markdown view of a parsed report of either shape, which is the
    one shape check for both views: a payload lacking a key the view
    requires (verdict, model_id, family, entry, seed, schema_version,
    dataset_hashes, sadd, checks.leakage/mpr/fairness, environment, and
    the config echo's robustness attack under a robustness section), or
    holding a value of the wrong type there, is ValueError. Optional
    sections and keys read through `.get` are not checked."""
    try:
        return _markdown(payload)
    except KeyError as e:
        raise ValueError(f"report lacks key {e}") from e
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed report: {e}") from e


def _markdown(payload: dict) -> str:
    if payload["verdict"] == "inconclusive" and "checks" not in payload:
        return (f"# Audit report: {payload['model_id']}\n\n"
                f"**Verdict: INCONCLUSIVE** — {payload['reason']}")
    lines = [f"# Audit report: {payload['model_id']}", ""]
    lines.append(f"**Verdict: {payload['verdict'].upper()}**")
    lines.append("")
    fam = payload["family"]
    lines.append(f"- family alpha {_fmt(fam['alpha'])}, procedure {fam['procedure']}, "
                 f"entry {payload['entry']['index']} tested at "
                 f"{_fmt(payload['entry']['alpha_allocated'])}")
    lines.append(f"- seed {payload['seed']}, schema v{payload['schema_version']}")
    lines.append(f"- datasets: " + ", ".join(
        f"{k} `{v[:12]}`" for k, v in sorted(payload["dataset_hashes"].items())))
    lines.append("")

    sadd = payload["sadd"]
    lines.append("## Application domain declaration")
    lines.append("")
    lines.append(f"1. {sadd['operating_context']}")
    lines.append(f"2. {sadd['technical_requirements']}")
    lines.append(f"3. {sadd['sampling_strategy']}")
    lines.append("")

    checks = payload["checks"]
    leak = checks["leakage"]
    lines.append("## Leakage gate")
    lines.append("")
    lines.append(f"Status: **{leak['gate']}**")
    for rep in leak.get("reports", []):
        lines.append(f"- {rep['check_id']}: {rep['severity']} — {rep['description']}")
    lines.append("")

    if checks["mpr"]:
        lines.append("## Minimum performance requirements")
        lines.append("")
        lines.append("| requirement | observed | threshold | p | alpha | result |")
        lines.append("|---|---|---|---|---|---|")
        for entry in checks["mpr"]:
            lines.append(_test_line(entry["name"], entry))
        lines.append("")
    elif leak["gate"] == "failed":
        lines.append("_No requirement was tested: the leakage gate failed before "
                     "any alpha was spent._")
        lines.append("")

    if checks["fairness"]:
        lines.append("## Fairness requirements")
        lines.append("")
        lines.append("| requirement | observed | max violation | p | alpha | result |")
        lines.append("|---|---|---|---|---|---|")
        for entry in checks["fairness"]:
            lines.append(_test_line(entry["name"], entry))
        lines.append("")

    if checks.get("drift"):
        d = checks["drift"]
        lines.append("## Drift baseline")
        lines.append("")
        lines.append(f"- method {d['method']}, alpha {_fmt(d['alpha'])}, "
                     f"reference `{d['reference_hash'][:12]}` "
                     f"({d['n_reference']} rows)")
        lines.append("")

    if checks.get("uncertainty"):
        u = checks["uncertainty"]
        lines.append("## Uncertainty")
        lines.append("")
        lines.append(f"- {u['n_predictions']} ensemble predictions; mean total "
                     f"{_fmt(u['mean_total'])} = aleatoric {_fmt(u['mean_aleatoric'])} "
                     f"+ epistemic {_fmt(u['mean_epistemic'])}")
        lines.append(f"- abstention rate {_fmt(u['abstain_rate'])} under thresholds "
                     f"{u['abstain_thresholds']}")
        if u.get("flag_quality_auroc") is not None:
            lines.append(f"- error-flagging AUROC {_fmt(u['flag_quality_auroc'])}")
        lines.append("")

    if checks.get("ood"):
        lines.append("## Out-of-distribution scenarios")
        lines.append("")
        lines.append("| scenario | AUROC | FPR@95TPR | detection acc |")
        lines.append("|---|---|---|---|")
        for sc in checks["ood"]:
            lines.append(f"| {sc['scenario']} | {_fmt(sc['auroc'])} | "
                         f"{_fmt(sc['fpr_at_95_tpr'])} | "
                         f"{_fmt(sc['detection_accuracy'])} |")
        lines.append("")

    if checks.get("robustness"):
        r = checks["robustness"]
        lines.append("## Robustness")
        lines.append("")
        # the result leaves the attack out; the config echo holds it
        attack = payload["config"]["robustness"]["attack"]
        lines.append(f"- {attack} attack, {r['norm']} ball, epsilon "
                     f"{_fmt(r['epsilon'])}, budget {r['attack_budget']}")
        lines.append(f"- clean accuracy {_fmt(r['clean_accuracy'])}, surviving "
                     f"fraction {_fmt(r['robust_accuracy_lower_bound'])} "
                     f"(exhaustive search: {r['exhaustive_search']})")
        lines.append("")

    env = payload["environment"]
    lines.append("## Environment")
    lines.append("")
    lines.append("- " + ", ".join(f"{k} {v}" for k, v in sorted(env.items())))
    lines.append("")
    lines.append(f"Report content hash: `{payload_hash(payload)}`")
    lines.append("")
    return "\n".join(lines)
