"""Command-line entry point.

Exit codes are stable for CI use: 0 the requirement is demonstrated (or
the monitor saw nothing alarming), 1 not demonstrated (failed, inconclusive,
or an unexplained shift), 2 invalid input or configuration, 3 ledger
integrity failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, NoReturn

import click

from .audit.config import AuditConfig, load_config
from .audit.ledger import AuditLedger, verify_ledger
from .audit.report import AuditReport, SCHEMA_VERSION, render_markdown
# audit.runner loads every check module and scipy: only run, recertify and
# monitor import it
from .core import canonical_json, load_dataset
from .errors import FamilyAlphaExhausted, LedgerCorrupt, NoReferenceBatch, StatcertError

EXIT_PASS = 0
EXIT_NOT_DEMONSTRATED = 1
EXIT_INVALID_INPUT = 2
EXIT_LEDGER_INTEGRITY = 3

# first match wins: StatcertError catches everything not named before it
_EXIT_CODES = (
    (LedgerCorrupt, EXIT_LEDGER_INTEGRITY),
    (FamilyAlphaExhausted, EXIT_NOT_DEMONSTRATED),
    (StatcertError, EXIT_INVALID_INPUT),
)


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _inconclusive_report(config, reason: str) -> AuditReport:
    return AuditReport({
        "schema_version": SCHEMA_VERSION,
        "verdict": "inconclusive",
        "model_id": config.model_id,
        "reason": reason,
    })


def _execute(config_path: str, action: Callable[[AuditConfig], object], *,
             report_inconclusive: bool) -> tuple[AuditConfig, object]:
    """Load the config and run `action` on it, exiting through _EXIT_CODES
    on a toolkit error. With report_inconclusive, an exhausted family still
    writes a report, whose verdict is inconclusive."""
    config = None
    try:
        config = load_config(config_path)
        return config, action(config)
    except StatcertError as e:
        code = next(code for kind, code in _EXIT_CODES if isinstance(e, kind))
        if report_inconclusive and isinstance(e, FamilyAlphaExhausted):
            _inconclusive_report(config, str(e)).write(config.report_path)
            click.echo(f"inconclusive: {e}")
            sys.exit(code)
        _fail(code, str(e))


def _report_verdict(config: AuditConfig, report: AuditReport, *lines: str) -> NoReturn:
    report.write(config.report_path)
    click.echo(f"verdict: {report.verdict}")
    click.echo(f"report: {config.report_path}")
    for line in lines:
        click.echo(line)
    sys.exit(EXIT_PASS if report.verdict == "pass" else EXIT_NOT_DEMONSTRATED)


@click.group()
def main() -> None:
    """Statistical certification audits for ML systems."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def run_cmd(config_path: str) -> None:
    """Initial certification from a config file."""
    from .audit.runner import run_audit
    config, report = _execute(config_path, run_audit, report_inconclusive=True)
    _report_verdict(config, report, f"ledger: {config.ledger_path}")


@main.command("recertify")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--ledger", "ledger_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Existing certification ledger to extend.")
def recertify_cmd(config_path: str, ledger_path: str) -> None:
    """Test an updated model at the next fallback alpha."""
    from .audit.runner import recertify
    config, (report, _) = _execute(
        config_path, lambda cfg: recertify(AuditLedger(ledger_path), cfg),
        report_inconclusive=True)
    _report_verdict(config, report)


@main.command("monitor")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--window", "window_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Production window (feature columns of the drift reference).")
@click.option("--point-check", "point_check_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Labeled data for classifying a detected shift.")
def monitor_cmd(config_path: str, window_path: str,
                point_check_path: str | None) -> None:
    """One monitoring cycle against the registered reference batch."""
    from .audit.runner import MonitorOutcome, monitor_step

    def monitor(config: AuditConfig) -> MonitorOutcome:
        if config.drift is None:
            raise NoReferenceBatch("config declares no drift section")
        window = load_dataset(window_path,
                              config.datasets[config.drift.reference].feature_columns())
        point_check = None
        if point_check_path is not None:
            primary = config.datasets[config.mprs[0].dataset]
            point_check = load_dataset(point_check_path, primary.columns)
        return monitor_step(AuditLedger(config.ledger_path), config, window, point_check)

    _, outcome = _execute(config_path, monitor, report_inconclusive=False)
    click.echo(canonical_json(outcome.as_plain()))
    ok = outcome.verdict in ("ok", "shift_benign")
    sys.exit(EXIT_PASS if ok else EXIT_NOT_DEMONSTRATED)


@main.command("verify-ledger")
@click.argument("ledger_path", type=click.Path(dir_okay=False))
def verify_ledger_cmd(ledger_path: str) -> None:
    """Replay the hash chain and alpha recurrence of a ledger."""
    result = verify_ledger(ledger_path)
    click.echo(canonical_json(result))
    sys.exit(EXIT_PASS if result["consistent"] else EXIT_LEDGER_INTEGRITY)


@main.command("report")
@click.option("--path", "report_path", default="audit_report.json",
              type=click.Path(exists=True, dir_okay=False),
              help="Report JSON produced by run/recertify.")
@click.option("--format", "fmt", type=click.Choice(["json", "markdown"]),
              default="json", show_default=True)
def report_cmd(report_path: str, fmt: str) -> None:
    """Render an existing report as JSON or markdown."""
    try:
        payload = json.loads(Path(report_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, not JSON
        _fail(EXIT_INVALID_INPUT, f"cannot read report: {e}")
    if fmt == "json":
        click.echo(canonical_json(payload))
    else:
        if payload.get("verdict") == "inconclusive" and "checks" not in payload:
            click.echo(f"# Audit report: {payload.get('model_id', '')}\n\n"
                       f"**Verdict: INCONCLUSIVE** — {payload.get('reason', '')}")
        else:
            click.echo(render_markdown(payload))


if __name__ == "__main__":
    main()
