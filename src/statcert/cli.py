"""Command-line entry point.

Exit codes are stable for CI use: 0 the requirement is demonstrated (or
the monitor saw nothing alarming), 1 not demonstrated (failed, inconclusive,
or an unexplained shift), 2 invalid input or configuration, 3 ledger
integrity failure.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NoReturn

import click

from .audit.ledger import AuditLedger, verify_ledger
from .audit.report import AuditReport, checked_markdown, inconclusive_report
from .canonical import canonical_json, parse_json
from .errors import FamilyAlphaExhausted, LedgerCorrupt, StatcertError

# audit.config and core load numpy and yaml, audit.runner every check module
# and scipy: only the commands that read a config import them
if TYPE_CHECKING:
    from .audit.config import AuditConfig

EXIT_PASS = 0
EXIT_NOT_DEMONSTRATED = 1
EXIT_INVALID_INPUT = 2
EXIT_LEDGER_INTEGRITY = 3

# first match wins: StatcertError catches everything not named before it
_EXIT_CODES = (
    (LedgerCorrupt, EXIT_LEDGER_INTEGRITY),
    (FamilyAlphaExhausted, EXIT_NOT_DEMONSTRATED),
    (StatcertError, EXIT_INVALID_INPUT),
    (OSError, EXIT_INVALID_INPUT),
)


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _execute(config_path: str, action: Callable[[AuditConfig], object], *,
             report_inconclusive: bool) -> tuple[AuditConfig, object]:
    """Load the config and run `action` on it, exiting through _EXIT_CODES
    on a toolkit error. With report_inconclusive, an exhausted family still
    writes a report, whose verdict is inconclusive."""
    from .audit.config import load_config
    config = None
    try:
        config = load_config(config_path)
        return config, action(config)
    except (StatcertError, OSError) as e:
        code = next(code for kind, code in _EXIT_CODES if isinstance(e, kind))
        if report_inconclusive and isinstance(e, FamilyAlphaExhausted):
            inconclusive_report(config.model_id, str(e)).write(config.report_path)
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
    from .audit.runner import monitor_step
    _, outcome = _execute(config_path, lambda cfg: monitor_step(
        cfg.ledger_path, cfg, window_path, point_check_path), report_inconclusive=False)
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
        payload = parse_json(Path(report_path).read_text(encoding="utf-8"))
        text = canonical_json(payload)
    # ValueError: not UTF-8, not JSON, NaN, or a number too large for a float
    except (OSError, ValueError, RecursionError) as e:
        _fail(EXIT_INVALID_INPUT, f"cannot read report: {e}")
    try:
        markdown = checked_markdown(payload)
    except ValueError as e:
        _fail(EXIT_INVALID_INPUT, str(e))
    click.echo(markdown if fmt == "markdown" else text)


if __name__ == "__main__":
    main()
