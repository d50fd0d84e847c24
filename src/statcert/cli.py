"""Command-line entry point.

Exit codes are stable for CI use: 0 the requirement is demonstrated (or
the monitor saw nothing alarming), 1 not demonstrated (failed, inconclusive,
or an unexplained shift), 2 invalid input or configuration, 3 ledger
integrity failure. The runner writes every report and ledger entry, this
module no file: `_EXIT_CODES` maps errors to exit codes, `_exit_by` verdicts.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NoReturn

import click

from .audit.ledger import AuditLedger, verify_ledger
from .audit.report import checked_markdown
from .canonical import canonical_json, parse_json
from .errors import FamilyAlphaExhausted, InconclusiveVerdict, LedgerCorrupt, StatcertError

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


def _execute(config_path: str, action: Callable[[AuditConfig], object]
             ) -> tuple[AuditConfig, object]:
    """Load the config and run `action` on it, exiting through _EXIT_CODES
    on a toolkit or operating-system error. An InconclusiveVerdict, raised
    once its report is written, is a verdict on stdout, not an error."""
    from .audit.config import load_config
    try:
        config = load_config(config_path)
        return config, action(config)
    except (StatcertError, OSError) as e:
        if isinstance(e, InconclusiveVerdict):
            _exit_by("inconclusive", f"inconclusive: {e}")
        _fail(next(code for kind, code in _EXIT_CODES if isinstance(e, kind)), str(e))


def _exit_by(verdict: str, *lines: str) -> NoReturn:
    """Print `lines`; exit 0 on a demonstrated verdict or a benign monitor."""
    click.echo("\n".join(lines))
    sys.exit(EXIT_PASS if verdict in ("pass", "ok", "shift_benign") else EXIT_NOT_DEMONSTRATED)


@click.group()
def main() -> None:
    """Statistical certification audits for ML systems."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def run_cmd(config_path: str) -> None:
    """Initial certification from a config file."""
    from .audit.runner import run_audit
    config, report = _execute(config_path, run_audit)
    _exit_by(report.verdict, f"verdict: {report.verdict}",
             f"report: {config.report_path}", f"ledger: {config.ledger_path}")


@main.command("recertify")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--ledger", "ledger_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Existing certification ledger to extend.")
def recertify_cmd(config_path: str, ledger_path: str) -> None:
    """Test an updated model at the next fallback alpha."""
    from .audit.runner import recertify
    config, (report, _) = _execute(
        config_path, lambda cfg: recertify(AuditLedger(ledger_path), cfg))
    _exit_by(report.verdict, f"verdict: {report.verdict}", f"report: {config.report_path}")


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
        cfg.ledger_path, cfg, window_path, point_check_path))
    _exit_by(outcome.verdict, canonical_json(outcome.as_plain()))


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
