"""Command-line entry point: the `audit` command, on argparse.

Exit codes are stable for CI use: 0 the requirement is demonstrated (or
the monitor saw nothing alarming), 1 not demonstrated (failed, inconclusive,
or an unexplained shift), 2 invalid input or configuration, 3 ledger
integrity failure. The runner writes every report and ledger entry, this
module no file: `_EXIT_CODES` maps errors to exit codes, `_exit_by` verdicts.

`verify-ledger` and `report` run on the standard library alone; the other
commands import the config loader and the runner when they start.
"""

from __future__ import annotations

import argparse
import codecs
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence

from .audit.ledger import AuditLedger, verify_ledger
from .audit.report import render_markdown
from .canonical import canonical_json, parse_json
from .errors import FamilyAlphaExhausted, InconclusiveVerdict, LedgerCorrupt, StatcertError

# audit.config and core load numpy and yaml, audit.runner the drift test:
# only the commands that read a config import them
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

_ANSI = re.compile(r"\033\[[;?0-9]*[a-zA-Z]")


def _echo(text: str, err: bool = False) -> None:
    """Write a line and flush it. ANSI escape sequences are dropped unless
    the stream is a terminal, and a stream whose encoding is ASCII (the C
    locale) gets UTF-8 bytes, with `replace` for what UTF-8 cannot encode,
    where print() would raise UnicodeEncodeError."""
    stream = sys.stderr if err else sys.stdout
    text += "\n"
    if not stream.isatty():
        text = _ANSI.sub("", text)
    binary = getattr(stream, "buffer", None)
    if binary is not None and codecs.lookup(stream.encoding or "ascii").name == "ascii":
        stream.flush()
        binary.write(text.encode("utf-8", "replace"))
        binary.flush()
    else:
        stream.write(text)
        stream.flush()


def _fail(code: int, message: str) -> NoReturn:
    _echo(f"error: {message}", err=True)
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
    _echo("\n".join(lines))
    sys.exit(EXIT_PASS if verdict in ("pass", "ok", "shift_benign") else EXIT_NOT_DEMONSTRATED)


def run_cmd(config_path: str) -> NoReturn:
    """Initial certification from a config file."""
    from .audit.runner import run_audit
    config, report = _execute(config_path, run_audit)
    _exit_by(report.verdict, f"verdict: {report.verdict}",
             f"report: {config.report_path}", f"ledger: {config.ledger_path}")


def recertify_cmd(config_path: str, ledger_path: str) -> NoReturn:
    """Test an updated model at the next fallback alpha."""
    from .audit.runner import recertify
    config, (report, _) = _execute(
        config_path, lambda cfg: recertify(AuditLedger(ledger_path), cfg))
    _exit_by(report.verdict, f"verdict: {report.verdict}", f"report: {config.report_path}")


def monitor_cmd(config_path: str, window_path: str,
                point_check_path: str | None) -> NoReturn:
    """One monitoring cycle against the registered reference batch."""
    from .audit.runner import monitor_step
    _, outcome = _execute(config_path, lambda cfg: monitor_step(
        cfg.ledger_path, cfg, window_path, point_check_path))
    _exit_by(outcome.verdict, canonical_json(outcome.as_plain()))


def verify_ledger_cmd(ledger_path: str) -> NoReturn:
    """Replay the hash chain and alpha recurrence of a ledger."""
    result = verify_ledger(ledger_path)
    _echo(canonical_json(result))
    sys.exit(EXIT_PASS if result["consistent"] else EXIT_LEDGER_INTEGRITY)


def report_cmd(report_path: str, fmt: str) -> NoReturn:
    """Render an existing report as JSON or markdown."""
    try:
        payload = parse_json(Path(report_path).read_text(encoding="utf-8"))
        text = canonical_json(payload)
    # ValueError: not UTF-8, not JSON, NaN, or a number too large for a float
    except (OSError, ValueError, RecursionError) as e:
        _fail(EXIT_INVALID_INPUT, f"cannot read report: {e}")
    try:
        markdown = render_markdown(payload)
    except ValueError as e:
        _fail(EXIT_INVALID_INPUT, str(e))
    _echo(markdown if fmt == "markdown" else text)
    sys.exit(EXIT_PASS)


def _file(must_exist: bool) -> Callable[[str], str]:
    """An argument type that refuses, before the command runs, a directory
    or a file the process cannot read, and a missing file if `must_exist`
    (a dangling symlink is missing)."""
    def check(path: str) -> str:
        if os.path.isdir(path):
            raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
        if not os.path.exists(path):
            if must_exist:
                raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
        elif not os.access(path, os.R_OK):
            raise argparse.ArgumentTypeError(f"file {path!r} is not readable")
        return path
    return check


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audit", allow_abbrev=False,
        description="Statistical certification audits for ML systems.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name: str, handler: Callable[..., NoReturn]) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=handler.__doc__, description=handler.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(handler=handler)
        return sub

    existing = _file(must_exist=True)

    def config_command(name: str, handler: Callable[..., NoReturn]) -> argparse.ArgumentParser:
        sub = command(name, handler)
        sub.add_argument("config_path", metavar="CONFIG_PATH", type=existing)
        return sub

    config_command("run", run_cmd)
    config_command("recertify", recertify_cmd).add_argument(
        "--ledger", dest="ledger_path", required=True, type=existing,
        help="Existing certification ledger to extend.")
    sub = config_command("monitor", monitor_cmd)
    sub.add_argument("--window", dest="window_path", required=True, type=existing,
                     help="Production window (feature columns of the drift reference).")
    sub.add_argument("--point-check", dest="point_check_path", type=existing,
                     help="Labeled data for classifying a detected shift.")
    # a missing ledger is a verdict, not a usage error
    command("verify-ledger", verify_ledger_cmd).add_argument(
        "ledger_path", metavar="LEDGER_PATH", type=_file(must_exist=False))
    sub = command("report", report_cmd)
    sub.add_argument("--path", dest="report_path", default="audit_report.json",
                     type=existing, help="Report JSON produced by run/recertify.")
    sub.add_argument("--format", dest="fmt", choices=("json", "markdown"), default="json",
                     help="(default: json)")
    return parser


def main(argv: Sequence[str] | None = None) -> NoReturn:
    """Run one `audit` command on `argv` (default: the process arguments);
    always exits."""
    args = vars(_parser().parse_args(argv))
    del args["command"]
    args.pop("handler")(**args)


if __name__ == "__main__":
    main()
