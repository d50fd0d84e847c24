"""Import boundaries: each command loads only the modules it runs.

scipy.stats alone takes about a second to import, so `verify-ledger` and
`report` must load no scipy at all, and the runner no scipy.stats. Each
check runs in a fresh interpreter, one per test.
"""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

from statcert.audit.runner import run_audit

EXAMPLE = Path(__file__).resolve().parent.parent / "example"


def run_python(code: str, *args: str) -> list:
    """The JSON value `code` prints last, run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_and_its_ledger_and_report_commands_load_no_scipy(tmp_path):
    work = tmp_path / "example"
    shutil.copytree(EXAMPLE, work)
    run_audit(work / "audit.yaml").write(work / "audit_report.json")
    loaded = run_python("""
        import json, sys
        from click.testing import CliRunner
        import statcert.cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        loaded = [scipy_modules()]
        for args in (["verify-ledger", sys.argv[1]],
                     ["report", "--path", sys.argv[2], "--format", "markdown"]):
            result = CliRunner().invoke(statcert.cli.main, args)
            assert result.exit_code == 0, result.output
            loaded.append(scipy_modules())
        print(json.dumps(loaded))
        """, str(work / "audit_ledger.jsonl"), str(work / "audit_report.json"))
    assert loaded == [[], [], []]


def test_runner_loads_no_scipy_stats():
    loaded = run_python("""
        import json, sys
        import statcert.audit.runner
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy.stats"))))
        """)
    assert loaded == []


def test_rank_auroc_loads_no_scipy_stats():
    loaded = run_python("""
        import json, sys
        from statcert.stattest import rank_auroc
        auc = rank_auroc([0.1, 0.4, 0.4, 0.8], [False, True, False, True])
        print(json.dumps([auc, sorted(m for m in sys.modules
                                      if m.startswith("scipy.stats"))]))
        """)
    assert loaded == [0.875, []]


def test_package_names_resolve_on_first_access():
    resolved = run_python("""
        import json, sys
        import statcert
        before = "statcert.drift" in sys.modules
        test = statcert.drift.mmd_permutation_test
        from statcert.audit import run_audit
        from statcert import *
        print(json.dumps([before, test.__module__, run_audit.__module__,
                          [name for name in statcert.__all__ if name not in globals()]]))
        """)
    assert resolved == [False, "statcert.drift", "statcert.audit.runner", []]
