"""Import boundaries: each command loads only the modules it runs.

scipy.stats alone takes about a second to import and numpy a sixth of one,
so `verify-ledger` and `report` must load no scipy, numpy or yaml at all,
nor the `dataclasses` module and the `inspect` it pulls in; the CLI is
argparse, with no click. The runner loads no scipy.stats, and a monitor
window with no shift no scipy and none of the check modules its config
does not run. A certification, and a monitor with a point check, load no
scipy.special, since the exact tests are statcert's own, nor numpy.ma;
scipy.special waits for the first asymptotic KS or chi-square test. Each
check runs in a fresh interpreter, one per test.
"""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

from statcert.audit.runner import run_audit

TESTS = Path(__file__).resolve().parent
EXAMPLE = TESTS.parent / "example"


def run_python(code: str, *args: str) -> list:
    """The JSON value `code` prints last, run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def modules_loaded_by_ledger_commands(tmp_path, roots: tuple[str, ...]) -> list:
    """The loaded modules under any of `roots`: after `import statcert.cli`,
    then after `verify-ledger` and after `report` run in process."""
    work = tmp_path / "example"
    shutil.copytree(EXAMPLE, work)
    run_audit(work / "audit.yaml").write(work / "audit_report.json")
    return run_python("""
        import json, sys
        import statcert.cli

        roots = set(sys.argv[3].split(","))
        sys.path.insert(0, sys.argv[4])
        from cli_runner import invoke

        def loaded_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] in roots)

        loaded = [loaded_modules()]
        for args in (["verify-ledger", sys.argv[1]],
                     ["report", "--path", sys.argv[2], "--format", "markdown"]):
            result = invoke(*args)
            assert result.exit_code == 0, result.stderr
            loaded.append(loaded_modules())
        print(json.dumps(loaded))
        """, str(work / "audit_ledger.jsonl"), str(work / "audit_report.json"),
        ",".join(roots), str(TESTS))


def test_cli_and_its_ledger_and_report_commands_load_no_scipy(tmp_path):
    assert modules_loaded_by_ledger_commands(tmp_path, ("scipy",)) == [[], [], []]


def test_cli_and_its_ledger_and_report_commands_load_no_numpy_or_yaml(tmp_path):
    # canonical JSON, the ledger replay and the markdown view are standard
    # library code
    assert modules_loaded_by_ledger_commands(tmp_path, ("numpy", "yaml")) == [[], [], []]


def test_cli_and_its_ledger_and_report_commands_load_no_click_or_dataclasses(tmp_path):
    # `dataclasses` imports `inspect`: with click, about half of what
    # `import statcert.cli` cost over a bare interpreter
    assert modules_loaded_by_ledger_commands(
        tmp_path, ("click", "dataclasses", "inspect")) == [[], [], []]


def test_runner_loads_no_scipy_stats():
    loaded = run_python("""
        import json, sys
        import statcert.audit.runner
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy.stats"))))
        """)
    assert loaded == []


def test_certification_and_a_point_check_load_no_scipy_special_or_numpy_ma(tmp_path):
    # the exact binomial test is statcert's own and a quantile comes from
    # np.partition: importing scipy.special takes about 0.2 s, numpy.ma 10 ms
    work = tmp_path / "example"
    shutil.copytree(EXAMPLE, work)
    loaded = run_python("""
        import json, sys
        from statcert.audit.runner import monitor_step, run_audit

        def heavy():
            return sorted(m for m in sys.modules if m in ("scipy.special", "numpy.ma"))

        loaded = [run_audit(sys.argv[1]).verdict, heavy()]
        outcome = monitor_step(sys.argv[2], sys.argv[1], sys.argv[3], sys.argv[4])
        print(json.dumps(loaded + [outcome.verdict, heavy()]))
        """, str(work / "audit.yaml"), str(work / "audit_ledger.jsonl"),
        str(work / "data" / "window_shift.csv"), str(work / "data" / "point_check.csv"))
    assert loaded == ["pass", [], "shift_benign", []]


def test_scipy_special_loads_at_the_first_asymptotic_ks_test():
    loaded = run_python("""
        import json, sys
        import numpy as np
        from statcert.drift import ks_two_sample

        rng = np.random.default_rng(0)
        before = "scipy.special" in sys.modules
        mode = ks_two_sample(rng.normal(size=40), rng.normal(size=40)).params["mode"]
        print(json.dumps([before, mode, "scipy.special" in sys.modules]))
        """)
    assert loaded == [False, "asymptotic", True]


def test_monitor_without_a_shift_loads_no_scipy_and_no_unused_check(tmp_path):
    # a monitor runs no leakage screen, fairness test, uncertainty or OOD or
    # robustness section, whatever its config declares (the example's
    # declares the leakage gate), and a window with no shift no exact test
    work = tmp_path / "example"
    shutil.copytree(EXAMPLE, work)
    run_audit(work / "audit.yaml")
    loaded = run_python("""
        import json, sys
        from statcert.audit.runner import monitor_step

        verdict = monitor_step(sys.argv[1], sys.argv[2], sys.argv[3]).verdict
        print(json.dumps([verdict, sorted(
            m for m in sys.modules if m.split(".")[0] == "scipy" or m in (
                "statcert.fairness", "statcert.leakage", "statcert.robustness",
                "statcert.uncertainty"))]))
        """, str(work / "audit_ledger.jsonl"), str(work / "audit.yaml"),
        str(work / "data" / "window.csv"))
    assert loaded == ["ok", []]


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
    # every exported name resolves, and every lazy one is exported: a name
    # deleted from its module but left in `_LAZY` or `__all__` fails here
    resolved = run_python("""
        import json, sys
        import statcert
        before = "statcert.drift" in sys.modules
        test = statcert.drift.mmd_permutation_test
        from statcert.audit import run_audit
        from statcert import *
        from statcert.audit import *
        audit = sys.modules["statcert.audit"]
        print(json.dumps([before, test.__module__, run_audit.__module__,
                          [name for name in statcert.__all__ + audit.__all__
                           if name not in globals()],
                          sorted(set(audit._LAZY) - set(audit.__all__))]))
        """)
    assert resolved == [False, "statcert.drift", "statcert.audit.runner", [], []]
