"""Exit-code contract of the certifying commands, driven in process.

Every outcome is checked for `run`, `recertify` and `monitor` alike: bad
input exits 2, a broken ledger 3, an exhausted alpha budget 1. An exhausted
family still leaves a report behind for `run` and `recertify`, whose
verdict is inconclusive; `monitor` writes no report.
"""

import json
import re
import shutil
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from statcert.audit.config import load_config
from statcert.audit.ledger import entry_hash
from statcert.cli import main
from statcert.core import canonical_json
from statcert.errors import ConfigInvalid

EXAMPLE = Path(__file__).resolve().parent.parent / "example"
COMMANDS = ("run", "recertify", "monitor")


@pytest.fixture
def ws(tmp_path):
    dst = tmp_path / "example"
    shutil.copytree(EXAMPLE, dst)
    return dst


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def command(name, ws, config="audit.yaml", point_check=None):
    """Argument list of `name` against the config's own ledger."""
    raw = yaml.safe_load((ws / config).read_text())
    args = [name, ws / config]
    if name == "recertify":
        args += ["--ledger", ws / raw.get("ledger", "audit_ledger.jsonl")]
    if name == "monitor":
        window = "window_shift.csv" if point_check else "window.csv"
        args += ["--window", ws / "data" / window]
        if point_check:
            args += ["--point-check", ws / "data" / point_check]
    return args


def certify(ws, config="audit.yaml"):
    result = invoke("run", ws / config)
    assert result.exit_code in (0, 1), result.output
    return result


def mutate(ws, transform, src="audit.yaml", name="mutated.yaml"):
    raw = yaml.safe_load((ws / src).read_text())
    transform(raw)
    (ws / name).write_text(yaml.safe_dump(raw))
    return name


def refresh_test_data(ws, name="test_pass.csv"):
    """New content for a consumed test file: drop its last row."""
    path = ws / "data" / name
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def tamper_ledger(ws):
    path = ws / "audit_ledger.jsonl"
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    entries[0]["verdict"] = "fail"  # content no longer matches its hash
    path.write_text("".join(canonical_json(e) + "\n" for e in entries))


def break_test_data(ws):
    (ws / "data" / "test_pass.csv").write_text("unrelated,header\n1,2\n")


@pytest.mark.parametrize("name", COMMANDS)
def test_invalid_config_exits_2(ws, name):
    (ws / "audit_ledger.jsonl").touch()  # recertify needs an existing file
    config = mutate(ws, lambda raw: raw.update(surprise=1))
    result = invoke(*command(name, ws, config))
    assert result.exit_code == 2
    assert "unknown keys" in result.stderr


@pytest.mark.parametrize("name", COMMANDS)
def test_unreadable_dataset_exits_2(ws, name):
    if name != "run":
        certify(ws)
    break_test_data(ws)
    result = invoke(*command(name, ws))
    assert result.exit_code == 2
    assert "declared columns absent" in result.stderr


@pytest.mark.parametrize("name", COMMANDS)
def test_tampered_ledger_exits_3(ws, name):
    certify(ws)
    tamper_ledger(ws)
    result = invoke(*command(name, ws))
    assert result.exit_code == 3
    assert "entry 0: entry hash does not match content" in result.stderr


@pytest.mark.parametrize("name", COMMANDS)
def test_ledger_is_checked_before_data_is_read(ws, name):
    # `run` used to read its data first and exit 2 here
    certify(ws)
    tamper_ledger(ws)
    break_test_data(ws)
    result = invoke(*command(name, ws))
    assert result.exit_code == 3


@pytest.mark.parametrize("name", COMMANDS)
def test_family_mismatch_exits_2(ws, name):
    certify(ws)
    refresh_test_data(ws)
    config = mutate(ws, lambda raw: raw["family"].update(alpha=0.01))
    result = invoke(*command(name, ws, config))
    assert result.exit_code == 2
    assert "requirement family differs" in result.stderr


@pytest.mark.parametrize("name", COMMANDS)
def test_stale_gating_data_exits_2(ws, name):
    certify(ws)
    if name == "run":
        # entry 0 is spent: a second initial certification on other data
        refresh_test_data(ws)
        expected = "use recertify"
    else:
        expected = "reuses content already consumed"
    result = invoke(*command(name, ws, point_check="test_pass.csv"))
    assert result.exit_code == 2
    assert expected in result.stderr


@pytest.mark.parametrize("name", COMMANDS)
def test_exhausted_family_exits_1(ws, name):
    def failing_test_data(raw):
        raw["datasets"]["test"]["path"] = "data/test_fail.csv"
        if name == "run":
            raw["family"]["weights"] = [0.0, 1.0]

    config = mutate(ws, failing_test_data)
    report = ws / "audit_report.json"
    if name != "run":
        # the only weight is spent on a failed test: nothing is carried
        assert certify(ws, config).exit_code == 1
        refresh_test_data(ws, "test_fail.csv")
    before = report.read_bytes() if report.exists() else None
    result = invoke(*command(name, ws, config, point_check="point_check.csv"))
    assert result.exit_code == 1
    if name == "monitor":
        assert result.stdout == ""  # refused, not a malignant-shift verdict
        assert result.stderr.startswith("error: ")
        assert report.read_bytes() == before
    else:
        assert result.stdout.startswith("inconclusive: ")
        assert json.loads(report.read_text())["verdict"] == "inconclusive"


@pytest.mark.parametrize("setting", [("n_permutations", 0), ("alpha", 1.5)])
@pytest.mark.parametrize("name", ("run", "monitor"))
def test_bad_drift_setting_exits_2(ws, name, setting):
    # `monitor` used to crash with exit 1 on the first, `run` to pass the second
    key, value = setting
    config = mutate(ws, lambda raw: raw["drift"].update({key: value}))
    result = invoke(*command(name, ws, config))
    assert result.exit_code == 2
    assert f"drift.{key}" in result.stderr


@pytest.mark.parametrize("option", ["--window", "--point-check"])
def test_non_utf8_monitor_file_exits_2(ws, option):
    certify(ws)
    bad = ws / "data" / "not_utf8.csv"
    bad.write_bytes(b"\xff\xfe\x00")
    args = command("monitor", ws, point_check="point_check.csv")
    args[args.index(option) + 1] = bad
    result = invoke(*args)
    assert result.exit_code == 2
    assert "not UTF-8" in result.stderr


# (key path, value): each used to crash with exit 1 or, for the last, to
# load and keep the leakage gate on
MISTYPED = [
    ("seed", "x"),
    ("family.alpha", "x"),
    ("family.weights", 0.5),
    ("drift.alpha", "x"),
    ("drift.n_permutations", "many"),
    ("drift.categorical_dims", 3),
    ("datasets", 5),
    ("mprs", 5),
    ("leakage.enabled", "false"),
]


@pytest.mark.parametrize("key,value", MISTYPED, ids=[k for k, _ in MISTYPED])
def test_mistyped_config_value_exits_2(ws, key, value):
    def set_value(raw):
        *parents, leaf = key.split(".")
        for p in parents:
            raw = raw[p]
        raw[leaf] = value

    config = mutate(ws, set_value)
    with pytest.raises(ConfigInvalid, match=rf"^{re.escape(key)}: expected "):
        load_config(ws / config)
    result = invoke("run", ws / config)
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {key}: expected ")


def test_unknown_duplicate_key_exits_2_before_reading_data(ws):
    # used to read every dataset and then fail in the duplicate check
    break_test_data(ws)
    config = mutate(ws, lambda raw: raw["leakage"].update(duplicate_key="exact_feature"))
    result = invoke("run", ws / config)
    assert result.exit_code == 2
    assert result.stderr.startswith(
        "error: leakage.duplicate_key: unknown key 'exact_feature'")


def with_ensembles(ws, content: bytes):
    (ws / "data" / "ensembles.jsonl").write_bytes(content)
    return mutate(ws, lambda raw: raw.update(
        uncertainty={"ensembles": "data/ensembles.jsonl"}))


@pytest.mark.parametrize("content,message", [
    (b"\xff\xfe{}\n", "not UTF-8"),
    (b"5\n", "missing members array"),
], ids=["not_utf8", "not_an_object"])
def test_unreadable_ensembles_file_exits_2(ws, content, message):
    # each used to crash with a traceback and exit 1
    result = invoke("run", ws / with_ensembles(ws, content))
    assert result.exit_code == 2
    assert message in result.stderr


def test_ensembles_string_may_hold_a_line_separator(ws):
    # the correctness flags used to be split on U+2028 as well, and exit 1
    lines = ['{"members": [[0.9, 0.1]], "note": "a\u2028b", "correct": true}',
             '{"members": [[0.2, 0.8]], "correct": false}']
    result = invoke("run", ws / with_ensembles(ws, "\n".join(lines).encode() + b"\n"))
    assert result.exit_code == 0, result.output


def test_non_utf8_ledger_is_inconsistent_exits_3(ws):
    certify(ws)
    with open(ws / "audit_ledger.jsonl", "ab") as fh:
        fh.write(b"\xff\xfe")
    result = invoke("verify-ledger", ws / "audit_ledger.jsonl")
    assert result.exit_code == 3
    assert json.loads(result.stdout) == {
        "consistent": False, "detail": "line 2 is not valid JSON",
        "first_inconsistency": 1, "n_entries": 1}


@pytest.mark.parametrize("name", COMMANDS)
def test_non_utf8_ledger_exits_3(ws, name):
    certify(ws)
    with open(ws / "audit_ledger.jsonl", "ab") as fh:
        fh.write(b"\xff\xfe")
    result = invoke(*command(name, ws))
    assert result.exit_code == 3
    assert "2: not valid JSON" in result.stderr


def test_non_utf8_report_exits_2(ws):
    bad = ws / "report.json"
    bad.write_bytes(b'{"verdict": "\xff\xfe"}')
    result = invoke("report", "--path", bad)
    assert result.exit_code == 2
    assert "cannot read report" in result.stderr


def shuffle_test_rows(ws, name="test_pass.csv"):
    path = ws / "data" / name
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *reversed(rows)]) + "\n")


def test_shuffled_consumed_test_file_exits_2(ws):
    certify(ws)
    shuffle_test_rows(ws)
    result = invoke(*command("recertify", ws))
    assert result.exit_code == 2
    assert "reuses content already consumed" in result.stderr


def write_pre_version_ledger(ws):
    """The ledger as written before entries recorded their schema version:
    no version field, every hash recomputed, so it still verifies."""
    path = ws / "audit_ledger.jsonl"
    entries, prev = [], None
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        del entry["schema_version"]
        entry["prev_hash"] = prev
        entry["entry_hash"] = prev = entry_hash(entry)
        entries.append(entry)
    path.write_text("".join(canonical_json(e) + "\n" for e in entries))


@pytest.mark.parametrize("name", COMMANDS)
def test_ledger_of_older_schema_version_exits_2(ws, name):
    certify(ws)
    write_pre_version_ledger(ws)
    verified = invoke("verify-ledger", ws / "audit_ledger.jsonl")
    assert verified.exit_code == 0
    assert json.loads(verified.stdout)["consistent"] is True
    refresh_test_data(ws)
    result = invoke(*command(name, ws, point_check="point_check.csv"))
    assert result.exit_code == 2
    assert "schema version 1, not 2" in result.stderr
