"""Exit-code contract of the certifying commands, driven in process.

Every outcome is checked for `run`, `recertify` and `monitor` alike: bad
input exits 2, a broken ledger 3, an exhausted alpha budget 1. An exhausted
family still leaves a report behind for `run` and `recertify`, whose
verdict is inconclusive; `monitor` writes no report.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from statcert.audit.config import load_config
from statcert.audit.ledger import entry_hash
from statcert.core import canonical_json
from statcert.errors import ConfigInvalid

from cli_runner import invoke

EXAMPLE = Path(__file__).resolve().parent.parent / "example"
COMMANDS = ("run", "recertify", "monitor")


@pytest.fixture
def ws(tmp_path):
    dst = tmp_path / "example"
    shutil.copytree(EXAMPLE, dst)
    return dst


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
    assert result.exit_code in (0, 1), result.stderr
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


@pytest.mark.parametrize("name", ("recertify", "monitor"))
def test_consumed_data_exits_2_on_an_exhausted_family(ws, name):
    # the failed run spends the only weight and carries nothing; the data it
    # consumed is refused before any alpha is allocated, so exit 2, not 1
    config = mutate(ws, lambda raw: raw["mprs"][0].update(threshold=0.99))
    assert certify(ws, config).exit_code == 1
    ledger = ws / "audit_ledger.jsonl"
    before = ledger.read_bytes()
    result = invoke(*command(name, ws, config, point_check="test_pass.csv"))
    assert result.exit_code == 2
    assert "reuses content already consumed" in result.stderr
    assert ledger.read_bytes() == before


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
    assert result.exit_code == 0, result.stderr


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


def strip_final_newline(ws):
    ledger = ws / "audit_ledger.jsonl"
    ledger.write_bytes(ledger.read_bytes()[:-1])
    return ledger


def test_ledger_without_its_final_newline_is_inconsistent_exits_3(ws):
    # it used to verify, and the next append glued its entry onto line 1
    certify(ws)
    result = invoke("verify-ledger", strip_final_newline(ws))
    assert result.exit_code == 3
    assert json.loads(result.stdout) == {
        "consistent": False, "detail": "line 1 has no newline",
        "first_inconsistency": 0, "n_entries": 0}


@pytest.mark.parametrize("name", COMMANDS)
def test_ledger_without_its_final_newline_exits_3_unchanged(ws, name):
    certify(ws)
    kept = strip_final_newline(ws).read_bytes()
    result = invoke(*command(name, ws))
    assert result.exit_code == 3
    assert "audit_ledger.jsonl:1: has no newline" in result.stderr
    assert (ws / "audit_ledger.jsonl").read_bytes() == kept


@pytest.mark.parametrize("joint, detail, entries", [
    (b"\n\n", "line 2 is not valid JSON", 1), (b"\r", "line 1 is not valid JSON", 0)],
    ids=["blank line", "lone CR"])
def test_line_that_is_not_one_entry_exits_3(ws, joint, detail, entries):
    certify(ws)
    assert invoke(*command("monitor", ws)).exit_code == 0
    ledger = ws / "audit_ledger.jsonl"
    first, second = ledger.read_bytes().splitlines()
    ledger.write_bytes(first + joint + second + b"\n")
    result = invoke("verify-ledger", ledger)
    assert result.exit_code == 3
    assert json.loads(result.stdout) == {
        "consistent": False, "detail": detail, "first_inconsistency": entries,
        "n_entries": entries}


def test_ledger_with_crlf_line_endings_verifies(ws):
    certify(ws)
    assert invoke(*command("monitor", ws)).exit_code == 0
    ledger = ws / "audit_ledger.jsonl"
    ledger.write_bytes(ledger.read_bytes().replace(b"\n", b"\r\n"))
    result = invoke("verify-ledger", ledger)
    assert result.exit_code == 0
    assert json.loads(result.stdout)["n_entries"] == 2


def rehash_entry_0(ws, **fields):
    """Entry 0 with `fields` replaced and its hash recomputed, so only its
    content, not its integrity, is wrong."""
    path = ws / "audit_ledger.jsonl"
    entry = {**json.loads(path.read_text().splitlines()[0]), **fields}
    entry["entry_hash"] = entry_hash(entry)
    path.write_text(canonical_json(entry) + "\n")


MALFORMED_FAMILIES = [{}, 5, {"alpha": 0.05, "weights": 3, "procedure": "fallback"}]


@pytest.mark.parametrize("family", MALFORMED_FAMILIES, ids=repr)
def test_malformed_family_is_inconsistent_exits_3(ws, family):
    # each used to raise out of verify_ledger: KeyError, TypeError, TypeError
    certify(ws)
    rehash_entry_0(ws, family=family)
    result = invoke("verify-ledger", ws / "audit_ledger.jsonl")
    assert result.exit_code == 3
    assert json.loads(result.stdout) == {
        "consistent": False, "detail": "family needs a numeric alpha and numeric weights",
        "first_inconsistency": 0, "n_entries": 1}


@pytest.mark.parametrize("hashes", [5, "abc"], ids=repr)
def test_malformed_gating_hashes_are_inconsistent_exits_3(ws, hashes):
    # each used to verify as consistent
    certify(ws)
    rehash_entry_0(ws, gating_hashes=hashes)
    result = invoke("verify-ledger", ws / "audit_ledger.jsonl")
    assert result.exit_code == 3
    assert json.loads(result.stdout) == {
        "consistent": False, "detail": "gating hashes are not a list of strings",
        "first_inconsistency": 0, "n_entries": 1}


@pytest.mark.parametrize("hashes", [5, "abc"], ids=repr)
@pytest.mark.parametrize("name", COMMANDS)
def test_malformed_gating_hashes_exit_3(ws, name, hashes):
    # recertify and monitor used to crash with TypeError on 5 (exit 1), and
    # read "abc" as three consumed hashes
    certify(ws)
    rehash_entry_0(ws, gating_hashes=hashes)
    refresh_test_data(ws)
    result = invoke(*command(name, ws, point_check="point_check.csv"))
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "entry 0: gating hashes are not a list of strings" in result.stderr


@pytest.mark.parametrize("name", COMMANDS)
def test_malformed_family_exits_3(ws, name):
    certify(ws)
    rehash_entry_0(ws, family=5)
    result = invoke(*command(name, ws))
    assert result.exit_code == 3
    assert "entry 0: family needs a numeric alpha" in result.stderr


def write_literal_seed(ws, literal):
    """Entry 0 with its seed replaced by a bare JSON token, such as NaN,
    that json.loads accepts."""
    path = ws / "audit_ledger.jsonl"
    text = path.read_text()
    assert text.count('"seed":20240901') == 1
    path.write_text(text.replace('"seed":20240901', f'"seed":{literal}'))


@pytest.mark.parametrize("literal, detail, n_entries", [
    ("NaN", "line 1 is not valid JSON", 0),
    ("Infinity", "line 1 is not valid JSON", 0),
    ("-Infinity", "line 1 is not valid JSON", 0),
    # valid JSON, but json.loads reads it as infinity, which has no canonical form
    ("1e999", "entry content has no canonical JSON form", 1),
])
def test_non_finite_number_in_ledger_is_inconsistent_exits_3(ws, literal, detail,
                                                             n_entries):
    certify(ws)
    write_literal_seed(ws, literal)
    result = invoke("verify-ledger", ws / "audit_ledger.jsonl")
    assert result.exit_code == 3
    assert json.loads(result.stdout) == {
        "consistent": False, "detail": detail, "first_inconsistency": 0,
        "n_entries": n_entries}


@pytest.mark.parametrize("name", COMMANDS)
def test_non_finite_literal_in_ledger_exits_3(ws, name):
    certify(ws)
    write_literal_seed(ws, "NaN")
    result = invoke(*command(name, ws))
    assert result.exit_code == 3
    assert "audit_ledger.jsonl:1: not valid JSON" in result.stderr


def test_non_utf8_report_exits_2(ws):
    bad = ws / "report.json"
    bad.write_bytes(b'{"verdict": "\xff\xfe"}')
    result = invoke("report", "--path", bad)
    assert result.exit_code == 2
    assert "cannot read report" in result.stderr


@pytest.mark.parametrize("fmt", ["json", "markdown"])
@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999"])
def test_non_finite_report_exits_2(ws, fmt, literal):
    # json used to raise ValueError from the canonical writer, markdown a
    # KeyError for the first key it needed
    bad = ws / "report.json"
    bad.write_text(f'{{"verdict": {literal}}}')
    result = invoke("report", "--path", bad, "--format", fmt)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: cannot read report: ")


@pytest.mark.parametrize("content, key", [
    ("{}", "verdict"),
    ('{"verdict": "pass"}', "model_id"),
    ('{"verdict": "inconclusive", "model_id": "m"}', "reason"),
])
def test_report_missing_a_key_exits_2(ws, content, key):
    bad = ws / "report.json"
    bad.write_text(content)
    result = invoke("report", "--path", bad, "--format", "markdown")
    assert result.exit_code == 2
    assert f"error: report lacks key '{key}'" in result.stderr


@pytest.mark.parametrize("content", ["[1]", '{"verdict": 5, "model_id": "m"}'])
def test_report_of_another_shape_exits_2(ws, content):
    bad = ws / "report.json"
    bad.write_text(content)
    result = invoke("report", "--path", bad, "--format", "markdown")
    assert result.exit_code == 2
    assert "error: malformed report: " in result.stderr


@pytest.mark.parametrize("content, message", [
    ("{}", "error: report lacks key 'verdict'"),
    ("5", "error: malformed report: "),
    ("no verdict", "error: report lacks key 'verdict'"),
])
def test_json_format_refuses_what_is_not_a_report(ws, content, message):
    # the JSON view used to echo any JSON value back with exit 0
    bad = ws / "report.json"
    if content == "no verdict":
        certify(ws)
        payload = json.loads((ws / "audit_report.json").read_text())
        del payload["verdict"]
        content = json.dumps(payload)
    bad.write_text(content)
    for fmt in ("json", "markdown"):
        result = invoke("report", "--path", bad, "--format", fmt)
        assert result.exit_code == 2, fmt
        assert result.stderr.startswith(message), fmt


def test_example_report_renders_in_both_formats(ws):
    certify(ws)
    path = ws / "audit_report.json"
    as_json = invoke("report", "--path", path, "--format", "json")
    assert as_json.exit_code == 0
    assert as_json.stdout == path.read_text()
    as_markdown = invoke("report", "--path", path, "--format", "markdown")
    assert as_markdown.exit_code == 0
    assert as_markdown.stdout.startswith("# Audit report: example-classifier\n")


def test_inconclusive_report_renders(ws):
    path = ws / "report.json"
    path.write_text('{"model_id":"m","reason":"no alpha","schema_version":2,'
                    '"verdict":"inconclusive"}')
    result = invoke("report", "--path", path, "--format", "markdown")
    assert result.exit_code == 0
    assert result.stdout == "# Audit report: m\n\n**Verdict: INCONCLUSIVE** — no alpha\n"


OUTSIDE_INT64 = 99999999999999999999


def test_integer_outside_int64_in_csv_exits_2(ws):
    # used to crash with OverflowError and exit 1, "not demonstrated"
    path = ws / "data" / "test_pass.csv"
    header, first, *rows = path.read_text().splitlines()
    x0, x1, _, prediction = first.split(",")
    path.write_text("\n".join([header, f"{x0},{x1},{OUTSIDE_INT64},{prediction}",
                               *rows]) + "\n")
    result = invoke("run", ws / "audit.yaml")
    assert result.exit_code == 2
    assert re.search(r"test_pass\.csv: column 'label' holds an integer outside int64",
                     result.stderr)


def test_integer_outside_int64_in_jsonl_exits_2(ws):
    header, *rows = (ws / "data" / "test_pass.csv").read_text().splitlines()
    records = [dict(zip(header.split(","), map(json.loads, row.split(","))))
               for row in rows]
    records[0]["label"] = OUTSIDE_INT64
    (ws / "data" / "test_pass.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    config = mutate(ws, lambda raw: raw["datasets"]["test"].update(
        path="data/test_pass.jsonl"))
    result = invoke("run", ws / config)
    assert result.exit_code == 2
    assert re.search(r"test_pass\.jsonl: column 'label' holds an integer outside int64",
                     result.stderr)


def replace_first_cell(ws, column, value, name="test_pass.csv"):
    path = ws / "data" / name
    header, first, *rows = path.read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index(column)] = str(value)
    path.write_text("\n".join([header, ",".join(cells), *rows]) + "\n")
    return path


@pytest.mark.parametrize("column,value,message", [
    ("label", OUTSIDE_INT64, "column 'label' holds an integer outside int64"),
    ("x0", "nan", "non-finite values in column 'x0'"),
], ids=["message_names_the_file", "message_without_the_file"])
def test_dataset_error_names_the_file_once(ws, column, value, message):
    # a loader message that starts with the path used to get it twice
    path = replace_first_cell(ws, column, value)
    result = invoke("run", ws / "audit.yaml")
    assert result.exit_code == 2
    assert result.stderr.startswith("error: dataset 'test'")
    assert message in result.stderr
    assert result.stderr.count(str(path)) == 1


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000 + b"\n"


def test_deeply_nested_window_line_exits_2(ws):
    # used to crash with RecursionError and exit 1, "not demonstrated"
    certify(ws)
    window = ws / "data" / "window.jsonl"
    window.write_bytes(DEEP_JSON)
    result = invoke("monitor", ws / "audit.yaml", "--window", window)
    assert result.exit_code == 2
    assert "window.jsonl:1: nested too deeply to read" in result.stderr


@pytest.mark.parametrize("content,message", [
    (DEEP_JSON, "ensembles.jsonl:1: nested too deeply to read"),
    (b'{"members": [[' + b"9" * 5000 + b', 0]]}\n',
     "ensembles.jsonl:1: an integer has too many digits to read"),
    (b'{"members": [[1' + b"0" * 400 + b', 0]]}\n', "ensembles.jsonl:1: int too large"),
    (b'{"members": [["a", "b"]]}\n', "ensembles.jsonl:1: could not convert"),
    # NaN passed every simplex check and stopped the run after the MPR tests
    (b'{"members": [[0.9, 0.1]]}\n{"members": [[NaN, 0.5], [0.5, 0.5]]}\n',
     "ensembles.jsonl:2: non-finite probability entries"),
], ids=["deep", "5000_digits", "400_digits", "text", "nan"])
def test_unreadable_ensembles_line_exits_2(ws, content, message):
    # each used to crash with a traceback and exit 1
    result = invoke("run", ws / with_ensembles(ws, content))
    assert result.exit_code == 2
    assert message in result.stderr


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


def test_fairness_example_demonstrates_both_requirements(ws):
    result = invoke("run", ws / "audit_fairness.yaml")
    assert result.exit_code == 0, result.stderr
    assert result.stdout.startswith("verdict: pass\n")
    report = ws / "audit_fairness_report.json"
    [row] = json.loads(report.read_text())["checks"]["fairness"]
    assert (row["name"], row["dataset"], row["metric"]) == (
        "parity_gap", "test", "statistical_parity")
    assert row["threshold"] == 0.15
    assert row["observed"] < row["threshold"]
    assert row["demonstrated"] is True
    assert row["test"]["alpha_used"] == 0.025
    assert row["test"]["p_value"] <= 0.025
    markdown = invoke("report", "--path", report, "--format", "markdown")
    assert markdown.exit_code == 0
    assert "## Fairness requirements" in markdown.stdout
    assert "| parity_gap | 0.0133333 | 0.15 |" in markdown.stdout


def write_ragged(ws):
    path = ws / "data" / "ragged.csv"
    path.write_text("x0,x1,label,prediction\n0.5,0.5,1,1\n0.5\n")
    return path


@pytest.mark.parametrize("option", ["--window", "--point-check"])
def test_ledger_is_checked_before_a_monitor_file_is_read(ws, option):
    # the CLI used to read both files before the ledger, and exit 2 here
    certify(ws)
    tamper_ledger(ws)
    args = command("monitor", ws, point_check="point_check.csv")
    args[args.index(option) + 1] = write_ragged(ws)
    result = invoke(*args)
    assert result.exit_code == 3
    assert "entry 0: entry hash does not match content" in result.stderr


@pytest.mark.parametrize("option,role", [("--window", "window"),
                                         ("--point-check", "point check")])
def test_monitor_file_error_names_its_role(ws, option, role):
    certify(ws)
    args = command("monitor", ws, point_check="point_check.csv")
    args[args.index(option) + 1] = write_ragged(ws)
    result = invoke(*args)
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {role}")
    assert "ragged row" in result.stderr


def write_scored_jsonl(src, dst, text_cell=False):
    """The rows of a labeled CSV file as JSONL with two score columns, p1
    leaning towards the prediction; with text_cell, one p1 cell is text."""
    header, *rows = src.read_text().splitlines()
    records = []
    for row in rows:
        record = dict(zip(header.split(","), map(json.loads, row.split(","))))
        p1 = 0.9 if record["prediction"] == 1 else 0.1
        record.update(p0=round(1 - p1, 1), p1=p1)
        records.append(record)
    if text_cell:
        records[0]["p1"] = "high"
    dst.write_text("".join(json.dumps(r) + "\n" for r in records))
    return dst


def with_scores(raw):
    raw["datasets"]["test"].update(path="data/test_scored.jsonl")
    raw["datasets"]["test"]["columns"].update(p0="score", p1="score")


def test_point_check_with_a_text_score_exits_2(ws):
    # used to crash with numpy's ValueError and exit 1, "not demonstrated"
    write_scored_jsonl(ws / "data" / "test_pass.csv", ws / "data" / "test_scored.jsonl")
    config = mutate(ws, with_scores)
    assert certify(ws, config).exit_code == 0
    point = write_scored_jsonl(ws / "data" / "point_check.csv",
                               ws / "data" / "point_check.jsonl", text_cell=True)
    result = invoke("monitor", ws / config, "--window", ws / "data" / "window.csv",
                    "--point-check", point)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: point check")
    assert "score column 'p1' is not numeric" in result.stderr


def test_ood_scenario_with_a_text_score_exits_2(ws):
    write_scored_jsonl(ws / "data" / "test_pass.csv", ws / "data" / "test_scored.jsonl")
    write_scored_jsonl(ws / "data" / "point_check.csv", ws / "data" / "far.jsonl",
                       text_cell=True)

    def with_ood(raw):
        with_scores(raw)
        raw["ood"] = {"method": "max_softmax", "reference": "test", "validation": "test",
                      "scenarios": [{"name": "far", "path": "data/far.jsonl"}]}

    result = invoke("run", ws / mutate(ws, with_ood))
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ood scenario 'far'")
    assert "score column 'p1' is not numeric" in result.stderr


def test_monitor_reads_no_bound_dataset_but_its_reference(ws, tmp_path):
    # a ragged train.csv, written after certification, used to exit 2
    certify(ws)
    twin = shutil.copytree(ws, tmp_path / "twin")
    (twin / "data" / "train.csv").write_text("x0,x1,label\n0.5\n")
    expected = invoke(*command("monitor", ws))
    result = invoke(*command("monitor", twin))
    assert expected.exit_code == 0
    assert result.exit_code == 0, result.stderr
    assert result.stdout == expected.stdout


@pytest.mark.parametrize("value", ["data", "missing/file.json"],
                         ids=["directory", "missing_directory"])
@pytest.mark.parametrize("key", ["ledger", "report"])
def test_unusable_output_path_exits_2_before_data_is_read(ws, key, value):
    # a ledger or report directory used to crash with exit 1, a missing
    # directory only once every test had run
    break_test_data(ws)
    result = invoke("run", ws / mutate(ws, lambda raw: raw.update({key: value})))
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {key}: ")


OOD_SCENARIO = {"ood": {"method": "distance_centroid", "reference": "train",
                        "validation": "test",
                        "scenarios": [{"name": "far", "path": "data/point_check.csv"}]}}
OVERLAPS = [
    ("report", "audit_ledger.jsonl", {}, "ledger"),
    ("report", "data/test_pass.csv", {}, "datasets.test.path"),
    ("ledger", "data/train.csv", {}, "datasets.train.path"),
    ("ledger", "mutated.yaml", {}, "config"),
    ("report", "data/window.csv", {"uncertainty": {"ensembles": "data/window.csv"}},
     "uncertainty.ensembles"),
    ("ledger", "data/point_check.csv", OOD_SCENARIO, "ood.scenarios[0].path"),
    # a checkpoint write used to replace the report, and a report rename the
    # lock file a later writer would lock
    ("report", "audit_ledger.jsonl.ckpt", {}, "the ledger's checkpoint"),
    ("report", "audit_ledger.jsonl.lock", {}, "the ledger's lock file"),
]


@pytest.mark.parametrize("key, value, sections, other", OVERLAPS,
                         ids=[o[-1] for o in OVERLAPS])
@pytest.mark.parametrize("name", ("run", "monitor"))
def test_artifact_path_naming_another_file_exits_2_writing_nothing(ws, name, key, value,
                                                                    sections, other):
    # a report on the ledger used to be renamed over the entry just committed,
    # and one on a dataset used to overwrite the data
    config = mutate(ws, lambda raw: raw.update({key: value}, **sections))
    before = {p: p.read_bytes() for p in ws.rglob("*") if p.is_file()}
    result = invoke(*command(name, ws, config))
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {key}: ")
    assert result.stderr.rstrip().endswith(f"is the same file as {other}")
    assert {p: p.read_bytes() for p in ws.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("suffix, sidecar", [(".ckpt", "checkpoint"), (".lock", "lock file")])
@pytest.mark.parametrize("name", ("run", "monitor"))
def test_ledger_whose_sidecar_is_another_file_exits_2_writing_nothing(ws, name, suffix,
                                                                       sidecar):
    # with `ledger: data/train`, a write command would lock or checkpoint
    # over the training data at data/train.lock or data/train.ckpt
    shutil.copy(ws / "data" / "train.csv", ws / "data" / f"train{suffix}")

    def train_beside_ledger(raw):
        raw["datasets"]["train"]["path"] = f"data/train{suffix}"
        raw["ledger"] = "data/train"

    config = mutate(ws, train_beside_ledger)
    before = {p: p.read_bytes() for p in ws.rglob("*") if p.is_file()}
    result = invoke(*command(name, ws, config))
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: ledger: its {sidecar} ")
    assert result.stderr.rstrip().endswith("is the same file as datasets.train.path")
    assert {p: p.read_bytes() for p in ws.rglob("*") if p.is_file()} == before


PREDICTOR = """\
import sys

for line in sys.stdin:
    x0, x1 = map(float, line.split(","))
    print(int(x0 + x1 > 0), flush=True)
"""


def with_auxiliary_sections(raw):
    """Every informational section: uncertainty with `correct` flags (so its
    error-flagging AUROC is computed), one OOD scenario, and robustness with
    the predictor in predict.py."""
    raw.update(OOD_SCENARIO,
               uncertainty={"ensembles": "data/ensembles.jsonl",
                            "abstain_thresholds": {"total": 0.5}},
               robustness={"dataset": "test", "epsilon": 0.1, "budget": 8,
                           "predictor": {"command": [sys.executable, "predict.py"]}})


def test_report_with_every_auxiliary_section_reruns_and_renders(ws):
    # `report` used to exit 2 on any report with a robustness section, in
    # both formats: the markdown view read the attack from the robustness
    # result, which does not hold it
    (ws / "predict.py").write_text(PREDICTOR)
    (ws / "data" / "ensembles.jsonl").write_text("".join(
        json.dumps({"members": [[p, 1 - p], [p + 0.05, 0.95 - p]], "correct": correct}) + "\n"
        for p, correct in [(0.9, True), (0.5, False), (0.8, True), (0.55, False),
                           (0.7, True), (0.85, True)]))
    config = ws / mutate(ws, with_auxiliary_sections)
    report = ws / "audit_report.json"
    first = invoke("run", config)
    assert first.exit_code == 0, first.stderr
    saved = report.read_bytes()
    rerun = invoke("run", config)
    assert rerun.exit_code == 0, rerun.stderr
    assert report.read_bytes() == saved
    checks = json.loads(saved)["checks"]
    assert checks["uncertainty"]["flag_quality_auroc"] is not None
    assert [row["scenario"] for row in checks["ood"]] == ["far"]
    assert checks["robustness"]["attack_budget"] == 8

    as_json = invoke("report", "--path", report, "--format", "json")
    assert as_json.exit_code == 0, as_json.stderr
    assert as_json.stdout == saved.decode()
    as_markdown = invoke("report", "--path", report, "--format", "markdown")
    assert as_markdown.exit_code == 0, as_markdown.stderr
    for line in ("## Uncertainty", "- error-flagging AUROC ", "## Out-of-distribution scenarios",
                 "| far | ", "## Robustness", "- coordinate_descent attack, linf ball, epsilon 0.1, "
                 "budget 8"):
        assert line in as_markdown.stdout


def test_report_directory_commits_no_entry(ws):
    # entry 0 used to be committed before the report write crashed
    result = invoke("run", ws / mutate(ws, lambda raw: raw.update(report="data")))
    assert result.exit_code == 2
    assert not (ws / "audit_ledger.jsonl").exists()


def test_os_error_exits_2(ws, monkeypatch):
    def full_disk(self, **entry):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("statcert.audit.ledger.AuditLedger.append", full_disk)
    result = invoke("run", ws / "audit.yaml")
    assert result.exit_code == 2
    assert result.stderr == "error: [Errno 28] No space left on device\n"


def full_disk(*args, **kwargs):
    raise OSError(28, "No space left on device")


def staged_files(ws):
    return sorted(p.name for p in ws.iterdir() if p.name.endswith(".tmp"))


def no_space_to_write(monkeypatch):
    """A full disk for files opened to write, not for the ledger's append."""
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        if "w" in mode:
            full_disk()
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)


@pytest.mark.parametrize("failure", ("open", "fsync"))
@pytest.mark.parametrize("name", ("run", "recertify"))
def test_failed_report_staging_commits_no_entry(ws, name, failure, monkeypatch):
    # the report used to be written after the entry was committed, outside
    # the exit-code map: exit 1 with a traceback, and the entry kept
    ledger, report = ws / "audit_ledger.jsonl", ws / "audit_report.json"
    if name == "recertify":
        certify(ws)
        refresh_test_data(ws)
    else:
        report.write_bytes(b"an earlier report\n")
    before = {p: p.read_bytes() for p in (ledger, report) if p.exists()}
    if failure == "open":
        no_space_to_write(monkeypatch)
    else:
        monkeypatch.setattr("os.fsync", full_disk)
    result = invoke(*command(name, ws))
    assert result.exit_code == 2
    assert result.stderr == "error: [Errno 28] No space left on device\n"
    assert {p: p.read_bytes() for p in (ledger, report) if p.exists()} == before
    assert staged_files(ws) == []


def test_failed_report_rename_keeps_the_entry_and_a_rerun_writes_the_report(
        ws, monkeypatch):
    ledger, report = ws / "audit_ledger.jsonl", ws / "audit_report.json"
    assert certify(ws).exit_code == 0
    expected = report.read_bytes()
    ledger.unlink()
    report.unlink()
    with monkeypatch.context() as m:
        m.setattr("os.replace", full_disk)
        result = invoke("run", ws / "audit.yaml")
    assert result.exit_code == 2
    assert result.stderr == "error: [Errno 28] No space left on device\n"
    assert len(ledger.read_text().splitlines()) == 1
    assert not report.exists()
    assert staged_files(ws) == []
    rerun = invoke("run", ws / "audit.yaml")
    assert rerun.exit_code == 0
    assert report.read_bytes() == expected
    assert len(ledger.read_text().splitlines()) == 1


def test_failed_append_leaves_no_staged_report(ws, monkeypatch):
    # a guard, which passes where the report is written after the commit too
    monkeypatch.setattr("statcert.audit.ledger.AuditLedger.append", full_disk)
    # the ledger's lock file is the one file a write command leaves behind
    before = sorted([*ws.iterdir(), ws / "audit_ledger.jsonl.lock"])
    result = invoke("run", ws / "audit.yaml")
    assert result.exit_code == 2
    assert sorted(ws.iterdir()) == before


def test_config_that_is_not_text_exits_2(ws):
    # a UnicodeDecodeError traceback, exit 1, while the config was read as text
    config = ws / "audit.yaml"
    config.write_bytes(config.read_bytes() + b"# \xff\n")
    result = invoke("run", config)
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot read config {config}: ")
    assert not (ws / "audit_ledger.jsonl").exists()


def accented_config(ws):
    """A copy of the example config whose SADD text holds an `é`."""
    raw = yaml.safe_load((ws / "audit.yaml").read_text(encoding="utf-8"))
    raw["sadd"]["operating_context"] = "Capteurs déployés sur la flotte."
    config = ws / "accented.yaml"
    config.write_text(yaml.safe_dump(raw, allow_unicode=True), encoding="utf-8")
    assert "é".encode() in config.read_bytes()
    return config


# the C locale, with no UTF-8 mode to override it: stdout encodes ASCII
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_config_is_read_as_utf8_whatever_the_locale(ws):
    # an ASCII locale used to end `run` in a UnicodeDecodeError, exit 1
    config = accented_config(ws)

    def run(**env):
        result = subprocess.run([sys.executable, "-m", "statcert.cli", "run", config],
                                capture_output=True, env={**os.environ, **env})
        assert result.returncode == 0, result.stderr
        report = ws / "audit_report.json"
        written = report.read_bytes()
        report.unlink()
        (ws / "audit_ledger.jsonl").unlink()
        return written

    utf8 = run(PYTHONUTF8="1")
    assert run(**ASCII_LOCALE) == utf8
    assert json.loads(utf8)["sadd"]["operating_context"].startswith("Capteurs déployés")


def test_markdown_report_is_utf8_whatever_the_locale(ws):
    # print() to an ASCII stdout would raise UnicodeEncodeError, exit 1
    certify(ws, accented_config(ws).name)

    def render(**env):
        result = subprocess.run([sys.executable, "-m", "statcert.cli", "report", "--path",
                                 ws / "audit_report.json", "--format", "markdown"],
                                capture_output=True, env={**os.environ, **env})
        assert result.returncode == 0, result.stderr
        assert result.stderr == b""
        return result.stdout

    utf8 = render(PYTHONUTF8="1")
    assert render(**ASCII_LOCALE) == utf8
    assert "1. Capteurs déployés sur la flotte.\n".encode() in utf8


def test_markdown_report_drops_ansi_escapes_off_a_terminal(ws):
    certify(ws)
    path = ws / "audit_report.json"
    payload = json.loads(path.read_text())
    payload["sadd"]["operating_context"] = "\x1b[31mred\x1b[0m sensors"
    path.write_text(json.dumps(payload))
    result = invoke("report", "--path", path, "--format", "markdown")
    assert result.exit_code == 0
    assert "\n1. red sensors\n" in result.stdout
    assert "\x1b" not in result.stdout


def tree(root):
    return sorted((p.relative_to(root), p.stat().st_mtime_ns) for p in root.rglob("*"))


@pytest.mark.parametrize("args", [
    (),
    ("certify", "audit.yaml"),
    ("run",),
    ("run", "missing.yaml"),
    ("run", "data"),
    ("run", "audit.yaml", "extra.yaml"),
    ("recertify", "audit.yaml"),
    ("recertify", "missing.yaml", "--ledger", "audit_ledger.jsonl"),
    ("recertify", "audit.yaml", "--ledger", "missing.jsonl"),
    ("recertify", "audit.yaml", "--ledger", "data"),
    ("monitor", "audit.yaml"),
    ("monitor", "missing.yaml", "--window", "data/window.csv"),
    ("monitor", "audit.yaml", "--window", "data/missing.csv"),
    ("monitor", "audit.yaml", "--window", "data/window.csv", "--point-check",
     "data/missing.csv"),
    # option names are never abbreviated
    ("monitor", "audit.yaml", "--window", "data/window.csv", "--point",
     "data/point_check.csv"),
    ("verify-ledger",),
    ("verify-ledger", "data"),
    ("report", "--path", "missing.json"),
    ("report", "--path", "audit_report.json", "--format", "xml"),
    ("report", "--path", "audit_report.json", "--format", "JSON"),
], ids=" ".join)
def test_usage_error_exits_2_before_the_command_runs(ws, monkeypatch, args):
    certify(ws)
    monkeypatch.chdir(ws)
    before = tree(ws)
    result = invoke(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "usage:" in result.stderr.lower()
    assert tree(ws) == before


def test_report_without_the_default_file_exits_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = invoke("report")
    assert result.exit_code == 2
    assert "audit_report.json" in result.stderr


@pytest.mark.parametrize("command", ["", "run", "recertify", "monitor", "verify-ledger",
                                     "report"])
def test_help_exits_0(command):
    result = invoke(*command.split(), "--help")
    assert result.exit_code == 0
    assert result.stdout.lower().startswith("usage:")
    assert result.stderr == ""


def test_verify_ledger_on_a_missing_file_is_inconsistent_exits_3(ws):
    result = invoke("verify-ledger", ws / "missing.jsonl")
    assert result.exit_code == 3
    assert json.loads(result.stdout) == {
        "consistent": False, "detail": f"ledger file not found: {ws / 'missing.jsonl'}",
        "first_inconsistency": None, "n_entries": 0}


def sidecar(ws, suffix):
    return ws / f"audit_ledger.jsonl{suffix}"


def checkpointed(ws):
    """Certify, then monitor a window with no shift: the monitor leaves the
    checkpoint of the prefix it verified, entry 0."""
    certify(ws)
    assert invoke(*command("monitor", ws)).exit_code == 0
    assert sidecar(ws, ".ckpt").exists()


def outcomes(ws):
    """Exit code and output of a no-shift monitor, a shifted one with a
    point check, and verify-ledger, in that order."""
    runs = [invoke(*command("monitor", ws)),
            invoke(*command("monitor", ws, point_check="point_check.csv")),
            invoke("verify-ledger", ws / "audit_ledger.jsonl")]
    return [(r.exit_code, r.stdout) for r in runs]


def test_edit_before_the_checkpoint_exits_3(ws):
    checkpointed(ws)
    ledger = ws / "audit_ledger.jsonl"
    raw = ledger.read_bytes()
    ledger.write_bytes(raw.replace(b'"seed":20240901', b'"seed":20240902', 1))
    result = invoke(*command("monitor", ws))
    assert result.exit_code == 3
    assert "entry 0: entry hash does not match content" in result.stderr


@pytest.mark.parametrize("tampered", [False, True], ids=["intact", "tampered"])
@pytest.mark.parametrize("kind", ["stale", "rewound ledger", "truncated", "garbage",
                                  "other ledger"])
def test_checkpoint_never_changes_a_verdict(tmp_path, ws, kind, tampered):
    other = shutil.copytree(ws, tmp_path / "other")
    checkpointed(ws)
    ckpt = sidecar(ws, ".ckpt")
    if kind in ("stale", "rewound ledger"):
        saved = ckpt.read_bytes()
        assert invoke(*command("monitor", ws)).exit_code == 0
        if kind == "stale":  # a checkpoint of an earlier prefix
            ckpt.write_bytes(saved)
        else:  # a checkpoint of a longer ledger than the one now there
            ledger = ws / "audit_ledger.jsonl"
            ledger.write_bytes(ledger.read_bytes().splitlines(keepends=True)[0])
    elif kind == "truncated":
        ckpt.write_bytes(ckpt.read_bytes()[:100])
    elif kind == "garbage":
        ckpt.write_bytes(b"{}\x00\xff garbage")
    else:
        checkpointed(other)
        shutil.copyfile(sidecar(other, ".ckpt"), ckpt)
    if tampered:
        tamper_ledger(ws)
    # the same ledger without a checkpoint
    twin = shutil.copytree(ws, tmp_path / "twin")
    sidecar(twin, ".ckpt").unlink()
    expected = outcomes(twin)
    assert outcomes(ws) == expected
    assert [code for code, _ in expected] == ([3, 3, 3] if tampered else [0, 0, 0])


@pytest.mark.parametrize("ckpt", ["garbage", "from before an edit"])
def test_verify_ledger_never_touches_a_sidecar(ws, ckpt):
    checkpointed(ws)
    ledger = ws / "audit_ledger.jsonl"
    if ckpt == "garbage":
        sidecar(ws, ".ckpt").write_bytes(b"\xff garbage")
    else:
        tamper_ledger(ws)
    kept = sidecar(ws, ".ckpt").read_bytes()
    sidecar(ws, ".lock").unlink()
    with_ckpt = invoke("verify-ledger", ledger)
    assert sidecar(ws, ".ckpt").read_bytes() == kept
    assert not sidecar(ws, ".lock").exists()
    sidecar(ws, ".ckpt").unlink()
    without = invoke("verify-ledger", ledger)
    assert (with_ckpt.exit_code, with_ckpt.stdout) == (without.exit_code, without.stdout)
    assert with_ckpt.exit_code == (0 if ckpt == "garbage" else 3)
    assert sorted(p.name for p in ws.glob("audit_ledger.jsonl*")) == ["audit_ledger.jsonl"]


def test_removed_ledger_with_its_checkpoint_left_is_a_fresh_ledger(ws):
    def cycle():
        run = invoke("run", ws / "audit.yaml")
        return run.exit_code, run.stdout, (ws / "audit_report.json").read_bytes(), outcomes(ws)

    expected = cycle()
    assert sidecar(ws, ".ckpt").exists()
    (ws / "audit_ledger.jsonl").unlink()
    (ws / "audit_report.json").unlink()
    assert cycle() == expected
