"""canonical_json is one json.dumps with a numpy hook: it must give the same
bytes as the explicit walk that made every value plain first
(`helpers.plain_canonical_json`), on numpy values, on awkward floats and on
every payload the program emits, and so must every ledger entry hash."""

import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from helpers import plain_canonical_json
from statcert.audit.config import load_config
from statcert.audit.ledger import AuditLedger, Replay, _hashes_to, entry_hash, verify_ledger
from statcert.audit.runner import monitor_step, run_audit
from statcert import canonical
from statcert.canonical import (FallbackState, canonical_json, parse_finite_json, plain,
                                sha256_hex)
from statcert.core import load_dataset

EXAMPLE = Path(__file__).resolve().parent.parent / "example"

NUMPY_SCALARS = [
    np.int8(-128), np.int16(-32768), np.int32(2**31 - 1), np.int64(-2**63),
    np.uint8(255), np.uint16(65535), np.uint32(2**32 - 1), np.uint64(2**64 - 1),
    np.float16(0.1), np.float32(1e-17), np.float64(5e-324), np.longdouble(0.1),
    np.float64(-0.0), np.str_("naïve ☃"),
]
ARRAYS = [
    np.arange(24, dtype=np.int64).reshape(2, 3, 4),
    np.linspace(-1.0, 1.0, 7, dtype=np.float32),
    np.array([[1e-17, 5e-324], [-0.0, 1e300]]),
    np.array([2**63], dtype=np.uint64),
    np.zeros((0, 3)),
    np.array(["a", "é"]),
]
AWKWARD = [1e-17, 5e-324, -0.0, 2**63, -2**63 - 1, 10**40, 1e300, 0.1 + 0.2,
           "naïve ☃ \U0001d518  ", "", None, True, False]


@pytest.mark.parametrize("value", NUMPY_SCALARS + ARRAYS + AWKWARD, ids=repr)
def test_value_matches_the_walk(value):
    assert canonical_json(value) == plain_canonical_json(value)
    nested = {"z": [value, (value, {"k": value})], "a": (1, 2.5)}
    assert canonical_json(nested) == plain_canonical_json(nested)


def test_numpy_bool_is_written_as_json_bool():
    # the walk left np.bool_ to json.dumps, which refused it
    assert canonical_json({"b": np.bool_(True), "a": np.array([False])}) == (
        '{"a":[false],"b":true}')


@pytest.mark.parametrize("value", [np.complex128(1j), np.clongdouble(1),
                                   np.datetime64("2020-01-01"), np.bytes_(b"a"),
                                   object()],
                         # a bare object's repr holds its address, so the id would
                         # change from run to run
                         ids=lambda v: "object()" if type(v) is object else repr(v))
def test_unserialisable_values_are_refused_as_before(value):
    for serialise in (canonical_json, plain_canonical_json):
        with pytest.raises(TypeError):
            serialise({"v": value})


@pytest.mark.parametrize("value", [float("nan"), np.float64("inf"), np.float32("-inf")],
                         ids=repr)
def test_non_finite_numbers_are_refused(value):
    for serialise in (canonical_json, plain_canonical_json):
        with pytest.raises(ValueError):
            serialise([value])


@pytest.fixture(scope="module")
def example_run(tmp_path_factory):
    """The three example reports, a monitor outcome and the ledgers behind
    them, as the program builds them in memory."""
    work = tmp_path_factory.mktemp("canonical") / "example"
    shutil.copytree(EXAMPLE, work)
    reports = [run_audit(work / name).payload
               for name in ("audit.yaml", "audit_fail.yaml", "audit_leak.yaml")]
    config = load_config(work / "audit.yaml")
    columns = config.datasets[config.drift.reference].feature_columns()
    outcome = monitor_step(config.ledger_path, config,
                           load_dataset(work / "data" / "window_shift.csv", columns),
                           load_dataset(work / "data" / "point_check.csv",
                                        config.datasets[config.mprs[0].dataset].columns))
    ledgers = [AuditLedger(path) for path in sorted(work.glob("*ledger.jsonl"))]
    return reports, outcome, ledgers


def test_example_reports_match_the_walk(example_run):
    reports, _, _ = example_run
    assert len(reports) == 3
    for payload in reports:
        assert canonical_json(payload) == plain_canonical_json(payload)


def test_monitor_outcome_matches_the_walk(example_run):
    _, outcome, _ = example_run
    assert outcome.verdict == "shift_benign"
    plain = outcome.as_plain()
    assert canonical_json(plain) == plain_canonical_json(plain)


@dataclass(frozen=True)
class Section:
    path: Path
    dims: tuple[int, ...]
    params: dict


def test_plain_is_the_report_form():
    # a named tuple's own as_plain comes first, one without it is a list; a
    # dataclass is its fields, and a numpy value is left to canonical_json
    score = np.float64(0.5)
    value = {"replay": Replay(True, None, None, 3), "state": FallbackState(1, 0.02),
             "sections": (Section(Path("/d/x.csv"), (1, 2), {"k": (score,)}),)}
    assert plain(value) == {
        "replay": {"consistent": True, "first_inconsistency": None, "detail": None,
                   "n_entries": 3},
        "state": [1, 0.02],
        "sections": [{"path": "/d/x.csv", "dims": [1, 2], "params": {"k": [score]}}]}
    assert plain(value)["sections"][0]["params"]["k"][0] is score


def test_verify_result_and_entry_hashes_match_the_walk(example_run):
    _, _, ledgers = example_run
    assert len(ledgers) == 3
    for ledger in ledgers:
        result = verify_ledger(ledger.path)
        assert result["consistent"], result
        assert canonical_json(result) == plain_canonical_json(result)
        for entry in ledger.entries:
            assert entry_hash(entry) == entry["entry_hash"] == walk_hash(entry)


def test_every_example_line_hashes_to_its_entry_hash(example_run, tmp_path):
    # the walk hashes each line's bytes without the line ending and the
    # `entry_hash` member, which sorted keys put between `demonstrated` and
    # `family`; that must be the hash of the entry's canonical JSON
    _, _, ledgers = example_run
    for ledger in ledgers:
        raw = ledger.path.read_bytes()
        for line, entry in zip(raw.splitlines(), ledger.entries, strict=True):
            recorded = entry["entry_hash"]
            before, after = line.split(f',"entry_hash":"{recorded}"'.encode())
            assert re.search(rb'"demonstrated":(true|false|null)$', before)
            assert after.startswith(b',"family":')
            assert hashlib.sha256(before + after).hexdigest() == recorded == walk_hash(entry)
            for ending in (b"\n", b"\r\n"):
                assert _hashes_to(line + ending, recorded)
        crlf = tmp_path / ledger.path.name
        crlf.write_bytes(raw.replace(b"\n", b"\r\n"))
        assert verify_ledger(crlf) == verify_ledger(ledger.path)
        assert verify_ledger(crlf)["consistent"]


def walk_hash(entry: dict) -> str:
    return sha256_hex(plain_canonical_json(
        {k: v for k, v in entry.items() if k != "entry_hash"}))


def test_seeded_ledger_with_numpy_decisions_matches_the_walk(tmp_path):
    rng = np.random.default_rng(20261018)
    path = tmp_path / "ledger.jsonl"
    ledger = AuditLedger(path)
    family = {"alpha": 0.05, "weights": [0.5, 0.25, 0.25], "procedure": "fallback",
              "shares": {"acc": 1.0}}
    state = FallbackState(0, 0.0)
    for i in range(50):
        common = dict(model_id="m", family=family, seed=np.int64(i),
                      dataset_hashes={"test": rng.bytes(32).hex()})
        if i % 5 == 0:
            alpha = state.next_alpha(family["alpha"], family["weights"])
            demonstrated = bool(rng.random() < 0.7)
            decisions = [{"name": "acc", "p_value": np.float64(rng.uniform(1e-17, 1e-6)),
                          "observed": np.float32(rng.random()),
                          "k": np.int64(rng.integers(0, 2**62)), "huge": 2**63,
                          "tiny": 5e-324, "zero": -0.0, "note": "é ☃",
                          "counts": rng.integers(0, 100, size=(2, 3)),
                          "bounds": (np.float64(1e-17), np.float16(0.5)),
                          "decision": "reject_H0" if demonstrated else "fail_to_reject"}]
            ledger.append(kind="recertification", gating_hashes=[rng.bytes(8).hex()],
                          test_bearing=True, alpha_allocated=np.float64(alpha),
                          alpha_carried_in=state.carry,
                          alpha_carried_out=state.advance(alpha, demonstrated).carry,
                          decisions=decisions, demonstrated=demonstrated,
                          verdict="pass" if demonstrated else "fail", **common)
            state = state.advance(alpha, demonstrated)
        else:
            ledger.append(kind="monitor", gating_hashes=[], test_bearing=False,
                          alpha_allocated=0.0, alpha_carried_in=state.carry,
                          alpha_carried_out=state.carry, decisions=[],
                          demonstrated=None, verdict="ok", **common)
    reread = AuditLedger(path)
    assert len(reread) == 50
    # in memory the entries hold numpy values, on disk their plain form
    for held, parsed in zip(ledger.entries, reread.entries):
        assert canonical_json(held) == plain_canonical_json(held) == canonical_json(parsed)
        assert entry_hash(held) == entry_hash(parsed) == walk_hash(parsed) == (
            parsed["entry_hash"])
    assert verify_ledger(ledger)["consistent"]
    assert verify_ledger(path) == {"consistent": True, "first_inconsistency": None,
                                   "detail": None, "n_entries": 50}


# the ledger's decoder as it was before one scanner call read a whole line
# and a lookup kept each float: decode() with a plain parse_float
DECODE_EVERY_LINE = json.JSONDecoder(parse_constant=canonical._refuse_constant,
                                     parse_float=canonical._finite_float).decode


def respell(literal: bytes):
    # the family's alpha, a float literal nested two levels down
    return lambda line: line.replace(b'"family":{"alpha":0.05', b'"family":{"alpha":' + literal)


def nested(depth: int):
    return lambda line: re.sub(rb'"seed":(\d+)',
                               lambda m: b'"seed":' + b"[" * depth + m[1] + b"]" * depth, line)


LINE_EDITS = {
    "as_written": lambda line: line,
    "leading_space": lambda line: b" " + line,
    "trailing_spaces": lambda line: line[:-1] + b"  \n",
    "crlf": lambda line: line[:-1] + b"\r\n",
    "lone_cr": lambda line: line[:-1] + b"\r",
    "cr_joins_two": lambda line: line[:-1] + b"\r" + line,
    "no_newline": lambda line: line[:-1],
    "trailing_garbage": lambda line: line[:-1] + b"x\n",
    "two_values": lambda line: line[:-1] + line,
    "value_then_newline_then_value": lambda line: line + line,
    "upper_exponent": respell(b"1E5"),
    "negative_zero": respell(b"-0.0"),
    "long_literal": respell(b"0." + b"0" * 40 + b"5"),
    "infinite_in_family": respell(b"1e999"),
    "negative_infinite": respell(b"-1e999"),
    "nan": respell(b"NaN"),
    "infinity": respell(b"Infinity"),
    "bom": lambda line: b"\xef\xbb\xbf" + line,
    "invalid_utf8": lambda line: line.replace(b"fallback", b"fall\xffback"),
    "deep_nesting": nested(100_000),
    "shallow_nesting": nested(50),
    "blank": lambda line: b"\n",
    "not_an_object": lambda line: b"[1.5, 2.5]\n",
}


def line_outcome(parse, raw: bytes):
    """What a ledger line reads as under `parse`: its value by repr, so
    that -0.0 stays apart from 0.0, or the class of what it raises."""
    try:
        return "value", repr(parse(raw.decode("utf-8")))
    except (ValueError, RecursionError) as e:
        return "raises", type(e)


@pytest.mark.parametrize("edit", LINE_EDITS.values(), ids=LINE_EDITS.keys())
def test_line_parse_matches_decoding_every_line(example_run, edit):
    _, _, ledgers = example_run
    line = ledgers[0].path.read_bytes().splitlines(keepends=True)[0]
    raw = edit(line)
    expected = line_outcome(DECODE_EVERY_LINE, raw)
    canonical._FINITE_FLOATS.clear()
    for _ in range(2):  # its literals read afresh, then as kept
        assert line_outcome(parse_finite_json, raw) == expected
