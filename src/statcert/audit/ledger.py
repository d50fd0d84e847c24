"""Append-only certification ledger.

One JSON object per line. Each entry carries the SHA-256 of the previous
entry and of its own canonical serialization, so any edit, deletion, or
reordering after the fact is detectable by replay. Alpha allocations across
entries follow the fallback recurrence over the family frozen at entry 0:
a test-bearing entry i receives carry + alpha * w_i, and passes its whole
allocation forward only if it demonstrated its requirement. Each entry
records the report schema version it was written under, because dataset
hashes are only comparable within one version.
"""

from __future__ import annotations

from datetime import datetime, timezone
import math
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from ..canonical import FallbackState, canonical_json, parse_json, sha256_hex
from ..errors import LedgerCorrupt
from .report import SCHEMA_VERSION

ALPHA_TOL = 1e-12

_REQUIRED_FIELDS = (
    "index", "timestamp", "kind", "model_id", "family", "dataset_hashes",
    "gating_hashes", "seed", "test_bearing", "alpha_allocated",
    "alpha_carried_in", "alpha_carried_out", "decisions", "demonstrated",
    "verdict", "prev_hash", "entry_hash",
)
_REQUIRED = frozenset(_REQUIRED_FIELDS)


def entry_hash(entry: Mapping) -> str:
    body = dict(entry)
    body.pop("entry_hash", None)
    return sha256_hex(canonical_json(body))


def _parse(path: Path) -> tuple[list[dict], int | None]:
    """Entries up to the first line that is not valid UTF-8 JSON, and that
    line's number (None when every line parses). Blank lines are skipped,
    and a NaN or Infinity literal makes its line invalid."""
    entries = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            entries.append(parse_json(line.decode("utf-8")))
        except (ValueError, RecursionError):  # not UTF-8, not JSON, too deep
            return entries, lineno
    return entries, None


class AuditLedger:
    """File-backed entry sequence. Loading tolerates a missing file (empty
    ledger) but not a malformed one; use verify() for a non-raising check."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: list[dict] = []
        if self.path.exists():
            self._entries, bad_line = _parse(self.path)
            if bad_line is not None:
                raise LedgerCorrupt(f"{self.path}:{bad_line}: not valid JSON")

    @property
    def entries(self) -> tuple[dict, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # views of one replay_ledger walk, for a caller that needs one field:
    # bench/traced.py times the runner's stages through them
    def replay_state(self) -> FallbackState:
        return replay_ledger(self).state

    def prior_gating_hashes(self) -> set[str]:
        return set(replay_ledger(self).consumed)

    def append(self, *, kind: str, model_id: str, family: Mapping,
               dataset_hashes: Mapping[str, str], gating_hashes: Iterable[str],
               seed: int, test_bearing: bool, alpha_allocated: float,
               alpha_carried_in: float, alpha_carried_out: float,
               decisions: list[dict], demonstrated: bool | None,
               verdict: str) -> dict:
        entry = {
            "index": len(self._entries),
            "schema_version": SCHEMA_VERSION,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "kind": kind,
            "model_id": model_id,
            "family": dict(family),
            "dataset_hashes": dict(sorted(dataset_hashes.items())),
            "gating_hashes": sorted(gating_hashes),
            "seed": seed,
            "test_bearing": test_bearing,
            "alpha_allocated": alpha_allocated,
            "alpha_carried_in": alpha_carried_in,
            "alpha_carried_out": alpha_carried_out,
            "decisions": decisions,
            "demonstrated": demonstrated,
            "verdict": verdict,
            "prev_hash": self._entries[-1]["entry_hash"] if self._entries else None,
        }
        entry["entry_hash"] = entry_hash(entry)
        with self.path.open("a") as fh:
            fh.write(canonical_json(entry) + "\n")
        self._entries.append(entry)
        return entry


class Replay(NamedTuple):
    """What the one walk over a ledger's entries yields: the integrity
    verdict and, from a consistent ledger, what the next entry is written
    against. The last four fields keep their defaults on an inconsistent
    ledger. A named tuple, not a frozen dataclass: every command imports
    this module, and a dataclass takes about ten times as long to create."""

    consistent: bool
    first_inconsistency: int | None
    detail: str | None
    n_entries: int
    state: FallbackState = FallbackState(0, 0.0)
    consumed: frozenset[str] = frozenset()  # the gating hashes of every entry
    family: dict | None = None  # entry 0's
    older: dict | None = None  # the first entry written under another schema version

    def as_plain(self) -> dict:
        return {"consistent": self.consistent,
                "first_inconsistency": self.first_inconsistency,
                "detail": self.detail, "n_entries": self.n_entries}


def replay_ledger(ledger: AuditLedger | str | Path) -> Replay:
    """Integrity replay, the only pass over the entries. Never raises,
    whatever the file holds; an inconsistent ledger yields the index and
    description of its first inconsistency.

    Checks, per entry: JSON shape, index order, hash-chain linkage, the
    entry's own content hash (SHA-256 of its canonical JSON without
    `entry_hash`, taken on the entry as parsed), family identity with
    entry 0, the fallback alpha recurrence over test-bearing entries, and
    gating hashes that are a list of strings. Entry 0's family must carry a
    numeric `alpha` and a sequence of numeric `weights`; they are read once,
    there. The schema version is not checked: an entry written under
    another one is reported in `older`, because it is consistent, only not
    comparable.
    """
    def bad(index, detail):
        return Replay(False, index, detail, n)

    if isinstance(ledger, (str, Path)):
        path = Path(ledger)
        if not path.exists():
            return Replay(False, None, f"ledger file not found: {path}", 0)
        entries, bad_line = _parse(path)
        n = len(entries)
        if bad_line is not None:
            return bad(n, f"line {bad_line} is not valid JSON")
    else:
        entries = ledger.entries
        n = len(entries)

    family = alpha = weights = older = None
    state = FallbackState(0, 0.0)
    consumed: set[str] = set()
    prev_hash = None
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            return bad(i, "entry is not an object")
        if not _REQUIRED.issubset(e):
            return bad(i, f"missing fields {[f for f in _REQUIRED_FIELDS if f not in e]}")
        if e["index"] != i:
            return bad(i, f"index {e['index']} at position {i}")
        if e["prev_hash"] != prev_hash:
            return bad(i, "broken hash chain")
        try:
            content_hash = entry_hash(e)
        except (ValueError, RecursionError):  # 1e999 parses as infinity; deep nesting
            return bad(i, "entry content has no canonical JSON form")
        if content_hash != e["entry_hash"]:
            return bad(i, "entry hash does not match content")
        if i == 0:
            family = e["family"]
            try:
                alpha = float(family["alpha"])
                weights = tuple(float(w) for w in family["weights"])
            except (KeyError, TypeError, ValueError, OverflowError):
                return bad(i, "family needs a numeric alpha and numeric weights")
        elif e["family"] != family:
            return bad(i, "family snapshot differs from entry 0")
        try:
            allocated = float(e["alpha_allocated"])
            carried_in = float(e["alpha_carried_in"])
            carried_out = float(e["alpha_carried_out"])
        except (TypeError, ValueError, OverflowError):
            return bad(i, "non-numeric alpha fields")
        if e["test_bearing"]:
            if not math.isclose(carried_in, state.carry, abs_tol=ALPHA_TOL):
                return bad(i, f"carried-in alpha {carried_in} != replayed {state.carry}")
            expect = state.next_alpha(alpha, weights)
            if not math.isclose(allocated, expect, abs_tol=ALPHA_TOL):
                return bad(i, f"allocated alpha {allocated} != replayed {expect}")
            state = state.advance(allocated, bool(e["demonstrated"]))
            if not math.isclose(carried_out, state.carry, abs_tol=ALPHA_TOL):
                return bad(i, f"carried-out alpha {carried_out} != replayed {state.carry}")
        else:
            if allocated != 0.0:
                return bad(i, "non-test entry spent alpha")
            if not (math.isclose(carried_in, state.carry, abs_tol=ALPHA_TOL)
                    and math.isclose(carried_out, state.carry, abs_tol=ALPHA_TOL)):
                return bad(i, "non-test entry altered the alpha carry")
        gating = e["gating_hashes"]
        if not (isinstance(gating, list) and all(isinstance(h, str) for h in gating)):
            return bad(i, "gating hashes are not a list of strings")
        consumed.update(gating)
        # entries without the field predate it: they were written under version 1
        if older is None and e.get("schema_version", 1) != SCHEMA_VERSION:
            older = e
        prev_hash = e["entry_hash"]
    return Replay(True, None, None, n, state, frozenset(consumed), family, older)


def verify_ledger(ledger: AuditLedger | str | Path) -> dict:
    """The verdict of replay_ledger as a plain dict: `consistent`,
    `first_inconsistency`, `detail` and `n_entries`."""
    return replay_ledger(ledger).as_plain()
