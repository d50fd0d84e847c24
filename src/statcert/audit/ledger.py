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
import json
import math
from pathlib import Path
from typing import Iterable, Mapping

from ..core import canonical_json, sha256_hex
from ..errors import LedgerCorrupt
from ..multiplicity import FallbackState
from .report import SCHEMA_VERSION

ALPHA_TOL = 1e-12

_REQUIRED_FIELDS = (
    "index", "timestamp", "kind", "model_id", "family", "dataset_hashes",
    "gating_hashes", "seed", "test_bearing", "alpha_allocated",
    "alpha_carried_in", "alpha_carried_out", "decisions", "demonstrated",
    "verdict", "prev_hash", "entry_hash",
)


def entry_hash(entry: Mapping) -> str:
    body = {k: v for k, v in entry.items() if k != "entry_hash"}
    return sha256_hex(canonical_json(body))


def _parse(path: Path) -> tuple[list[dict], int | None]:
    """Entries up to the first line that is not valid UTF-8 JSON, and that
    line's number (None when every line parses). Blank lines are skipped."""
    entries = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
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

    def family(self) -> dict | None:
        return self._entries[0]["family"] if self._entries else None

    def replay_state(self) -> FallbackState:
        state = FallbackState(0, 0.0)
        for e in self._entries:
            if e.get("test_bearing"):
                state = state.advance(e["alpha_allocated"], bool(e.get("demonstrated")))
        return state

    def prior_gating_hashes(self) -> set[str]:
        hashes: set[str] = set()
        for e in self._entries:
            hashes.update(e.get("gating_hashes") or [])
        return hashes

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


def verify_ledger(ledger: AuditLedger | str | Path) -> dict:
    """Integrity replay. Never raises; returns a verdict dict with the index
    and description of the first inconsistency, if any.

    Checks, per entry: JSON shape, index order, hash-chain linkage, the
    entry's own content hash, family identity with entry 0, and the fallback
    alpha recurrence over test-bearing entries.
    """
    def bad(index, detail):
        return {"consistent": False, "first_inconsistency": index,
                "detail": detail, "n_entries": n}

    if isinstance(ledger, (str, Path)):
        path = Path(ledger)
        if not path.exists():
            return {"consistent": False, "first_inconsistency": None,
                    "detail": f"ledger file not found: {path}", "n_entries": 0}
        entries, bad_line = _parse(path)
        n = len(entries)
        if bad_line is not None:
            return bad(n, f"line {bad_line} is not valid JSON")
    else:
        entries = list(ledger.entries)
        n = len(entries)

    family = None
    state = FallbackState(0, 0.0)
    prev_hash = None
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            return bad(i, "entry is not an object")
        missing = [f for f in _REQUIRED_FIELDS if f not in e]
        if missing:
            return bad(i, f"missing fields {missing}")
        if e["index"] != i:
            return bad(i, f"index {e['index']} at position {i}")
        if e["prev_hash"] != prev_hash:
            return bad(i, "broken hash chain")
        if entry_hash(e) != e["entry_hash"]:
            return bad(i, "entry hash does not match content")
        if i == 0:
            family = e["family"]
        elif e["family"] != family:
            return bad(i, "family snapshot differs from entry 0")
        try:
            allocated = float(e["alpha_allocated"])
            carried_in = float(e["alpha_carried_in"])
            carried_out = float(e["alpha_carried_out"])
        except (TypeError, ValueError):
            return bad(i, "non-numeric alpha fields")
        if e["test_bearing"]:
            alpha = float(family["alpha"])
            weights = tuple(float(w) for w in family["weights"])
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
        prev_hash = e["entry_hash"]
    return {"consistent": True, "first_inconsistency": None, "detail": None,
            "n_entries": n}
