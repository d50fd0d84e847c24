"""Append-only certification ledger.

One JSON object per line. Each entry carries the SHA-256 of the previous
entry and of its own canonical serialization, so any edit, deletion, or
reordering after the fact is detectable by replay. Alpha allocations across
entries follow the fallback recurrence over the family frozen at entry 0:
a test-bearing entry i receives carry + alpha * w_i, and passes its whole
allocation forward only if it demonstrated its requirement. Each entry
records the report schema version it was written under, because dataset
hashes are only comparable within one version. Every read streams the file
a line at a time, so no command holds the whole ledger in memory.
"""

from __future__ import annotations

from datetime import datetime, timezone
import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

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


class _BadLine(LedgerCorrupt):
    """A line that is not valid UTF-8 JSON, read after `entries` entries."""

    def __init__(self, path: Path, line: int, entries: int):
        super().__init__(f"{path}:{line}: not valid JSON")
        self.line, self.entries = line, entries


def _read(path: Path) -> Iterator:
    """The entries of a ledger file in order, parsed one line at a time, so
    memory does not grow with the ledger. Blank lines are skipped; a line
    that is not valid UTF-8 JSON raises _BadLine, and a NaN or Infinity
    literal makes its line invalid."""
    lineno = entries = 0
    with path.open("rb") as fh:
        for chunk in fh:
            # a lone \r ends a line too, as in a split of the whole file
            for line in chunk.splitlines():
                lineno += 1
                if not line.strip():
                    continue
                try:
                    entry = parse_json(line.decode("utf-8"))
                except (ValueError, RecursionError):  # not UTF-8, not JSON, too deep
                    raise _BadLine(path, lineno, entries) from None
                entries += 1
                yield entry


class AuditLedger:
    """File-backed entry sequence. Building one reads nothing; each read
    streams the file, a missing file being an empty ledger, and raises
    LedgerCorrupt at a line that is not JSON; verify_ledger(path) is the
    check that never raises. append continues from the tail (the entry
    count and the last entry) that the last read to the end or append
    left, so a series of appends reads the file at most once."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._tail: tuple[int, dict | None] | None = None

    def _stream(self) -> Iterator:
        count, last = 0, None
        if self.path.exists():
            for last in _read(self.path):
                count += 1
                yield last
        self._tail = (count, last)

    def _known_tail(self) -> tuple[int, dict | None]:
        if self._tail is None:
            for _ in self._stream():
                pass
        return self._tail

    @property
    def entries(self) -> tuple[dict, ...]:
        return tuple(self._stream())

    def __len__(self) -> int:
        return self._known_tail()[0]

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
        count, last = self._known_tail()
        entry = {
            "index": count,
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
            "prev_hash": last["entry_hash"] if last is not None else None,
        }
        entry["entry_hash"] = entry_hash(entry)
        with self.path.open("a") as fh:
            fh.write(canonical_json(entry) + "\n")
        self._tail = (count + 1, entry)
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
    first: dict | None = None  # entry 0
    older: dict | None = None  # the first entry written under another schema version

    @property
    def family(self) -> dict | None:
        return None if self.first is None else self.first["family"]

    def as_plain(self) -> dict:
        return {"consistent": self.consistent,
                "first_inconsistency": self.first_inconsistency,
                "detail": self.detail, "n_entries": self.n_entries}


def replay_ledger(ledger: AuditLedger | str | Path) -> Replay:
    """Integrity replay, one streaming pass over the entries. On a path it
    never raises, whatever the path names or the file holds; an inconsistent
    ledger yields the index and description of its first inconsistency. An
    AuditLedger's replay raises LedgerCorrupt at a line that is not JSON, as
    its every read does, and leaves the tail its next append continues from.

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
    if isinstance(ledger, AuditLedger):
        return _walk(ledger._stream())
    path = Path(ledger)
    if not path.exists():
        return Replay(False, None, f"ledger file not found: {path}", 0)
    try:
        return _walk(_read(path))
    except _BadLine as e:
        return Replay(False, e.entries, f"line {e.line} is not valid JSON", e.entries)
    except OSError as e:  # a directory, or a file this process may not read
        return Replay(False, None, f"cannot read ledger: {e}", 0)


def _walk(entries: Iterator) -> Replay:
    """replay_ledger's checks, keeping only what the next entry needs."""
    walk = enumerate(entries)

    def bad(index, detail):
        # the rest is parsed but not checked: a line that is not JSON
        # anywhere outranks an earlier inconsistency, and every entry counts
        return Replay(False, index, detail, index + 1 + sum(1 for _ in walk))

    first = family = alpha = weights = older = prev_hash = None
    state, consumed, n = FallbackState(0, 0.0), set(), 0
    for i, e in walk:
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
            first, family = e, e["family"]
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
        prev_hash, n = e["entry_hash"], i + 1
    return Replay(True, None, None, n, state, frozenset(consumed), first, older)


def verify_ledger(ledger: AuditLedger | str | Path) -> dict:
    """The verdict of replay_ledger as a plain dict: `consistent`,
    `first_inconsistency`, `detail` and `n_entries`."""
    return replay_ledger(ledger).as_plain()
