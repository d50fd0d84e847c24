"""Append-only certification ledger.

One JSON object per line, each line ending with a newline as `append`
writes it, so line N holds entry N-1: a blank line, or two entries joined
by a lone carriage return, is not valid JSON, and a last line without its
newline is refused too, so no append glues an entry onto it. Each entry
carries the SHA-256 of the previous entry and of its own canonical
serialization, so any edit, deletion, or reordering after the fact is
detectable by replay. Replay hashes the bytes each line holds, less its
line ending and its `"entry_hash"` member, not a re-encoding of what it
parsed from them, so a line that is no longer the canonical form `append`
wrote (keys sorted, no spaces, every float in its shortest round-trip
spelling) no longer matches its hash, and a number that reads as infinity
is refused whatever the hash. The hash binds the bytes, not their form: a
line out of canonical form whose hash was taken on its own bytes
verifies. Alpha allocations across entries follow the fallback
recurrence over the family frozen at entry 0: a test-bearing entry i
receives carry + alpha * w_i, and passes its whole allocation
forward only if it demonstrated its requirement; its gating data must be
fresh, so a gating hash an earlier entry consumed is an inconsistency.
Each entry records the report schema version it was written under,
because its dataset hashes and p-values are only comparable within one
version (`SCHEMA_CHANGES` says what each version changed). Every read
streams the file a line at a time, so no command holds the whole ledger
in memory. A line that is one JSON value from its first byte to its final
newline, as `append` writes it, is read by one call of the JSON scanner;
any other line (leading whitespace, a CRLF ending, extra data) is decoded
again in full, so it reads, or is refused, as the decoder alone would
read it. The scanner reads float literals through a memo of bounded size,
emptied when full, since the same alphas, weights and carries recur on
every line (`canonical.parse_finite_json`).

The commands that write an entry keep two sidecar files beside the ledger,
neither part of the record: `<ledger>.lock`, which they hold under an
exclusive flock for their whole transaction, and `<ledger>.ckpt`, the state
a verified prefix of the ledger left, with that prefix's length and
SHA-256, from which the next such command resumes its replay instead of
walking every entry again. Deleting either costs time only. The hash chain
has no key, so the checkpoint is as trustworthy as the ledger beside it and
no more; `verify_ledger` never reads it.
"""

from __future__ import annotations

import contextlib
from datetime import datetime, timezone
import fcntl
import hashlib
import math
import os
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

from ..canonical import (
    FallbackState,
    NonFiniteNumber,
    canonical_json,
    parse_finite_json,
    parse_json,
    sha256_hex,
)
from ..errors import LedgerCorrupt
from .report import SCHEMA_VERSION

ALPHA_TOL = 1e-12

# the fields an entry records from its writer (see AuditLedger.append); the
# ledger adds the rest
_RECORDED_FIELDS = (
    "kind", "model_id", "family", "dataset_hashes", "gating_hashes", "seed",
    "test_bearing", "alpha_allocated", "alpha_carried_in", "alpha_carried_out",
    "decisions", "demonstrated", "verdict",
)
_RECORDED = frozenset(_RECORDED_FIELDS)
_REQUIRED_FIELDS = ("index", "timestamp", *_RECORDED_FIELDS, "prev_hash", "entry_hash")
_REQUIRED = frozenset(_REQUIRED_FIELDS)

# bump whenever the walk gains a check, so no checkpoint vouches for a
# prefix that an older walk verified
_CHECKPOINT_VERSION = 3
_CHUNK = 1 << 20  # bytes read at a time when a checkpoint's prefix is hashed


def entry_hash(entry: Mapping) -> str:
    body = dict(entry)
    body.pop("entry_hash", None)
    return sha256_hex(canonical_json(body))


def _sidecar(path: Path, suffix: str) -> Path:
    return path.with_name(path.name + suffix)


def sidecars(path: Path) -> dict[Path, str]:
    """The files a write command keeps beside the ledger at `path`, each
    with what it is."""
    return {_sidecar(path, ".ckpt"): "checkpoint", _sidecar(path, ".lock"): "lock file"}


class _BadLine(LedgerCorrupt):
    """The line after `entries` entries, which is not valid UTF-8 JSON
    ("is not valid JSON") or, the last, has no newline ("has no newline")."""

    def __init__(self, path: Path, entries: int, problem: str):
        line = entries + 1
        super().__init__(f"{path}:{line}: {problem.removeprefix('is ')}")
        self.entries, self.detail = entries, f"line {line} {problem}"


class _Cursor(NamedTuple):
    """A line boundary in a ledger file: the bytes and entries before it."""

    offset: int = 0
    entries: int = 0


class _Reader:
    """The lines of a ledger file in order from a cursor, each with the
    entry parsed from it, one line at a time, so memory does not grow with
    the ledger. A line that holds a number reading as infinity comes as
    None with its parse, since no bytes hash to an entry with no canonical
    form. A line that is not valid UTF-8 JSON raises _BadLine, a NaN or
    Infinity literal making its line invalid, and so does a last line that
    parses but has no newline. Read to the end, it holds the cursor there
    (`at`); a `digest` it is given takes every byte it reads."""

    def __init__(self, path: Path, at: _Cursor = _Cursor(), digest=None):
        self.path, self.at, self.digest = path, at, digest

    def __iter__(self) -> Iterator:
        (offset, entries), digest = self.at, self.digest
        with self.path.open("rb") as fh:
            fh.seek(offset)
            for line in fh:
                if digest is not None:
                    digest.update(line)
                try:
                    text = line.decode("utf-8")
                    try:
                        held, entry = line, parse_finite_json(text)
                    except NonFiniteNumber:
                        held, entry = None, parse_json(text)
                except (ValueError, RecursionError):  # not UTF-8, not JSON, too deep
                    raise _BadLine(self.path, entries, "is not valid JSON") from None
                if not line.endswith(b"\n"):
                    raise _BadLine(self.path, entries, "has no newline")
                offset, entries = offset + len(line), entries + 1
                yield held, entry
        self.at = _Cursor(offset, entries)


class AuditLedger:
    """File-backed entry sequence. Building one reads nothing; each read
    streams the file, a missing file being an empty ledger, and raises
    LedgerCorrupt at a line that is not JSON or a last line without its
    newline; verify_ledger(path) is the check that never raises. append
    continues from the tail (the entry count and the last entry) that the
    last read to the end or append left, so a series of appends reads the
    file at most once. A writer holds lock() from the read its entry
    continues from to the append, and sync()s the append."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._tail: tuple[int, dict | None] | None = None

    def _stream(self, reader: _Reader | None = None, last: dict | None = None) -> Iterator:
        # the reader's lines with their entries from its cursor, `last`
        # being the entry before them
        reader = reader or _Reader(self.path)
        count = reader.at.entries
        if reader.at.offset or self.path.exists():
            for line, last in reader:
                count += 1
                yield line, last
        self._tail = (count, last)

    def _known_tail(self) -> tuple[int, dict | None]:
        if self._tail is None:
            for _ in self._stream():
                pass
        return self._tail

    @property
    def entries(self) -> tuple[dict, ...]:
        return tuple(entry for _, entry in self._stream())

    def __len__(self) -> int:
        return self._known_tail()[0]

    def lock(self) -> IO:
        """Wait for an exclusive flock on `<ledger>.lock` and return the open
        lock file; closing it releases the lock."""
        fh = _sidecar(self.path, ".lock").open("ab")
        try:
            fcntl.flock(fh, fcntl.LOCK_EX)
        except BaseException:
            fh.close()
            raise
        return fh

    # views of one replay_ledger walk, for a caller that needs one field:
    # bench/traced.py times the runner's stages through them
    def replay_state(self) -> FallbackState:
        return replay_ledger(self).state

    def prior_gating_hashes(self) -> set[str]:
        return set(replay_ledger(self).consumed)

    def append(self, **recorded) -> dict:
        """Write the entry of the `recorded` fields, which are exactly those
        _RECORDED_FIELDS names (TypeError otherwise): `family` and
        `dataset_hashes` are mappings, `gating_hashes` an iterable of
        strings, the rest JSON values."""
        if recorded.keys() != _RECORDED:
            missing = [f for f in _RECORDED_FIELDS if f not in recorded]
            extra = sorted(recorded.keys() - _RECORDED)
            raise TypeError(f"append() takes the fields {list(_RECORDED_FIELDS)}; "
                            f"missing {missing}, unexpected {extra}")
        count, last = self._known_tail()
        entry = {
            **recorded,
            "index": count,
            "schema_version": SCHEMA_VERSION,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "family": dict(recorded["family"]),
            "dataset_hashes": dict(sorted(recorded["dataset_hashes"].items())),
            "gating_hashes": sorted(recorded["gating_hashes"]),
            "prev_hash": last["entry_hash"] if last is not None else None,
        }
        entry["entry_hash"] = entry_hash(entry)
        with self.path.open("ab") as fh:
            fh.write((canonical_json(entry) + "\n").encode("utf-8"))
        self._tail = (count + 1, entry)
        return entry

    def sync(self) -> None:
        """fsync the ledger file, so the lines appended so far survive a
        crash. Each write command syncs once its entry is appended."""
        with self.path.open("ab") as fh:
            os.fsync(fh.fileno())


class Replay(NamedTuple):
    """What the one walk over a ledger's entries yields: the integrity
    verdict and, from a consistent ledger, what the next entry is written
    against. The fields after n_entries keep their defaults on an
    inconsistent ledger. A named tuple, not a frozen dataclass: every
    command imports this module, and a dataclass takes about ten times as
    long to create."""

    consistent: bool
    first_inconsistency: int | None
    detail: str | None
    n_entries: int
    state: FallbackState = FallbackState(0, 0.0)
    # every entry's gating hashes, each with the index of the first entry that held it
    consumed_at: Mapping[str, int] = MappingProxyType({})
    first: dict | None = None  # entry 0
    older: dict | None = None  # the first entry written under another schema version
    last: dict | None = None  # the last entry

    @property
    def family(self) -> dict | None:
        return None if self.first is None else self.first["family"]

    @property
    def consumed(self) -> frozenset[str]:
        return frozenset(self.consumed_at)

    def as_plain(self) -> dict:
        return {"consistent": self.consistent,
                "first_inconsistency": self.first_inconsistency,
                "detail": self.detail, "n_entries": self.n_entries}


_EMPTY = Replay(True, None, None, 0)


def replay_ledger(ledger: AuditLedger | str | Path) -> Replay:
    """Integrity replay, one streaming pass over every entry, reading no
    checkpoint. On a path it never raises, whatever the path names or the
    file holds; an inconsistent ledger yields the index and description of
    its first inconsistency. An AuditLedger's replay raises LedgerCorrupt
    at a line that is not JSON or a last line without its newline, as its
    every read does, and leaves the tail its next append continues from.

    Checks, per entry: JSON shape, index order, hash-chain linkage, the
    entry's own content hash (SHA-256 of its line's bytes without the line
    ending and the `entry_hash` member, which on every line `append` writes
    are the canonical JSON of the rest of the entry; a number that reads as
    infinity has none), family identity with
    entry 0, the fallback alpha recurrence over test-bearing entries,
    gating hashes that are a list of strings, and, on a test-bearing entry,
    gating hashes that no earlier entry consumed. Entry 0's family must
    carry a numeric `alpha` and a sequence of numeric `weights`; they are
    read once, there. The schema version is not checked: an entry written
    under another one is reported in `older`, because it is consistent,
    only not comparable.
    """
    if isinstance(ledger, AuditLedger):
        return _walk(ledger._stream())
    path = Path(ledger)
    if not path.exists():
        return Replay(False, None, f"ledger file not found: {path}", 0)
    try:
        return _walk(_Reader(path))
    except _BadLine as e:
        return Replay(False, e.entries, e.detail, e.entries)
    except OSError as e:  # a directory, or a file this process may not read
        return Replay(False, None, f"cannot read ledger: {e}", 0)


def resume_replay(ledger: AuditLedger) -> Replay:
    """replay_ledger(ledger) for a command that appends to it, under its
    lock(). The entries that `<ledger>.ckpt` covers are not walked again
    while the ledger still starts with the bytes the checkpoint was written
    for; a checkpoint that is missing, unreadable or does not match is
    ignored, and the ledger replayed in full. When the walk verified
    entries the checkpoint did not cover, it is rewritten for the whole
    ledger; a failure to write it changes nothing else."""
    start, reader = (_resume_point(ledger.path)
                     or (_EMPTY, _Reader(ledger.path, digest=hashlib.sha256())))
    replayed = _walk(ledger._stream(reader, start.last), start)
    if replayed.consistent and replayed.n_entries > start.n_entries:
        _write_checkpoint(ledger.path, replayed, reader)
    return replayed


def _family_numbers(family) -> tuple[float, tuple[float, ...]]:
    return float(family["alpha"]), tuple(float(w) for w in family["weights"])


_HASH_KEY = b',"entry_hash":"'


def _hashes_to(line: bytes, recorded) -> bool:
    """Whether the line, without its line ending and its first
    `,"entry_hash":"<recorded>"` member, has the SHA-256 `recorded`. Keys
    are sorted, so that member sits between `demonstrated` and `family` on
    every line `append` writes. A cut at a copy of the member nested
    earlier leaves `recorded` in the bytes hashed, which then match only at
    a fixed point of SHA-256."""
    if type(recorded) is not str or len(recorded) != 64 or not recorded.isascii():
        return False
    member = b"".join((_HASH_KEY, recorded.encode("ascii"), b'"'))
    before, found, after = line.partition(member)
    if not found:
        return False
    digest = hashlib.sha256(before)
    digest.update(after[:-2] if after.endswith(b"\r\n") else after[:-1])
    return digest.hexdigest() == recorded


def _hash_detail(entry: dict) -> str:
    """Why an entry's line does not hash to its recorded hash, from the one
    re-encode that only a refused line costs."""
    try:
        content_hash = entry_hash(entry)
    except (ValueError, RecursionError):  # 1e999 parses as infinity; deep nesting
        return "entry content has no canonical JSON form"
    if content_hash == entry["entry_hash"]:
        return "entry line is not canonical JSON"
    return "entry hash does not match content"


def _walk(lines: Iterable, start: Replay = _EMPTY) -> Replay:
    """replay_ledger's checks on the lines, each with its entry, after the
    entries `start` replayed, keeping only what the next entry needs.
    `start` is the consistent replay of the entries before them; a full
    replay starts from the empty one."""
    walk = enumerate(lines, start.n_entries)

    def bad(index, detail):
        # the rest is parsed but not checked: a line that is not JSON
        # anywhere outranks an earlier inconsistency, and every entry counts
        return Replay(False, index, detail, index + 1 + sum(1 for _ in walk))

    first, older, last, state, n = (start.first, start.older, start.last, start.state,
                                    start.n_entries)
    consumed = dict(start.consumed_at)
    family = alpha = weights = prev_hash = None
    if first is not None:
        family, (alpha, weights) = first["family"], _family_numbers(first["family"])
        prev_hash = last["entry_hash"]
    has_fields, isclose = _REQUIRED.issubset, math.isclose
    for i, (line, e) in walk:
        if not isinstance(e, dict):
            return bad(i, "entry is not an object")
        if not has_fields(e):
            return bad(i, f"missing fields {[f for f in _REQUIRED_FIELDS if f not in e]}")
        if e["index"] != i:
            return bad(i, f"index {e['index']} at position {i}")
        if e["prev_hash"] != prev_hash:
            return bad(i, "broken hash chain")
        if line is None or not _hashes_to(line, e["entry_hash"]):
            return bad(i, _hash_detail(e))
        if i == 0:
            first, family = e, e["family"]
            try:
                alpha, weights = _family_numbers(family)
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
        test_bearing = e["test_bearing"]
        if test_bearing:
            if not isclose(carried_in, state.carry, abs_tol=ALPHA_TOL):
                return bad(i, f"carried-in alpha {carried_in} != replayed {state.carry}")
            expect = state.next_alpha(alpha, weights)
            if not isclose(allocated, expect, abs_tol=ALPHA_TOL):
                return bad(i, f"allocated alpha {allocated} != replayed {expect}")
            state = state.advance(allocated, bool(e["demonstrated"]))
            if not isclose(carried_out, state.carry, abs_tol=ALPHA_TOL):
                return bad(i, f"carried-out alpha {carried_out} != replayed {state.carry}")
        else:
            if allocated != 0.0:
                return bad(i, "non-test entry spent alpha")
            carry = state.carry  # equal floats are close: most entries skip isclose
            if not (carried_in == carry == carried_out
                    or (isclose(carried_in, carry, abs_tol=ALPHA_TOL)
                        and isclose(carried_out, carry, abs_tol=ALPHA_TOL))):
                return bad(i, "non-test entry altered the alpha carry")
        gating = e["gating_hashes"]
        if type(gating) is not list or gating:  # most entries hold an empty list
            if not (isinstance(gating, list) and all(isinstance(h, str) for h in gating)):
                return bad(i, "gating hashes are not a list of strings")
            for h in gating:  # FWER control holds only on fresh data
                if test_bearing and h in consumed:
                    return bad(i, f"gating hash {h[:12]} was consumed by entry {consumed[h]}")
            for h in gating:
                consumed.setdefault(h, i)
        # entries without the field predate it: they were written under version 1
        if older is None and e.get("schema_version", 1) != SCHEMA_VERSION:
            older = e
        prev_hash, last, n = e["entry_hash"], e, i + 1
    return Replay(True, None, None, n, state, consumed, first, older, last)


def _resume_point(path: Path) -> tuple[Replay, _Reader] | None:
    """The replay of the prefix `<ledger>.ckpt` covers and a reader at its
    end that carries on the prefix's digest, or None. The checkpoint is
    used only if it was written under this schema version (it names the
    first entry of another one), the ledger's first bytes hash to the
    prefix's SHA-256, and the ledger's own entry 0, its first line, and the
    prefix's last entry give the checkpoint's entry 0, entry count and
    carry. That last entry is the line that ends the prefix's final
    `_CHUNK` bytes, read in the hash's own pass, so a last line of `_CHUNK`
    bytes or more means a full replay."""
    try:
        ck = parse_json(_sidecar(path, ".ckpt").read_bytes().decode("utf-8"))
        size, count, tests = ck["bytes"], ck["entries"], ck["tests_done"]
        consumed, older = ck["consumed"], ck["older"]
        # `older` was judged against the writer's schema version
        if not (ck["version"] == _CHECKPOINT_VERSION
                and ck["schema_version"] == SCHEMA_VERSION
                and all(type(v) is int for v in (size, count, tests))
                and size > 0 and count >= 1 and tests >= 0
                and isinstance(consumed, dict)
                and all(type(v) is int for v in consumed.values())
                and (older is None or isinstance(older, dict))):
            return None
        digest, left, step = hashlib.sha256(), size, (size - 1) % _CHUNK + 1
        with path.open("rb") as fh:
            first = parse_json(fh.readline().decode("utf-8"))
            fh.seek(0)
            while left:  # the last block read is the prefix's final _CHUNK bytes
                block = fh.read(step)
                if len(block) < step:  # the ledger is shorter than the prefix
                    return None
                digest.update(block)
                left, step = left - step, _CHUNK
        start = block.rfind(b"\n", 0, -1) + 1
        if (digest.hexdigest() != ck["sha256"] or not block.endswith(b"\n")
                or (start == 0 and len(block) < size)):
            return None
        last = parse_json(block[start:].decode("utf-8"))
        if (not all(isinstance(e, dict) and _REQUIRED.issubset(e) for e in (first, last))
                or first != ck["first"] or last["index"] + 1 != count):
            return None
        carry = float(last["alpha_carried_out"])
        if repr(carry) != repr(float(ck["carry"])):
            return None
        _family_numbers(first["family"])
    except (OSError, ValueError, RecursionError, KeyError, TypeError, OverflowError):
        return None
    replay = Replay(True, None, None, count, FallbackState(tests, carry), consumed,
                    first, older, last)
    return replay, _Reader(path, _Cursor(size, count), digest)


def _write_checkpoint(path: Path, replayed: Replay, reader: _Reader) -> None:
    """Record the replay of the ledger's bytes the reader read, by rename
    and without fsync: the file is a cache."""
    state = replayed.state
    body = canonical_json({
        "version": _CHECKPOINT_VERSION, "schema_version": SCHEMA_VERSION,
        "bytes": reader.at.offset,
        "sha256": reader.digest.hexdigest(), "entries": replayed.n_entries,
        "tests_done": state.tests_done, "carry": state.carry,
        "consumed": dict(replayed.consumed_at), "first": replayed.first,
        "older": replayed.older})
    target = _sidecar(path, ".ckpt")
    staged = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        staged.write_bytes(body.encode("utf-8"))
        os.replace(staged, target)
    except OSError:  # the next command replays in full, and that is all
        with contextlib.suppress(OSError):
            staged.unlink()


def verify_ledger(ledger: AuditLedger | str | Path) -> dict:
    """The verdict of replay_ledger as a plain dict: `consistent`,
    `first_inconsistency`, `detail` and `n_entries`."""
    return replay_ledger(ledger).as_plain()
