"""The report form of a result or a setting (`plain`), the serialisation
rule shared by reports, the ledger and their hashes, the JSON they are
read back under, and the fallback alpha recurrence the ledger replays.

Standard library only: `verify-ledger` and `report` run on this module
without loading numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Mapping
from typing import NamedTuple


def plain(obj):
    """The report form of `obj`: its own as_plain() where it has one,
    checked first so that a named tuple keeps its form; else a dataclass as
    its fields, a tuple or list as a list, a mapping value by value, and a
    path as its string, each part in its report form. Anything else, numpy
    values included, is left for canonical_json to write."""
    as_plain = getattr(obj, "as_plain", None)
    if as_plain is not None:
        return as_plain()
    if hasattr(type(obj), "__dataclass_fields__"):
        return plain_fields(obj)
    if isinstance(obj, (tuple, list)):
        return [plain(v) for v in obj]
    if isinstance(obj, Mapping):
        return {k: plain(v) for k, v in obj.items()}
    return os.fspath(obj) if isinstance(obj, os.PathLike) else obj


def plain_fields(obj) -> dict:
    """The dataclass `obj` as its fields, in order, each in its report form."""
    from dataclasses import fields  # loaded already: obj's class is a dataclass
    return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}


def _numpy_value(obj):
    # numpy scalars and arrays, told apart without importing numpy; tolist()
    # gives the Python value (an array: nested lists of them), except for a
    # long double, which no Python type holds
    if type(obj).__module__ == "numpy" and hasattr(obj, "tolist"):
        value = obj.tolist()
        if type(value) is not type(obj):
            return value
        if obj.dtype.kind == "f":
            return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# one encoder for every call: json.dumps would build one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                            default=_numpy_value)


def canonical_json(obj) -> str:
    """Serialize to the canonical JSON form used for hashing and reports.

    Keys sorted, no whitespace, floats in shortest round-trip form, NaN and
    infinity rejected (ValueError), tuples written as lists, numpy scalars
    and arrays as their Python values. Two structurally equal objects always
    produce the same bytes.

    Keys must be strings: json would write a key True as "true" and sort
    integer keys by value. Every mapping the program emits is keyed by
    text, as config keys are converted to str and boolean keys are refused
    at load.
    """
    return _ENCODER.encode(obj)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


# canonical JSON never writes NaN or Infinity, which json.loads accepts
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def parse_json(text: str):
    """Read JSON as statcert accepts it: what json.loads reads, except that
    a NaN, Infinity or -Infinity literal is ValueError, like text that is
    not JSON. Nesting too deep for the parser is RecursionError."""
    return _DECODER.decode(text)


class NonFiniteNumber(ValueError):
    """A number literal, such as 1e999, that reads as infinity: valid JSON
    that has no canonical form."""


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise NonFiniteNumber(f"{text} reads as {value}")
    return value


class _FiniteFloats(dict):
    """Float literal -> its value under _finite_float, kept as the scanner
    meets each literal. The ledger decoder's parse_float is this dict's
    __getitem__, so a kept literal (alphas, weights and carries recur on
    every line) is read without a Python call. It keeps at most BOUND
    literals of at most LONGEST characters each (a float's shortest
    spelling takes 24 at most) and empties itself when full, so its memory
    is bounded whatever the ledger holds. A literal that reads as infinity
    raises NonFiniteNumber and is not kept."""

    BOUND = 1024
    LONGEST = 32

    def __missing__(self, literal: str) -> float:
        value = _finite_float(literal)
        if len(literal) <= self.LONGEST:
            if len(self) >= self.BOUND:
                self.clear()
            self[literal] = value
        return value


_FINITE_FLOATS = _FiniteFloats()
_FINITE_DECODER = json.JSONDecoder(parse_constant=_refuse_constant,
                                   parse_float=_FINITE_FLOATS.__getitem__)
_scan_finite = _FINITE_DECODER.scan_once


def parse_finite_json(text: str):
    """parse_json(text), except that a number literal that reads as
    infinity raises NonFiniteNumber, a ValueError. The ledger reads its
    lines under this rule.

    A line as `append` writes it, one JSON value from the first character
    to a final newline, is read by one call of the scanner. Any other text
    (leading whitespace, a CRLF ending, extra data, no newline, no value)
    is decoded again in full, so it is read, or refused, exactly as the
    decoder reads it, with its error and message."""
    try:
        value, end = _scan_finite(text, 0)
    except StopIteration:  # no value at the first character
        pass
    else:
        if end == len(text) - 1 and text[end] == "\n":
            return value
    return _FINITE_DECODER.decode(text)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class FallbackState(NamedTuple):
    """Position in the fallback recurrence: how many hypotheses have been
    tested and the alpha carried into the next one.

    This is the one statement of the rule that the procedure, the
    simulator, and the certification ledger all replay. The carry may be a
    numpy array to advance many independent sequences at once. A named
    tuple, not a frozen dataclass, like `ledger.Replay`: `dataclasses`
    loads `inspect`, which `verify-ledger` and `report` need not pay for.
    """

    tests_done: int
    carry: float

    def next_alpha(self, family_alpha: float, weights) -> float:
        """alpha_i = carry + alpha * w_i, with w_i = 0 past the last weight."""
        w = weights[self.tests_done] if self.tests_done < len(weights) else 0.0
        return self.carry + family_alpha * w

    def advance(self, allocated, rejected) -> "FallbackState":
        """A rejection passes its whole allocation forward; a failure passes
        nothing."""
        return FallbackState(self.tests_done + 1, allocated * rejected)
