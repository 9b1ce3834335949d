"""JSON wire formats for distributions, strategies, and profile tables.

Distribution files are either an explicit vector {"probs": [..]} or a named
family {"kind": "delta"|"uniform"|"pstar"|"geometric"|"poisson", "n": int,
"param": number} (param is the geometric ratio or the Poisson rate; other
kinds ignore it).  Strategy files are {"q": [..]} or
{"kind": "threshold", "l": int}; performance profile tables are
{"index": value, ..}.  A file that is not UTF-8 text or not JSON, that nests
too deeply to parse or holds an integer literal beyond Python's 4300-digit
conversion limit, a top-level value that is not a JSON object, a ``kind``
that is not a string, a vector entry, table value or ``param`` that is not a
JSON number, an ``n`` or ``l`` that is not a JSON integer, or a table key that
is not the canonical decimal spelling of a non-negative integer is a malformed
file (``InputFileError``); ``true`` and ``false`` are not numbers.  An integer
beyond the float range, or a named family's ``n`` above ``dist.MAX_ELEMS``, is
out of range (``ValidationError``).
Outputs are written by :func:`json_text`, the one JSON encoding of the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import dist
from .errors import InputFileError, ValidationError
from .strategy import Strategy, make_strategy, single_threshold

_DIST_KINDS = {
    "delta": lambda n, param: dist.delta(n),
    "uniform": lambda n, param: dist.uniform(n),
    "pstar": lambda n, param: dist.worst_case_pstar(n),
    "geometric": lambda n, param: dist.geometric_truncated(param, n),
    "poisson": lambda n, param: dist.poisson_truncated(param, n),
}


def _object(value, what: str) -> dict:
    """A JSON object."""
    if not isinstance(value, dict):
        raise InputFileError(f"{what} must hold a JSON object")
    return value


def _string(value, what: str) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise InputFileError(f"{what} is not a string")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer, not a bool."""
    if type(value) is not int:
        raise InputFileError(f"{what} is not an integer")
    return value


def _number(value, what: str) -> float:
    """A JSON number, not a bool, as a float."""
    if type(value) not in (int, float):
        raise InputFileError(f"{what} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} overflows a float") from None


def _numbers(obj: dict, key: str) -> np.ndarray:
    """obj[key], which must be a JSON array of numbers, as a float vector."""
    vals = obj[key]
    if not isinstance(vals, list) or not set(map(type, vals)) <= {int, float}:
        raise InputFileError(f"'{key}' must be an array of numbers")
    try:
        return np.array(vals, dtype=float)
    except OverflowError:
        raise ValidationError(f"'{key}' holds an integer beyond the float range") from None


def distribution_from_json(obj) -> dist.HorizonDistribution:
    obj = _object(obj, "distribution file")
    if "probs" in obj:
        return dist.make_distribution(_numbers(obj, "probs"))
    if "kind" in obj:
        kind = _string(obj["kind"], "'kind'")
        if kind not in _DIST_KINDS:
            raise ValidationError(f"unknown distribution kind {kind!r}")
        if "n" not in obj:
            raise ValidationError("named distribution needs a support bound 'n'")
        n = _integer(obj["n"], "'n'")
        if n > dist.MAX_ELEMS:
            raise ValidationError(f"'n' = {n} exceeds the cap of {dist.MAX_ELEMS} elements")
        param = _number(obj["param"], "'param'") if "param" in obj else None
        if kind in ("geometric", "poisson") and param is None:
            raise ValidationError(f"{kind} distribution needs 'param'")
        return _DIST_KINDS[kind](n, param)
    raise ValidationError("distribution object needs 'probs' or 'kind'")


def strategy_from_json(obj, n: int) -> Strategy:
    """A strategy for support [n]; a threshold rule keeps min(l, n) entries, all A(p, q) reads."""
    obj = _object(obj, "strategy file")
    if "q" in obj:
        return make_strategy(_numbers(obj, "q"))
    if "kind" in obj and _string(obj["kind"], "'kind'") == "threshold":
        if "l" not in obj:
            raise ValidationError("threshold strategy needs an integer 'l'")
        l = _integer(obj["l"], "'l'")
        return single_threshold(l, min(l, n))
    raise ValidationError("strategy object needs 'q' or kind 'threshold'")


def profile_table_from_json(obj) -> dict[int, float]:
    """{index: value} table of a performance profile; keys are decimal integers.

    Only the canonical spelling of a non-negative integer is a key ("10", not
    "1_0", " 10", "+10" or "010"), so two keys never name one index.
    """
    table = {}
    for key, value in _object(obj, "profile table file").items():
        try:
            index = int(key)
        except ValueError:
            index = -1
        if index < 0 or key != str(index):
            raise InputFileError(f"profile table key {key!r} is not a non-negative decimal integer")
        table[index] = _number(value, f"profile table value at {key!r}")
    return table


def json_text(obj) -> str:
    """One line of JSON with sorted keys, ending in a newline."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n"


def load_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise InputFileError(f"{path} is not UTF-8 text") from None
    except RecursionError:
        raise InputFileError(f"{path} nests too deeply to parse") from None
    except ValueError as exc:  # bad JSON, or an integer beyond Python's digit limit
        raise InputFileError(str(exc)) from None
