"""Wire formats: the JSON input files, and the JSON and CSV bytes of every output.

Distribution files are either an explicit vector {"probs": [..]} or a named
family {"kind": "delta"|"uniform"|"pstar"|"geometric"|"poisson", "n": int,
"param": number} (param is the geometric ratio or the Poisson rate; other kinds
ignore it).  Strategy files are {"q": [..]} or {"kind": "threshold", "l": int};
performance profile tables are {"index": value, ..}, each read by
:func:`load_json`.  A file that cannot be read, is not UTF-8 text or not JSON,
that nests too deeply to parse or holds an integer literal beyond Python's
4300-digit conversion limit, a top-level value that is not a JSON object, a
``kind`` that is not a string, a vector entry, table value or ``param`` that is
not a JSON number, an ``n`` or ``l`` that is not a JSON integer, or a table key
that is not the canonical decimal spelling of a non-negative integer is a
malformed file (``InputFileError``); ``true`` and ``false`` are not numbers.
Vectors are handed to ``dist`` as parsed lists, converted to floats there once;
an integer beyond the float range there or in a scalar is out of range
(``ValidationError``), and so is a named family's ``n`` below 1 or above
``dist.MAX_ELEMS``, which the family's constructor refuses before it allocates.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from . import dist
from .errors import InputFileError, ValidationError
from .strategy import make_strategy, single_threshold

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


def _numbers(obj: dict, key: str) -> list:
    """obj[key], which must be a JSON array of numbers; ``dist`` converts it to floats once."""
    vals = obj[key]
    if not isinstance(vals, list) or not set(map(type, vals)) <= {int, float}:
        raise InputFileError(f"'{key}' must be an array of numbers")
    return vals


def distribution_from_json(obj) -> dist.HorizonDistribution:
    obj = _object(obj, "distribution file")
    if "probs" in obj:
        return dist._distribution(dist._floats(_numbers(obj, "probs"), "'probs'"))
    if "kind" in obj:
        kind = _string(obj["kind"], "'kind'")
        if kind not in _DIST_KINDS:
            raise ValidationError(f"unknown distribution kind {kind!r}")
        if "n" not in obj:
            raise ValidationError("named distribution needs a support bound 'n'")
        n = _integer(obj["n"], "'n'")
        param = _number(obj["param"], "'param'") if "param" in obj else None
        if kind in ("geometric", "poisson") and param is None:
            raise ValidationError(f"{kind} distribution needs 'param'")
        return _DIST_KINDS[kind](n, param)
    raise ValidationError("distribution object needs 'probs' or 'kind'")


def strategy_from_json(obj, n: int) -> np.ndarray:
    """A read-only acceptance vector; a threshold rule keeps the min(l, n) entries A reads on [n]."""
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


# entries per json.dumps call when json_text writes a long array: only one
# chunk's Python floats and repr strings are alive at a time
_CHUNK = 4096
# below this many entries one json.dumps call beats finding runs, even in a 0/1 vector of two runs
_RUNS_FROM = 128


def json_text(doc: dict) -> str:
    """One line of JSON with sorted keys, ending in a newline.

    The bytes are those of ``json.dumps(doc, sort_keys=True, separators=(", ",
    ": ")) + "\\n"`` with each numpy vector among the values of ``doc`` (an
    output vector such as ``q_opt``) read as its ``tolist()``.  Each key and
    value is encoded on its own and each vector by :func:`_array_pieces`; the
    pieces are joined once at the end, and only one chunk's Python floats are
    alive at a time.
    """
    pieces = []
    for key in sorted(doc):
        value = doc[key]
        pieces += [", " if pieces else "{", json.dumps(key), ": "]
        if isinstance(value, np.ndarray):
            pieces += _array_pieces(value)
        else:
            pieces.append(json.dumps(value, sort_keys=True, separators=(", ", ": ")))
    pieces.append("}\n")
    return "".join(pieces)


def _array_pieces(a: np.ndarray) -> list[str]:
    """Texts that join into ``json.dumps(a.tolist())``, for a 1-D vector of 8-byte entries.

    One ``json.dumps`` call writes a vector under ``_RUNS_FROM`` entries, and a
    longer one goes a chunk at a time.  When its runs of bit-equal entries average
    4 or more (an optimal strategy has a handful), each run's value is spelled once
    and that text repeated: a run costs about as much as 3 entries of a 0/1 vector
    encoded in chunks.  Equal means equal bits, so -0.0 and 0.0 are separate runs.
    """
    if a.size < _RUNS_FROM:
        return [json.dumps(a.tolist())]
    bits = a.view(np.uint64)
    changes = bits[1:] != bits[:-1]
    pieces = []  # a separator before each chunk or run; the first one becomes "["
    if 4 * (np.count_nonzero(changes) + 1) > a.size:
        for i in range(0, a.size, _CHUNK):
            pieces += [", ", json.dumps(a[i:i + _CHUNK].tolist())[1:-1]]
    else:
        starts = np.flatnonzero(np.concatenate([[True], changes]))
        lengths = np.diff(starts, append=a.size)
        for i in range(0, starts.size, _CHUNK):
            spelled = json.dumps(a[starts[i:i + _CHUNK]].tolist())[1:-1].split(", ")
            for s, k in zip(spelled, lengths[i:i + _CHUNK].tolist()):
                pieces += [", ", s, (", " + s) * (k - 1)]
    pieces[:1] = ["["]
    pieces.append("]")
    return pieces


def csv_text(rows: list[dict]) -> str:
    """Rows as CSV: a header of the first row's keys, then a line per row, LF endings."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def load_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise InputFileError(f"{path} is not UTF-8 text") from None
    except RecursionError:
        raise InputFileError(f"{path} nests too deeply to parse") from None
    except (ValueError, OSError) as exc:  # bad JSON, a digit-limit integer, an unreadable file
        raise InputFileError(str(exc)) from None
