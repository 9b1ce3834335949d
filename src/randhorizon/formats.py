"""JSON wire formats for distributions, strategies, and mixtures.

Distribution files are either an explicit vector {"probs": [..]} or a named
family {"kind": "delta"|"uniform"|"pstar"|"geometric"|"poisson", "n": int,
"param": number} (param is the geometric ratio or the Poisson rate; other
kinds ignore it).  Strategy files are {"q": [..]} or
{"kind": "threshold", "l": int}; mixtures are {"weights": [..]}; performance
profile tables are {"index": value, ..}.  A vector entry or table value that
is not a JSON number, or a table key that is not an integer, is a malformed
file (``InputFileError``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import dist
from .errors import InputFileError, ValidationError
from .strategy import Strategy, ThresholdMixture, make_strategy, single_threshold

_DIST_KINDS = {
    "delta": lambda n, param: dist.delta(n),
    "uniform": lambda n, param: dist.uniform(n),
    "pstar": lambda n, param: dist.worst_case_pstar(n),
    "geometric": lambda n, param: dist.geometric_truncated(param, n),
    "poisson": lambda n, param: dist.poisson_truncated(param, n),
}


def _numbers(obj: dict, key: str) -> np.ndarray:
    """obj[key], which must be a JSON array of numbers, as a float vector."""
    vals = obj[key]
    if not isinstance(vals, list) or not set(map(type, vals)) <= {int, float}:
        raise InputFileError(f"'{key}' must be an array of numbers")
    try:
        return np.array(vals, dtype=float)
    except OverflowError:
        raise ValidationError(f"'{key}' holds an integer beyond the float range") from None


def distribution_to_json(p: dist.HorizonDistribution) -> dict:
    return {"probs": list(map(float, p.probs))}


def distribution_from_json(obj: dict) -> dist.HorizonDistribution:
    if not isinstance(obj, dict):
        raise ValidationError("distribution file must hold a JSON object")
    if "probs" in obj:
        return dist.make_distribution(_numbers(obj, "probs"))
    if "kind" in obj:
        kind = obj["kind"]
        if kind not in _DIST_KINDS:
            raise ValidationError(f"unknown distribution kind {kind!r}")
        if "n" not in obj:
            raise ValidationError("named distribution needs a support bound 'n'")
        n = obj["n"]
        if not isinstance(n, int):
            raise ValidationError("'n' must be an integer")
        param = obj.get("param")
        if kind in ("geometric", "poisson") and param is None:
            raise ValidationError(f"{kind} distribution needs 'param'")
        return _DIST_KINDS[kind](n, param)
    raise ValidationError("distribution object needs 'probs' or 'kind'")


def strategy_to_json(strategy: Strategy) -> dict:
    return {"q": list(map(float, strategy.q))}


def strategy_from_json(obj: dict) -> Strategy:
    if not isinstance(obj, dict):
        raise ValidationError("strategy file must hold a JSON object")
    if "q" in obj:
        return make_strategy(_numbers(obj, "q"))
    if obj.get("kind") == "threshold":
        l = obj.get("l")
        if not isinstance(l, int):
            raise ValidationError("threshold strategy needs an integer 'l'")
        return single_threshold(l, l)
    raise ValidationError("strategy object needs 'q' or kind 'threshold'")


def mixture_to_json(mix: ThresholdMixture) -> dict:
    return {"weights": list(map(float, mix.weights))}


def mixture_from_json(obj: dict) -> ThresholdMixture:
    if not isinstance(obj, dict) or "weights" not in obj:
        raise ValidationError("mixture file must hold {'weights': [..]}")
    return ThresholdMixture(weights=_numbers(obj, "weights"))


def profile_table_from_json(obj: dict) -> dict[int, float]:
    """{index: value} table of a performance profile; keys are integer strings."""
    if not isinstance(obj, dict):
        raise ValidationError("profile table file must hold {index: value}")
    table = {}
    for key, value in obj.items():
        try:
            index = int(key)
        except ValueError:
            raise InputFileError(f"profile table key {key!r} is not an integer") from None
        if type(value) not in (int, float):
            raise InputFileError(f"profile table value at {key!r} is not a number")
        try:
            table[index] = float(value)
        except OverflowError:
            raise ValidationError(f"profile table value at {key!r} overflows a float") from None
    return table


def dump_json(obj, path: str | Path) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(", ", ": "), indent=None)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
