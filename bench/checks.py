"""Output checks for benchmark ops.

Each check reads only the op's output and inputs and recomputes what it needs
with plain numpy, independently of the library.  Monte Carlo outputs are
checked against exact values by a 4-standard-error rule, so the checks still
hold when an RNG stream changes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _probs(path: str) -> np.ndarray:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if "probs" in obj:
        p = np.asarray(obj["probs"], dtype=float)
        return p / p.sum()
    n = obj["n"]
    if obj["kind"] == "uniform":
        return np.full(n, 1.0 / n)
    if obj["kind"] == "delta":
        p = np.zeros(n)
        p[-1] = 1.0
        return p
    raise ValueError(f"no reference probs for kind {obj['kind']!r}")


def success_probability(p: np.ndarray, q: np.ndarray) -> float:
    """A(p, q) = sum_i U_{i-1} q_i lambda_i with lambda_i = sum_{l>=i} p_l / l."""
    idx = np.arange(1, p.size + 1)
    lam = np.cumsum((p / idx)[::-1])[::-1]
    u_prev = np.concatenate([[1.0], np.cumprod(1.0 - q / idx)[:-1]])
    return float(np.sum(u_prev * q * lam))


def classical_value(n: int, cutoff: int) -> float:
    """Success probability of the cutoff rule when exactly n items arrive."""
    if cutoff == 1:
        return 1.0 / n
    return (cutoff - 1) / n * sum(1.0 / (j - 1) for j in range(cutoff, n + 1))


def _within(rate: float, exact: float, stderr: float) -> bool:
    return abs(rate - exact) <= 4.0 * stderr + TOL


def _check_pass_column(out: str, extra: str, spec: dict) -> str | None:
    rows = _rows(out)
    if not rows or any(r["pass"] != "1" for r in rows):
        return "a row has pass != 1"
    return None


def _check_solve(out: str, extra: str, spec: dict) -> str | None:
    r = json.loads(out)
    value, theta, tv = r["value"], r["theta"], r["threshold_value"]
    if not (theta / math.e <= tv + TOL and tv <= value + TOL and value <= theta + TOL):
        return f"sandwich theta/e <= threshold_value <= value <= theta fails: {theta}, {tv}, {value}"
    a = success_probability(_probs(spec["dist"]), np.asarray(r["q_opt"], dtype=float))
    if abs(a - value) > TOL:
        return f"A(p, q_opt) = {a} but value = {value}"
    return None


def _check_eval(out: str, extra: str, spec: dict) -> str | None:
    r = json.loads(out)
    if abs(r["value"] - r["value_pform"]) > TOL:
        return f"value {r['value']} != value_pform {r['value_pform']}"
    return None


def _check_minimax(out: str, extra: str, spec: dict) -> str | None:
    r = json.loads(out)
    if abs(r["rate"] - r["bound"]) > TOL:
        return f"rate {r['rate']} != bound {r['bound']}"
    return None


def _check_meta(out: str, extra: str, spec: dict) -> str | None:
    r = json.loads(out)
    g = r["guarantee"]
    if any(abs(float(row["expected_performance"]) - g) > TOL * max(1.0, g) for row in r["flat_check"]):
        return "a flat_check entry differs from the guarantee"
    if g < r["log_bound"] - TOL:
        return f"guarantee {g} < log_bound {r['log_bound']}"
    return None


def _check_learn(out: str, extra: str, spec: dict) -> str | None:
    rows = _rows(extra)
    if not rows or any(float(r["pass_rate"]) < 1.0 - spec["delta"] for r in rows):
        return f"a pass rate is below 1 - delta = {1.0 - spec['delta']}"
    return None


def _check_avgcase(out: str, extra: str, spec: dict) -> str | None:
    for r in _rows(out):
        n = int(r["n"])
        cutoff = math.ceil(n / math.e**2)
        # E[p] is flat over [n], so the mean value is the mean of the point-mass values
        expected = sum(classical_value(i, cutoff) if i >= cutoff else 0.0 for i in range(1, n + 1)) / n
        if int(r["threshold"]) != cutoff:
            return f"threshold {r['threshold']} != ceil(n/e^2) = {cutoff}"
        if not _within(float(r["mean_value"]), expected, float(r["stderr_mean"])):
            return f"mean_value {r['mean_value']} not within 4 stderr of {expected}"
    return None


def _check_lowerbound(out: str, extra: str, spec: dict) -> str | None:
    return None if json.loads(out)["separated"] is True else "instances not separated"


_CHECKS = {
    "adversary": _check_pass_column,
    "simulate": _check_pass_column,
    "solve": _check_solve,
    "eval": _check_eval,
    "minimax": _check_minimax,
    "meta": _check_meta,
    "learn": _check_learn,
    "avgcase": _check_avgcase,
    "lowerbound": _check_lowerbound,
}


def check_cli(cmd: str, out: str, extra: str, spec: dict) -> str | None:
    """None if the output of one CLI op is right, else what is wrong with it."""
    try:
        return _CHECKS[cmd](out, extra, spec)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def check_simulate_custom(n: int, cutoff: int, rate: float, stderr: float) -> str | None:
    exact = classical_value(n, cutoff)
    if not _within(rate, exact, stderr):
        return f"rate {rate} not within 4 stderr of success_probability {exact}"
    return None
