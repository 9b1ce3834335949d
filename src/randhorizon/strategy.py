"""Acceptance strategies and exact success probabilities.

A strategy is a vector q where q_i is the probability of accepting the i-th
arrival given that it is the best seen so far and nothing was accepted yet.
Its exact success probability against a horizon distribution p is

    A(p, q) = sum_i U_{i-1}(q) * q_i * lambda_i(p),
    U_i(q)  = prod_{l<=i} (1 - q_l / l),

with the equivalent per-horizon form sum_i p_i * (1/i) * sum_{l<=i} U_{l-1} q_l
kept around as a cross-check oracle.  When a strategy is evaluated against a
distribution whose support extends past the stored length, the missing entries
are treated as 1 (accepting a best-so-far item when nothing else would be
picked weakly dominates rejecting it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import (HorizonDistribution, _check_int, _check_size, _floats, _probability_vector,
                   lambda_sequence)
from .errors import ValidationError


@dataclass(frozen=True)
class Strategy:
    """Acceptance probabilities q_1..q_m, each in [0, 1]."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = _floats(self.q, "q")
        if q.ndim != 1:
            raise ValidationError("q must be a 1-D vector")
        if not np.all(np.isfinite(q)):
            raise ValidationError("q must be finite")
        if np.any(q < 0) or np.any(q > 1):
            raise ValidationError("q entries must lie in [0, 1]")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def m(self) -> int:
        return self.q.size

    def extended(self, n: int) -> np.ndarray:
        """Acceptance vector of length n, padding with 1 beyond the stored length."""
        n = _check_size(n, "length", low=0)
        if n <= self.m:
            return self.q[:n]
        out = np.ones(n)  # one allocation, not the ones and their concatenation
        out[: self.m] = self.q
        return out


@dataclass(frozen=True)
class ThresholdMixture:
    """Probability weights over single-threshold strategies with l = 1..len(weights)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _probability_vector(self.weights, "weights"))


def make_strategy(values) -> Strategy:
    return Strategy(q=values)


def single_threshold(l: int, m: int) -> Strategy:
    """Reject the first l-1 arrivals, then accept the first best-so-far one.

    Stored with length m; thresholds beyond the length give the all-zero
    vector.
    """
    _check_int(l, "threshold", 1)
    _check_size(m, "length", low=0)
    q = np.zeros(m)
    if l <= m:
        q[l - 1 :] = 1.0
    return Strategy(q=q)


def prefix_products(q: np.ndarray) -> np.ndarray:
    """U_0..U_m along q's last axis, U_i = prod_{l<=i} (1 - q_l/l): no-pick-yet probabilities."""
    u = np.cumprod(1.0 - q / np.arange(1, q.shape[-1] + 1), axis=-1)
    return np.concatenate([np.ones(q.shape[:-1] + (1,)), u], axis=-1)


def success_probability(p: HorizonDistribution, strategy: Strategy) -> float:
    """Exact success probability A(p, q), evaluated in the lambda form (O(n))."""
    return lambda_form_value(lambda_sequence(p), strategy.extended(p.n))


def lambda_form_value(lam: np.ndarray, qx: np.ndarray) -> float:
    """sum_i U_{i-1}(q) q_i lambda_i for a lambda sequence and a same-length q."""
    return float(np.sum(prefix_products(qx)[:-1] * qx * lam))


def point_mass_values(qx: np.ndarray) -> np.ndarray:
    """(1/i) * sum_{l<=i} U_{l-1} q_l for i = 1..len(qx): the value of q when N = i."""
    return np.cumsum(prefix_products(qx)[:-1] * qx) / np.arange(1, qx.size + 1)


def success_probability_pform(p: HorizonDistribution, strategy: Strategy) -> float:
    """Same value as :func:`success_probability`, via the per-horizon form.

    sum_i p_i * (1/i) * sum_{l<=i} U_{l-1} q_l.  Kept as an independent
    cross-check of the lambda-form evaluation.
    """
    return float(np.sum(p.probs * point_mass_values(strategy.extended(p.n))))


def threshold_success_values(p: HorizonDistribution, l_max: int) -> np.ndarray:
    """A(p, q^(l)) for every threshold l = 1..l_max, in one pass.

    Uses the closed form A(p, q^(l)) = lambda_l + (l-1) * sum_{i>l} lambda_i/(i-1),
    which follows from U_{i-1}(q^(l)) = (l-1)/(i-1) for i > l.
    """
    _check_size(l_max, "l_max")
    span = max(l_max, p.n)
    lam = np.zeros(span + 1)
    lam[: p.n] = lambda_sequence(p)
    # ratio_tail (0-based j, threshold l = j+1): sum_{i >= l+1} lambda_i / (i-1)
    ratios = lam[1:] / np.arange(1, span + 1)
    ratio_tail = np.cumsum(ratios[::-1])[::-1]
    return lam[:l_max] + np.arange(l_max) * ratio_tail[:l_max]


def mixture_success_probability(p: HorizonDistribution, mix: ThresholdMixture) -> float:
    """Success probability of drawing a threshold from the mixture, then playing it."""
    values = threshold_success_values(p, mix.weights.size)
    # numpy's pairwise sum, not a BLAS dot product, whose rounding depends on its thread count
    return float(np.sum(mix.weights * values))
