"""Acceptance strategies and exact success probabilities.

A strategy is a vector q where q_i is the probability of accepting the i-th
arrival given that it is the best seen so far and nothing was accepted yet.
It is a plain float64 array, read-only where the package makes it; a caller's
vector is checked, not copied, by :func:`extended`, which every evaluator reads.
Its exact success probability against a horizon distribution p is

    A(p, q) = sum_i U_{i-1}(q) * q_i * lambda_i(p),
    U_i(q)  = prod_{l<=i} (1 - q_l / l),

with the equivalent per-horizon form sum_i p_i * (1/i) * sum_{l<=i} U_{l-1} q_l
kept around as a cross-check.  Both forms read the same terms
a_i = U_{i-1} q_i, which one kernel writes into one buffer; they differ where
the formulas do: the lambda form weights a by the suffix sums lambda, the
per-horizon form takes a prefix sum of a per horizon.  :func:`success_probabilities`
evaluates both from one extension of q and one buffer.  When a strategy is
evaluated against a distribution whose support extends past the stored length,
the missing entries are treated as 1 (accepting a best-so-far item when nothing
else would be picked weakly dominates rejecting it).
"""

from __future__ import annotations

import numpy as np

from .dist import (HorizonDistribution, _check_int, _check_size, _floats, _probability_vector,
                   lambda_sequence)
from .errors import ValidationError


def _acceptance_vector(values, copy: bool) -> np.ndarray:
    """values as :func:`dist._floats` gives them, refused unless 1-D, finite and in [0, 1]."""
    q = _floats(values, "q", copy)
    if q.ndim != 1:
        raise ValidationError("q must be a 1-D vector")
    if not np.all(np.isfinite(q)):
        raise ValidationError("q must be finite")
    if np.any(q < 0) or np.any(q > 1):
        raise ValidationError("q entries must lie in [0, 1]")
    return q


def make_strategy(values) -> np.ndarray:
    """A read-only float64 copy of acceptance probabilities q_1..q_m, each in [0, 1]."""
    q = _acceptance_vector(values, copy=True)
    q.setflags(write=False)
    return q


def extended(q, n: int) -> np.ndarray:
    """q checked like :func:`make_strategy`'s input, cut (a view) or padded with 1 to length n."""
    q = _acceptance_vector(q, copy=False)
    n = _check_size(n, "length", low=0)
    if n <= q.size:
        return q[:n]
    out = np.ones(n)  # one allocation, not the ones and their concatenation
    out[: q.size] = q
    return out


def single_threshold(l: int, m: int) -> np.ndarray:
    """Reject the first l-1 arrivals, then accept the first best-so-far one.

    A read-only vector of length m; thresholds beyond the length give the
    all-zero vector.
    """
    _check_int(l, "threshold", 1)
    _check_size(m, "length", low=0)
    q = np.zeros(m)
    if l <= m:
        q[l - 1 :] = 1.0
    q.setflags(write=False)
    return q


def prefix_products(q: np.ndarray) -> np.ndarray:
    """U_0..U_m along q's last axis, U_i = prod_{l<=i} (1 - q_l/l): no-pick-yet probabilities."""
    m = q.shape[-1]
    u = np.empty(q.shape[:-1] + (m + 1,))
    u[..., 0] = 1.0
    tail = u[..., 1:]
    np.divide(q, np.arange(1.0, m + 1), out=tail)  # exact integers: an int range's quotients
    np.subtract(1.0, tail, out=tail)
    np.cumprod(tail, axis=-1, out=tail)
    return u


def _acceptance_terms(q: np.ndarray) -> np.ndarray:
    """a_i = U_{i-1} q_i along q's last axis, written over U_0..U_{m-1} of one prefix-product buffer."""
    a = prefix_products(q)[..., :-1]
    return np.multiply(a, q, out=a)


def _lambda_form(a: np.ndarray, lam: np.ndarray, out=None):
    """sum_i a_i lambda_i along the last axis, by a pairwise sum of each contiguous row of a*lam."""
    return np.sum(np.multiply(a, lam, out=out), axis=-1)


def _point_masses(a: np.ndarray) -> np.ndarray:
    """Turn the 1-D terms a into (1/i) * sum_{l<=i} a_l, i = 1..len(a), in place."""
    np.cumsum(a, out=a)
    return np.divide(a, np.arange(1, a.size + 1), out=a)


def _pform(probs: np.ndarray, values: np.ndarray) -> float:
    """sum_i p_i * values_i, multiplying into the point-mass values."""
    return float(np.sum(np.multiply(probs, values, out=values)))


def success_probability(p: HorizonDistribution, q) -> float:
    """Exact success probability A(p, q), evaluated in the lambda form (O(n))."""
    return lambda_form_value(lambda_sequence(p), extended(q, p.n))


def lambda_form_value(lam: np.ndarray, qx: np.ndarray) -> float:
    """sum_i U_{i-1}(q) q_i lambda_i for a lambda sequence and a same-length q."""
    a = _acceptance_terms(qx)
    return float(_lambda_form(a, lam, out=a))


def point_mass_values(qx: np.ndarray) -> np.ndarray:
    """(1/i) * sum_{l<=i} U_{l-1} q_l for i = 1..len(qx): the value of q when N = i."""
    return _point_masses(_acceptance_terms(qx))


def success_probability_pform(p: HorizonDistribution, q) -> float:
    """Same value as :func:`success_probability`, via the per-horizon form.

    sum_i p_i * (1/i) * sum_{l<=i} U_{l-1} q_l.  It shares q's extension and
    U with the lambda form and is independent of it where the two differ: a
    prefix sum per horizon here, the suffix sums lambda there.
    """
    return _pform(p.probs, point_mass_values(extended(q, p.n)))


def success_probabilities(p: HorizonDistribution, q) -> tuple[float, float]:
    """(lambda form, per-horizon form) of A(p, q) from one extension of q and one buffer.

    Each value has the bits of :func:`success_probability` and
    :func:`success_probability_pform`: the lambda form reads the terms
    a_i = U_{i-1} q_i, which then become the point-mass values in place.
    """
    a = _acceptance_terms(extended(q, p.n))
    value = float(_lambda_form(a, lambda_sequence(p)))
    return value, _pform(p.probs, _point_masses(a))


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


def mixture_success_probability(p: HorizonDistribution, weights) -> float:
    """Success probability of drawing threshold l with probability weights[l-1], then playing it.

    weights is a probability vector over l = 1..len(weights); a float64 one is not copied.
    """
    w = _probability_vector(weights, "weights", copy=False)
    values = threshold_success_values(p, w.size)
    # numpy's pairwise sum, not a BLAS dot product, whose rounding depends on its thread count
    return float(np.sum(w * values))
