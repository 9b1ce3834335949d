"""Acceptance strategies and exact success probabilities.

A strategy is a vector q where q_i is the probability of accepting the i-th
arrival given that it is the best seen so far and nothing was accepted yet.
It is a plain float64 array, read-only where the package makes it; a caller's
vector is checked, not copied, by :func:`extended`, which every evaluator reads.
Its exact success probability against a horizon distribution p is

    A(p, q) = sum_i U_{i-1}(q) * q_i * lambda_i(p),
    U_i(q)  = prod_{l<=i} (1 - q_l / l),

with the equivalent per-horizon form sum_i p_i * (1/i) * sum_{l<=i} U_{l-1} q_l
as a cross-check, reached through :func:`success_probabilities`.  Both forms
read the same terms a_i = U_{i-1} q_i, which one 1-D kernel writes into one
buffer; they differ where the formulas do: the lambda form weights a by the
suffix sums lambda, the per-horizon form takes a prefix sum of a per horizon.
:func:`success_probabilities` evaluates both from one extension of q and one
buffer.  A 0/1 rule is also scored from its accept runs alone, by differences
of threshold values (:func:`runs_value`), which is how the learner scores its
rules.  When a strategy is evaluated against a distribution whose support
extends past the stored length, the missing entries are treated as 1
(accepting a best-so-far item when nothing else would be picked weakly
dominates rejecting it).
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


def _acceptance_terms(q: np.ndarray) -> np.ndarray:
    """a_i = U_{i-1} q_i of a 1-D q, U_i = prod_{l<=i} (1 - q_l/l) the no-pick-yet probabilities.

    U_0..U_m go into one buffer, whose U_0..U_{m-1} then become the terms in place.
    """
    m = q.size
    u = np.empty(m + 1)
    u[0] = 1.0
    tail = u[1:]
    np.divide(q, np.arange(1.0, m + 1), out=tail)  # exact integers: an int range's quotients
    np.subtract(1.0, tail, out=tail)
    np.cumprod(tail, out=tail)
    a = u[:-1]
    return np.multiply(a, q, out=a)


def _point_masses(a: np.ndarray) -> np.ndarray:
    """Turn the 1-D terms a into (1/i) * sum_{l<=i} a_l, i = 1..len(a), in place."""
    np.cumsum(a, out=a)
    return np.divide(a, np.arange(1, a.size + 1), out=a)


def success_probability(p: HorizonDistribution, q) -> float:
    """Exact success probability A(p, q), evaluated in the lambda form (O(n))."""
    a = _acceptance_terms(extended(q, p.n))
    return float(np.sum(np.multiply(a, lambda_sequence(p), out=a)))


def point_mass_values(qx: np.ndarray) -> np.ndarray:
    """(1/i) * sum_{l<=i} U_{l-1} q_l for i = 1..len(qx): the value of q when N = i."""
    return _point_masses(_acceptance_terms(qx))


def success_probabilities(p: HorizonDistribution, q) -> tuple[float, float]:
    """(lambda form, per-horizon form) of A(p, q) from one extension of q and one buffer.

    The lambda form has the bits of :func:`success_probability`.  It reads the
    terms a_i = U_{i-1} q_i, which then become the point-mass values in place,
    and the per-horizon form is sum_i p_i times those.
    """
    a = _acceptance_terms(extended(q, p.n))
    value = float(np.sum(a * lambda_sequence(p)))
    return value, float(np.sum(np.multiply(p.probs, _point_masses(a), out=a)))


def _threshold_values(lam: np.ndarray, l_max: int) -> np.ndarray:
    """A(p, q^(l)) for l = 1..l_max from p's lambda sequence; thresholds past its length earn 0.

    Uses the closed form A(p, q^(l)) = lambda_l + (l-1) * R_{l+1}, R_i = sum_{j>=i} lambda_j/(j-1),
    which follows from U_{i-1}(q^(l)) = (l-1)/(i-1) for i > l.  R is built over lam's length only.
    """
    k = min(l_max, lam.size)
    r = np.zeros(lam.size)  # r[l-1] = R_{l+1}
    np.divide(lam[1:], np.arange(1, lam.size), out=r[:-1])
    np.cumsum(r[::-1], out=r[::-1])
    out = np.zeros(l_max)
    np.add(lam[:k], np.multiply(r[:k], np.arange(k), out=r[:k]), out=out[:k])
    return out


def _runs_value(values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """A(p, q) of the 0/1 rules accepting on the runs [starts, stops] along the last axis.

    values[l-1] = A(p, q^(l)) (:func:`_threshold_values`), runs 1-based and
    ascending.  With U the chance that nothing was picked before a run (1
    before the first), a run [s, e] adds U (A(q^(s)) - f A(q^(e+1))),
    f = (s-1)/e, since past e the terms of q^(s) are f times those of
    q^(e+1), and it leaves U f.  The product and the sum run in order, so a
    no-op run [s, s-1] (f = 1, a term of 0) anywhere in a row leaves its bits
    alone.
    """
    f = (starts - 1) / stops
    terms = values[starts - 1] - f * values[stops]
    terms[..., 1:] *= np.cumprod(f, axis=-1)[..., :-1]
    return np.cumsum(terms, axis=-1)[..., -1]


def runs_value(p: HorizonDistribution, q) -> float:
    """A(p, q) of a 0/1 rule q from its accept runs by :func:`_runs_value` (O(n), then O(runs))."""
    q = extended(q, p.n)
    if np.any((q != 0.0) & (q != 1.0)):
        raise ValidationError("q must be a 0/1 rule")
    steps = np.diff(q, prepend=0.0, append=0.0)
    # after the no-op run [2, 1], so that a rule that never accepts scores 0
    starts = np.append(2, np.flatnonzero(steps > 0.0) + 1)
    stops = np.append(1, np.flatnonzero(steps < 0.0))
    return float(_runs_value(_threshold_values(lambda_sequence(p), p.n + 1), starts, stops))


def threshold_success_values(p: HorizonDistribution, l_max: int) -> np.ndarray:
    """A(p, q^(l)) for every threshold l = 1..l_max, in one pass (:func:`_threshold_values`)."""
    l_max = _check_size(l_max, "l_max")
    return _threshold_values(lambda_sequence(p), l_max)


def mixture_success_probability(p: HorizonDistribution, weights) -> float:
    """Success probability of drawing threshold l with probability weights[l-1], then playing it.

    weights is a probability vector over l = 1..len(weights); a float64 one is not copied.
    """
    w = _probability_vector(weights, "weights", copy=False)
    values = threshold_success_values(p, w.size)
    # numpy's pairwise sum, not a BLAS dot product, whose rounding depends on its thread count
    return float(np.sum(w * values))
