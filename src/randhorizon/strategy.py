"""Acceptance strategies and exact success probabilities.

A strategy is a vector q where q_i is the probability of accepting the i-th
arrival given that it is the best seen so far and nothing was accepted yet.
It is a plain float64 array, read-only where the package makes it; every
evaluator checks a caller's vector in place, without a copy, with the checks
of :func:`make_strategy`.  Its exact success probability against a horizon
distribution p is

    A(p, q) = sum_i U_{i-1}(q) * q_i * lambda_i(p),
    U_i(q)  = prod_{l<=i} (1 - q_l / l),

with the equivalent per-horizon form sum_i p_i * (1/i) * sum_{l<=i} U_{l-1} q_l
as a cross-check, reached through :func:`success_probabilities`.  Both forms
read the same terms a_i = U_{i-1} q_i, which one private kernel writes a chunk
of i at a time, U carried from chunk to chunk; they differ where the formulas
do: the lambda form weights a by the suffix sums lambda, the per-horizon form
takes a prefix sum of a per horizon.  :func:`success_probabilities` evaluates
both in one pass over the chunks, into lambda's vector and one more vector of
n, with the bits of one whole-vector pass.  The pass covers only the live
window, i from q's first positive entry L to p's last positive horizon K:
below L, q_i = 0 and U stays exactly 1, and past K, p_i = lambda_i = 0, so
every term outside it is a zero; lambda too is computed on the window
alone.  Both vectors stay n long, zero off the window, and each form is the
sum of its whole vector, because numpy's pairwise sum groups by the length;
so the bits do not change.  Cost: kernel work O(K - L + 1), plus O(n) for the
zero fills and the sums.  A 0/1 rule is also scored from its
accept runs alone, by differences of threshold values (:func:`runs_value`),
which is how the learner scores its rules.  When a strategy is evaluated
against a distribution whose support extends past the stored length, the
missing entries are treated as 1 (accepting a best-so-far item when nothing
else would be picked weakly dominates rejecting it); every reader, the
simulator too, takes q as stored and reads them as 1 without padding q to n.
"""

from __future__ import annotations

import numpy as np

from .dist import (_CHUNK, HorizonDistribution, _check_int, _check_size, _floats, _lambda_window,
                   _probability_vector, lambda_sequence)
from .errors import ValidationError


def _acceptance_vector(values, copy: bool) -> np.ndarray:
    """values as :func:`dist._floats` gives them, refused unless 1-D, finite and in [0, 1]."""
    q = _floats(values, "q", copy)
    if q.ndim != 1:
        raise ValidationError("q must be a 1-D vector")
    if not np.isfinite(q).all():  # the methods, not np.all and np.any: a few us less per call
        raise ValidationError("q must be finite")
    if (q < 0).any() or (q > 1).any():
        raise ValidationError("q entries must lie in [0, 1]")
    return q


def make_strategy(values) -> np.ndarray:
    """A read-only float64 copy of acceptance probabilities q_1..q_m, each in [0, 1]."""
    q = _acceptance_vector(values, copy=True)
    q.setflags(write=False)
    return q


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


def _acceptance_terms(q: np.ndarray, start: int, u: float, i: np.ndarray, buf: np.ndarray) -> float:
    """a_i = U_{i-1} q_i for the float indices i = start+1..start+k into buf[:k]; returns U_{start+k}.

    U_i = prod_{l<=i} (1 - q_l/l) are the no-pick-yet probabilities and u is
    U_start; q is 1-D and its entries past its length count as 1.  buf has
    k+1 entries: u and the factors 1 - q_i/i go in, one cumprod turns them
    into U_start..U_{start+k}, which has the bits of one cumprod from U_0 = 1.
    """
    k = i.size
    m = min(max(q.size - start, 0), k)  # the entries of q in this chunk
    f = buf[1:]
    np.divide(q[start : start + m], i[:m], out=f[:m])
    np.divide(1.0, i[m:], out=f[m:])  # 1.0/i has the bits of q_i/i at q_i = 1
    np.subtract(1.0, f, out=f)
    buf[0] = u
    np.cumprod(buf, out=buf)
    u = buf[k]
    np.multiply(buf[:m], q[start : start + m], out=buf[:m])  # past q, a_i = U_{i-1} * 1.0
    return u


def _term_chunks(q: np.ndarray, lo: int, hi: int):
    """(start, i, a) per chunk of i = lo+1..hi: the float indices and the terms a of :func:`_acceptance_terms`.

    U_lo is taken as 1.0, which it is exactly when q_1..q_lo are zeros.  i and
    a are views of two chunk-sized buffers that the next step overwrites.
    """
    size = min(hi - lo, _CHUNK)
    i, buf, u = np.arange(lo + 1.0, lo + size + 1), np.empty(size + 1), 1.0
    for start in range(lo, hi, _CHUNK):
        k = min(_CHUNK, hi - start)
        u = _acceptance_terms(q, start, u, i[:k], buf[: k + 1])
        yield start, i[:k], buf[:k]
        i += _CHUNK  # exact integers


def _point_masses(a: np.ndarray, i: np.ndarray, total: float) -> float:
    """Turn a chunk's terms a into (1/i) * (total + sum of a up to i) in place; returns the new total.

    The carried total goes into a's first entry, so one cumsum per chunk has
    the bits of one cumsum over 1..n; -0.0 starts it, as x + -0.0 is x.
    """
    a[0] += total
    np.cumsum(a, out=a)
    total = a[-1]
    np.divide(a, i, out=a)
    return total


def _live_lambda(p: HorizonDistribution, q: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(lo, hi, lam): the live window [lo, hi) of A(p, q) and a vector of n zeros with lambda on it.

    lo is q's first positive entry (0-based; its stored length if it has none)
    and hi - 1 p's last positive horizon.  Below lo, q_i = 0 and U stays
    exactly 1; from hi on, p_i = lambda_i = 0; so every term of both forms
    outside the window is a zero.
    """
    hi = p._last_positive + 1
    stored = q[:hi] > 0
    lo = int(stored.argmax()) if stored.size else 0
    if not (stored.size and stored[lo]):  # no stored entry is positive: q's length, or hi
        lo = stored.size
    lam = np.zeros(p.n)
    _lambda_window(p.probs, lo, hi, lam)
    return lo, hi, lam


def success_probability(p: HorizonDistribution, q) -> float:
    """Exact success probability A(p, q), evaluated in the lambda form over its live window."""
    q = _acceptance_vector(q, copy=False)
    lo, hi, lam = _live_lambda(p, q)  # lam takes the terms a_i lambda_i in place
    for start, _, a in _term_chunks(q, lo, hi):
        np.multiply(lam[start : start + a.size], a, out=lam[start : start + a.size])
    return float(lam.sum())


def point_mass_values(qx: np.ndarray) -> np.ndarray:
    """(1/i) * sum_{l<=i} U_{l-1} q_l for i = 1..len(qx): the value of q when N = i."""
    qx = _acceptance_vector(qx, copy=False)
    out, total = np.empty(qx.size), -0.0
    for start, i, a in _term_chunks(qx, 0, qx.size):  # from 0: the head's zeros are outputs
        total = _point_masses(a, i, total)
        out[start : start + a.size] = a
    return out


def success_probabilities(p: HorizonDistribution, q) -> tuple[float, float]:
    """(lambda form, per-horizon form) of A(p, q) from one pass over the terms a_i = U_{i-1} q_i.

    The pass covers the live window only, i from q's first positive entry L
    to p's last positive horizon K, starting there with U = 1: outside it
    every term of both forms is a zero.  Chunk by chunk, the terms are
    multiplied into lambda's vector, then turned into the point-mass values,
    and p_i times those go into a second vector; both vectors are n long and
    zero off the window.  Each form is the sum of its whole vector, since
    numpy's pairwise sum groups by the length: every term is >= 0, so the
    zeros' signs could only touch a sum of zeros, which numpy starts from
    +0.0, and the bits are those of the pass over all of 1..n.  The lambda
    form has the bits of :func:`success_probability`.  Cost: kernel work
    O(K - L + 1), plus O(n) to zero the two vectors and sum them.
    """
    q = _acceptance_vector(q, copy=False)
    lo, hi, lam = _live_lambda(p, q)  # lam takes the terms a_i lambda_i in place
    pform, total = np.zeros(p.n), -0.0
    for start, i, a in _term_chunks(q, lo, hi):
        stop = start + a.size
        np.multiply(lam[start:stop], a, out=lam[start:stop])
        total = _point_masses(a, i, total)
        np.multiply(p.probs[start:stop], a, out=pform[start:stop])
    return float(lam.sum()), float(pform.sum())


def _threshold_values(lam: np.ndarray, l_max: int) -> np.ndarray:
    """A(p, q^(l)) for l = 1..l_max from p's lambda sequence; thresholds past its length earn 0.

    Uses the closed form A(p, q^(l)) = lambda_l + (l-1) * R_{l+1}, R_i = sum_{j>=i} lambda_j/(j-1),
    which follows from U_{i-1}(q^(l)) = (l-1)/(i-1) for i > l.  R is built over lam's length only,
    in the output's buffer, and one float range 1..n-1 serves as both divisor and factor.
    """
    n = lam.size
    k = min(l_max, n)
    out = np.zeros(max(l_max, n))
    r = out[:n]  # r[l-1] = R_{l+1}
    j = np.arange(1.0, n)  # exact integers: an int range's quotients and products
    np.divide(lam[1:], j, out=r[:-1])
    np.cumsum(r[::-1], out=r[::-1])
    r[0] *= 0.0  # (l-1) R_{l+1} at l = 1
    np.multiply(r[1:k], j[: k - 1], out=r[1:k])
    del j  # freed before the copy below, so l_max < n also peaks at two vectors of n
    np.add(lam[:k], r[:k], out=r[:k])
    return out if l_max >= n else out[:l_max].copy()


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
    q = _acceptance_vector(q, copy=False)[: p.n]
    if ((q != 0.0) & (q != 1.0)).any():
        raise ValidationError("q must be a 0/1 rule")
    short = q.size < p.n  # then q's entries past its length count as 1: an accept run to n
    steps = np.diff(q, prepend=0.0, append=float(short))
    # after the no-op run [2, 1], so that a rule that never accepts scores 0
    starts = np.append(2, np.flatnonzero(steps > 0.0) + 1)
    stops = np.append(1, np.flatnonzero(steps < 0.0))
    if short:
        stops = np.append(stops, p.n)
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
