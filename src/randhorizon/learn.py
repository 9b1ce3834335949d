"""Learning a near-optimal strategy from iid samples of the horizon.

The learner never estimates the horizon distribution coordinate by
coordinate.  Instead it coarsens time into geometrically growing blocks
(right endpoints ceil(rho^l)), estimates the blocked distribution from the
samples, converts it into a gain sequence G_i = i * lambda_i of the blocked
empirical distribution, and maximizes the resulting surrogate objective
exactly with the same backward recursion used by the full-information solver.
Coarsening costs at most rho - 1 in success probability, uniformly over
strategies, so rho = 1 + epsilon/4 keeps the bias inside the error budget.

The endpoints come from one cumulative product of rho (the multiplications
of repeated ``power *= rho``, in order), snapped to integers.  One core
learns from sample counts per block, one column per trial.  lambda_hat is
constant on a block, so the block accepts a suffix of its indices, found by
one search in the harmonic numbers: one numpy step per block across all
trials.  :func:`learn_strategy` is one column; :func:`learning_trials` runs
every trial of one epsilon through the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sim
from .dist import (SUM_TOL, HorizonDistribution, _ceil_size, _ceil_snapped, _check_int,
                   _check_size, _distribution, _horizons, delta, lambda_sequence)
from .errors import ValidationError
from .solver import solve_optimal
from .strategy import Strategy, prefix_products


@dataclass(frozen=True)
class SampleBatch:
    """iid horizon samples."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples)  # a float or bool vector is refused, not truncated
        if s.ndim != 1 or s.size == 0 or s.dtype.kind not in "iu":
            raise ValidationError(
                f"samples must be a non-empty 1-D integer vector, got {s.shape} {s.dtype}")
        s = s.astype(np.int64)  # the batch's own copy
        s.setflags(write=False)
        if np.any(s < 1):
            raise ValidationError("samples must be positive integers")
        object.__setattr__(self, "samples", s)


class LearnOutput(NamedTuple):
    q_hat: Strategy
    G: np.ndarray  # estimated gain sequence on 1..N_max, N_max = G.size


def _endpoints_until(rho: float, stop: int) -> np.ndarray:
    """Distinct ceil(rho^l) in ascending order, up to and including the first >= stop."""
    if not (rho > 1.0 and math.isfinite(rho)):
        raise ValidationError(f"block ratio must be > 1, got {rho}")
    count = int(math.log(stop) / math.log(rho)) + 2  # rho^0 and a spare power past stop
    _check_size(count, "block ratio power count")
    factors = np.full(count, rho)
    factors[0] = 1.0  # rho^0; the cumulative product multiplies in order, like power *= rho
    ends = np.unique(_ceil_snapped(np.cumprod(factors)))
    return ends[: np.searchsorted(ends, stop) + 1]


def _blocked(ends: np.ndarray, horizons: np.ndarray, weights=None) -> np.ndarray:
    """Weights of the horizons summed onto the right endpoint e of their block (prev, e]."""
    out = np.zeros(int(ends[-1]))
    out[ends - 1] = np.bincount(np.searchsorted(ends, horizons), weights, minlength=ends.size)
    return out


def block_distribution(p: HorizonDistribution, rho: float) -> HorizonDistribution:
    """Move the mass of every block (prev endpoint, endpoint] onto its right endpoint."""
    ends = _endpoints_until(rho, p.n)
    return _distribution(_blocked(ends, np.arange(1, p.n + 1), p.probs))


def draw_samples(p: HorizonDistribution, m: int, seed) -> SampleBatch:
    """m iid horizon draws via inverse-CDF, in ascending order; deterministic given the seed.

    Consumes exactly ``default_rng(seed).random(m)`` and sorts those uniforms,
    so the horizons are those ``p.sample`` draws from the same seed, sorted.
    """
    _check_size(m, "sample count")
    u = np.random.default_rng(seed).random(m)
    u.sort()
    return SampleBatch(samples=_horizons(p, u))


def _learn_blocks(counts, m, ends: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Block lambda_hat (blocks, trials) and the learned 0/1 strategies (trials, length).

    Column r of counts holds trial r's m[r] samples counted per block of ends;
    p_hat is that column over m[r].  On a block (lo, e] lambda_hat is a constant
    L, so the gain i*L rises with i while C falls, and the block accepts a suffix
    [s, e]: i accepts exactly when L (1 - (H_{e-1} - H_{i-1})) >= C_{e+1}/e, one
    harmonic search per block for all trials, and C_s = (s-1) (L (H_{e-1} -
    H_{s-2}) + C_{e+1}/e).  The strategies are ``solver.backward_induction``'s on
    the per-index gains except where an acceptance margin is within rounding of 0.
    """
    p_hat = counts / m
    sums = p_hat.sum(axis=0)
    if np.any(abs(sums - 1.0) > SUM_TOL):
        raise ValidationError(f"blocked estimates must sum to 1 within {SUM_TOL}, "
                              f"got sums from {sums.min()!r} to {sums.max()!r}")
    lam = np.cumsum((p_hat / ends[:, None])[::-1], axis=0)[::-1]
    el, sampled = ends[:, None] * lam, lam > 0  # sampled: at or below the largest sample
    h = np.concatenate([[0.0, 0.0], np.cumsum(1.0 / np.arange(1, ends[-1] + 1))])  # H_{j-1} at j
    first = np.empty(counts.shape, dtype=np.int64)  # 0-based first accepting index per block
    c = np.zeros(counts.shape[1])  # C_{e+1} of the block being solved
    # past its largest sample L = C = 0 for a trial, a tie that accepts: -inf there, not 0/0
    target = np.full(c.shape, -np.inf)
    for b in range(ends.size - 1, -1, -1):
        lo, e, L = int(ends[b - 1]) if b else 0, int(ends[b]), lam[b]
        np.divide(c, el[b], out=target, where=sampled[b])  # once sampled, sampled further down
        first[b] = j = lo + h[lo + 1 : e + 1].searchsorted(target + h[e] - 1.0)
        c = np.where(j < e, j * (L * (h[e] - h[j]) + c / e), c)
    # C order: the scorer's row sums round like lambda_form_value's 1-D sum only on C rows
    first = np.repeat(first, np.diff(ends, prepend=0), axis=0)[:length].T
    return lam, (np.arange(length) >= first).astype(float, order="C")


def learn_strategy(batch: SampleBatch, epsilon: float) -> LearnOutput:
    """Blocked-estimate learner: samples -> near-optimal acceptance vector.

    Steps: block ratio rho = 1 + epsilon/4; endpoints up to the largest
    sample; empirical blocked distribution p_hat (block counts over m);
    gain sequence G_i = i * lambda_i(p_hat) (block-constant after rescaling
    by i); exact maximization of the surrogate objective by backward
    induction.  Beyond N_max = G.size the returned strategy accepts (the
    stored vector ends there and evaluation extends it with ones).
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValidationError(f"epsilon must be in (0, 1], got {epsilon}")
    n_max = _check_size(int(batch.samples.max()), "largest sample")  # the strategy's length
    ends = _endpoints_until(1.0 + epsilon / 4.0, n_max)
    lam, q = _learn_blocks(_blocked(ends, batch.samples)[ends - 1, None], batch.samples.size,
                           ends, int(ends[-1]))
    g = np.arange(1, ends[-1] + 1) * np.repeat(lam[:, 0], np.diff(ends, prepend=0))
    g.setflags(write=False)
    return LearnOutput(q_hat=Strategy(q=q[0]), G=g)


def _check_budget(epsilon: float, delta: float) -> None:
    """Reject an error budget epsilon or a confidence budget delta outside (0, 1)."""
    if not (0.0 < epsilon < 1.0):
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must be in (0, 1), got {delta}")


def sample_size_bound(epsilon: float, delta: float, T: int) -> int:
    """Samples sufficient for an epsilon-suboptimal strategy with confidence 1-delta.

    Requires that the horizon exceeds T with probability at most epsilon/12.
    Each log of a quotient is taken as a difference of logs, so a tiny
    epsilon or delta overflows only the final size, never an intermediate.
    """
    _check_budget(epsilon, delta)
    _check_int(T, "tail bound T", 1)
    log_eps, log_delta = math.log(epsilon), math.log(delta)
    if T == 1:
        m = 18.0 / epsilon * (math.log(2.0) - log_delta)
    else:
        m_tail = 18.0 / epsilon * (math.log(50.0 * math.log(T)) - log_eps - log_delta)
        m_conc = 0.5 / epsilon / epsilon * (math.log(1200.0) - 2.0 * log_eps - log_delta)
        m = max(m_tail, m_conc)
    return _ceil_size(m, f"sample size bound at epsilon={epsilon!r}, delta={delta!r}")


def hard_instance_lb(n: int, epsilon: float) -> tuple[HorizonDistribution, HorizonDistribution, float]:
    """Two-point instances on {1, n} that force Omega(1/eps^2) samples.

    The switch point s* = (A_n - 1/n)/(1 + A_n - 1/n), with A_n the optimal
    classical value for horizon n, is where the optimal first-step decision
    flips; the returned pair puts mass s* +/- epsilon on horizon 1.  No single
    strategy is epsilon/3-suboptimal for both.
    """
    _check_size(n, "n", low=3)
    a_n = solve_optimal(delta(n)).value
    s_star = (a_n - 1.0 / n) / (1.0 + a_n - 1.0 / n)
    if not (0.0 < epsilon < min(s_star, 1.0 - s_star)):
        raise ValidationError(
            f"epsilon must be in (0, {min(s_star, 1.0 - s_star):.4f}), got {epsilon}"
        )
    return _two_point(n, s_star + epsilon), _two_point(n, s_star - epsilon), s_star


def _two_point(n: int, s: float) -> HorizonDistribution:
    probs = np.zeros(n)
    probs[0] = s
    probs[-1] = 1.0 - s
    return _distribution(probs)


def learning_trials(
    p: HorizonDistribution,
    epsilon: float,
    delta_conf: float,
    seeds,
    T: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """m and value_hat = A(p, q_hat) of one learner trial per seed, at one epsilon.

    Trial r pre-estimates the tail bound T from SeedSequence([seeds[r], 0])
    unless T is given (which leaves the main phase the whole confidence budget
    instead of half), then draws its main samples from SeedSequence([seeds[r],
    1]) and counts them per block with one search.  Each strategy is scored on
    [p.n]; past a trial's largest sample its blocks have zero gains and accept,
    as padding its strategy with ones gives.  The optimum is the caller's to solve.
    """
    _check_budget(epsilon, delta_conf)
    entropy = [_check_int(seed, "seed", 0) for seed in seeds]
    if T is None:
        # T = max of ceil((12/eps) log(2/delta)) fresh samples: with probability
        # at least 1 - delta/2 the tail beyond T is at most eps/12
        m_pre = _ceil_size(12.0 / epsilon * (math.log(2.0) - math.log(delta_conf)),
                           f"tail pre-estimate size at epsilon={epsilon!r}, delta={delta_conf!r}")
    else:
        m_main = sample_size_bound(epsilon, delta_conf, T)
    # before the endpoints, so that an oversized sample count is the error reported
    _check_size(m_pre if T is None else m_main, "sample count")
    ends = _endpoints_until(1.0 + epsilon / 4.0, p.n)
    chunk = max(1, sim._CHUNK_ELEMS // int(ends[-1]))
    lam = lambda_sequence(p)
    m = np.empty(len(entropy), dtype=np.int64)
    value_hat = np.empty(len(entropy))
    for lo in range(0, len(entropy), chunk):
        rows = entropy[lo : lo + chunk]
        counts = np.empty((ends.size, len(rows)))
        for col, e in enumerate(rows):
            if T is None:
                tail = int(draw_samples(p, m_pre, np.random.SeedSequence([e, 0])).samples[-1])
                m_main = sample_size_bound(epsilon, delta_conf / 2.0, tail)
            h = draw_samples(p, m_main, np.random.SeedSequence([e, 1])).samples
            m[lo + col] = h.size
            counts[:, col] = np.diff(np.searchsorted(h, ends, side="right"), prepend=0)
        _, q = _learn_blocks(counts, m[lo : lo + len(rows)], ends, p.n)
        # one contiguous row per trial, so each sum is lambda_form_value's 1-D sum, bit for bit
        value_hat[lo : lo + len(rows)] = np.sum(prefix_products(q)[:, :-1] * q * lam, axis=1)
    return m, value_hat
