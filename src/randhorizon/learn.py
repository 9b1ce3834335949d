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
of repeated ``power *= rho``, in order), snapped to integers, and one rule
sums weights onto the right endpoint of their block, for a distribution
(:func:`block_distribution`) and for samples (:func:`learn_strategy`) alike.
:func:`learning_trial` pre-estimates the tail bound T from a fresh batch
unless T is given, draws :func:`sample_size_bound` samples, learns, and
scores the learned strategy under the truth; the optimum it is judged
against is solved by the caller, once per truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import (HorizonDistribution, _ceil_size, _ceil_snapped, _check_size, _frozen, delta,
                   lambda_sequence)
from .errors import ValidationError
from .solver import backward_induction, solve_optimal
from .strategy import Strategy, success_probability


@dataclass(frozen=True)
class SampleBatch:
    """iid horizon samples."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        s = _frozen(self.samples, np.int64)
        if s.ndim != 1 or s.size == 0:
            raise ValidationError("samples must be a non-empty 1-D vector")
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
    return HorizonDistribution(probs=_blocked(ends, np.arange(1, p.n + 1), p.probs))


def draw_samples(p: HorizonDistribution, m: int, seed) -> SampleBatch:
    """m iid horizon draws via inverse-CDF; deterministic given the seed."""
    _check_size(m, "sample count")
    return SampleBatch(samples=p.sample(m, np.random.default_rng(seed)))


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
    ends = _endpoints_until(1.0 + epsilon / 4.0, int(batch.samples.max()))
    p_hat = HorizonDistribution(probs=_blocked(ends, batch.samples) / batch.samples.size)
    gains = np.arange(1, p_hat.n + 1) * lambda_sequence(p_hat)
    gains.setflags(write=False)
    q, _ = backward_induction(gains)
    return LearnOutput(q_hat=Strategy(q=q), G=gains)


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
    if T < 1:
        raise ValidationError(f"tail bound T must be >= 1, got {T}")
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
    return HorizonDistribution(probs=probs)


class LearnTrial(NamedTuple):
    m: int  # samples in the main phase
    value_hat: float  # A(p, q_hat) under the truth


def learning_trial(
    p: HorizonDistribution,
    epsilon: float,
    delta_conf: float,
    seed,
    T: int | None = None,
) -> LearnTrial:
    """One full learner evaluation: sample from the truth, learn, score under the truth.

    When T is given, the tail bound is taken as known and the whole
    confidence budget goes to the main phase.  Otherwise T is pre-estimated
    from a fresh batch and the budget is split evenly between the phases.
    Sub-seeds for the phases derive from (seed, phase index).  The optimum
    to compare against is the caller's to compute, once per truth.
    """
    if T is None:
        # T = max of ceil((12/eps) log(2/delta)) fresh samples: with probability
        # at least 1 - delta/2 the tail beyond T is at most eps/12
        _check_budget(epsilon, delta_conf)
        m_pre = _ceil_size(12.0 / epsilon * (math.log(2.0) - math.log(delta_conf)),
                           f"tail pre-estimate size at epsilon={epsilon!r}, delta={delta_conf!r}")
        T = int(draw_samples(p, m_pre, np.random.SeedSequence([_entropy(seed), 0])).samples.max())
        main_delta = delta_conf / 2.0
    else:
        main_delta = delta_conf
    m = sample_size_bound(epsilon, main_delta, T)
    batch = draw_samples(p, m, np.random.SeedSequence([_entropy(seed), 1]))
    out = learn_strategy(batch, epsilon)
    return LearnTrial(m=m, value_hat=success_probability(p, out.q_hat))


def _entropy(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ValidationError("learning_trial needs an integer seed")
