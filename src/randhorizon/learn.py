"""Learning a near-optimal strategy from iid samples of the horizon.

The learner never estimates the horizon distribution coordinate by
coordinate.  Instead it coarsens time into geometrically growing blocks
(right endpoints ceil(rho^l)), estimates the blocked distribution from the
samples, converts it into a gain sequence G_i = i * lambda_i of the blocked
empirical distribution, and maximizes the resulting surrogate objective
exactly with the same backward recursion used by the full-information solver.
Coarsening costs at most rho - 1 in success probability, uniformly over
strategies, so rho = 1 + epsilon/4 keeps the bias inside the error budget.

:func:`learning_trial` runs the learner once against a known truth and scores
the learned strategy under it; the optimum it is judged against is solved by
the caller, once per truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import MAX_ELEMS, HorizonDistribution, _ceil_snapped, delta, lambda_sequence
from .errors import ValidationError
from .solver import backward_induction, solve_optimal
from .strategy import Strategy, success_probability


@dataclass(frozen=True)
class SampleBatch:
    """iid horizon samples."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=np.int64)
        if s.ndim != 1 or s.size == 0:
            raise ValidationError("samples must be a non-empty 1-D vector")
        if np.any(s < 1):
            raise ValidationError("samples must be positive integers")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class LearnOutput:
    q_hat: Strategy
    G: np.ndarray  # estimated gain sequence on 1..N_max
    N_max: int


def _endpoints_until(rho: float, stop: int) -> np.ndarray:
    """Distinct ceil(rho^l) in ascending order, up to and including the first >= stop."""
    out = [1]
    power = 1.0
    stalled = 0
    while out[-1] < stop:
        power *= rho
        value = _ceil_snapped(power)
        if value > out[-1]:
            out.append(value)
            stalled = 0
        else:
            stalled += 1
            if stalled >= 64:
                # ratio extremely close to 1: jump the exponent to the last
                # power below the current endpoint instead of crawling
                power = max(power, rho ** math.floor(math.log(out[-1]) / math.log(rho)))
                stalled = 0
    return np.asarray(out, dtype=np.int64)


def block_distribution(p: HorizonDistribution, rho: float) -> HorizonDistribution:
    """Move the mass of every block (prev endpoint, endpoint] onto its right endpoint."""
    if not (rho > 1.0 and math.isfinite(rho)):
        raise ValidationError(f"block ratio must be > 1, got {rho}")
    ends = _endpoints_until(rho, p.n)
    out = np.zeros(int(ends[-1]))
    prev = 0
    for e in ends:
        out[e - 1] = p.probs[prev : min(int(e), p.n)].sum()
        prev = int(e)
    return HorizonDistribution(probs=out)


def draw_samples(p: HorizonDistribution, m: int, seed) -> SampleBatch:
    """m iid horizon draws via inverse-CDF; deterministic given the seed."""
    if m < 1:
        raise ValidationError(f"sample count must be >= 1, got {m}")
    if m > MAX_ELEMS:
        raise ValidationError(f"sample count {m} exceeds the cap of {MAX_ELEMS} elements")
    return SampleBatch(samples=p.sample(m, np.random.default_rng(seed)))


def learn_strategy(batch: SampleBatch, epsilon: float) -> LearnOutput:
    """Blocked-estimate learner: samples -> near-optimal acceptance vector.

    Steps: block ratio rho = 1 + epsilon/4; endpoints up to the largest
    sample; empirical blocked distribution p_hat; gain sequence
    G_i = i * lambda_i(p_hat) (block-constant after rescaling by i); exact
    maximization of the surrogate objective by backward induction.  Beyond
    N_max the returned strategy accepts (the stored vector ends there and
    evaluation extends it with ones).
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValidationError(f"epsilon must be in (0, 1], got {epsilon}")
    rho = 1.0 + epsilon / 4.0
    ends = _endpoints_until(rho, int(batch.samples.max()))
    n_max = int(ends[-1])

    counts = np.zeros(ends.size)
    slot = np.searchsorted(ends, batch.samples, side="left")
    np.add.at(counts, slot, 1.0)
    probs = np.zeros(n_max)
    probs[ends - 1] = counts / batch.samples.size
    p_hat = HorizonDistribution(probs=probs)

    gains = np.arange(1, n_max + 1) * lambda_sequence(p_hat)
    q, _ = backward_induction(gains)
    return LearnOutput(q_hat=Strategy(q=q), G=gains, N_max=n_max)


def sample_size_bound(epsilon: float, delta: float, T: int) -> int:
    """Samples sufficient for an epsilon-suboptimal strategy with confidence 1-delta.

    Requires that the horizon exceeds T with probability at most epsilon/12.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    if T < 1:
        raise ValidationError(f"tail bound T must be >= 1, got {T}")
    if T == 1:
        return math.ceil(18.0 / epsilon * math.log(2.0 / delta))
    m_tail = 18.0 / epsilon * math.log(50.0 * math.log(T) / (epsilon * delta))
    m_conc = 1.0 / (2.0 * epsilon**2) * math.log(1200.0 / (epsilon**2 * delta))
    return math.ceil(max(m_tail, m_conc))


def estimate_tail_support(p: HorizonDistribution, epsilon: float, delta: float, seed) -> int:
    """Pre-estimation phase: T = max of ceil((12/eps)*log(2/delta)) fresh samples.

    With probability at least 1 - delta/2 the tail beyond T is at most
    epsilon/12, as the main sample-size bound requires.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    m1 = math.ceil(12.0 / epsilon * math.log(2.0 / delta))
    return int(draw_samples(p, m1, seed).samples.max())


def hard_instance_lb(n: int, epsilon: float) -> tuple[HorizonDistribution, HorizonDistribution, float]:
    """Two-point instances on {1, n} that force Omega(1/eps^2) samples.

    The switch point s* = (A_n - 1/n)/(1 + A_n - 1/n), with A_n the optimal
    classical value for horizon n, is where the optimal first-step decision
    flips; the returned pair puts mass s* +/- epsilon on horizon 1.  No single
    strategy is epsilon/3-suboptimal for both.
    """
    if n < 3:
        raise ValidationError(f"hard instances need n >= 3, got {n}")
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
        T = estimate_tail_support(
            p, epsilon, delta_conf, np.random.SeedSequence([_entropy(seed), 0])
        )
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
