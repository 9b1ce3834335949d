"""Distributions of the random horizon and their marginal pick-probability sequences.

A horizon distribution assigns probability p_i to the event "exactly i items
arrive", for i = 1..n.  Everything downstream (strategy values, solvers,
learners) consumes a distribution only through the derived sequence

    lambda_i = sum_{l >= i} p_l / l,

the marginal probability that the i-th arrival is both the best seen so far
and the eventual overall best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SUM_TOL = 1e-12


def harmonic(n: int) -> float:
    """n-th harmonic number 1 + 1/2 + ... + 1/n, by direct summation (H_0 = 0)."""
    if n < 0:
        raise ValidationError(f"harmonic number needs n >= 0, got {n}")
    return float(np.cumsum(1.0 / np.arange(1, n + 1))[-1]) if n else 0.0


@dataclass(frozen=True)
class HorizonDistribution:
    """Probability vector over horizons 1..n (n = declared support bound)."""

    probs: np.ndarray
    n: int

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("probs must be a non-empty 1-D vector")
        if not np.all(np.isfinite(p)):
            raise ValidationError("probs must be finite")
        if np.any(p < 0):
            raise ValidationError("probs must be non-negative")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise ValidationError(
                f"probs must sum to 1 within {SUM_TOL}, got {p.sum()!r}"
            )
        if self.n != p.size:
            raise ValidationError("declared length n must equal len(probs)")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m iid horizons by inverse CDF, consuming exactly ``rng.random(m)``."""
        cdf = np.cumsum(self.probs)
        idx = np.searchsorted(cdf, rng.random(m), side="right")
        # a cdf top a few ulp below 1 must not leak mass onto zero-probability tails
        last_positive = int(np.flatnonzero(self.probs)[-1])
        return np.minimum(idx, last_positive) + 1


def make_distribution(weights) -> HorizonDistribution:
    """Normalize a non-negative weight vector into a horizon distribution.

    The one sanctioned entry point for fuzzy data: weights off by more than
    the tolerance are renormalized silently.  Support indices are preserved
    (no trimming of zero entries).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w < 0):
        raise ValidationError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValidationError("at least one weight must be positive")
    if abs(total - 1.0) > SUM_TOL:
        w = w / total
    return HorizonDistribution(probs=w, n=w.size)


def delta(n: int) -> HorizonDistribution:
    """Point mass at horizon n (the classical fixed-horizon problem)."""
    if n < 1:
        raise ValidationError(f"delta needs n >= 1, got {n}")
    p = np.zeros(n)
    p[-1] = 1.0
    return HorizonDistribution(probs=p, n=n)


def uniform(n: int) -> HorizonDistribution:
    """Uniform distribution over horizons 1..n."""
    if n < 1:
        raise ValidationError(f"uniform needs n >= 1, got {n}")
    return HorizonDistribution(probs=np.full(n, 1.0 / n), n=n)


def worst_case_pstar(n: int) -> HorizonDistribution:
    """The distribution on [n] that caps every strategy's success at 1/H_n.

    p_i = (1/H_n)/(i+1) for i < n and p_n = 1/H_n, so that i*lambda_i is the
    constant 1/H_n on the whole support.
    """
    if n < 1:
        raise ValidationError(f"worst_case_pstar needs n >= 1, got {n}")
    h = harmonic(n)
    p = (1.0 / h) / (np.arange(1, n + 1) + 1.0)
    p[-1] = 1.0 / h
    return HorizonDistribution(probs=p, n=n)


def geometric_truncated(rho: float, n: int) -> HorizonDistribution:
    """Geometric weights rho^(k-1), k = 1..n, renormalized onto [n]."""
    if not (0.0 < rho < 1.0):
        raise ValidationError(f"geometric ratio must be in (0,1), got {rho}")
    if n < 1:
        raise ValidationError(f"geometric_truncated needs n >= 1, got {n}")
    return make_distribution(rho ** np.arange(n, dtype=float))


def poisson_truncated(mu: float, n: int) -> HorizonDistribution:
    """Poisson(mu) weights on k = 1..n (k = 0 excluded: a horizon is >= 1)."""
    if not (mu > 0 and math.isfinite(mu)):
        raise ValidationError(f"poisson rate must be positive, got {mu}")
    if n < 1:
        raise ValidationError(f"poisson_truncated needs n >= 1, got {n}")
    k = np.arange(1, n + 1, dtype=float)
    log_fact = np.fromiter(map(math.lgamma, (k + 1.0).tolist()), dtype=float, count=n)
    logw = k * math.log(mu) - log_fact
    return make_distribution(np.exp(logw - logw.max()))


def lambda_sequence(p: HorizonDistribution) -> np.ndarray:
    """Read-only array lambda_1..lambda_n, lambda_i = sum_{l=i..n} p_l / l, by one backward pass."""
    terms = p.probs / np.arange(1, p.n + 1)
    values = np.cumsum(terms[::-1])[::-1]
    values.setflags(write=False)
    return values


def sample_dirichlet_uniform(n: int, seed) -> HorizonDistribution:
    """One draw from the flat Dirichlet on the n-simplex.

    Constructed by normalizing n independent unit-rate exponentials;
    deterministic given the seed.
    """
    if n < 1:
        raise ValidationError(f"sample_dirichlet_uniform needs n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.standard_exponential(n)
    return HorizonDistribution(probs=x / x.sum(), n=n)
