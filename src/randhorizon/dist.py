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

# the largest count or length a caller may set (a vector of it is 800 MB of float64)
MAX_ELEMS = 10**8


def harmonic(n: int) -> float:
    """n-th harmonic number 1 + 1/2 + ... + 1/n, by direct summation (H_0 = 0)."""
    _check_size(n, "n", low=0)
    return float(np.cumsum(1.0 / np.arange(1, n + 1))[-1]) if n else 0.0


def _ceil_snapped(power):
    """ceil(power) for float powers >= 1, elementwise, but an integer within 1e-9 relative of it.

    A power computed in floating point can land a few ulp above the integer it
    stands for (32**0.8 is 16.000000000000004), where a plain ceil overshoots.
    """
    nearest = np.round(power)
    return np.where(abs(power - nearest) <= 1e-9 * nearest, nearest, np.ceil(power)).astype(np.int64)


def _check_size(size: int, what: str, low: int = 1) -> None:
    """Reject a count or length a caller sets that is below its floor low or above MAX_ELEMS."""
    if size < low:
        raise ValidationError(f"{what} must be >= {low}, got {size}")
    if size > MAX_ELEMS:
        raise ValidationError(f"{what} {size} exceeds the cap of {MAX_ELEMS} elements")


def _ceil_size(size: float, what: str) -> int:
    """ceil of a size computed in floating point; one that overflows a float is out of range."""
    if size == math.inf:
        raise ValidationError(f"{what} overflows a float")
    return math.ceil(size)


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy of values: the one way a caller's array becomes part of a library value."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_weights(w: np.ndarray, what: str) -> None:
    """Reject a weight vector that is empty, not 1-D, not finite or negative somewhere."""
    if w.ndim != 1 or w.size == 0:
        raise ValidationError(f"{what} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValidationError(f"{what} must be finite")
    if np.any(w < 0):
        raise ValidationError(f"{what} must be non-negative")


def _probability_vector(values, what: str) -> np.ndarray:
    """A read-only copy of values, checked to be a weight vector that sums to 1."""
    v = _frozen(values)
    _check_weights(v, what)
    if abs(v.sum() - 1.0) > SUM_TOL:
        raise ValidationError(f"{what} must sum to 1 within {SUM_TOL}, got {float(v.sum())!r}")
    return v


@dataclass(frozen=True)
class HorizonDistribution:
    """Probability vector over horizons 1..n; the support bound n is its length."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _probability_vector(self.probs, "probs"))

    @property
    def n(self) -> int:
        return self.probs.size

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
    _check_weights(w, "weights")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if total == math.inf:
        raise ValidationError("the weight sum overflows a float")
    if total <= 0:
        raise ValidationError("at least one weight must be positive")
    if abs(total - 1.0) > SUM_TOL:
        w = w / total
    return HorizonDistribution(probs=w)


def delta(n: int) -> HorizonDistribution:
    """Point mass at horizon n (the classical fixed-horizon problem)."""
    _check_size(n, "n")
    p = np.zeros(n)
    p[-1] = 1.0
    return HorizonDistribution(probs=p)


def uniform(n: int) -> HorizonDistribution:
    """Uniform distribution over horizons 1..n."""
    _check_size(n, "n")
    return HorizonDistribution(probs=np.full(n, 1.0 / n))


def worst_case_pstar(n: int) -> HorizonDistribution:
    """The distribution on [n] that caps every strategy's success at 1/H_n.

    p_i = (1/H_n)/(i+1) for i < n and p_n = 1/H_n, so that i*lambda_i is the
    constant 1/H_n on the whole support.
    """
    _check_size(n, "n")
    h = harmonic(n)
    p = (1.0 / h) / (np.arange(1, n + 1) + 1.0)
    p[-1] = 1.0 / h
    return HorizonDistribution(probs=p)


def geometric_truncated(rho: float, n: int) -> HorizonDistribution:
    """Geometric weights rho^(k-1), k = 1..n, renormalized onto [n]."""
    if not (0.0 < rho < 1.0):
        raise ValidationError(f"geometric ratio must be in (0,1), got {rho}")
    _check_size(n, "n")
    return make_distribution(rho ** np.arange(n, dtype=float))


def poisson_truncated(mu: float, n: int) -> HorizonDistribution:
    """Poisson(mu) weights on k = 1..n (k = 0 excluded: a horizon is >= 1)."""
    if not (mu > 0 and math.isfinite(mu)):
        raise ValidationError(f"poisson rate must be positive, got {mu}")
    _check_size(n, "n")
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
    _check_size(n, "n")
    rng = np.random.default_rng(seed)
    x = rng.standard_exponential(n)
    return HorizonDistribution(probs=x / x.sum())
