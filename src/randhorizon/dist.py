"""Distributions of the random horizon and their marginal pick-probability sequences.

A horizon distribution assigns probability p_i to the event "exactly i items
arrive", for i = 1..n.  Everything downstream (strategy values, solvers,
learners) consumes a distribution only through the derived sequence

    lambda_i = sum_{l >= i} p_l / l,

the marginal probability that the i-th arrival is both the best seen so far
and the eventual overall best.  Lambda, on all of 1..n or on a window, comes
from :func:`_lambda_window` alone, and the harmonic numbers H_1..H_n from
:func:`_harmonics`.  A law caches two facts about itself, each in one place:
its cdf (``_inverse_cdf``) and its last positive horizon K
(``_last_positive``), at which every inverse-CDF reader clamps the cdf.

A caller's vector becomes floats once, in :func:`_floats`, and a real scalar
in :func:`_float`; both refuse an integer beyond the float range.  A caller's
seed becomes a generator in :func:`_rng` only.
``HorizonDistribution(probs=)`` refuses a sum off 1 by more than SUM_TOL;
make_distribution and every builder renormalize it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

SUM_TOL = 1e-12

# the largest count or length a caller may set (a vector of it is 800 MB of float64)
MAX_ELEMS = 10**8
_CHUNK_ELEMS = 1 << 22  # elements one vectorized batch of sim or learn touches, to bound memory
# entries per step of the lambda and A(p, q) kernels: their few working vectors of 128 KB stay
# in cache, and the divisors 1..n are never a vector of n
_CHUNK = 1 << 14


def harmonic(n: int) -> float:
    """n-th harmonic number 1 + 1/2 + ... + 1/n, by direct summation (H_0 = 0)."""
    _check_size(n, "n", low=0)
    return float(_harmonics(n)[-1]) if n else 0.0


def _harmonics(n: int) -> np.ndarray:
    """H_1..H_n by one sequential cumsum: entry i - 1 is harmonic(i) bit for bit, at any n."""
    return np.cumsum(1.0 / np.arange(1, n + 1))


def _ceil_snapped(power):
    """ceil(power) for float powers >= 1, elementwise, but an integer within 1e-9 relative of it.

    A power computed in floating point can land a few ulp above the integer it
    stands for (32**0.8 is 16.000000000000004), where a plain ceil overshoots.
    """
    nearest = np.round(power)
    return np.where(abs(power - nearest) <= 1e-9 * nearest, nearest, np.ceil(power)).astype(np.int64)


def _check_int(value: int, what: str, low: int) -> int:
    """A caller-set integer as an int, refused when it is no integer or below its floor low.

    An integer is what ``operator.index`` takes, except a bool: 2.0 and True are refused.
    """
    try:
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if value < low:
        raise ValidationError(f"{what} must be >= {low}, got {value}")
    return value


def _check_size(size: int, what: str, low: int = 1) -> int:
    """A caller-set count or length as an int: :func:`_check_int`, and at most MAX_ELEMS."""
    size = _check_int(size, what, low)
    if size > MAX_ELEMS:
        raise ValidationError(f"{what} {size} exceeds the cap of {MAX_ELEMS} elements")
    return size


def _rng(seed) -> np.random.Generator:
    """The generator of a caller's seed: an integer >= 0 (:func:`_check_int`) or a SeedSequence.

    A Generator is drawn from in place, so consecutive calls on one continue its stream.
    """
    if not isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        seed = _check_int(seed, "seed", 0)
    return np.random.default_rng(seed)


def _ceil_size(size: float, what: str) -> int:
    """ceil of a size computed in floating point; one that overflows a float is out of range."""
    if size == math.inf:
        raise ValidationError(f"{what} overflows a float")
    return math.ceil(size)


def _float(value, what: str) -> float:
    """A caller's real scalar as a float, refused when it is an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} is an integer beyond the float range") from None


def _floats(values, what: str, copy: bool = True) -> np.ndarray:
    """A caller's vector as a float64 copy, or with copy=False itself if already float64."""
    try:
        return (np.array if copy else np.asarray)(values, dtype=float)
    except OverflowError:
        raise ValidationError(f"{what} holds an integer beyond the float range") from None


def _positive_ints(values, what: str) -> np.ndarray:
    """A caller's non-empty 1-D vector of integer dtype as int64, every entry >= 1.

    A float or bool vector is refused, not truncated; int64 input is not copied.
    """
    v = np.asarray(values)
    if v.ndim != 1 or v.size == 0 or v.dtype.kind not in "iu":
        raise ValidationError(
            f"{what} must be a non-empty 1-D integer vector, got {v.shape} {v.dtype}")
    v = v.astype(np.int64, copy=False)  # a uint64 past the int64 range wraps below 1
    if np.any(v < 1):
        raise ValidationError(f"{what} must be positive integers")
    return v


def _check_weights(w: np.ndarray, what: str) -> None:
    """Reject a weight vector that is empty, not 1-D, not finite or negative somewhere."""
    if w.ndim != 1 or w.size == 0:
        raise ValidationError(f"{what} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValidationError(f"{what} must be finite")
    if np.any(w < 0):
        raise ValidationError(f"{what} must be non-negative")


def _probability_vector(values, what: str, copy: bool = True) -> np.ndarray:
    """values as :func:`_floats` gives them, refused unless a weight vector that sums to 1."""
    v = _floats(values, what, copy)
    _check_weights(v, what)
    if abs(v.sum() - 1.0) > SUM_TOL:
        raise ValidationError(f"{what} must sum to 1 within {SUM_TOL}, got {float(v.sum())!r}")
    return v


@dataclass(frozen=True, eq=False)
class HorizonDistribution:
    """Probability vector over horizons 1..n; the support bound n is its length.

    Laws compare and hash by identity: a generated ``__eq__`` over the array
    would have no truth value.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = _probability_vector(self.probs, "probs")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.probs.size

    @cached_property
    def _last_positive(self) -> int:
        """The index of the last positive entry: O(1) when p_n > 0, else one backward boolean scan."""
        if self.probs[-1] > 0:
            return self.n - 1
        return self.n - 1 - int(np.argmax(self.probs[::-1] > 0))

    @cached_property
    def _inverse_cdf(self) -> np.ndarray:
        """The cdf, summed once per distribution; readers clamp it at :attr:`_last_positive`."""
        cdf = np.cumsum(self.probs)
        cdf.setflags(write=False)
        return cdf

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """m iid horizons by inverse CDF, consuming exactly ``rng.random(m)``."""
        _check_size(m, "sample count")
        return _horizons(self, rng.random(m))


def _horizons(p: HorizonDistribution, u: np.ndarray) -> np.ndarray:
    """The horizon of each uniform in [0, 1) by inverse CDF, ascending for ascending uniforms."""
    idx = np.searchsorted(p._inverse_cdf, u, side="right")
    # a cdf top a few ulp below 1 must not leak mass onto zero-probability tails
    return np.minimum(idx, p._last_positive) + 1


def _horizon_edges(p: HorizonDistribution, ends: np.ndarray) -> np.ndarray:
    """Per endpoint e, the edge below which a uniform's :func:`_horizons` horizon is <= e.

    That is u < cdf[e - 1] while e - 1 is below the last positive entry, and
    every uniform (+inf) from it on, where :func:`_horizons` clamps; ascending
    for ascending ends, so with the edges capped at 1 a uniform's horizon falls
    in block (prev, e] with probability the difference of consecutive edges.
    Gathers only the ends' entries of the cdf, with no copy of it.
    """
    last_positive = p._last_positive
    idx = np.minimum(ends - 1, last_positive)
    return np.where(idx < last_positive, p._inverse_cdf[idx], np.inf)


def make_distribution(weights) -> HorizonDistribution:
    """A copy of a non-negative weight vector as a horizon distribution, renormalized if need be.

    Support indices are preserved (no trimming of zero entries).
    """
    return _distribution(_floats(weights, "weights"))


def _distribution(w: np.ndarray) -> HorizonDistribution:
    """The distribution holding w, a float vector no caller keeps, read-only from now on.

    Checked once; divided by its sum in place only when that is off 1 by more than SUM_TOL.
    """
    _check_weights(w, "weights")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if total == math.inf:
        raise ValidationError("the weight sum overflows a float")
    if total <= 0:
        raise ValidationError("at least one weight must be positive")
    if abs(total - 1.0) > SUM_TOL:
        w /= total
    w.setflags(write=False)
    p = object.__new__(HorizonDistribution)
    object.__setattr__(p, "probs", w)
    return p


def delta(n: int) -> HorizonDistribution:
    """Point mass at horizon n (the classical fixed-horizon problem)."""
    _check_size(n, "n")
    p = np.zeros(n)
    p[-1] = 1.0
    return _distribution(p)


def uniform(n: int) -> HorizonDistribution:
    """Uniform distribution over horizons 1..n."""
    _check_size(n, "n")
    return _distribution(np.full(n, 1.0 / n))


def worst_case_pstar(n: int) -> HorizonDistribution:
    """The distribution on [n] that caps every strategy's success at 1/H_n.

    p_i = (1/H_n)/(i+1) for i < n and p_n = 1/H_n, so that i*lambda_i is the
    constant 1/H_n on the whole support.
    """
    _check_size(n, "n")
    h = harmonic(n)
    p = (1.0 / h) / (np.arange(1, n + 1) + 1.0)
    p[-1] = 1.0 / h
    return _distribution(p)


def geometric_truncated(rho: float, n: int) -> HorizonDistribution:
    """Geometric weights rho^(k-1), k = 1..n, renormalized onto [n]."""
    if not (0.0 < rho < 1.0):
        raise ValidationError(f"geometric ratio must be in (0,1), got {rho}")
    _check_size(n, "n")
    return _distribution(rho ** np.arange(n, dtype=float))


def poisson_truncated(mu: float, n: int) -> HorizonDistribution:
    """Poisson(mu) weights on k = 1..n (k = 0 excluded: a horizon is >= 1).

    The weights are exp(f(k) - max f), f(k) = k log mu - lgamma(k + 1), computed
    only on the window of k with f(k) >= f(k0) - 800, k0 = round(mu) clamped to
    [1, n]; f is concave, so the window is one interval around k0, and bisection
    finds its two ends.  Outside it f - max f < -800, where exp underflows to
    exactly 0.0 (below about -745.13), so the weights equal the formula's on all
    of 1..n bit for bit.  Cost: O(window + log n) lgamma calls and one length-n
    zero vector; the window holds about 80 sqrt(mu) points once mu is in the
    tens, and at most a few hundred below that.
    """
    mu = _float(mu, "poisson rate")
    if not (mu > 0 and math.isfinite(mu)):
        raise ValidationError(f"poisson rate must be positive, got {mu}")
    _check_size(n, "n")
    log_mu = math.log(mu)

    def f(k: int) -> float:
        return k * log_mu - math.lgamma(k + 1.0)

    k0 = min(max(round(mu), 1), n)
    floor = f(k0) - 800.0

    def edge(inside: int, outside: int) -> int:
        """The last k from inside towards outside with f(k) >= floor (outside: below or off [n])."""
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if f(mid) >= floor:
                inside = mid
            else:
                outside = mid
        return inside

    lo, hi = edge(k0, 0), edge(k0, n + 1)
    k = np.arange(lo, hi + 1, dtype=float)
    log_fact = np.fromiter(map(math.lgamma, (k + 1.0).tolist()), dtype=float, count=k.size)
    logw = k * log_mu - log_fact
    w = np.zeros(n)
    w[lo - 1:hi] = np.exp(logw - logw.max())
    return _distribution(w)


def lambda_sequence(p: HorizonDistribution) -> np.ndarray:
    """Read-only array lambda_1..lambda_n, lambda_i = sum_{l=i..n} p_l / l, by one backward pass."""
    values = np.empty(p.n)
    _lambda_window(p.probs, 0, p.n, values)
    values.setflags(write=False)
    return values


def _lambda_window(probs: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """lambda_{lo+1}..lambda_hi into out[lo:hi] by one reversed cumsum over probs[lo:hi] alone.

    Those are p's own lambda, bit for bit, when p is 0 past hi: the entries
    past hi only add zeros to the running sum.  Nothing outside out[lo:hi] is
    written.
    """
    for start in range(lo, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
        # exact integers: an int range's quotients
        np.divide(probs[start:stop], np.arange(start + 1.0, stop + 1), out=out[start:stop])
    backward = out[lo:hi][::-1]
    np.cumsum(backward, out=backward)


def sample_dirichlet_uniform(n: int, seed) -> HorizonDistribution:
    """One draw from the flat Dirichlet on the n-simplex.

    Constructed by normalizing n independent unit-rate exponentials;
    deterministic given the seed.
    """
    _check_size(n, "n")
    x = _rng(seed).standard_exponential(n)
    return _distribution(x / x.sum())
