"""Randomizing a horizon guess for black-box online algorithms.

A family of algorithms indexed by an assumed horizon s comes with a
performance floor M(s, n) >= c0 * f(s)/f(n) * 1[s <= n] on instances of true
horizon n, for some nondecreasing positive f.  Drawing s from the right
distribution makes the expected floor constant in n over a known range
[n_lo, n_hi], and that constant is at least c0 / (1 + log(f(n_hi)/f(n_lo))).
:func:`meta_mixture` evaluates f once over the range and returns the
weights, that constant, its log bound and the expected-floor curve.

The module also builds the matching hardness gadgets: a deterministic
nondecreasing value sequence with a horizon law that pins every stopping rule
to the same ratio, and a value distribution whose running maximum climbs
through a prescribed grid with high probability (a record of the grid's
points, its cdf values there, the prefix counts and the union slack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .dist import (HorizonDistribution, _ceil_snapped, _check_int, _check_size, _distribution,
                   _float, _floats, _harmonics, _rng)
from .errors import ValidationError
from .sim import SimResult, _binomial_result

_FAMILIES = ("identity", "uniform-max", "exp-max")


@dataclass(frozen=True)
class PerformanceProfile:
    """Floor constant c0 and scale function f for a family of black boxes.

    f is a named family or a table, not both; with neither it is "identity".
    Named families: "identity" f(i) = i, "uniform-max" f(i) = i/(i+1) (mean
    maximum of i standard uniforms), "exp-max" f(i) = H_i (mean maximum of i
    standard exponentials).  A table profile evaluates only inside its
    table; anything else is an error rather than an extrapolation.
    """

    c0: float
    family: str | None = None
    table: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", _float(self.c0, "c0"))
        if not (self.c0 > 0 and math.isfinite(self.c0)):
            raise ValidationError(f"c0 must be positive, got {self.c0}")
        if self.table is None:
            object.__setattr__(self, "family", "identity" if self.family is None else self.family)
            if self.family not in _FAMILIES:
                raise ValidationError(f"unknown profile family {self.family!r}")
        elif self.family is not None:
            raise ValidationError(f"a table profile takes no family, got {self.family!r}")
        elif not self.table:
            raise ValidationError("table profile needs a non-empty table")
        else:
            object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def f(self, i):
        """f at a positive integer, or elementwise at an integer array."""
        idx = np.asarray(i)
        if idx.dtype.kind not in "iu" or np.any(idx < 1):
            raise ValidationError(f"f is defined on positive integers, got {i}")
        if self.table is not None:
            try:
                out = _floats([self.table[k] for k in idx.ravel().tolist()], "profile table")
            except KeyError as exc:
                raise ValidationError(f"profile table has no value at {exc.args[0]}") from None
            out = out.reshape(idx.shape)
        elif self.family == "identity":
            out = idx.astype(float)
        elif self.family == "uniform-max":
            out = idx / (idx + 1.0)
        else:
            out = _harmonics(idx.max(initial=0))[idx - 1]
        return float(out) if idx.ndim == 0 else out


class MetaMixture(NamedTuple):
    """Distribution over horizon guesses s = n_lo..n_hi with its flat guarantee."""

    weights: np.ndarray
    n_lo: int
    n_hi: int
    guarantee: float  # c0/Z, the flat expected floor
    log_bound: float  # c0 / (1 + log(f(n_hi)/f(n_lo))) <= guarantee
    expected: np.ndarray  # sum_{s<=n} weights(s) c0 f(s)/f(n) at n = n_lo..n_hi


class ProphetGrid(NamedTuple):
    """Right-continuous step cdf with atoms on a value grid, its prefix counts and union slack.

    points holds theta_0..theta_n; values holds the cdf at those points, with
    values[0] = 0 and values[-1] = 1, so the atoms sit at points[1:].
    """

    points: np.ndarray
    values: np.ndarray
    k: np.ndarray
    xi: float


def meta_mixture(profile: PerformanceProfile, n_lo: int, n_hi: int) -> MetaMixture:
    """The horizon-guess distribution whose expected floor is flat over [n_lo, n_hi].

    weights(n_lo) = 1/Z, weights(s) = (1 - f(s-1)/f(s))/Z for s > n_lo, with Z
    the sum of those numerators (summed as they are, not as n_hi - n_lo + 1 -
    sum f(i)/f(i+1), which cancels); the flat value is c0/Z >= c0 / (1 +
    log(f(n_hi)/f(n_lo))).  The one call of f over the range also gives the
    expected-floor curve, by one cumulative sum, and that bound.
    """
    _check_size(n_lo, "n_lo")
    _check_size(n_hi, "n_hi")
    if n_lo > n_hi:
        raise ValidationError(f"need n_lo <= n_hi, got ({n_lo}, {n_hi})")
    fv = profile.f(np.arange(n_lo, n_hi + 1))
    if not np.all((fv > 0) & (fv < np.inf)):  # NaN fails both
        raise ValidationError("f must be positive and finite on [n_lo, n_hi]")
    if np.any(np.diff(fv) < 0):
        raise ValidationError("f must be nondecreasing on [n_lo, n_hi]")
    weights = np.concatenate([[1.0], 1.0 - fv[:-1] / fv[1:]])
    z = weights.sum()
    weights /= z
    expected = profile.c0 * np.cumsum(weights * fv) / fv
    weights.setflags(write=False)
    expected.setflags(write=False)
    log_bound = profile.c0 / (1.0 + math.log(fv[-1] / fv[0]))
    return MetaMixture(weights, n_lo, n_hi, profile.c0 / z, log_bound, expected)


def non_iid_hard_instance(a) -> tuple[HorizonDistribution, float]:
    """Horizon law that pins every stopping rule on a fixed value ladder to one ratio.

    For deterministic values a_1 <= ... <= a_n, the law p_l = c(1 - a_l/a_{l+1})
    for l < n and p_n = c, with c = (n - sum a_i/a_{i+1})^{-1}, makes
    sum_{j>=i} (a_i/a_j) p_j = c for every start index i, so every stopping
    rule earns exactly c of the running best.
    """
    av = _floats(a, "value sequence", copy=False)
    if av.ndim != 1 or av.size == 0:
        raise ValidationError("value sequence must be a non-empty 1-D vector")
    if np.any(av <= 0) or not np.all(np.isfinite(av)):
        raise ValidationError("values must be positive and finite")
    if np.any(np.diff(av) < 0):
        raise ValidationError("values must be nondecreasing")
    ratios = av[:-1] / av[1:]
    c = 1.0 / (av.size - ratios.sum())
    # c as the law holds it: renormalizing the rounding of a long sum may move it by an ulp
    p = _distribution(np.concatenate([c * (1.0 - ratios), [c]]))
    return p, float(p.probs[-1])


def prophet_block_distribution(n: int, K: int, thetas) -> ProphetGrid:
    """Value distribution whose running maximum climbs the theta grid on schedule.

    With z = K^(1/(n-1)) >= 2, prefix counts k_i = ceil(K^((i-1)/(n-1))) and
    grid values G(theta_i) = alpha^(1/k_i) for alpha = K^(-1/((n-1)(z-1))),
    the maximum of the first k_i draws lands in (theta_{i-1}, theta_i] for
    every i simultaneously, up to a union-bound slack

        xi = sum_i 1 - (G(theta_i)^{k_i} - G(theta_{i-1})^{k_i})
           <= (n-1) * (1 + z^(-z/(2(z-1))) - z^(-1/(z-1))).
    """
    _check_size(n, "n", low=2)
    _check_int(K, "K", 1)  # not capped: z >= 2 needs K >= 2^(n-1)
    # the last prefix count is float(K), stored as int64; 2^63 - 1 rounds up to 2^63,
    # and the integer test first keeps float() off a K too large for a float
    if K >= 2**63 or float(K) >= 2**63:
        raise ValidationError(f"K = {K} puts the prefix counts past int64 (float(K) must be < 2^63)")
    th = _floats(thetas, "thetas")
    if th.ndim != 1 or th.size != n + 1:
        raise ValidationError(f"thetas must hold n+1 = {n + 1} grid points")
    if np.any(np.diff(th) < 0):
        raise ValidationError("thetas must be nondecreasing")
    z = K ** (1.0 / (n - 1))
    if z < 2.0:
        raise ValidationError(
            f"need K^(1/(n-1)) >= 2, got {z:.4f} (K={K}, n={n})"
        )
    alpha = K ** (-1.0 / ((n - 1) * (z - 1.0)))
    k = np.empty(n, dtype=np.int64)
    for i in range(1, n + 1):
        k[i - 1] = _ceil_snapped(K ** ((i - 1.0) / (n - 1.0)))
    values = np.empty(n + 1)
    values[0] = 0.0
    values[1:n] = alpha ** (1.0 / k[:-1])
    values[n] = 1.0
    xi = float(np.sum(1.0 - (values[1:] ** k - values[:-1] ** k)))
    hbar = z ** (-z / (2.0 * (z - 1.0))) - z ** (-1.0 / (z - 1.0))
    bound = (n - 1) * (1.0 + hbar)
    if xi > bound + 1e-9:
        raise AssertionError(f"union slack {xi} exceeds its bound {bound}")
    for a in (th, values, k):
        a.setflags(write=False)
    return ProphetGrid(th, values, k, xi)


def union_event_rate(grid: ProphetGrid, trials: int, seed) -> SimResult:
    """Monte Carlo of the joint event: max of the first k_i draws in block i, for all i.

    Block maxima over the disjoint stretches (k_{i-1}, k_i] are independent,
    so each is drawn directly from its discrete max law and the prefix maxima
    are their running maximum.
    """
    _check_size(trials, "trials")
    rng = _rng(seed)
    blocks = np.diff(grid.k, prepend=0)
    if np.any(blocks <= 0):
        raise ValidationError("prefix counts must be strictly increasing")
    prefix = np.zeros(trials, dtype=np.int64)
    hits = np.ones(trials, dtype=bool)
    for i, b in enumerate(blocks.tolist(), start=1):
        # atom index (1-based into points) of the maximum of b iid draws
        prefix = np.maximum(prefix, np.searchsorted(grid.values ** b, rng.random(trials), "right"))
        hits &= prefix == i
    return _binomial_result(int(hits.sum()), trials)
