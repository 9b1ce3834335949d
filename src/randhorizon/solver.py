"""Optimal and near-optimal strategies under a known horizon distribution.

The exact optimum over all acceptance vectors is found by backward induction
on the continuation values

    C_{n+1} = 0,   C_i = max_{q_i in [0,1]} ((q_i/i) * g_i + (1 - q_i/i) * C_{i+1}),

with gain g_i = i * lambda_i(p).  The objective is linear in each q_i once the
later entries are fixed, so some 0/1 vector attains the optimum; ties are
broken toward accepting.  The optimal q is a union of a few runs ("islands",
Presman & Sonin 1972), and :func:`backward_induction` solves it run by run
in closed form from one vector of suffix sums, with no per-index Python loop.

:func:`solve_optimal` is the one solve: from a single lambda pass it also
reports theta = max_i g_i with its smallest index K*, and the value of the
classical cutoff rule at scale K*, which lies between theta/e and the optimum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dist import (HorizonDistribution, _ceil_size, _check_size, _float, _floats, harmonic,
                   lambda_sequence)
from .errors import ValidationError
# success_probability is unused here but kept as a name of this module:
# bench/test_bench.py checks that the tracer rebinds such copied names.
from .strategy import (  # noqa: F401
    lambda_form_value,
    single_threshold,
    success_probability,
    threshold_success_values,
)


class SolveResult(NamedTuple):
    """The optimum and the single-threshold sandwich around it, from one lambda pass."""

    q: np.ndarray  # optimal 0/1 acceptance vector
    value: float  # optimum, C_1
    theta: float  # max_i i * lambda_i(p)
    k_star: int  # smallest index attaining theta
    cutoff: int  # classical cutoff at scale K*
    threshold_value: float  # value of that single-threshold rule


def _last_hit(hit, hi: int) -> int:
    """Largest m <= hi whose entry of hit(lo, hi) is true, or 0 when none is.

    hit(lo, hi) returns the booleans of m = lo..hi.  The windows double back
    from hi, from 64 entries up to 8192, so a run of length r reads O(r)
    entries in O(log r + r/8192) calls, and a window's temporaries stay
    under 100 KB.
    """
    width = 64
    while hi >= 1:
        lo = max(hi - width + 1, 1)
        mask = hit(lo, hi)
        back = int(mask[::-1].argmax())
        if mask[-1 - back]:
            return hi - back
        hi, width = lo - 1, min(2 * width, 8192)
    return 0


def backward_induction(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sum_i U_{i-1}(q) (q_i/i) g_i over q in [0,1]^n, exactly.

    Returns the 0/1 maximizer and the continuation values C_1..C_{n+1}.
    Accept (q_i = 1) exactly when g_i >= C_{i+1}; the optimum value is C_1.
    Every caller in the package passes g_i = i * lambda_i.

    The optimal q is a union of runs, solved from the last index back.  On a
    reject run C stays constant; the run ends at the last j with g_j >= C.
    With S_i = sum_{j >= i} g_j/(j(j-1)), an accept run [a, b] has
    C_m = (m-1) (S_m - S_{b+1} + C_{b+1}/b) at every m in it but m = 1, where
    C_1 = max(g_1, C_2); it ends at the last m with g_m < C_{m+1}.  Each run's
    end is searched in windows that double back from the run's end
    (:func:`_last_hit`), so the cost is O(n) elements plus O(runs * log n +
    n/8192) numpy calls.  Uniform, Poisson, delta and pstar laws and flat
    Dirichlet draws have one or two runs; arbitrary gains can have many:
    random ones at n = 3 * 10^5 have about 10^5 and take over ten times as
    long as a scalar loop would.  S is built in place in the vector that
    becomes q, so the call holds C, q and one window.
    """
    g = _floats(gains, "gains", copy=False)
    if g.ndim != 1 or not np.isfinite(g).all():
        raise ValidationError(f"gains must be a finite 1-D vector, got shape {g.shape}")
    n = g.size
    # s[m - 1] = S_{m+1} for m = 1..n.  Negative gains are always rejected, and
    # dropping them from S keeps S_{b+1} within 2 C_{b+1}/b, so no difference cancels.
    # c holds 1..n+1 until the runs overwrite it, so S needs no temporary.
    c, s = np.arange(1.0, n + 2), np.empty(n)
    t = s[:-1]
    np.multiply(c[: n - 1], c[1:n], out=t)  # (j-1) j for j = 2..n
    np.divide(g[1:], t, out=t)
    np.maximum(t, 0.0, out=t)
    s[-1:] = 0.0
    np.add.accumulate(s[::-1], out=s[::-1])
    c[n] = cont = 0.0

    def accepts_back_to(lo: int, hi: int) -> np.ndarray:
        # C_{m+1} = m (S_{m+1} - k) into c[m], k = S_{b+1} - C_{b+1}/b;
        # m rejects when g_m < C_{m+1}
        w = c[lo : hi + 1]
        np.subtract(s[lo - 1 : hi], k, out=w)
        w *= np.arange(lo, hi + 1)
        return g[lo - 1 : hi] < w

    i = n  # C_{i+1} = cont is known; index i is next
    while i:
        if g[i - 1] >= cont:  # an accept run ends at i
            k = s[i - 1] - cont / i
            i = _last_hit(accepts_back_to, i - 1)
            if not i:
                c[0] = g[0]
                break
            cont = c[i]
        else:
            j = _last_hit(lambda lo, hi: g[lo - 1 : hi] >= cont, i - 1)
            c[j:i] = cont
            i = j
    q = np.greater_equal(g, c[1:], out=s)
    return q, c


def classical_cutoff(k: int) -> int:
    """Optimal rejection cutoff of the fixed-horizon problem at scale k.

    The smallest s with sum_{i=s}^{k-1} 1/i <= 1 (so roughly k/e); by
    convention 1 at k = 1 and 2 at k = 2.  The partial sums run from 1/(k-1)
    down to 1/2 in the order a loop lowering s would add them, so the count
    of those <= 1 is exact.
    """
    _check_size(k, "scale")
    if k <= 2:
        return k
    partial = np.cumsum(1.0 / np.arange(k - 1, 1, -1))
    return k - int(np.searchsorted(partial, 1.0, side="right"))


def solve_optimal(p: HorizonDistribution) -> SolveResult:
    """Exact optimum over all strategies, with theta, K* and the certified threshold value.

    One lambda sequence, one gain vector and one backward induction serve
    every field; only the acceptance vector and scalars outlive the call.
    The threshold rule is the classical cutoff at scale K* (the smallest
    maximizer of i*lambda_i), which collects at least a 1/e fraction of
    K* lambda_{K*} = theta.  Asserts theta/e <= threshold value <= optimum
    before returning.
    """
    lam = lambda_sequence(p)
    gains = np.arange(1, p.n + 1) * lam
    q, c = backward_induction(gains)
    q.setflags(write=False)
    opt = float(c[0])
    del c  # the threshold rule's temporaries below are the peak; C is not needed for them
    k = int(np.argmax(gains))
    theta = float(gains[k])
    cutoff = classical_cutoff(k + 1)
    value = lambda_form_value(lam, single_threshold(cutoff, p.n))
    tol = 1e-12
    if not (theta / math.e <= value + tol and value <= opt + tol):
        raise AssertionError(
            f"approximation sandwich violated: {theta / math.e} <= {value} <= {opt}"
        )
    return SolveResult(q, opt, theta, k + 1, cutoff, value)


def best_single_threshold(p: HorizonDistribution) -> tuple[int, float]:
    """Exhaustive scan of thresholds l = 1..n+1; smallest argmax on ties."""
    values = threshold_success_values(p, p.n + 1)
    l = int(np.argmax(values))
    return l + 1, float(values[l])


def minimax_mixture(n_bar: int) -> np.ndarray:
    """Read-only threshold weights that earn exactly 1/(1 + H_{n_bar - 1}) on [n_bar].

    weights_1 = 1/(1+H_{n_bar-1}) and weights_l = weights_1/(l-1) for l >= 2
    (entry l - 1 weighs threshold l); the success probability equals the
    constant for every horizon distribution supported on [n_bar].
    """
    _check_size(n_bar, "n_bar")
    top = 1.0 / (1.0 + harmonic(n_bar - 1))
    w = np.empty(n_bar)
    w[0] = top
    np.divide(top, np.arange(1, n_bar), out=w[1:])
    w /= w.sum()
    w.setflags(write=False)
    return w


def minimax_mixture_expected_bound(mu_bar: float) -> np.ndarray:
    """Read-only threshold weights for a known bound on E[N]: mix over [ceil(mu*log(mu))]."""
    mu_bar = _float(mu_bar, "mean bound")
    if not (mu_bar > 1.0 and math.isfinite(mu_bar)):
        raise ValidationError(f"mean bound must be > 1, got {mu_bar}")
    return minimax_mixture(_ceil_size(mu_bar * math.log(mu_bar), "mixture size ceil(mu log mu)"))
