"""Optimal and near-optimal strategies under a known horizon distribution.

The exact optimum over all acceptance vectors is found by backward induction
on the continuation values

    C_{n+1} = 0,   C_i = max_{q_i in [0,1]} ((q_i/i) * g_i + (1 - q_i/i) * C_{i+1}),

with gain g_i = i * lambda_i(p).  The objective is linear in each q_i once the
later entries are fixed, so some 0/1 vector attains the optimum; ties are
broken toward accepting.  :func:`backward_induction` steps through Python
floats, one distribution at a time.

:func:`solve_optimal` is the one solve: from a single lambda pass it also
reports theta = max_i g_i with its smallest index K*, and the value of the
classical cutoff rule at scale K*, which lies between theta/e and the optimum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dist import HorizonDistribution, _ceil_size, _check_size, _floats, harmonic, lambda_sequence
from .errors import ValidationError
# success_probability is unused here but kept as a name of this module:
# bench/test_bench.py checks that the tracer rebinds such copied names.
from .strategy import (  # noqa: F401
    ThresholdMixture,
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


# Backward induction steps through Python floats (several times faster than
# numpy scalars) one block at a time, so the float list stays small.
_BI_BLOCK = 1 << 14


def backward_induction(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize sum_i U_{i-1}(q) (q_i/i) g_i over q in [0,1]^n, exactly.

    Returns the 0/1 maximizer and the continuation values C_1..C_{n+1}.
    Accept (q_i = 1) exactly when g_i >= C_{i+1}; the optimum value is C_1.
    """
    g = _floats(gains, "gains", copy=False)
    n = g.size
    c = np.empty(n + 1)
    c[n] = cont = 0.0
    for hi in range(n, 0, -_BI_BLOCK):
        lo = max(hi - _BI_BLOCK, 0)
        block = g[lo:hi].tolist()
        for j in range(hi - lo - 1, -1, -1):
            gj = block[j]
            if gj >= cont:
                i = lo + j + 1
                cont = gj / i + (1.0 - 1.0 / i) * cont
            block[j] = cont
        c[lo:hi] = block
    return (g >= c[1:]).astype(float), c


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
    k = int(np.argmax(gains))
    theta = float(gains[k])
    cutoff = classical_cutoff(k + 1)
    value = lambda_form_value(lam, single_threshold(cutoff, p.n).q)
    opt = float(c[0])
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


def minimax_mixture(n_bar: int) -> ThresholdMixture:
    """Threshold randomization achieving exactly 1/(1 + H_{n_bar - 1}) on [n_bar].

    weights_1 = 1/(1+H_{n_bar-1}) and weights_l = weights_1/(l-1) for l >= 2;
    the success probability equals the constant for every horizon distribution
    supported on [n_bar].
    """
    _check_size(n_bar, "n_bar")
    top = 1.0 / (1.0 + harmonic(n_bar - 1))
    w = np.empty(n_bar)
    w[0] = top
    if n_bar > 1:
        w[1:] = top / np.arange(1, n_bar)
    return ThresholdMixture(weights=w / w.sum())


def minimax_mixture_expected_bound(mu_bar: float) -> ThresholdMixture:
    """Threshold randomization for a known bound on E[N]: mix over [ceil(mu*log(mu))]."""
    if not (mu_bar > 1.0 and math.isfinite(mu_bar)):
        raise ValidationError(f"mean bound must be > 1, got {mu_bar}")
    return minimax_mixture(_ceil_size(mu_bar * math.log(mu_bar), "mixture size ceil(mu log mu)"))
