"""Independent brute-force oracles.

Everything here evaluates strategies by enumerating permutations and
simulating decisions position by position, never through the closed forms
under test.
"""

import itertools
import math

import numpy as np

from randhorizon import HorizonDistribution, success_probability, make_strategy


def permutation_tables(n: int):
    """All n! permutations of 1..n: best-so-far indicators and argmax positions."""
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    records = perms == np.maximum.accumulate(perms, axis=1)
    best_pos = perms.argmax(axis=1)
    return records, best_pos


def perm_success_rate(n: int, q01: np.ndarray, tables=None) -> float:
    """Exact success probability of a deterministic 0/1 strategy at fixed horizon n."""
    records, best_pos = tables if tables is not None else permutation_tables(n)
    accepted = records & (np.asarray(q01[:n]) > 0.5)
    any_pick = accepted.any(axis=1)
    first = accepted.argmax(axis=1)
    return float(np.mean(any_pick & (first == best_pos)))


def perm_optimum(n: int):
    """Max over all 2^n deterministic strategies of the permutation success rate."""
    tables = permutation_tables(n)
    best_val, best_q = -1.0, None
    for bits in itertools.product((0.0, 1.0), repeat=n):
        q = np.array(bits)
        val = perm_success_rate(n, q, tables)
        if val > best_val:
            best_val, best_q = val, q
    return best_val, best_q


def perm_threshold_scan(n: int):
    """(best l, value) over thresholds l = 1..n+1 by permutation enumeration."""
    tables = permutation_tables(n)
    best_l, best_val = 1, -1.0
    for l in range(1, n + 2):
        q = np.zeros(n)
        q[l - 1 :] = 1.0
        val = perm_success_rate(n, q, tables)
        if val > best_val:
            best_l, best_val = l, val
    return best_l, best_val


def exhaustive_value_optimum(p: HorizonDistribution) -> float:
    """Max of the exact value over all 2^n deterministic strategies (DP oracle)."""
    best = 0.0
    for bits in itertools.product((0.0, 1.0), repeat=p.n):
        best = max(best, success_probability(p, make_strategy(np.array(bits))))
    return best


def first_principles_success(p: HorizonDistribution, q: np.ndarray) -> float:
    """Exact success probability of a fractional strategy from first principles.

    Enumerates every permutation of every horizon in the support and sums, per
    permutation, the probability that the first accepted record is the one
    holding the maximum: P[accept record j] = q_j * prod(1 - q at earlier
    records).  Exponential in the support bound; keep p.n small.
    """
    qx = np.concatenate([np.asarray(q, dtype=float), np.ones(max(0, p.n - len(q)))])
    total = 0.0
    for horizon in range(1, p.n + 1):
        if p.probs[horizon - 1] == 0.0:
            continue
        win = 0.0
        for perm in itertools.permutations(range(1, horizon + 1)):
            perm = np.array(perm)
            record_pos = np.flatnonzero(perm == np.maximum.accumulate(perm))
            none_before = 1.0
            for pos in record_pos:
                if perm[pos] == horizon:
                    win += none_before * qx[pos]
                none_before *= 1.0 - qx[pos]
        total += p.probs[horizon - 1] * win / math.factorial(horizon)
    return total


def perm_adversary_rate(n: int, l: int) -> float:
    """Exact success rate of threshold rule l in the adversary game, by enumeration.

    The rule accepts the first best-so-far arrival at time >= l among the
    first min(k + 1, n), k = isqrt(n).  A pick at t <= k faces horizon n and
    wins iff it holds the value n; a pick at k + 1 faces horizon k + 1 and
    wins iff it holds the largest of the first k + 1 values.
    """
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    records = perms == np.maximum.accumulate(perms, axis=1)
    k = math.isqrt(n)
    accepted = records[:, : min(k + 1, n)].copy()
    accepted[:, : l - 1] = False
    any_pick = accepted.any(axis=1)
    pos = accepted.argmax(axis=1)
    picked = perms[np.arange(len(perms)), pos]
    best_seen = perms[:, : k + 1].max(axis=1)
    wins = any_pick & np.where(pos < k, picked == n, picked == best_seen)
    return float(np.mean(wins))
