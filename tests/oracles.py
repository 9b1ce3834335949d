"""Independent brute-force oracles.

Everything here evaluates strategies by enumerating permutations and
simulating decisions position by position, never through the closed forms
under test.  The exceptions are the separate-pass forms of the exact
evaluators at the end, which the one-buffer kernels must match bit for bit.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from randhorizon import (HorizonDistribution, ValidationError, backward_induction, lambda_sequence,
                         make_distribution, make_strategy, sample_size_bound, single_threshold,
                         success_probability)
from randhorizon.learn import _blocked, _endpoints_until
from randhorizon.strategy import extended, point_mass_values


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


def bi_exact(gains):
    """Backward induction in exact rational arithmetic on the float gains: (0/1 q, C_1..C_{n+1})."""
    g = [Fraction(float(x)) for x in gains]
    n = len(g)
    q = np.zeros(n)
    c = [Fraction(0)] * (n + 1)
    for i in range(n, 0, -1):
        if g[i - 1] >= c[i]:
            q[i - 1] = 1.0
            c[i - 1] = g[i - 1] / i + (1 - Fraction(1, i)) * c[i]
        else:
            c[i - 1] = c[i]
    return q, c


def classical_cutoff_loop(k: int) -> int:
    """Smallest s with sum_{i=s}^{k-1} 1/i <= 1, lowering s one step at a time."""
    if k <= 2:
        return k
    s, total = k, 0.0
    while s > 2 and total + 1.0 / (s - 1) <= 1.0:
        s -= 1
        total += 1.0 / s
    return s


def meta_expected_performance(mix, profile, n: int) -> float:
    """Expected floor sum_s weights(s) * M(s, n) at one horizon n, term by term.

    M(s, n) = c0 * f(s)/f(n) for s <= n and 0 otherwise; constant in n over
    the mixture's range.
    """
    if not (mix.n_lo <= n <= mix.n_hi):
        raise ValidationError(f"n must lie in [{mix.n_lo}, {mix.n_hi}], got {n}")
    total = 0.0
    for offset, w in enumerate(mix.weights):
        s = mix.n_lo + offset
        total += w * (profile.c0 * profile.f(s) / profile.f(n) if s <= n else 0.0)
    return total


def endpoints_loop(rho: float, stop: int) -> list[int]:
    """Distinct snapped ceil(rho^l) up to the first >= stop, one power at a time.

    The learner's former endpoint loop, stall path included: after 64 powers
    that add no new endpoint it jumps the exponent to the last power below the
    current endpoint.  The snapped ceil is restated here with Python scalars.
    """

    def snapped(power: float) -> int:
        nearest = round(power)
        return nearest if abs(power - nearest) <= 1e-9 * nearest else math.ceil(power)

    out = [1]
    power = 1.0
    stalled = 0
    while out[-1] < stop:
        power *= rho
        value = snapped(power)
        if value > out[-1]:
            out.append(value)
            stalled = 0
        else:
            stalled += 1
            if stalled >= 64:
                power = max(power, rho ** math.floor(math.log(out[-1]) / math.log(rho)))
                stalled = 0
    return out


def learning_trial_loop(p: HorizonDistribution, epsilon: float, delta_conf: float, seed: int,
                        T=None) -> tuple[int, float]:
    """One learner trial the way it ran before trials were batched: (m, A(p, q_hat)).

    Horizons come from ``p.sample`` in draw order, the tail pre-estimate
    (unless T is given) from stream 0 and the main phase from stream 1 of the
    seed; counts sum onto block endpoints with ``_blocked``, and one scalar
    ``backward_induction`` maximizes the surrogate.
    """
    def sample(m: int, stream: int) -> np.ndarray:
        return p.sample(m, np.random.default_rng(np.random.SeedSequence([seed, stream])))

    main_delta = delta_conf
    if T is None:
        T = int(sample(math.ceil(12.0 / epsilon * (math.log(2.0) - math.log(delta_conf))), 0).max())
        main_delta = delta_conf / 2.0
    m = sample_size_bound(epsilon, main_delta, T)
    h = sample(m, 1)
    ends = _endpoints_until(1.0 + epsilon / 4.0, int(h.max()))
    p_hat = HorizonDistribution(probs=_blocked(ends, h) / m)
    q, _ = backward_induction(np.arange(1, p_hat.n + 1) * lambda_sequence(p_hat))
    return m, success_probability(p, make_strategy(q))


def union_event_rate_matrix(grid, trials: int, seed) -> tuple[int, float, float]:
    """``meta.union_event_rate`` the way it ran before it kept O(trials) state.

    Fills a (trials, n) matrix of block-maximum atoms, one column per block from
    the same ``rng.random(trials)`` draws in the same order, and takes the
    running maximum along each row at once.
    """
    rng = np.random.default_rng(seed)
    k = grid.k
    blocks = np.diff(np.concatenate([[0], k]))
    atoms = np.empty((trials, k.size), dtype=np.int64)
    for i, b in enumerate(blocks):
        atoms[:, i] = np.searchsorted(grid.values ** int(b), rng.random(trials), side="right")
    prefix = np.maximum.accumulate(atoms, axis=1)
    successes = int(np.all(prefix == np.arange(1, k.size + 1), axis=1).sum())
    rate = successes / trials
    return successes, rate, math.sqrt(rate * (1.0 - rate) / trials)


def average_case_one_block(n: int, epsilon: float, draws: int, seed) -> tuple[float, float]:
    """``sim.average_case_experiment`` the way it ran before it streamed through one slab.

    Draws one (draws, n) block of standard exponentials, divides each row by its
    sum and takes the values of the threshold rule at ceil(n/e^2) as one
    matrix-vector product; returns (fraction at or below epsilon, mean value).
    """
    coeff = point_mass_values(single_threshold(math.ceil(n / math.e**2), n))
    sample = np.random.default_rng(seed).standard_exponential((draws, n))
    sample /= sample.sum(axis=1, keepdims=True)
    values = sample @ coeff
    return float(np.mean(values <= epsilon)), float(values.mean())


def poisson_full_support(mu: float, n: int) -> HorizonDistribution:
    """Truncated Poisson(mu) on k = 1..n with lgamma at every k of the support."""
    k = np.arange(1, n + 1, dtype=float)
    logw = k * math.log(mu) - np.array([math.lgamma(x) for x in (k + 1.0).tolist()])
    return make_distribution(np.exp(logw - logw.max()))


def prefix_products_concat(q: np.ndarray) -> np.ndarray:
    """U_0..U_m along q's last axis: a quotient, one minus it, a cumprod and a leading one."""
    u = np.cumprod(1.0 - q / np.arange(1, q.shape[-1] + 1), axis=-1)
    return np.concatenate([np.ones(q.shape[:-1] + (1,)), u], axis=-1)


def lambda_sequence_copy(p: HorizonDistribution) -> np.ndarray:
    """lambda_1..lambda_n from a fresh quotient and a reversed cumsum into a new vector."""
    terms = p.probs / np.arange(1, p.n + 1)
    return np.cumsum(terms[::-1])[::-1]


def eval_two_pass(p: HorizonDistribution, q) -> tuple[float, float]:
    """(lambda form, per-horizon form) of A(p, q), each from its own extension of q and own U."""
    def terms() -> np.ndarray:
        qx = extended(q, p.n)
        return prefix_products_concat(qx)[:-1] * qx

    value = float(np.sum(terms() * lambda_sequence_copy(p)))
    return value, float(np.sum(p.probs * (np.cumsum(terms()) / np.arange(1, p.n + 1))))


def threshold_values_padded(p: HorizonDistribution, l_max: int) -> np.ndarray:
    """A(p, q^(l)) for l = 1..l_max, with lambda padded by zeros out to max(l_max, n) + 1."""
    span = max(l_max, p.n)
    lam = np.zeros(span + 1)
    lam[: p.n] = lambda_sequence(p)
    ratios = lam[1:] / np.arange(1, span + 1)
    ratio_tail = np.cumsum(ratios[::-1])[::-1]
    return lam[:l_max] + np.arange(l_max) * ratio_tail[:l_max]


def learn_blocks_loop(counts, m, ends: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """``learn._learn_blocks`` the way it ran before runs: one numpy step per block.

    From the last block down, each block (lo, e] accepts the suffix of its indices
    that starts at the first i with H_{i-1} >= C_{e+1}/(e L) + H_{e-1} - 1, found
    by one harmonic search for all columns, and C_s = (s-1) (L (H_{e-1} - H_{s-2}) +
    C_{e+1}/e) at that first accepting index s.
    """
    p_hat = counts / m
    lam = np.cumsum((p_hat / ends[:, None])[::-1], axis=0)[::-1]
    el, sampled = ends[:, None] * lam, lam > 0
    h = np.concatenate([[0.0, 0.0], np.cumsum(1.0 / np.arange(1, ends[-1] + 1))])
    first = np.empty(counts.shape, dtype=np.int64)
    c = np.zeros(counts.shape[1])
    target = np.full(c.shape, -np.inf)
    for b in range(ends.size - 1, -1, -1):
        lo, e, L = int(ends[b - 1]) if b else 0, int(ends[b]), lam[b]
        np.divide(c, el[b], out=target, where=sampled[b])
        first[b] = j = lo + h[lo + 1 : e + 1].searchsorted(target + h[e] - 1.0)
        c = np.where(j < e, j * (L * (h[e] - h[j]) + c / e), c)
    first = np.repeat(first, np.diff(ends, prepend=0), axis=0)[:length].T
    return lam, (np.arange(length) >= first).astype(float, order="C")
