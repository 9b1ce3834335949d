"""Ground-truth Monte Carlo of the arrival process: two samplers of one law.

The decision maker sees only relative ranks: R_t = 1 + the number of earlier
arrivals better than arrival t, so R_t = 1 means best so far.  Under a
uniformly random order the ranks are independent with R_t ~ U{1..t} (Renyi,
1962), so episodes never build a permutation.  A pick at t wins iff it is the
last record (R_s = 1) at or before the horizon, since the best of the first N
values arrives at the last record among them.  No closed form enters either
sampler, so both stay independent oracles of the exact evaluators.

Rank streams serve arbitrary policies (``simulate_custom``,
``adversary_game``): one engine draws R_t = floor(u * t) + 1 for a whole
chunk of episodes at once, stored arrival-major as int32 of shape (T, rows).
Policies are batched: ``policy(t, ranks, rng) -> bool[rows]``, where
``ranks`` is a (t, rows) view holding R_1..R_t of every row still live at
time t (``ranks[-1]`` is the current arrival).  The engine asks once per t
for the whole chunk; rows that have already picked may be asked again, and
those answers are ignored.  ``scalar_policy`` adapts a per-episode callable
``fn(t, ranks_tuple, rng) -> bool`` to this protocol.

Record jumps serve acceptance vectors q (``simulate``) and the adversary's
tail.  Record indicators are independent with P(R_s = 1) = 1/s, so the first
record after t is T = floor(t / U) + 1 with U uniform on (0, 1], which gives
P(T > x) = t / x.  A q-vector acts only on records, so a trial walks from
record to record, about H_N steps instead of N.

Results are plain records (``SimResult``, ``AvgCaseResult``).  Trial and
draw counts, and the sizes n of the adversary and the average-case
experiment, pass ``dist._check_size`` (at least 1, at most
``dist.MAX_ELEMS``) before anything is allocated.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .dist import _CHUNK_ELEMS, HorizonDistribution, _check_int, _check_size, _rng
from .errors import HarnessError, ValidationError
from .strategy import _acceptance_vector, make_strategy, point_mass_values, single_threshold

Policy = Callable[[int, np.ndarray, np.random.Generator], np.ndarray]


class SimResult(NamedTuple):
    successes: int
    rate: float
    stderr: float


class AvgCaseResult(NamedTuple):
    """Exact strategy values against many uniformly drawn distributions."""

    fraction_below: float
    mean_value: float
    stderr_mean: float
    threshold: int


def _binomial_result(successes: int, trials: int) -> SimResult:
    rate = successes / trials
    return SimResult(successes, rate, math.sqrt(rate * (1.0 - rate) / trials))


def _checked(decision, rows: int) -> np.ndarray:
    if not (
        isinstance(decision, np.ndarray)
        and decision.dtype == np.bool_
        and decision.shape == (rows,)
    ):
        got = (
            f"{decision.dtype} array of shape {decision.shape}"
            if isinstance(decision, np.ndarray)
            else repr(decision)
        )
        raise HarnessError(f"policy returned {got}, expected a bool array of shape ({rows},)")
    return decision


def _draw_ranks(n_max: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """R_t = floor(u * t) + 1 for t = 1..n_max, arrival-major int32 of shape (n_max, rows)."""
    ranks = np.empty((n_max, rows), dtype=np.int32)
    # uniforms come in slabs of arrivals, so the float64 buffer stays small
    step = max(1, (_CHUNK_ELEMS >> 4) // rows)
    for lo in range(0, n_max, step):
        hi = min(lo + step, n_max)
        u = rng.random((hi - lo, rows))
        u *= np.arange(lo + 1, hi + 1)[:, None]
        slab = ranks[lo:hi]
        slab[...] = u  # truncation is floor here: u * t >= 0
        slab += 1
    return ranks


def _play(
    horizons: np.ndarray, policy: Policy, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run ``policy`` on fresh rank streams, one chunk of rows at a time.

    Rows are sorted by horizon, so a chunk holds similar horizons and the
    rows still live at time t are a suffix of it.  Each chunk draws ranks up
    to its largest horizon and asks the policy at t = 1..that horizon.
    Yields ``(h, ranks, picks)``: the chunk's horizons, their int32 ranks of
    shape (T, len(h)), and each row's first accepted time (0 for none).
    """
    ordered = np.sort(horizons)
    start = 0
    while start < ordered.size:
        head = ordered[start : start + _CHUNK_ELEMS]
        fits = np.arange(1, head.size + 1) * head <= _CHUNK_ELEMS
        rows = max(1, int(np.count_nonzero(fits)))
        h = ordered[start : start + rows]
        n_max = int(h[-1])
        ranks = _draw_ranks(n_max, rows, rng)
        accepted = np.zeros((n_max, rows), dtype=bool)
        first_live = np.searchsorted(h, np.arange(1, n_max + 1)).tolist()
        for t, lo in enumerate(first_live, start=1):
            accepted[t - 1, lo:] = _checked(policy(t, ranks[:t, lo:], rng), rows - lo)
        picks = np.where(accepted.any(axis=0), accepted.argmax(axis=0) + 1, 0)
        yield h, ranks, picks
        start += rows


def _wins(ranks: np.ndarray, picks: np.ndarray, horizons: np.ndarray) -> np.ndarray:
    """Rows whose pick is the last record (R_s = 1) at or before their horizon."""
    n_max = ranks.shape[0]
    records = ranks == 1
    records &= np.arange(1, n_max + 1)[:, None] <= horizons
    last_record = n_max - records[::-1].argmax(axis=0)  # R_1 = 1, so every row has one
    return picks == last_record


def _next_record(t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The first record time after each t, as float64 (an int cast could overflow)."""
    return np.floor(t / (1.0 - rng.random(t.size))) + 1.0


def simulate(p: HorizonDistribution, q, trials: int, seed) -> SimResult:
    """Empirical success rate of a strategy, with binomial standard error.

    Each trial walks its records: at record t it accepts with probability q_t
    (1 past the stored vector) and wins iff the next record lies beyond its
    horizon.  Memory is O(trials) beyond p and q.  Deterministic given the seed.
    """
    _check_size(trials, "trials")
    rng = _rng(seed)
    q = _acceptance_vector(q, copy=False)
    if q.size < p.n:
        q = np.append(q, 1.0)  # one sentinel, which every record past the stored vector reads
    horizons = p.sample(trials, rng)
    t = np.ones(trials)
    successes = 0
    while t.size:
        # exact index: a live row's record is at most its horizon <= n; past a short q, take
        # clips it to the sentinel
        accept = rng.random(t.size) < np.take(q, t.astype(np.int64) - 1, mode="clip")
        t = _next_record(t, rng)
        past = t > horizons
        successes += int(np.count_nonzero(accept & past))
        live = ~(accept | past)
        t, horizons = t[live], horizons[live]
    return _binomial_result(successes, trials)


def simulate_custom(p: HorizonDistribution, policy: Policy, trials: int, seed) -> SimResult:
    """Empirical success rate of a batched rank-feedback policy."""
    _check_size(trials, "trials")
    rng = _rng(seed)
    successes = sum(
        int(np.count_nonzero(_wins(ranks, picks, h)))
        for h, ranks, picks in _play(p.sample(trials, rng), policy, rng)
    )
    return _binomial_result(successes, trials)


def adversary_game(n: int, policy: Policy, trials: int, seed) -> SimResult:
    """Success rate against an adaptive horizon-picking adversary.

    The adversary lets the first k = floor(sqrt(n)) arrivals pass.  If the
    policy picked one of them, the horizon becomes n (so the pick must be the
    best of all n values); otherwise the horizon becomes min(k + 1, n) and
    only that arrival can still win.  No policy beats 1/sqrt(n).
    """
    _check_size(n, "n")
    _check_size(trials, "trials")
    rng = _rng(seed)
    k = math.isqrt(n)
    last_asked = min(k + 1, n)
    successes = 0
    # ranks are drawn only up to last_asked; an early pick that is the last
    # record so far still needs no record in (last_asked, n], one jump away
    for h, ranks, picks in _play(np.full(trials, last_asked), policy, rng):
        won = _wins(ranks, picks, h)
        beyond = _next_record(h.astype(float), rng) > n
        successes += int(np.count_nonzero(won & ((picks > k) | beyond)))
    return _binomial_result(successes, trials)


def average_case_experiment(n: int, epsilon: float, draws: int, seed) -> AvgCaseResult:
    """Exact values of the uniform-horizon threshold rule on random simplex draws.

    Draws distributions uniformly from the n-simplex and evaluates, exactly,
    the single-threshold strategy at ceil(n/e^2) against each; reports the
    fraction at or below epsilon plus the sample mean of the values.

    A draw is n standard exponentials over their sum, taken in the order of
    one (draws, n) block.  They stream through one reused slab of about 512 KB
    (``_CHUNK_ELEMS >> 6`` elements, at least one row), so memory is O(draws)
    plus the slab.  Each row's value is a dot product and a sum along that row
    alone (einsum, not BLAS), so the values do not depend on the slab size.
    """
    _check_size(n, "n")
    if not (0.0 < epsilon < 2.0 / math.e**2):
        raise ValidationError(f"epsilon must be in (0, 2/e^2), got {epsilon}")
    _check_size(draws, "draws")
    l_star = math.ceil(n / math.e**2)
    coeff = point_mass_values(single_threshold(l_star, n))
    rng = _rng(seed)
    values = np.empty(draws)
    slab = np.empty((min(draws, max(1, (_CHUNK_ELEMS >> 6) // n)), n))
    for lo in range(0, draws, slab.shape[0]):
        x = rng.standard_exponential(out=slab[: draws - lo])
        values[lo : lo + x.shape[0]] = np.einsum("ij,j->i", x, coeff) / x.sum(axis=1)
    stderr = float(values.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    return AvgCaseResult(float(np.mean(values <= epsilon)), float(values.mean()), stderr, l_star)


def scalar_policy(fn: Callable[[int, tuple, np.random.Generator], bool]) -> Policy:
    """Adapt a per-episode policy ``fn(t, ranks, rng) -> bool`` to the batched protocol.

    ``fn`` sees one row's ranks as a tuple (R_1..R_t) and is called once per
    live row per t; an answer that is not a bool raises ``HarnessError``.
    """

    def decide(t: int, ranks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(ranks.shape[1], dtype=bool)
        for i, column in enumerate(ranks.T.tolist()):
            decision = fn(t, tuple(column), rng)
            if not isinstance(decision, (bool, np.bool_)) and decision not in (0, 1):
                raise HarnessError(f"policy returned {decision!r}, expected a bool")
            out[i] = decision
        return out

    return decide


def threshold_policy(l: int) -> Policy:
    """Accept the first best-so-far arrival at time >= l."""
    _check_int(l, "threshold", 1)

    def decide(t: int, ranks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return (ranks[-1] == 1) & (t >= l)

    return decide


def strategy_policy(q) -> Policy:
    """Play a :func:`make_strategy` copy of q as a batched policy (ones past its length)."""
    q = make_strategy(q)

    def decide(t: int, ranks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        q_t = q[t - 1] if t <= q.size else 1.0
        if q_t == 0.0:
            return np.zeros(ranks.shape[1], dtype=bool)
        records = ranks[-1] == 1
        if q_t == 1.0:
            return records
        return records & (rng.random(records.size) < q_t)

    return decide
