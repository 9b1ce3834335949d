"""Learning a near-optimal strategy from iid samples of the horizon.

The learner never estimates the horizon distribution coordinate by
coordinate.  Instead it coarsens time into geometrically growing blocks
(right endpoints ceil(rho^l)), estimates the blocked distribution from the
samples, converts it into a gain sequence G_i = i * lambda_i of the blocked
empirical distribution, and maximizes the resulting surrogate objective
exactly with the closed form of the full-information solver's accept runs.
Coarsening costs at most rho - 1 in success probability, uniformly over
strategies, so rho = 1 + epsilon/4 keeps the bias inside the error budget.

The endpoints come from one cumulative product of rho (the multiplications
of repeated ``power *= rho``, in order), snapped to integers.  One core
learns from sample counts per block, one column per trial.  lambda_hat is
constant on a block, so the block accepts a suffix of its indices, and the
learned strategy is a union of a few accept and reject runs of blocks.  The
core moves every trial in lock-step, one full pass over the blocks per run,
so its numpy calls grow with the largest run count, not with blocks, and it
returns each strategy as its accept runs, never as a vector of n.
:func:`learn_strategy` is one column, written out as q_hat;
:func:`learning_trials` runs every trial of one epsilon through the core, all
from one generator.  It draws each trial's main sample counts per block as
one multinomial over the blocks' probabilities, the differences of the
endpoints' cdf values (``dist._horizon_edges``), so a trial's sampling costs
O(blocks), whatever its m, and draws no horizons for them.  It scores each
trial's runs by the threshold closed form (``strategy._runs_value``) in
O(runs), after one O(n) pass for the threshold values of the truth, so no
array of n exists per trial.  :func:`draw_samples` returns a read-only int64
array of horizons for the tail pre-estimate; :func:`learn_strategy` takes
any integer vector.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dist import (_CHUNK_ELEMS, SUM_TOL, HorizonDistribution, _ceil_size, _ceil_snapped,
                   _check_int, _check_size, _distribution, _harmonics, _horizon_edges,
                   _horizons, _positive_ints, _rng, delta, lambda_sequence)
from .errors import ValidationError
from .solver import solve_optimal
from .strategy import _runs_value, _threshold_values


class LearnOutput(NamedTuple):
    q_hat: np.ndarray  # read-only learned acceptance vector on 1..N_max
    G: np.ndarray  # estimated gain sequence on 1..N_max, N_max = G.size


def _endpoints_until(rho: float, stop: int) -> np.ndarray:
    """Distinct ceil(rho^l) in ascending order, up to and including the first >= stop."""
    if not (rho > 1.0 and math.isfinite(rho)):
        raise ValidationError(f"block ratio must be > 1, got {rho}")
    count = int(math.log(stop) / math.log(rho)) + 2  # rho^0 and a spare power past stop
    _check_size(count, "block ratio power count")
    factors = np.full(count, rho)
    factors[0] = 1.0  # rho^0; the cumulative product multiplies in order, like power *= rho
    ends = np.unique(_ceil_snapped(np.cumprod(factors)))
    return ends[: np.searchsorted(ends, stop) + 1]


def block_distribution(p: HorizonDistribution, rho: float) -> HorizonDistribution:
    """Move the mass of every block (prev endpoint, endpoint] onto its right endpoint."""
    ends = _endpoints_until(rho, p.n)
    out = np.zeros(int(ends[-1]))
    out[ends - 1] = np.bincount(np.searchsorted(ends, np.arange(1, p.n + 1)), p.probs,
                                minlength=ends.size)
    return _distribution(out)


def draw_samples(p: HorizonDistribution, m: int, seed) -> np.ndarray:
    """m iid horizon draws via inverse-CDF, ascending, as a read-only int64 array.

    Consumes exactly ``random(m)`` of the seed's generator (``dist._rng``) and
    sorts those uniforms, so the horizons are those ``p.sample`` draws from the
    same seed, sorted.  A ``Generator`` is drawn from in place, so consecutive
    calls on one generator continue its stream.
    """
    _check_size(m, "sample count")
    u = _rng(seed).random(m)
    u.sort()
    samples = _horizons(p, u)
    samples.setflags(write=False)
    return samples


def _highest(mask: np.ndarray) -> np.ndarray:
    """The highest row of each column of mask that holds, or -1 if none does."""
    top = mask.shape[0] - 1 - mask[::-1].argmax(axis=0)
    return np.where(mask[top, np.arange(mask.shape[1])], top, -1)


def _learn_blocks(counts, m, ends: np.ndarray, length: int):
    """Block lambda_hat (blocks, trials) and the accept runs of the learned 0/1 strategies.

    Column r of counts holds trial r's m[r] samples counted per block of ends;
    p_hat is that column over m[r].  On a block (lo, e] lambda_hat is a constant
    L, so the gain i*L rises with i while C falls, and the block accepts a suffix
    [s, e]: i accepts exactly when L (1 - (H_{e-1} - H_{i-1})) >= C_{e+1}/e, and
    C_s = (s-1) (L (H_{e-1} - H_{s-2}) + C_{e+1}/e).  That is the accept-run closed
    form of ``solver.backward_induction`` with g_j = jL, whose suffix-sum terms
    g_j/(j(j-1)) = L/(j-1) sum to harmonic differences.

    The blocks are solved run by run from the last one down, every live column in
    lock-step.  Each starts an accept run at its largest sample's block b; then full
    passes over the blocks [0, max b] find where each column's accept run ends, and
    where its reject run ends, in turn.  A pass finds the end or reaches block 0, so
    all live columns are always in the same phase.  On a run of fully accepted
    blocks D_b = C_{lo+1}/lo = L_b (H_{e-1} - H_{lo-1}) + D_{b+1}, one reversed
    cumulative sum with zeros above each column's b (adding 0.0 is exact); the run
    ends at the highest block whose first index rejects, and that block's first
    accepting index is one search in H for all columns.  On a reject run C stays
    constant; the run ends at the highest block whose last index accepts.  The
    numpy calls grow with the largest run count, the elements with runs * blocks *
    columns.  Above a column's largest sample L = C = 0, e L is taken as inf so
    that no pass divides 0 by 0, and every block accepts.

    The strategy on 1..length is returned as its maximal accept runs, 1-based
    and inclusive: starts and stops of shape (trials, accept passes), ascending
    in each row after the no-op runs [2, 1] that pad a column which finished in
    fewer passes.  length lies in the last block (lo, e], past every sample,
    and only the first run reaches past lo.  That run ends at length and, for
    rho <= 2, holds the whole last block, so it starts at or below lo + 1:
    there C_{e+1} = 0, and i accepts when H_{e-1} - H_{i-1} <= 1, which holds
    down to lo + 1 since the block's harmonic sum is below rho - 1.

    The strategies are backward_induction's on the per-index gains except where
    a margin is within rounding of 0: the cumulative sum carries C along an
    accept run with a rounding of its own, a few ulps off a block-by-block
    recursion.
    """
    p_hat = counts / m
    sums = p_hat.sum(axis=0)
    if np.any(abs(sums - 1.0) > SUM_TOL):  # the counts are the program's own: a bug
        raise AssertionError(f"blocked estimates must sum to 1 within {SUM_TOL}, "
                             f"got sums from {sums.min()!r} to {sums.max()!r}")
    lam = np.cumsum((p_hat / ends[:, None])[::-1], axis=0)[::-1]
    h = np.concatenate([[0.0, 0.0], _harmonics(ends[-1])])  # H_{j-1} at j
    los = np.concatenate([[0], ends[:-1]])
    he, h_first = h[ends, None], h[los + 1, None]  # H_{e-1} and H_lo of each block
    el = np.where(lam > 0.0, ends[:, None] * lam, np.inf)
    up = np.zeros_like(lam)  # row k: L (H_{e-1} - H_{lo-1}) of block k + 1, D's step into k
    up[:-1] = (lam * (he - h[los, None]))[1:]
    cols = np.arange(lam.shape[1])  # the live columns, with their b, c, el and up
    b = np.count_nonzero(lam, axis=0) - 1  # the current block: the largest sample's, at first
    c = np.zeros(cols.size)  # C_{e+1} of block b
    runs = []  # starts and stops of each accept pass, the no-op run [2, 1] where a column is done
    accepting = True
    while b.size:
        rows, at = np.arange(b.max() + 1)[:, None], np.arange(b.size)
        el, up, he, h_first = (v[: rows.size] for v in (el, up, he, h_first))
        held = rows <= b  # the blocks of each column's run, from b down
        if accepting:  # C_{e+1} of each block, as if every block from b down to it accepted
            top = ends[b] if runs else length  # the first run also holds the blocks past b
            d = np.where(held, up, 0.0)
            d[b, at] = c / ends[b]
            c_in = np.cumsum(d[::-1], axis=0)[::-1] * ends[: rows.size, None]
            c_in[b, at] = c
            x = c_in / el + he - 1.0
            ks = _highest((x > h_first) & held)
            # j is block k's first accepting index, 0-based; where no first index rejects
            # (ks = -1), block 0 accepts and j is its lo, 0
            k = np.maximum(ks, 0)
            lo, e, c = los[k], ends[k], c_in[k, at]
            j = lo + np.clip(h.searchsorted(x[k, at]) - lo - 1, 0, e - lo)
            c = np.where(j < e, j * (lam[k, cols] * (h[e] - h[j]) + c / e), c)
            runs.append(run := np.tile([[2], [1]], lam.shape[1]))
            run[0, cols], run[1, cols] = j + 1, top
            b = ks - 1
        else:  # C stays; the run ends where the last index's target is <= H_{e-1}
            b = _highest((c / el + he - 1.0 <= he) & held)
        accepting = not accepting
        if not (live := b >= 0).all():
            cols, b, c, el, up = cols[live], b[live], c[live], el[:, live], up[:, live]
    return lam, *np.stack(runs[::-1], axis=-1)


def learn_strategy(samples, epsilon: float) -> LearnOutput:
    """Blocked-estimate learner: samples -> near-optimal acceptance vector.

    samples is a non-empty 1-D vector of integer dtype, every entry >= 1; it
    is only read.  Steps: block ratio rho = 1 + epsilon/4; endpoints up to
    the largest sample; empirical blocked distribution p_hat (block counts
    over m); gain sequence G_i = i * lambda_i(p_hat) (block-constant after
    rescaling by i); exact maximization of the surrogate objective by
    backward induction.  Beyond N_max = G.size the returned strategy accepts
    (the stored vector ends there and evaluation extends it with ones).
    """
    samples = _positive_ints(samples, "samples")
    if not (0.0 < epsilon <= 1.0):
        raise ValidationError(f"epsilon must be in (0, 1], got {epsilon}")
    n_max = _check_size(int(samples.max()), "largest sample")  # the strategy's length
    ends = _endpoints_until(1.0 + epsilon / 4.0, n_max)
    counts = np.bincount(np.searchsorted(ends, samples), minlength=ends.size)
    lam, starts, stops = _learn_blocks(counts[:, None], samples.size, ends, int(ends[-1]))
    g = np.arange(1, ends[-1] + 1) * np.repeat(lam[:, 0], np.diff(ends, prepend=0))
    q = np.zeros(g.size)
    for s, e in zip(starts[0].tolist(), stops[0].tolist()):
        q[s - 1 : e] = 1.0
    g.setflags(write=False)
    q.setflags(write=False)
    return LearnOutput(q_hat=q, G=g)


def _check_budget(epsilon: float, delta: float) -> None:
    """Reject an error budget epsilon or a confidence budget delta outside (0, 1)."""
    if not (0.0 < epsilon < 1.0):
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must be in (0, 1), got {delta}")


def sample_size_bound(epsilon: float, delta: float, T: int) -> int:
    """Samples sufficient for an epsilon-suboptimal strategy with confidence 1-delta.

    Requires that the horizon exceeds T with probability at most epsilon/12.
    Each log of a quotient is taken as a difference of logs, so a tiny
    epsilon or delta overflows only the final size, never an intermediate.
    """
    _check_budget(epsilon, delta)
    _check_int(T, "tail bound T", 1)
    log_eps, log_delta = math.log(epsilon), math.log(delta)
    if T == 1:
        m = 18.0 / epsilon * (math.log(2.0) - log_delta)
    else:
        m_tail = 18.0 / epsilon * (math.log(50.0 * math.log(T)) - log_eps - log_delta)
        m_conc = 0.5 / epsilon / epsilon * (math.log(1200.0) - 2.0 * log_eps - log_delta)
        m = max(m_tail, m_conc)
    return _ceil_size(m, f"sample size bound at epsilon={epsilon!r}, delta={delta!r}")


def hard_instance_lb(n: int, epsilon: float) -> tuple[HorizonDistribution, HorizonDistribution, float]:
    """Two-point instances on {1, n} that force Omega(1/eps^2) samples.

    The switch point s* = (A_n - 1/n)/(1 + A_n - 1/n), with A_n the optimal
    classical value for horizon n, is where the optimal first-step decision
    flips; the returned pair puts mass s* +/- epsilon on horizon 1.  No single
    strategy is epsilon/3-suboptimal for both.
    """
    _check_size(n, "n", low=3)
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
    return _distribution(probs)


def learning_trials(
    p: HorizonDistribution,
    epsilon: float,
    delta_conf: float,
    trials: int,
    seed,
    T: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """m and value_hat = A(p, q_hat) of ``trials`` learner trials at one epsilon.

    The trials draw one after another from the seed's one generator
    (``dist._rng``: an integer >= 0, a SeedSequence, or a Generator drawn from
    in place), so the first k rows do not depend on ``trials`` beyond k.
    Unless T is given (which leaves the main phase the whole confidence budget
    instead of half), a trial's tail bound T is the largest of a
    ``draw_samples`` batch.  Its m main samples are counted per
    block by one ``rng.multinomial`` over the differences of the endpoints' cdf
    values (``dist._horizon_edges``), up to the first block whose edge reaches
    1, past which ``dist._horizons`` maps no uniform.  Each strategy is scored
    on [p.n] from its accept runs, with the bits of ``strategy.runs_value`` on
    the same rule; past a trial's largest sample its blocks have zero gains and
    accept, as padding its strategy with ones gives.  The optimum is the
    caller's to solve.
    """
    _check_budget(epsilon, delta_conf)
    _check_size(trials, "trials")
    rng = _rng(seed)
    if T is None:
        # T = max of ceil((12/eps) log(2/delta)) fresh samples: with probability
        # at least 1 - delta/2 the tail beyond T is at most eps/12
        m_pre = _ceil_size(12.0 / epsilon * (math.log(2.0) - math.log(delta_conf)),
                           f"tail pre-estimate size at epsilon={epsilon!r}, delta={delta_conf!r}")
    else:
        m_main = sample_size_bound(epsilon, delta_conf, T)
    # before the endpoints, so that an oversized sample count is the error reported
    _check_size(m_pre if T is None else m_main, "sample count")
    ends = _endpoints_until(1.0 + epsilon / 4.0, p.n)
    edges = np.minimum(_horizon_edges(p, ends), 1.0)
    live = np.count_nonzero(edges < 1.0) + 1  # the last live block gets multinomial's remainder
    probs = np.diff(edges[:live], prepend=0.0)
    chunk = max(1, _CHUNK_ELEMS // ends.size)
    values = _threshold_values(lambda_sequence(p), p.n + 1)  # A(p, q^(l)), l = 1..n+1
    m_of_tail = {}
    m = np.empty(trials, dtype=np.int64)
    value_hat = np.empty(trials)
    for lo in range(0, trials, chunk):
        cols = min(chunk, trials - lo)
        counts = np.zeros((ends.size, cols), dtype=np.int64)
        for col in range(cols):
            if T is None:
                tail = int(draw_samples(p, m_pre, rng)[-1])
                if tail not in m_of_tail:
                    m_of_tail[tail] = _check_size(
                        sample_size_bound(epsilon, delta_conf / 2.0, tail), "sample count")
                m_main = m_of_tail[tail]
            m[lo + col] = m_main
            counts[:live, col] = rng.multinomial(m_main, probs)
        _, starts, stops = _learn_blocks(counts, m[lo : lo + cols], ends, p.n)
        value_hat[lo : lo + cols] = _runs_value(values, starts, stops)
    return m, value_hat
