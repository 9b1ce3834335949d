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
core advances every trial by one run per numpy step, so its numpy calls grow
with runs * log(blocks), not with blocks.  :func:`learn_strategy` is one
column; :func:`learning_trials` runs every trial of one epsilon through the
core.  It counts each trial's main samples per block straight from the
sorted uniforms, by one search of the endpoints' cdf values
(``dist._horizon_edges``), and draws no horizons for them.
:func:`draw_samples` returns a read-only int64 array of horizons for the
tail pre-estimate; :func:`learn_strategy` takes any integer vector.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dist import (_CHUNK_ELEMS, SUM_TOL, HorizonDistribution, _ceil_size, _ceil_snapped,
                   _check_int, _check_size, _distribution, _horizon_edges, _horizons,
                   _positive_ints, delta, lambda_sequence)
from .errors import ValidationError
from .solver import solve_optimal
from .strategy import Strategy, _acceptance_terms, _lambda_form


class LearnOutput(NamedTuple):
    q_hat: Strategy
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


def _blocked(ends: np.ndarray, horizons: np.ndarray, weights=None) -> np.ndarray:
    """Weights of the horizons summed onto the right endpoint e of their block (prev, e]."""
    out = np.zeros(int(ends[-1]))
    out[ends - 1] = np.bincount(np.searchsorted(ends, horizons), weights, minlength=ends.size)
    return out


def block_distribution(p: HorizonDistribution, rho: float) -> HorizonDistribution:
    """Move the mass of every block (prev endpoint, endpoint] onto its right endpoint."""
    ends = _endpoints_until(rho, p.n)
    return _distribution(_blocked(ends, np.arange(1, p.n + 1), p.probs))


def draw_samples(p: HorizonDistribution, m: int, seed) -> np.ndarray:
    """m iid horizon draws via inverse-CDF, ascending, as a read-only int64 array.

    Consumes exactly ``default_rng(seed).random(m)`` and sorts those uniforms,
    so the horizons are those ``p.sample`` draws from the same seed, sorted.
    """
    _check_size(m, "sample count")
    u = np.random.default_rng(seed).random(m)
    u.sort()
    samples = _horizons(p, u)
    samples.setflags(write=False)
    return samples


_RUN_WINDOW = 16  # blocks in the first window of a run's search; it doubles while the run goes on


def _window(b: np.ndarray, width: np.ndarray, spare: int):
    """Rows d = 0..W-1+spare of a window below each column's block b.

    Returns the blocks b - d (clipped at 0), the rows each column reads
    (d < held) and held: W is the largest min(width, b + 1), and a column
    reads min(W, b + 1) rows if its width is positive, else none.
    """
    held = np.minimum(width, b + 1)
    d = np.arange(max(int(held.max()), 0) + spare)[:, None]
    held = np.where(width > 0, np.minimum(d.size - spare, b + 1), 0)
    return np.maximum(b - d, 0), d < held, held


def _learn_blocks(counts, m, ends: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Block lambda_hat (blocks, trials) and the learned 0/1 strategies (trials, length).

    Column r of counts holds trial r's m[r] samples counted per block of ends;
    p_hat is that column over m[r].  On a block (lo, e] lambda_hat is a constant
    L, so the gain i*L rises with i while C falls, and the block accepts a suffix
    [s, e]: i accepts exactly when L (1 - (H_{e-1} - H_{i-1})) >= C_{e+1}/e, and
    C_s = (s-1) (L (H_{e-1} - H_{s-2}) + C_{e+1}/e).  That is the accept-run closed
    form of ``solver.backward_induction`` with g_j = jL, whose suffix-sum terms
    g_j/(j(j-1)) = L/(j-1) sum to harmonic differences.

    The blocks are solved run by run from the last one down, one run of every
    live column per iteration.  On a reject run C stays constant; the run ends at
    the highest block whose last index accepts.  On a run of fully accepted
    blocks D_b = C_{lo+1}/lo = L_b (H_{e-1} - H_{lo-1}) + D_{b+1}, one cumulative
    sum per window; the run ends at the first block whose first index rejects,
    and that block's first accepting index is one search in H for all columns.
    Each run's end is searched in a (window x columns) gather that looks back
    from the column's current block; a column's window starts at _RUN_WINDOW
    blocks and doubles while its run goes on, so the numpy calls grow with
    runs * log(blocks), not with blocks.  Above a column's largest sample L = C
    = 0 and every block accepts.

    The strategies are backward_induction's on the per-index gains except where
    an acceptance margin is within rounding of 0; the cumulative sum carries C
    along an accept run with a rounding of its own, so a few ulps of C can
    differ from a block-by-block recursion.
    """
    p_hat = counts / m
    sums = p_hat.sum(axis=0)
    if np.any(abs(sums - 1.0) > SUM_TOL):
        raise ValidationError(f"blocked estimates must sum to 1 within {SUM_TOL}, "
                              f"got sums from {sums.min()!r} to {sums.max()!r}")
    lam = np.cumsum((p_hat / ends[:, None])[::-1], axis=0)[::-1]
    nb, nt = lam.shape
    h = np.concatenate([[0.0, 0.0], np.cumsum(1.0 / np.arange(1, ends[-1] + 1))])  # H_{j-1} at j
    los = np.concatenate([[0], ends[:-1]])
    he, h_first = h[ends], h[los + 1]  # H_{e-1} and H_lo of each block
    # flat (block, column) entries: e L, and L (H_{e-1} - H_{lo-1}), a full block's step of D
    el, step = (ends[:, None] * lam).ravel(), (lam * (he - h[los])[:, None]).ravel()
    # flat 0-based first accepting index (int32: the endpoints stay below 2^31); a block
    # accepts unless the block that ends an accept run sets it or a reject run covers it.
    # marks row k + 1 belongs to block k: a reject run adds 1 at its top block and -1 at the
    # block below its bottom, so the sum from the top is positive on its blocks
    first = np.repeat(los.astype(np.int32), nt)
    marks = np.zeros((nb + 1) * nt, dtype=np.int8)
    cols = np.arange(nt)  # the live columns, with per-column state below
    b = np.count_nonzero(lam, axis=0) - 1  # next block: the largest sample's, at first
    c = np.zeros(nt)  # C_{e+1} of block b
    # the accept search is next: block b's last index accepts, or an accept run's window ran out
    accepting = np.ones(nt, dtype=bool)
    width = np.full(nt, _RUN_WINDOW)  # of the current run's next window
    while (live := b >= 0).any():
        if not live.all():
            cols, b, c, accepting, width = (v[live] for v in (cols, b, c, accepting, width))
        at = np.arange(cols.size)
        if not accepting.all():
            # reject run: C stays; it ends where the last index's target is <= H_{e-1}
            k, held, run = _window(b, np.where(accepting, 0, width), 0)
            kf, he_k = k * nt + cols, he[k]
            x = c / el[kf]
            x += he_k
            x -= 1.0
            hit = (x <= he_k) & held
            end = hit.argmax(axis=0)
            found = hit[end, at]
            run[found] = end[found]
            marks[(b + 1) * nt + cols] += 1
            b = b - run
            marks[(b + 1) * nt + cols] -= 1
            width = np.where(found, _RUN_WINDOW, np.where(accepting, width, 2 * width))
            accepting |= found
        if accepting.any():
            # accept run: C_{e+1} of the window's blocks, each as if every block above
            # it in the window accepted fully
            k, held, run = _window(b, np.where(accepting, width, 0), 1)
            kf = k * nt + cols
            c_in = np.empty(k.shape)
            np.divide(c, ends[k[0]], out=c_in[0])
            np.take(step, kf[:-1], out=c_in[1:])
            np.cumsum(c_in, axis=0, out=c_in)
            c_in *= ends[k]
            c_in[0] = c
            x = c_in / el[kf]
            x += he[k]
            x -= 1.0
            stop = (x > h_first[k]) & held  # the block's first index rejects
            end = stop.argmax(axis=0)
            ended = stop[end, at]
            run[ended] = end[ended]
            ks, c, x = k[run, at], c_in[run, at], x[run, at]
            lo, e = los[ks], ends[ks]
            j = lo + np.clip(h.searchsorted(x) - lo - 1, 0, e - lo)
            first[(ks * nt + cols)[ended]] = j[ended]
            c = np.where(ended & (j < e), j * (lam[ks, cols] * (h[e] - h[j]) + c / e), c)
            b = b - run - ended
            width = np.where(ended, _RUN_WINDOW, np.where(accepting, 2 * width, width))
            accepting &= ~ended
    first = first.reshape(nb, nt)
    rejected = np.cumsum(marks.reshape(nb + 1, nt)[::-1], axis=0)[-2::-1] > 0
    np.copyto(first, ends[:, None], where=rejected)
    # C order, the layout of the scorer's buffer, so that its in-place passes read q row by row
    # (its row sums, taken over that buffer, do not depend on q's layout)
    first = np.repeat(first.T, np.diff(ends, prepend=0), axis=1)[:, :length]
    q = np.empty((nt, length))
    np.greater_equal(np.arange(length, dtype=np.int32), first, out=q)
    return lam, q


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
    lam, q = _learn_blocks(_blocked(ends, samples)[ends - 1, None], samples.size, ends,
                           int(ends[-1]))
    g = np.arange(1, ends[-1] + 1) * np.repeat(lam[:, 0], np.diff(ends, prepend=0))
    g.setflags(write=False)
    return LearnOutput(q_hat=Strategy(q=q[0]), G=g)


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
    seeds,
    T: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """m and value_hat = A(p, q_hat) of one learner trial per seed, at one epsilon.

    Trial r pre-estimates the tail bound T from SeedSequence([seeds[r], 0])
    unless T is given (which leaves the main phase the whole confidence budget
    instead of half).  It then counts per block the main samples that
    ``draw_samples(p, m, SeedSequence([seeds[r], 1]))`` would return, straight
    from that stream's sorted uniforms by one search of the block edges,
    without mapping any uniform to a horizon.  Each strategy is scored on [p.n];
    past a trial's largest sample its blocks have zero gains and accept, as
    padding its strategy with ones gives.  The optimum is the caller's to solve.
    """
    _check_budget(epsilon, delta_conf)
    entropy = [_check_int(seed, "seed", 0) for seed in seeds]
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
    edges = _horizon_edges(p, ends)
    chunk = max(1, _CHUNK_ELEMS // int(ends[-1]))
    lam = lambda_sequence(p)
    m = np.empty(len(entropy), dtype=np.int64)
    value_hat = np.empty(len(entropy))
    for lo in range(0, len(entropy), chunk):
        rows = entropy[lo : lo + chunk]
        below = np.empty((ends.size, len(rows)), dtype=np.int64)  # samples at or below each end
        for col, e in enumerate(rows):
            if T is None:
                tail = int(draw_samples(p, m_pre, np.random.SeedSequence([e, 0]))[-1])
                m_main = _check_size(sample_size_bound(epsilon, delta_conf / 2.0, tail),
                                     "sample count")
            u = np.random.default_rng(np.random.SeedSequence([e, 1])).random(m_main)
            u.sort()
            m[lo + col] = m_main
            below[:, col] = u.searchsorted(edges)
        counts = np.diff(below, axis=0, prepend=0)
        _, q = _learn_blocks(counts, m[lo : lo + len(rows)], ends, p.n)
        # the kernel's buffer has one contiguous row per trial, so each row sum is
        # lambda_form_value's 1-D sum, bit for bit
        a = _acceptance_terms(q)
        value_hat[lo : lo + len(rows)] = _lambda_form(a, lam, out=a)
    return m, value_hat
