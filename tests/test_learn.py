import bisect
import math
import tracemalloc

import numpy as np
import pytest

from randhorizon import (
    ValidationError,
    block_distribution,
    delta,
    draw_samples,
    hard_instance_lb,
    lambda_sequence,
    learn_strategy,
    learning_trials,
    make_distribution,
    make_strategy,
    sample_dirichlet_uniform,
    sample_size_bound,
    solve_optimal,
    success_probability,
    uniform,
    worst_case_pstar,
)
from randhorizon import learn
from randhorizon.learn import _endpoints_until, _learn_blocks
from randhorizon.solver import backward_induction
from oracles import endpoints_loop, learn_blocks_loop, learning_trial_loop


def test_block_indices_examples():
    # every endpoint up to and including the first one >= stop
    assert np.array_equal(_endpoints_until(2.0, 8), [1, 2, 4, 8])
    assert np.array_equal(_endpoints_until(2.0, 10), [1, 2, 4, 8, 16])
    assert np.array_equal(_endpoints_until(1.5, 6), [1, 2, 3, 4, 6])
    assert np.array_equal(_endpoints_until(math.sqrt(2), 8), [1, 2, 3, 4, 6, 8])
    assert np.array_equal(_endpoints_until(2.0, 1), [1])
    with pytest.raises(ValidationError):
        block_distribution(delta(3), 1.0)


def test_endpoints_match_the_power_loop():
    # ratios below 2^(1/64) ~ 1.0109 took the loop's stall-and-jump path
    rng = np.random.default_rng(28)
    rhos = [1.0001, 1.0003, 1.001, 1.0025, 1.005, 1.0075, 1.01, 1.0108, 1.011, 1.0125,
            1.02, 1.05, 1.1, 1.25, math.sqrt(2), 1.5, 2.0, 2.5, 3.0, 4.0]
    rhos += (1.0001 + 2.9999 * rng.random(20) ** 4).tolist()
    stops = [1, 2, 3, 7, 10, 64, 100, 999, 1000, 1025, 12345, 100_000]
    for rho in rhos:
        # the loop's powers do not depend on stop: a smaller stop cuts a prefix
        loop = endpoints_loop(rho, stops[-1])
        for stop in stops:
            want = loop[: bisect.bisect_left(loop, stop) + 1]
            assert _endpoints_until(rho, stop).tolist() == want, (rho, stop)


def test_endpoints_of_a_ratio_too_close_to_one_are_capped():
    for rho in (1.0 + 1e-12, 1.0 + 1e-15):
        with pytest.raises(ValidationError, match="cap"):
            _endpoints_until(rho, 10**5)
        with pytest.raises(ValidationError, match="cap"):
            block_distribution(uniform(10), rho)
    with pytest.raises(ValidationError, match="block ratio"):
        _endpoints_until(1.0, 5)


def test_block_indices_ratio_bounds():
    rng = np.random.default_rng(21)
    for _ in range(40):
        rho = 1.05 + float(rng.random()) * 3.0
        idx = _endpoints_until(rho, int(rng.integers(1, 2000)))
        prev = np.concatenate([[0], idx[:-1]])
        assert np.all(idx <= rho * (prev + 1) + 1e-9)
        # geometric growth: endpoint l' dominates (rho^(l'-l)/2) * endpoint l
        for l in range(1, idx.size + 1):
            gaps = np.arange(0, idx.size - l + 1)
            assert np.all(idx[l - 1 :] >= (rho**gaps) / 2.0 * idx[l - 1] - 1e-9)


def test_block_distribution_examples():
    b = block_distribution(delta(3), 2.0)
    assert np.array_equal(b.probs, [0, 0, 0, 1])
    b = block_distribution(uniform(4), 2.0)
    assert np.allclose(b.probs, [0.25, 0.25, 0.0, 0.5], atol=1e-15)


def test_block_distribution_mass_and_support():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(1, 200))
        rho = 2.0 - float(rng.random())  # uniform on (1, 2]
        p = sample_dirichlet_uniform(n, rng)
        b = block_distribution(p, rho)
        assert abs(b.probs.sum() - p.probs.sum()) <= 1e-14
        ends = _endpoints_until(rho, n)
        support = np.flatnonzero(b.probs) + 1
        assert set(support).issubset(set(ends.tolist()))


def test_blocking_error_bound():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 150))
        p = sample_dirichlet_uniform(n, rng)
        q = make_strategy(rng.random(n))
        rho = 2.0 - float(rng.random())  # uniform on (1, 2]
        gap = abs(success_probability(p, q) - success_probability(block_distribution(p, rho), q))
        assert gap <= (rho - 1.0) + 1e-12


def test_dilation_bounds():
    # stretching the horizon from n to n' rescales the value by at least n/n'
    rng = np.random.default_rng(24)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        n2 = n + int(rng.integers(0, 80))
        q = make_strategy(rng.random(n2))
        a_n = success_probability(delta(n), q)
        a_n2 = success_probability(delta(n2), q)
        r = n / n2
        assert r * a_n <= a_n2 + 1e-12
        assert a_n2 <= r * a_n + (1 - r) + 1e-12


def test_in_block_rescaling_of_gap_estimates():
    # if p vanishes on [k1, k2) and |G - k2*lam_k2| <= eps then |(i/k2)G - i*lam_i| <= eps there
    rng = np.random.default_rng(25)
    for _ in range(50):
        n = int(rng.integers(6, 120))
        k2 = int(rng.integers(3, n + 1))
        k1 = int(rng.integers(1, k2))
        w = rng.random(n) + 1e-12
        w[k1 - 1 : k2 - 1] = 0.0
        p = make_distribution(w)
        lam = lambda_sequence(p)
        eps = float(rng.random() * 0.2)
        g = k2 * lam[k2 - 1] + rng.uniform(-eps, eps)
        for i in range(k1, k2):
            assert abs((i / k2) * g - i * lam[i - 1]) <= eps + 1e-12


def test_surrogate_objective_accuracy():
    # gain estimates within eps (sup-norm) keep the surrogate within eps of the truth
    rng = np.random.default_rng(26)
    for _ in range(60):
        n = int(rng.integers(1, 80))
        p = sample_dirichlet_uniform(n, rng)
        lam = lambda_sequence(p)
        gains = np.arange(1, n + 1) * lam
        eps = float(rng.random() * 0.3) + 1e-3
        g = np.clip(gains + rng.uniform(-eps, eps, n), 0.0, 1.0)
        err = np.max(np.abs(g - gains))
        q = make_strategy(rng.random(n))
        u_prev = np.concatenate([[1.0], np.cumprod(1.0 - q / np.arange(1, n + 1))])[:-1]
        surrogate = float(np.sum(u_prev * (q / np.arange(1, n + 1)) * g))
        assert abs(success_probability(p, q) - surrogate) <= err + 1e-12


def test_draw_samples():
    assert np.all(draw_samples(delta(5), 10, 0) == 5)
    # the horizons p.sample draws from the same uniforms, in ascending order
    p = make_distribution([0.2, 0.0, 0.5, 0.3, 0.0])
    h = draw_samples(p, 1000, 4)
    assert np.array_equal(h, np.sort(p.sample(1000, np.random.default_rng(4))))
    assert h.max() == 4
    freq = np.mean(draw_samples(make_distribution([0.5, 0.5]), 100_000, 3) == 1)
    assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / 100_000)
    a = draw_samples(uniform(9), 50, 11)
    b = draw_samples(uniform(9), 50, 11)
    assert np.array_equal(a, b)
    with pytest.raises(ValidationError):
        draw_samples(delta(2), 0, 1)


def test_draw_samples_sums_the_cdf_once_per_distribution(monkeypatch):
    p = make_distribution([0.2, 0.0, 0.5, 0.3, 0.0])
    first = draw_samples(p, 100, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the cdf was summed again")

    monkeypatch.setattr(np, "cumsum", refuse)
    assert np.array_equal(draw_samples(p, 100, 1), first)
    drawn = np.sort(p.sample(100, np.random.default_rng(2)))
    assert np.array_equal(draw_samples(p, 100, 2), drawn)


def test_learn_strategy_degenerate_batch():
    out = learn_strategy(np.ones(7, dtype=int), 0.5)
    assert out.G.size == 1
    assert np.array_equal(out.G, [1.0])
    assert np.array_equal(out.q_hat, [1.0])
    assert success_probability(delta(1), out.q_hat) == 1.0


def test_learn_strategy_validation():
    with pytest.raises(ValidationError):
        learn_strategy(np.array([1, 2]), 0.0)
    with pytest.raises(ValidationError):
        learn_strategy(np.array([1, 2]), 1.5)
    with pytest.raises(ValidationError):
        learn_strategy(np.array([], dtype=int), 0.5)


def test_learn_output_block_structure():
    # gains are linear in i within each block: G_i = (i / end) * G_end
    samples = draw_samples(uniform(60), 500, 5)
    out = learn_strategy(samples, 0.3)
    ends = _endpoints_until(1.0 + 0.3 / 4.0, int(samples.max()))
    prev = 0
    for e in ends:
        e = int(e)
        g_end = out.G[e - 1]
        for i in range(prev + 1, e + 1):
            assert abs(out.G[i - 1] - (i / e) * g_end) <= 1e-12
        prev = e
    assert np.all((out.G >= -1e-15) & (out.G <= 1 + 1e-15))


def test_gain_estimates_unbiased():
    # E[G at endpoint] = endpoint * lambda_endpoint of the blocked distribution
    rng = np.random.default_rng(27)
    p = make_distribution(np.arange(40, 0, -1.0))
    eps = 0.4
    rho = 1.0 + eps / 4.0
    blocked = block_distribution(p, rho)
    lam_b = lambda_sequence(blocked)
    ends = _endpoints_until(rho, 40)
    m, reps = 150, 400
    sums = np.zeros(ends.size)
    for r in range(reps):
        out = learn_strategy(draw_samples(p, m, rng), eps)
        for j, e in enumerate(ends):
            e = int(e)
            sums[j] += out.G[e - 1] if e <= out.G.size else 0.0
    means = sums / reps
    for j, e in enumerate(ends):
        e = int(e)
        want = e * lam_b[e - 1] if e <= blocked.n else 0.0
        se = math.sqrt(0.25 / (m * reps)) + 1e-9  # bernoulli-mixture variance cap
        assert abs(means[j] - want) <= 6 * se


def test_learner_end_to_end_quick():
    p = delta(100)
    opt = solve_optimal(p).value
    eps = 0.2
    m = sample_size_bound(eps, 0.1, 100)
    wins = sum(
        success_probability(p, learn_strategy(draw_samples(p, m, t), eps).q_hat) >= opt - eps
        for t in range(40)
    )
    assert wins >= 36


def test_learner_accepts_immediately_when_mass_sits_at_one():
    # truth: half the mass at horizon 1 -> optimal play accepts the first arrival
    p = make_distribution(np.concatenate([[0.5], np.zeros(48), [0.5]]))
    opt = solve_optimal(p)
    assert opt.q[0] == 1.0
    hits = 0
    for t in range(30):
        out = learn_strategy(draw_samples(p, 2000, t), 0.1)
        hits += out.q_hat[0] == 1.0 and success_probability(p, out.q_hat) >= opt.value - 0.1
    assert hits >= 28


def test_sample_size_bound():
    assert sample_size_bound(0.5, 0.5, 1) == 50
    eps, d, T = 0.13, 0.2, 37
    m_tail = 18 / eps * math.log(50 * math.log(T) / (eps * d))
    m_conc = 1 / (2 * eps**2) * math.log(1200 / (eps**2 * d))
    assert sample_size_bound(eps, d, T) == math.ceil(max(m_tail, m_conc))
    # monotone: shrinking either tolerance can only demand more samples
    grid = [0.05, 0.1, 0.3, 0.7]
    for T in (1, 2, 50):
        for d in grid:
            ms = [sample_size_bound(e, d, T) for e in grid]
            assert all(a >= b for a, b in zip(ms, ms[1:]))
        for e in grid:
            ms = [sample_size_bound(e, d, T) for d in grid]
            assert all(a >= b for a, b in zip(ms, ms[1:]))
    with pytest.raises(ValidationError):
        sample_size_bound(0.0, 0.1, 5)
    with pytest.raises(ValidationError):
        sample_size_bound(0.1, 1.0, 5)


def test_hard_instance_values():
    p_plus, p_minus, s3 = hard_instance_lb(3, 0.05)
    assert abs(s3 - 1 / 7) < 1e-12
    assert abs(p_plus.probs[0] - (1 / 7 + 0.05)) < 1e-12
    assert abs(p_minus.probs[0] - (1 / 7 - 0.05)) < 1e-12
    assert p_plus.probs[1] == 0.0
    _, _, s200 = hard_instance_lb(200, 0.02)
    assert abs(s200 - 1 / (1 + math.e)) <= 0.01
    with pytest.raises(ValidationError):
        hard_instance_lb(2, 0.01)
    with pytest.raises(ValidationError):
        hard_instance_lb(3, 0.5)  # outside (0, min(s*, 1-s*))


def test_hard_instances_separate_strategies():
    n, eps = 50, 0.03
    p_plus, p_minus, _ = hard_instance_lb(n, eps)
    r_plus, r_minus = solve_optimal(p_plus), solve_optimal(p_minus)
    # the optimum of one side is badly suboptimal on the other
    assert success_probability(p_minus, make_strategy(r_plus.q)) < r_minus.value - eps / 3
    assert success_probability(p_plus, make_strategy(r_minus.q)) < r_plus.value - eps / 3


def test_learning_trials_two_phase():
    p = worst_case_pstar(30)
    m1, v1 = learning_trials(p, 0.25, 0.2, 2, 4)
    m2, v2 = learning_trials(p, 0.25, 0.2, 2, 4)
    assert np.array_equal(m1, m2) and np.array_equal(v1, v2)  # deterministic given the seed
    opt = solve_optimal(p).value
    assert np.all(opt - v1 <= 0.25)
    m_known, v_known = learning_trials(p, 0.25, 0.2, 1, 4, T=30)
    assert opt - v_known[0] <= 0.25
    # with T given the whole budget goes to the main phase
    assert m_known[0] == sample_size_bound(0.25, 0.2, 30)
    # a SeedSequence seeds the generator as its integer entropy does
    m_seq, v_seq = learning_trials(p, 0.25, 0.2, 2, np.random.SeedSequence(4))
    assert np.array_equal(m_seq, m1) and np.array_equal(v_seq, v1)


def test_learning_trials_rows_are_a_prefix_of_more_trials(monkeypatch):
    p = _zero_entries(1000, 8)
    for T in (None, p.n):
        m, value_hat = learning_trials(p, 0.2, 0.1, 100, 12, T=T)
        assert np.unique(m).size > (T is None)  # ragged sample counts without T
        width = _endpoints_until(1.05, p.n).size
        monkeypatch.setattr(learn, "_CHUNK_ELEMS", 3 * width)  # chunks of 3 trials
        for trials in (1, 10, 37):
            m_k, value_k = learning_trials(p, 0.2, 0.1, trials, 12, T=T)
            assert np.array_equal(m_k, m[:trials]) and np.array_equal(value_k, value_hat[:trials])
        monkeypatch.undo()


def test_learning_trials_block_counts_fit_the_block_probabilities(monkeypatch):
    # the counts each trial learns from, pooled over the trials, against the block
    # masses: a chi-square statistic within 5 standard deviations of its degrees of
    # freedom, and exactly 0 in every block of zero mass
    seen = []

    def record(counts, m, ends, length):
        seen.append(counts.copy())
        return _learn_blocks(counts, m, ends, length)

    monkeypatch.setattr(learn, "_learn_blocks", record)
    w = np.zeros(12)
    w[[0, 2, 5, 6]] = [0.3, 0.2, 0.45, 0.05]
    for p, eps in ((make_distribution(w), 0.05), (_zero_entries(1000, 6), 0.2),
                   (sample_dirichlet_uniform(300, 3), 0.5)):
        seen.clear()
        m, _ = learning_trials(p, eps, 0.1, 200, 21, T=p.n)
        counts = np.concatenate(seen, axis=1)
        assert np.array_equal(counts.sum(axis=0), m)
        ends = _endpoints_until(1.0 + eps / 4.0, p.n)
        mass = np.add.reduceat(p.probs, np.concatenate([[0], ends[:-1]]))
        pooled = counts.sum(axis=1)
        assert np.all(pooled[mass == 0.0] == 0)
        want = mass[mass > 0.0] * m.sum()
        chi2 = float(np.sum((pooled[mass > 0.0] - want) ** 2 / want))
        dof = np.count_nonzero(mass) - 1
        assert abs(chi2 - dof) <= 5 * math.sqrt(2 * dof), (p.n, eps, chi2, dof)


def test_learning_trials_hold_no_sample_sized_buffer():
    p = uniform(100)
    tracemalloc.start()
    try:
        m, _ = learning_trials(p, 0.01, 0.1, 20, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pre-estimate batch and the endpoints' powers, O(log(1/delta)/eps) each, set
    # the peak; sorting the m main uniforms held 8 m bytes
    assert m.min() > 9 * 10**4
    assert peak <= 8 * m.min() / 3, peak  # a third of one float64 vector of m


def test_learning_trials_hold_a_few_vectors_of_n_whatever_the_trial_count():
    # scored by runs, a chunk of trials holds no (trials x n) strategy or scoring buffer;
    # the law's cdf and the threshold values with their temporaries set the peak (13.2
    # and 16.6 vectors of n when each trial's 0/1 strategy was expanded and scanned)
    for trials in (5, 40):
        p = uniform(10**6)
        tracemalloc.start()
        try:
            learning_trials(p, 0.2, 0.1, trials, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8e6, (trials, peak)


def _zero_entries(n: int, seed: int):
    """Decaying weights with about 30% of the entries and the last tenth zero.

    The decay puts so little mass near the last positive entry that the
    largest sample differs between trials.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_exponential(n) * np.exp(-np.arange(n) / (n / 12))
    w[rng.random(n) < 0.3] = 0.0
    w[-(n // 10):] = 0.0
    return make_distribution(w)


def test_learning_trials_match_the_per_trial_loop(monkeypatch):
    # 5 truths x 4 epsilons x (T given, T pre-estimated) x 25 trials = 1000 trials,
    # in chunks of 1 or 7 columns, so that chunk boundaries fall inside a batch,
    # plus 2 x 3 trials on a flat Dirichlet draw over n = 10^5 at epsilon 0.2 and
    # on p ~ 1/i over n = 10^5 at epsilon 0.05, whose trials have dozens of runs
    small, n = (0.02, 0.05, 0.2, 0.9), 10**5
    truths = [(delta(1), small, 25), (make_distribution([0.3, 0.7]), small, 25),
              (sample_dirichlet_uniform(10, 5), small, 25), (_zero_entries(1000, 6), small, 25),
              (delta(40), small, 25), (sample_dirichlet_uniform(n, 7), (0.2,), 3),
              (make_distribution(1.0 / np.arange(1, n + 1)), (0.05,), 3)]
    rng = np.random.default_rng(29)
    case = 0
    for p, epsilons, trials in truths:
        for eps in epsilons:
            for T in (None, p.n):
                width = _endpoints_until(1.0 + eps / 4.0, p.n).size
                monkeypatch.setattr(learn, "_CHUNK_ELEMS", (1, 7)[case % 2] * width)
                case += 1
                seed = int(rng.integers(2**32))
                m, value_hat = learning_trials(p, eps, 0.1, trials, seed, T=T)
                want = learning_trial_loop(p, eps, 0.1, trials, seed, T=T)
                assert m.tolist() == [w[0] for w in want], (p.n, eps, T)
                assert value_hat.tolist() == [w[1] for w in want], (p.n, eps, T)


def _small_truth(rng: np.random.Generator):
    """A random law on n <= 50: a point mass, or weights with zero entries and a zero tail."""
    n = int(rng.integers(1, 51))
    if rng.random() < 0.25:
        w = np.zeros(n)
        w[rng.integers(n)] = 1.0  # delta(n), or a point mass before a zero tail
        return make_distribution(w)
    w = rng.standard_exponential(n)
    w[rng.random(n) < 0.3] = 0.0
    w[n - int(rng.integers(0, n // 2 + 1)) :] = 0.0
    w[rng.integers(n)] += 1e-3  # at least one positive weight
    return make_distribution(w)


def test_learning_trials_match_the_per_trial_loop_on_random_small_truths():
    # 200 laws x 50 trials = 10^4 trials; T pre-estimated, 1, n and above n in turn
    rng = np.random.default_rng(31)
    truths = [delta(1)] + [_small_truth(rng) for _ in range(199)]
    for case, p in enumerate(truths):
        eps = (0.3, 0.5, 0.9)[case % 3]
        T = (None, 1, p.n, p.n + int(rng.integers(1, 10**6)))[case % 4]
        seed = int(rng.integers(2**32))
        m, value_hat = learning_trials(p, eps, 0.1, 50, seed, T=T)
        want = learning_trial_loop(p, eps, 0.1, 50, seed, T=T)
        assert m.tolist() == [w[0] for w in want], (p.probs, eps, T)
        assert value_hat.tolist() == [w[1] for w in want], (p.probs, eps, T)


def _rules(starts, stops, length: int) -> np.ndarray:
    """The (trials, length) 0/1 strategies of the block core's runs, once the runs check out.

    A row's runs ascend, each pair apart by at least one rejected index, after
    the no-op runs [2, 1].
    """
    assert starts.shape == stops.shape and starts.shape[1] >= 1
    q = np.zeros((starts.shape[0], length))
    for r, row in enumerate(zip(starts.tolist(), stops.tolist())):
        runs = [(s, e) for s, e in zip(*row) if s <= e]
        assert all((s, e) == (2, 1) for s, e in zip(*row) if s > e), row
        assert all(1 <= s and e <= length for s, e in runs), runs
        assert all(e + 1 < s for (_, e), (s, _) in zip(runs, runs[1:])), runs
        for s, e in runs:
            q[r, s - 1 : e] = 1.0
    return q


def test_block_core_matches_the_scalar_solve():
    rng = np.random.default_rng(30)
    for rho, n, rows in ((2.0, 1, 1), (1.5, 2, 5), (1.05, 300, 9), (1.005, 3000, 4), (3.0, 5000, 3)):
        ends = _endpoints_until(rho, n)
        counts = rng.integers(0, 4, size=(ends.size, rows)).astype(float)
        counts[rng.random(counts.shape) < 0.3] = 0.0
        for r in range(rows):  # empty trailing blocks past each trial's largest sample
            last = int(rng.integers(ends.size))
            counts[last + 1 :, r] = 0.0
            counts[last, r] += 1.0
        length = max(1, int(ends[-1]) - int(rng.integers(3)))  # learning_trials cuts at p.n
        lam, starts, stops = _learn_blocks(counts, counts.sum(axis=0).astype(np.int64), ends, length)
        q = _rules(starts, stops, length)
        for r in range(rows):
            gains = np.arange(1, ends[-1] + 1) * np.repeat(lam[:, r], np.diff(ends, prepend=0))
            assert np.array_equal(q[r], backward_induction(gains)[0][:length]), (rho, n, r)
    # samples all at 2: G = [1/2, 1] and C_2 = 1/2, so index 1 ties and accepts
    out = learn_strategy(np.full(5, 2), 0.5)
    assert np.array_equal(out.G, [0.5, 1.0]) and np.array_equal(out.q_hat, [1.0, 1.0])


def test_block_core_matches_the_block_loop():
    # lam and q bit for bit against one numpy step per block, on random count
    # matrices and on alternating empty and non-empty blocks, where the runs at
    # ratios 1.2 and 2 number about half the blocks
    rng = np.random.default_rng(32)
    for rho, n in ((2.0, 1), (1.5, 2), (1.005, 3000), (1.0125, 1000), (1.05, 300), (1.2, 3000),
                   (2.0, 10**5)):
        ends = _endpoints_until(rho, n)
        for alternate in (False, True):
            counts = rng.integers(alternate, 5, size=(ends.size, 20)).astype(float)
            if alternate:
                counts[1::2] = 0.0
            for r in range(20):  # half the trials with empty trailing blocks
                last = ends.size - 1 if r % 2 else int(rng.integers(ends.size))
                counts[last + 1 :, r] = 0.0
                counts[last, r] += 1.0
            m = counts.sum(axis=0).astype(np.int64)
            length = max(1, int(ends[-1]) - int(rng.integers(3)))
            lam, starts, stops = _learn_blocks(counts, m, ends, length)
            q = _rules(starts, stops, length)
            want_lam, want_q = learn_blocks_loop(counts, m, ends, length)
            assert np.array_equal(lam, want_lam) and np.array_equal(q, want_q), (rho, n, alternate)
            if alternate and rho >= 1.2:
                runs = 1 + np.count_nonzero(np.diff(q[1::2], axis=1), axis=1)
                assert runs.mean() >= ends.size / 3, (rho, n, runs)
    # one chunk of uniform(100) at epsilon 0.2: 4000 columns whose largest samples
    # sit in different blocks
    ends = _endpoints_until(1.05, 100)
    counts = rng.multinomial(200, np.diff(ends, prepend=0) / 100, size=4000).T.astype(float)
    last = rng.integers(ends.size, size=4000)
    counts[np.arange(ends.size)[:, None] > last] = 0.0
    counts[last, np.arange(4000)] += 1.0
    assert np.unique(last).size == ends.size
    # one column with every other block empty, the shape of learn_strategy with many runs
    ends_one = _endpoints_until(1.2, 3000)
    one = rng.integers(1, 5, size=(ends_one.size, 1)).astype(float)
    one[1::2] = 0.0
    for counts, ends in ((counts, ends), (one, ends_one)):
        m = counts.sum(axis=0).astype(np.int64)
        lam, starts, stops = _learn_blocks(counts, m, ends, int(ends[-1]))
        q = _rules(starts, stops, int(ends[-1]))
        want_lam, want_q = learn_blocks_loop(counts, m, ends, int(ends[-1]))
        assert np.array_equal(lam, want_lam) and np.array_equal(q, want_q), counts.shape
    assert 1 + np.count_nonzero(np.diff(q[0])) >= ends.size / 3


def test_a_count_matrix_that_does_not_sum_to_its_m_is_a_bug_not_bad_input():
    ends = _endpoints_until(2.0, 8)
    counts = np.array([[1.0], [0.0], [2.0], [1.0]])
    with pytest.raises(AssertionError, match="sum to 1"):
        _learn_blocks(counts, np.array([5]), ends, 8)


def test_an_oversized_sample_count_is_reported_before_the_endpoints():
    # at epsilon 1e-7 the endpoint count of uniform(40) is past the cap too
    for T in (None, 10):
        with pytest.raises(ValidationError, match="^sample count [0-9]+ exceeds the cap"):
            learning_trials(uniform(40), 1e-7, 0.1, 1, 0, T=T)
