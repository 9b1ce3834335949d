import math

import numpy as np
import pytest

from randhorizon import (
    SampleBatch,
    ValidationError,
    block_distribution,
    block_indices,
    delta,
    draw_samples,
    hard_instance_lb,
    lambda_sequence,
    learn_strategy,
    learning_trial,
    make_distribution,
    make_strategy,
    sample_dirichlet_uniform,
    sample_size_bound,
    solve_optimal,
    success_probability,
    uniform,
    worst_case_pstar,
)
from randhorizon.learn import _endpoints_until


def test_block_indices_examples():
    assert np.array_equal(block_indices(2.0, 10).indices, [1, 2, 4, 8])
    assert np.array_equal(block_indices(1.5, 6).indices, [1, 2, 3, 4, 6])
    with pytest.raises(ValidationError):
        block_indices(1.0, 10)
    with pytest.raises(ValidationError):
        block_indices(2.0, 0)


def test_block_indices_ratio_bounds():
    rng = np.random.default_rng(21)
    for _ in range(40):
        rho = 1.05 + float(rng.random()) * 3.0
        idx = block_indices(rho, int(rng.integers(1, 2000))).indices
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
        u_prev = np.concatenate([[1.0], np.cumprod(1.0 - q.q / np.arange(1, n + 1))])[:-1]
        surrogate = float(np.sum(u_prev * (q.q / np.arange(1, n + 1)) * g))
        assert abs(success_probability(p, q) - surrogate) <= err + 1e-12


def test_draw_samples():
    assert np.all(draw_samples(delta(5), 10, 0).samples == 5)
    batch = draw_samples(make_distribution([0.5, 0.5]), 100_000, 3)
    freq = np.mean(batch.samples == 1)
    assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / 100_000)
    a = draw_samples(uniform(9), 50, 11).samples
    b = draw_samples(uniform(9), 50, 11).samples
    assert np.array_equal(a, b)
    with pytest.raises(ValidationError):
        draw_samples(delta(2), 0, 1)


def test_learn_strategy_degenerate_batch():
    out = learn_strategy(SampleBatch(samples=np.ones(7, dtype=int), m=7), 0.5)
    assert out.N_max == 1
    assert np.array_equal(out.G, [1.0])
    assert np.array_equal(out.q_hat.q, [1.0])
    assert success_probability(delta(1), out.q_hat) == 1.0


def test_learn_strategy_validation():
    with pytest.raises(ValidationError):
        learn_strategy(SampleBatch(samples=np.array([1, 2]), m=2), 0.0)
    with pytest.raises(ValidationError):
        learn_strategy(SampleBatch(samples=np.array([1, 2]), m=2), 1.5)
    with pytest.raises(ValidationError):
        SampleBatch(samples=np.array([], dtype=int), m=0)


def test_learn_output_block_structure():
    # gains are linear in i within each block: G_i = (i / end) * G_end
    batch = draw_samples(uniform(60), 500, 5)
    out = learn_strategy(batch, 0.3)
    ends = _endpoints_until(1.0 + 0.3 / 4.0, int(batch.samples.max()))
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
        batch = draw_samples(p, m, rng)
        out = learn_strategy(batch, eps)
        for j, e in enumerate(ends):
            e = int(e)
            sums[j] += out.G[e - 1] if e <= out.N_max else 0.0
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
    assert opt.q_opt.q[0] == 1.0
    hits = 0
    for t in range(30):
        out = learn_strategy(draw_samples(p, 2000, t), 0.1)
        hits += out.q_hat.q[0] == 1.0 and success_probability(p, out.q_hat) >= opt.value - 0.1
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
    assert success_probability(p_minus, r_plus.q_opt) < r_minus.value - eps / 3
    assert success_probability(p_plus, r_minus.q_opt) < r_plus.value - eps / 3


def test_learning_trial_two_phase():
    p = worst_case_pstar(30)
    res1 = learning_trial(p, 0.25, 0.2, seed=4)
    res2 = learning_trial(p, 0.25, 0.2, seed=4)
    assert res1 == res2  # deterministic given seed
    assert res1.gap <= 0.25
    res_known = learning_trial(p, 0.25, 0.2, seed=4, T=30)
    assert res_known.value_opt == res1.value_opt
    assert res_known.gap <= 0.25
