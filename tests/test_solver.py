import math

import numpy as np
import pytest

from randhorizon import (
    ValidationError,
    backward_induction,
    best_single_threshold,
    classical_cutoff,
    delta,
    harmonic,
    lambda_sequence,
    make_strategy,
    minimax_mixture,
    minimax_mixture_expected_bound,
    mixture_success_probability,
    sample_dirichlet_uniform,
    single_threshold,
    single_threshold_approx,
    solve_optimal,
    success_probability,
    theta,
    uniform,
    worst_case_pstar,
)

from randhorizon import solver

from oracles import bi_loop, classical_cutoff_loop, exhaustive_value_optimum, perm_threshold_scan


def test_solve_optimal_examples():
    r = solve_optimal(delta(4))
    assert np.array_equal(r.q_opt.q, [0, 1, 1, 1])
    assert abs(r.value - 11 / 24) < 1e-12
    r1 = solve_optimal(delta(1))
    assert np.array_equal(r1.q_opt.q, [1.0]) and r1.value == 1.0
    for n in (2, 3, 10, 25):
        assert abs(solve_optimal(worst_case_pstar(n)).value - 1 / harmonic(n)) < 1e-12


def test_solve_result_recursion_invariants():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, 80))
        p = sample_dirichlet_uniform(n, rng)
        r = solve_optimal(p)
        c, q = r.continuation, r.q_opt.q
        gains = np.arange(1, n + 1) * lambda_sequence(p)
        assert c[-1] == 0.0
        assert r.value == c[0]
        for i in range(1, n + 1):
            expect = (q[i - 1] / i) * gains[i - 1] + (1 - q[i - 1] / i) * c[i]
            assert abs(c[i - 1] - expect) < 1e-12
            assert q[i - 1] == (1.0 if gains[i - 1] >= c[i] else 0.0)
        assert abs(success_probability(p, r.q_opt) - r.value) < 1e-12


def test_solve_optimal_matches_exhaustive_search():
    rng = np.random.default_rng(14)
    for _ in range(8):
        n = int(rng.integers(1, 13))
        p = sample_dirichlet_uniform(n, rng)
        assert abs(solve_optimal(p).value - exhaustive_value_optimum(p)) < 1e-12


def test_delta_optimum_is_single_threshold():
    for n in range(1, 10):
        q = solve_optimal(delta(n)).q_opt.q
        ones = np.flatnonzero(q)
        assert ones.size > 0 and np.array_equal(ones, np.arange(ones[0], n))


def test_theta_examples():
    for n in (1, 4, 9):
        t = theta(delta(n))
        assert t.theta == 1.0 and t.k_star == n
    t = theta(worst_case_pstar(3))
    assert abs(t.theta - 6 / 11) < 1e-12 and t.k_star == 1
    t1 = theta(make_strategy_dist_single())
    assert t1.theta == 1.0 and t1.k_star == 1


def make_strategy_dist_single():
    from randhorizon import make_distribution

    return make_distribution([1.0])


def test_single_threshold_approx():
    q, v = single_threshold_approx(delta(10))
    assert 1 / math.e <= v <= 1.0
    q, v = single_threshold_approx(worst_case_pstar(5))
    h5 = harmonic(5)
    assert (1 / h5) / math.e - 1e-12 <= v <= 1 / h5 + 1e-12
    q, v = single_threshold_approx(delta(1))
    assert np.array_equal(q.q, [1.0]) and v == 1.0


def test_sandwich_on_random_distributions():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(1, 150))
        p = sample_dirichlet_uniform(n, rng)
        t = theta(p)
        _, v = single_threshold_approx(p)
        opt = solve_optimal(p).value
        assert t.theta / math.e <= v + 1e-12
        assert v <= opt + 1e-12
        assert opt <= t.theta + 1e-12


def test_best_single_threshold():
    scan_l, scan_v = perm_threshold_scan(3)
    assert best_single_threshold(delta(3)) == (scan_l, pytest.approx(scan_v, abs=1e-12))
    assert best_single_threshold(delta(1)) == (1, 1.0)
    l, v = best_single_threshold(uniform(1000))
    assert abs(v - 2 / math.e**2) <= 0.01
    assert abs(l - math.ceil(1000 / math.e**2)) <= 2


def test_best_single_threshold_is_argmax():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        p = sample_dirichlet_uniform(n, rng)
        l, v = best_single_threshold(p)
        values = [success_probability(p, single_threshold(k, n)) for k in range(1, n + 2)]
        assert abs(v - max(values)) < 1e-12
        assert l == int(np.argmax(values)) + 1


def test_minimax_mixture_examples():
    assert np.allclose(minimax_mixture(2).weights, [0.5, 0.5], atol=1e-15)
    assert np.allclose(minimax_mixture(3).weights, [0.4, 0.4, 0.2], atol=1e-15)
    assert np.array_equal(minimax_mixture(1).weights, [1.0])
    with pytest.raises(ValidationError):
        minimax_mixture(0)


def test_minimax_exact_equality():
    rng = np.random.default_rng(17)
    for n_bar in (1, 2, 3, 8, 40):
        mix = minimax_mixture(n_bar)
        want = 1.0 / (1.0 + harmonic(n_bar - 1))
        for _ in range(30):
            p = sample_dirichlet_uniform(n_bar, rng)
            assert abs(mixture_success_probability(p, mix) - want) <= 1e-12


def test_minimax_expected_bound():
    assert np.allclose(minimax_mixture_expected_bound(math.e).weights, [0.4, 0.4, 0.2], atol=1e-15)
    assert minimax_mixture_expected_bound(10.0).weights.size == 24
    with pytest.raises(ValidationError):
        minimax_mixture_expected_bound(1.0)
    # pre-asymptotic guarantee at a point mass with mean floor(mu)
    for mu in (math.e, 5.0, 10.0, 30.0):
        n = math.ceil(mu * math.log(mu))
        mix = minimax_mixture_expected_bound(mu)
        value = mixture_success_probability(delta(int(mu)), mix)
        bound = (1.0 - mu / n) / (2.0 + math.log(n - 1))
        assert value >= bound - 1e-12


def test_pstar_tightness():
    rng = np.random.default_rng(18)
    for n in (2, 5, 20):
        p = worst_case_pstar(n)
        cap = 1.0 / harmonic(n)
        for _ in range(50):
            q = make_strategy(rng.random(n))
            assert success_probability(p, q) <= cap + 1e-12
        assert abs(success_probability(p, single_threshold(1, n)) - cap) < 1e-12


def test_backward_induction_ties_accept():
    # constant gain equal to the continuation value: ties resolve to accepting
    q, c = backward_induction(np.zeros(4))
    assert np.array_equal(q, np.ones(4)) and c[0] == 0.0


def test_blocked_backward_induction_matches_the_loop(monkeypatch):
    rng = np.random.default_rng(19)

    def tied(n):
        # g_i = C_{i+1} at every i < n: each step is an exact tie, taken as accept
        g, cont = np.empty(n), 0.0
        for i in range(n, 0, -1):
            g[i - 1] = cont if i < n else 1.0
            cont = g[i - 1] / i + (1.0 - 1.0 / i) * cont
        return g

    def check(n):
        p = sample_dirichlet_uniform(n, rng)
        for gains in (
            rng.random(n),
            np.full(n, 0.3),
            np.zeros(n),
            tied(n),
            np.arange(1, n + 1) * lambda_sequence(p),
        ):
            q, c = backward_induction(gains)
            q_ref, c_ref = bi_loop(gains)
            assert np.array_equal(q, q_ref) and np.array_equal(c, c_ref), n

    check(2 * solver._BI_BLOCK + 5)
    block = 7
    monkeypatch.setattr(solver, "_BI_BLOCK", block)
    for n in (1, block - 1, block, block + 1, 2 * block + 1):
        check(n)


def test_classical_cutoff_matches_the_loop():
    for k in [*range(1, 3001), 12345, 40601, 100_000, 300_000, 1_000_000]:
        assert classical_cutoff(k) == classical_cutoff_loop(k), k
