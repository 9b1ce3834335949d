import math
import tracemalloc

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
    make_distribution,
    make_strategy,
    minimax_mixture,
    minimax_mixture_expected_bound,
    mixture_success_probability,
    sample_dirichlet_uniform,
    single_threshold,
    solve_optimal,
    success_probability,
    uniform,
    worst_case_pstar,
)

from oracles import bi_exact, classical_cutoff_loop, exhaustive_value_optimum, perm_threshold_scan


def test_solve_optimal_examples():
    r = solve_optimal(delta(4))
    assert np.array_equal(r.q, [0, 1, 1, 1])
    assert abs(r.value - 11 / 24) < 1e-12
    r1 = solve_optimal(delta(1))
    assert np.array_equal(r1.q, [1.0]) and r1.value == 1.0
    for n in (2, 3, 10, 25):
        assert abs(solve_optimal(worst_case_pstar(n)).value - 1 / harmonic(n)) < 1e-12


def test_solve_result_recursion_invariants():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, 80))
        p = sample_dirichlet_uniform(n, rng)
        r = solve_optimal(p)
        gains = np.arange(1, n + 1) * lambda_sequence(p)
        _, c = backward_induction(gains)
        q = r.q
        assert c[-1] == 0.0
        assert r.value == c[0]
        for i in range(1, n + 1):
            expect = (q[i - 1] / i) * gains[i - 1] + (1 - q[i - 1] / i) * c[i]
            assert abs(c[i - 1] - expect) < 1e-12
            assert q[i - 1] == (1.0 if gains[i - 1] >= c[i] else 0.0)
        assert abs(success_probability(p, make_strategy(q)) - r.value) < 1e-12


def test_solve_optimal_matches_exhaustive_search():
    rng = np.random.default_rng(14)
    for _ in range(8):
        n = int(rng.integers(1, 13))
        p = sample_dirichlet_uniform(n, rng)
        assert abs(solve_optimal(p).value - exhaustive_value_optimum(p)) < 1e-12


def test_delta_optimum_is_single_threshold():
    for n in range(1, 10):
        q = solve_optimal(delta(n)).q
        ones = np.flatnonzero(q)
        assert ones.size > 0 and np.array_equal(ones, np.arange(ones[0], n))


def test_theta_examples():
    for n in (1, 4, 9):
        t = solve_optimal(delta(n))
        assert t.theta == 1.0 and t.k_star == n
    t = solve_optimal(worst_case_pstar(3))
    assert abs(t.theta - 6 / 11) < 1e-12 and t.k_star == 1
    t1 = solve_optimal(make_distribution([1.0]))
    assert t1.theta == 1.0 and t1.k_star == 1


def test_single_threshold_approx():
    s = solve_optimal(delta(10))
    assert s.cutoff == 4 and 1 / math.e <= s.threshold_value <= 1.0
    h5 = harmonic(5)
    v = solve_optimal(worst_case_pstar(5)).threshold_value
    assert (1 / h5) / math.e - 1e-12 <= v <= 1 / h5 + 1e-12
    s = solve_optimal(delta(1))
    assert s.cutoff == 1 and s.threshold_value == 1.0


def test_sandwich_on_random_distributions():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(1, 150))
        p = sample_dirichlet_uniform(n, rng)
        s = solve_optimal(p)
        assert s.cutoff == classical_cutoff(s.k_star)
        v = success_probability(p, single_threshold(s.cutoff, n))
        assert abs(s.threshold_value - v) < 1e-12
        assert s.theta / math.e <= v + 1e-12
        assert v <= s.value + 1e-12
        assert s.value <= s.theta + 1e-12


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
    assert np.allclose(minimax_mixture(2), [0.5, 0.5], atol=1e-15)
    assert np.allclose(minimax_mixture(3), [0.4, 0.4, 0.2], atol=1e-15)
    assert np.array_equal(minimax_mixture(1), [1.0])
    with pytest.raises(ValidationError):
        minimax_mixture(0)


def test_minimax_mixture_builds_its_weights_in_one_vector():
    tracemalloc.start()
    try:
        w = minimax_mixture(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MB weights and the 8 MB divisor range, not also a quotient and a normalized copy
    assert peak <= 17e6, peak
    assert not w.flags.writeable and abs(w.sum() - 1.0) <= 1e-12


def test_minimax_exact_equality():
    rng = np.random.default_rng(17)
    for n_bar in (1, 2, 3, 8, 40):
        mix = minimax_mixture(n_bar)
        want = 1.0 / (1.0 + harmonic(n_bar - 1))
        for _ in range(30):
            p = sample_dirichlet_uniform(n_bar, rng)
            assert abs(mixture_success_probability(p, mix) - want) <= 1e-12


def test_minimax_expected_bound():
    assert np.allclose(minimax_mixture_expected_bound(math.e), [0.4, 0.4, 0.2], atol=1e-15)
    assert minimax_mixture_expected_bound(10.0).size == 24
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


# ulps of C_i by which backward_induction may miss exact arithmetic at n <= 80 (4 is the most seen)
BI_ULPS = 16


def test_backward_induction_by_runs_is_within_its_ulp_budget_of_exact_arithmetic():
    rng = np.random.default_rng(19)

    def tied(n):
        # g_i = C_{i+1} at every i < n in the scalar recursion's rounding: near-ties everywhere
        g, cont = np.empty(n), 0.0
        for i in range(n, 0, -1):
            g[i - 1] = cont if i < n else 1.0
            cont = g[i - 1] / i + (1.0 - 1.0 / i) * cont
        return g

    for n in [1, 2, 3, *rng.integers(4, 81, size=150)]:
        n = int(n)
        w = rng.random(n)
        w[rng.random(n) < 0.4] = 0.0  # zero entries, the last ones too
        w[int(rng.integers(n))] = 1.0
        p = make_distribution(w / w.sum())
        # large negative gains are always rejected and must not swamp the suffix sums
        negative = np.where(rng.random(n) < 0.5, -1e6, 1.0) * rng.random(n)
        for gains in (rng.random(n), tied(n), np.zeros(n), np.full(n, 0.3), negative,
                      np.arange(1, n + 1) * lambda_sequence(p)):
            q, c = backward_induction(gains)
            q_exact, c_exact = bi_exact(gains)
            budget = [BI_ULPS * math.ulp(float(x)) for x in c_exact]
            assert all(abs(float(x) - e) <= b for x, e, b in zip(c, c_exact, budget)), (n, gains)
            margin = [abs(gains[i] - c_exact[i + 1]) for i in range(n)]
            assert all(q[i] == q_exact[i] for i in range(n) if margin[i] > budget[i + 1]), n


def test_backward_induction_refuses_gains_it_cannot_order():
    for bad in ([0.5, math.nan], [math.inf, 0.0], np.ones((2, 2))):
        with pytest.raises(ValidationError, match="gains must be a finite 1-D vector"):
            backward_induction(bad)
    q, c = backward_induction([])
    assert q.size == 0 and np.array_equal(c, [0.0])


@pytest.mark.parametrize("n", [10**3, 10**5, 10**6])
def test_the_optimum_on_a_point_mass_is_within_64_ulps_of_an_exact_sum(n):
    # a per-index scalar recursion drifts 1.1e5 ulps low at n = 10^6, below the threshold value
    r = solve_optimal(delta(n))
    l = r.cutoff
    assert np.array_equal(r.q, single_threshold(l, n))
    want = (l - 1) / n * math.fsum(1.0 / np.arange(l - 1, n))
    assert abs(r.value - want) <= 64 * math.ulp(want), (r.value, want)


def test_solve_optimal_keeps_its_peak_memory():
    p = uniform(3 * 10**5)
    solve_optimal(p)  # warm
    tracemalloc.start()
    try:
        solve_optimal(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.4 MB vectors: the suffix sums live in the vector that becomes q, and C is freed before
    # the threshold rule's temporaries, where the peak is (14.5 MB; 16.9 MB with C held)
    assert peak <= 15e6, peak


def test_classical_cutoff_matches_the_loop():
    for k in [*range(1, 3001), 12345, 40601, 100_000, 300_000, 1_000_000]:
        assert classical_cutoff(k) == classical_cutoff_loop(k), k
